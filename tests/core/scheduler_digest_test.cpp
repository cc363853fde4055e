// Golden digests for every scheduler through the descriptor facade.
//
// The GoldenDigest constants pin FIFO, Dummy and HFSP workloads built by
// hand. These pin the trace workload as `osapd` runs it: every
// scheduler crossed with every primitive, with the policy engine off
// and lifted from the primitive, plus Capacity with two queues whose
// own `preempt=` rules decide. A refactor of the scheduler or policy
// layers must keep every digest and event count. Regenerate only for an
// intentional model change: a mismatch prints the cell and the digest
// it produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/run.hpp"

namespace osap::core {
namespace {

/// Small enough to run in milliseconds, loaded enough that every
/// preemptive scheduler issues orders: half the jobs carry 2 GiB of
/// state and every job has a deadline.
constexpr const char* kBase =
    "workload=trace;jobs=24;nodes=4;seed=1;stateful=0.5;state=2GiB;deadline_factor=60";

struct Pin {
  const char* primitive;
  const char* policy;
  std::uint64_t digest;
  std::uint64_t events;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Runs `scheduler` (descriptor items) against every pin. With
/// `preempts`, each policy=primitive cell must also have issued an
/// order, so the pin covers a preemption path.
void check(const std::string& scheduler, const std::vector<Pin>& pins, bool preempts) {
  ASSERT_EQ(pins.size(), 8u);
  for (const Pin& pin : pins) {
    const std::string text = std::string(kBase) + ";" + scheduler + ";primitive=" +
                             pin.primitive + ";policy=" + pin.policy;
    const ResultRecord rec = run_descriptor(RunDescriptor::parse(text));
    ASSERT_TRUE(rec.ok) << text << ": " << rec.error;
    EXPECT_EQ(hex(rec.trace_digest), hex(pin.digest)) << text;
    EXPECT_EQ(rec.events, pin.events) << text;
    if (preempts && std::string(pin.policy) == "primitive") {
      std::uint64_t decisions = 0;
      for (const auto& [name, value] : rec.counters) {
        if (name == "policy.decisions") decisions = value;
      }
      EXPECT_GT(decisions, 0u) << text;
    }
  }
}

TEST(SchedulerDigest, Fifo) {
  check("scheduler=fifo",
        {{"wait", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"wait", "primitive", 0x6e23ec15d110a8f8ull, 4478},
         {"kill", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"kill", "primitive", 0x6e23ec15d110a8f8ull, 4478},
         {"susp", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"susp", "primitive", 0x6e23ec15d110a8f8ull, 4478},
         {"natjam", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"natjam", "primitive", 0x6e23ec15d110a8f8ull, 4478}},
        false);
}

TEST(SchedulerDigest, Fair) {
  // susp differs between the arms: policy=primitive probes swap
  // pressure and demotes suspends on swapping nodes to kills.
  check("scheduler=fair",
        {{"wait", "off", 0xd5c1a16ed98384c4ull, 4556},
         {"wait", "primitive", 0xd5c1a16ed98384c4ull, 4556},
         {"kill", "off", 0x2beac9163a9d84c2ull, 6286},
         {"kill", "primitive", 0x2beac9163a9d84c2ull, 6286},
         {"susp", "off", 0x2290f9ad243997bcull, 9786},
         {"susp", "primitive", 0xfb829cf2664107d1ull, 9000},
         {"natjam", "off", 0x579f345c07ce54d6ull, 14025},
         {"natjam", "primitive", 0x579f345c07ce54d6ull, 14025}},
        true);
}

TEST(SchedulerDigest, CapacityOneQueue) {
  // One queue owns the whole cluster, so there is never a donor: the
  // stream equals FIFO's.
  check("scheduler=capacity",
        {{"wait", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"wait", "primitive", 0x6e23ec15d110a8f8ull, 4478},
         {"kill", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"kill", "primitive", 0x6e23ec15d110a8f8ull, 4478},
         {"susp", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"susp", "primitive", 0x6e23ec15d110a8f8ull, 4478},
         {"natjam", "off", 0x6e23ec15d110a8f8ull, 4478},
         {"natjam", "primitive", 0x6e23ec15d110a8f8ull, 4478}},
        false);
}

TEST(SchedulerDigest, CapacityQueueRules) {
  // Both queues carry a `preempt=` rule, so the primitive axis decides
  // nothing and every arm replays one stream.
  check("scheduler=capacity;queues=prod:0.5:susp|research:0.5:kill",
        {{"wait", "off", 0xab03819f7d5d3715ull, 4745},
         {"wait", "primitive", 0xab03819f7d5d3715ull, 4745},
         {"kill", "off", 0xab03819f7d5d3715ull, 4745},
         {"kill", "primitive", 0xab03819f7d5d3715ull, 4745},
         {"susp", "off", 0xab03819f7d5d3715ull, 4745},
         {"susp", "primitive", 0xab03819f7d5d3715ull, 4745},
         {"natjam", "off", 0xab03819f7d5d3715ull, 4745},
         {"natjam", "primitive", 0xab03819f7d5d3715ull, 4745}},
        true);
}

TEST(SchedulerDigest, Hfsp) {
  check("scheduler=hfsp",
        {{"wait", "off", 0x7baa3a2893c4bd5bull, 4465},
         {"wait", "primitive", 0x7baa3a2893c4bd5bull, 4465},
         {"kill", "off", 0x714f4e6b823074e2ull, 4624},
         {"kill", "primitive", 0x714f4e6b823074e2ull, 4624},
         {"susp", "off", 0x5cd3db044e973621ull, 4289},
         {"susp", "primitive", 0x5cd3db044e973621ull, 4289},
         {"natjam", "off", 0xc4ca4ddd55f323a1ull, 4551},
         {"natjam", "primitive", 0xc4ca4ddd55f323a1ull, 4551}},
        true);
}

TEST(SchedulerDigest, Deadline) {
  check("scheduler=deadline",
        {{"wait", "off", 0xb9bc802cd1e919b8ull, 4517},
         {"wait", "primitive", 0xb9bc802cd1e919b8ull, 4517},
         {"kill", "off", 0x7969938fd90e7b5aull, 7055},
         {"kill", "primitive", 0x7969938fd90e7b5aull, 7055},
         {"susp", "off", 0x02b5b50f1d46d815ull, 5084},
         {"susp", "primitive", 0x02b5b50f1d46d815ull, 5084},
         {"natjam", "off", 0xcea8c6ef884d1869ull, 9794},
         {"natjam", "primitive", 0xcea8c6ef884d1869ull, 9794}},
        true);
}

}  // namespace
}  // namespace osap::core
