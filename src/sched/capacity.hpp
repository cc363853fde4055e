// Simplified Hadoop Capacity scheduler with preemption (§II).
//
// The cluster's map slots are divided among named queues, each with a
// guaranteed capacity (a fraction of the slots). Queues may borrow idle
// capacity elastically; when a queue with demand sits below its guarantee
// longer than the preemption timeout, tasks of over-capacity queues are
// preempted with the configured primitive to reclaim the borrowed slots —
// the second of the two stock Hadoop schedulers the paper names as
// preemption consumers.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "policy/policy.hpp"
#include "preempt/eviction.hpp"
#include "preempt/preemptor.hpp"
#include "preempt/resume_locality.hpp"
#include "hadoop/scheduler.hpp"

namespace osap {

class CapacityScheduler : public Scheduler {
 public:
  struct QueueConfig {
    std::string name;
    /// Guaranteed fraction of the cluster's map slots, in (0,1].
    double capacity = 0.5;
    /// Per-queue preemption mode (docs/POLICY.md): how tasks *of this
    /// queue* are evicted when another queue reclaims its guarantee —
    /// SLURM keys PreemptMode on the preempted partition the same way.
    /// Any spelling in policy::kDecisionSpellings; "" inherits the
    /// scheduler-wide `primitive` (or the engine default when `policy`
    /// is set).
    std::string preempt;
  };
  struct Options {
    int cluster_map_slots = 2;
    std::vector<QueueConfig> queues;
    Duration preemption_timeout = seconds(15);
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::LastLaunched;
    Duration resume_locality_threshold = seconds(30);
    /// Explicit policy engine; per-queue `preempt=` attributes are
    /// merged on top of it. Left empty, an engine is still built when
    /// any queue sets `preempt=` (default = `primitive`).
    std::optional<policy::PolicyOptions> policy;
  };

  explicit CapacityScheduler(Options options);

  std::vector<TaskId> assign(const TrackerStatus& status) override;
  void job_added(JobId id) override;

  /// Accepted preemption orders that changed a task; Wait orders leave
  /// their victim running and are not counted.
  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }
  /// Guaranteed whole slots of a queue (floor of fraction * slots, >= 1).
  [[nodiscard]] int guaranteed_slots(const std::string& queue) const;
  /// Live tasks currently charged to a queue.
  [[nodiscard]] int used_slots(const std::string& queue) const;

 private:
  void attached() override;
  [[nodiscard]] const std::string& queue_of(JobId id) const;
  [[nodiscard]] bool queue_has_demand(const std::string& queue) const;
  void check_guarantees();
  /// Issue one order for `victim`; true when the JobTracker accepted it.
  bool issue_preemption(TaskId victim);

  Options options_;
  std::optional<Preemptor> preemptor_;
  std::optional<ResumeLocalityPolicy> resume_policy_;
  std::optional<policy::PreemptionPolicy> policy_engine_;
  std::unordered_map<std::string, SimTime> satisfied_at_;
  int preemptions_ = 0;
};

}  // namespace osap
