#include "sched/factory.hpp"

#include <utility>

#include "common/error.hpp"
#include "sched/deadline.hpp"
#include "sched/fair.hpp"
#include "sched/fifo.hpp"
#include "sched/hfsp.hpp"

namespace osap {

namespace {

template <class Preemptive>
typename Preemptive::Options options_for(PreemptPrimitive primitive,
                                         const std::optional<policy::PolicyOptions>& policy) {
  typename Preemptive::Options options;
  options.primitive = primitive;
  options.policy = policy;
  return options;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& name, PreemptPrimitive primitive,
                                          const std::optional<policy::PolicyOptions>& policy,
                                          std::vector<CapacityScheduler::QueueConfig> queues) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "hfsp") {
    return std::make_unique<HfspScheduler>(options_for<HfspScheduler>(primitive, policy));
  }
  if (name == "fair") {
    return std::make_unique<FairScheduler>(options_for<FairScheduler>(primitive, policy));
  }
  if (name == "deadline") {
    return std::make_unique<DeadlineScheduler>(options_for<DeadlineScheduler>(primitive, policy));
  }
  if (name == "capacity") {
    CapacityScheduler::Options options = options_for<CapacityScheduler>(primitive, policy);
    options.queues = std::move(queues);
    return std::make_unique<CapacityScheduler>(std::move(options));
  }
  throw SimError("unknown scheduler '" + name + "' (fifo|fair|hfsp|capacity|deadline)");
}

}  // namespace osap
