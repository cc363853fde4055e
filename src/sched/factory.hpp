// Schedulers by name: the one table every front end builds from (the
// trace workload of the descriptor facade and `osap trace`).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hadoop/scheduler.hpp"
#include "policy/policy.hpp"
#include "sched/capacity.hpp"

namespace osap {

/// The named scheduler (fifo|fair|hfsp|capacity|deadline) with its
/// default options, preempting with `primitive` (or through `policy`
/// when given). `queues` configures capacity only. Throws SimError for
/// an unknown name.
std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name, PreemptPrimitive primitive,
    const std::optional<policy::PolicyOptions>& policy = std::nullopt,
    std::vector<CapacityScheduler::QueueConfig> queues = {{"default", 1.0}});

}  // namespace osap
