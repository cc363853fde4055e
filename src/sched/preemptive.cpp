#include "sched/preemptive.hpp"

#include "hadoop/job_tracker.hpp"
#include "policy/decision.hpp"

namespace osap {

policy::PolicyOptions engine_options(PreemptPrimitive primitive,
                                     const std::optional<policy::PolicyOptions>& policy) {
  if (policy) return *policy;
  policy::PolicyOptions options;
  options.default_decision = policy::decision_from_primitive(primitive);
  return options;
}

void PreemptiveScheduler::attached() {
  preemptor_.emplace(*jt_);
  resume_policy_.emplace(*jt_, resume_threshold_);
  engine_.emplace(*jt_, engine_options_);
  cluster_map_slots_ = static_cast<int>(jt_->tracker_count()) * jt_->config().map_slots;
}

bool PreemptiveScheduler::preempt(TaskId victim) {
  const policy::Outcome out = engine_->preempt(*preemptor_, victim);
  if (out.changes_task()) ++preemptions_;
  return out.issued;
}

void PreemptiveScheduler::request_resume(JobId job) {
  for (TaskId tid : jt_->job(job).suspended) resume_policy_->request_resume(tid);
}

PreemptiveScheduler::FreeSlots PreemptiveScheduler::resume_pending(
    const TrackerStatus& status) {
  FreeSlots free{status.free_map_slots, status.free_reduce_slots};
  free.maps -= resume_policy_->on_heartbeat(status);
  return free;
}

PreemptiveScheduler::Take PreemptiveScheduler::take_slot(TaskId task,
                                                         const TrackerStatus& status,
                                                         FreeSlots& free,
                                                         std::vector<TaskId>& out) const {
  const TaskSpec& spec = jt_->task(task).spec;
  if (spec.preferred_node.valid() && spec.preferred_node != status.node) return Take::Elsewhere;
  int& budget = spec.type == TaskType::Map ? free.maps : free.reduces;
  if (budget <= 0) return Take::NoSlot;
  out.push_back(task);
  --budget;
  return Take::Taken;
}

}  // namespace osap
