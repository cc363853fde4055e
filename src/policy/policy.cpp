#include "policy/policy.hpp"

#include <utility>

#include "hadoop/job_tracker.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap::policy {

PreemptionPolicy::PreemptionPolicy(JobTracker& jt, PolicyOptions options)
    : jt_(&jt), options_(std::move(options)) {
  trace::CounterRegistry& reg = jt_->sim().trace().counters();
  ctr_decisions_ = &reg.counter(trace::names::kPolicyDecisions);
  ctr_waits_ = &reg.counter(trace::names::kPolicyWaits);
  ctr_kills_ = &reg.counter(trace::names::kPolicyKills);
  ctr_suspends_ = &reg.counter(trace::names::kPolicySuspends);
  ctr_checkpoints_ = &reg.counter(trace::names::kPolicyCheckpoints);
  ctr_requeues_ = &reg.counter(trace::names::kPolicyRequeues);
  ctr_demotions_ = &reg.counter(trace::names::kPolicySwapDemotions);
  ctr_refused_ = &reg.counter(trace::names::kPolicyOrdersRefused);
}

Decision PreemptionPolicy::rule_for(const std::string& queue) const {
  for (const auto& [name, decision] : options_.per_queue) {
    if (name == queue) return decision;
  }
  return options_.default_decision;
}

Decision PreemptionPolicy::decide(TaskId victim) const {
  const Task& t = jt_->task(victim);
  Decision decision = rule_for(jt_->job(t.job).spec.queue);
  if ((decision == Decision::Suspend || decision == Decision::NatjamCheckpoint) &&
      options_.probe && t.node.valid() &&
      options_.probe(t.node) >= options_.swap_watermark) {
    decision = Decision::Kill;
  }
  return decision;
}

Outcome PreemptionPolicy::preempt(Preemptor& preemptor, TaskId victim) {
  Outcome out;
  out.decision = decide(victim);
  ctr_decisions_->add();
  // decide() only demotes; comparing against the raw rule tells demotion.
  if (out.decision == Decision::Kill &&
      rule_for(jt_->job(jt_->task(victim).job).spec.queue) != Decision::Kill) {
    ctr_demotions_->add();
  }
  switch (out.decision) {
    case Decision::Wait:
      ctr_waits_->add();
      out.issued = preemptor.preempt(victim, PreemptPrimitive::Wait);
      break;
    case Decision::Kill:
      ctr_kills_->add();
      out.issued = preemptor.preempt(victim, PreemptPrimitive::Kill);
      break;
    case Decision::Suspend:
      ctr_suspends_->add();
      out.issued = preemptor.preempt(victim, PreemptPrimitive::Suspend);
      break;
    case Decision::NatjamCheckpoint:
      ctr_checkpoints_->add();
      out.issued = preemptor.preempt(victim, PreemptPrimitive::NatjamCheckpoint);
      break;
    case Decision::Requeue: {
      ctr_requeues_->add();
      // Requeue on other resources: drop the locality pin, then kill so
      // the task reschedules from scratch wherever a slot frees first.
      TaskSpec spec = jt_->task(victim).spec;
      spec.preferred_node = NodeId{};
      jt_->set_task_spec(victim, std::move(spec));
      out.issued = preemptor.preempt(victim, PreemptPrimitive::Kill);
      break;
    }
  }
  if (!out.issued) ctr_refused_->add();
  return out;
}

}  // namespace osap::policy
