// The preemption core shared by every scheduler that preempts (§III).
//
// The paper keeps the primitive apart from the policy: a scheduler
// decides *whom* to preempt and *when*, and the primitive decides *how*.
// This base owns the *how* for HFSP, Fair, Deadline and Capacity: one
// Preemptor, one resume-locality policy (§V-A) and one policy engine
// (docs/POLICY.md) through which every order goes, plus the slot
// bookkeeping every assign pass repeats. A derived scheduler keeps only
// its own victim choice, its refused-order retry rule and its eviction
// default.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "hadoop/scheduler.hpp"
#include "policy/policy.hpp"
#include "preempt/preemptor.hpp"
#include "preempt/resume_locality.hpp"

namespace osap {

/// The engine options a scheduler's `primitive` and optional `policy`
/// describe: the explicit policy when one is given, else the primitive
/// lifted into a single default rule with no memory probe (so no swap
/// demotion).
policy::PolicyOptions engine_options(PreemptPrimitive primitive,
                                     const std::optional<policy::PolicyOptions>& policy);

class PreemptiveScheduler : public Scheduler {
 public:
  /// Accepted preemption orders that changed a task; Wait orders leave
  /// their victim running and are not counted.
  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }

 protected:
  PreemptiveScheduler(policy::PolicyOptions engine, Duration resume_locality_threshold)
      : engine_options_(std::move(engine)), resume_threshold_(resume_locality_threshold) {}

  /// Free slots of the reporting tracker during one assign pass.
  struct FreeSlots {
    int maps = 0;
    int reduces = 0;
  };
  /// What take_slot did with a task.
  enum class Take {
    Taken,     ///< appended to the launch list; its type's budget shrank
    NoSlot,    ///< no free slot of the task's type is left
    Elsewhere  ///< pinned to another node (resume locality, requeue)
  };

  /// Builds the preemptor, the resume policy and the engine. A derived
  /// scheduler that overrides this calls it first.
  void attached() override;

  /// Issue one order for `victim` through the engine and count it when
  /// it changes a task; true when the JobTracker accepted it.
  bool preempt(TaskId victim);
  /// Queue every suspended task of `job` for resumption. Nothing
  /// transitions until resume_pending.
  void request_resume(JobId job);
  /// Drive the queued resumes on the reporting tracker. Returns its free
  /// slots minus the map slots local resumes took.
  FreeSlots resume_pending(const TrackerStatus& status);
  /// Launch `task` on the reporting tracker if it may run there and its
  /// type has a free slot.
  Take take_slot(TaskId task, const TrackerStatus& status, FreeSlots& free,
                 std::vector<TaskId>& out) const;
  /// Registered trackers × map slots per tracker, fixed at attach.
  [[nodiscard]] int cluster_map_slots() const noexcept { return cluster_map_slots_; }

 private:
  policy::PolicyOptions engine_options_;
  Duration resume_threshold_;
  std::optional<Preemptor> preemptor_;
  std::optional<ResumeLocalityPolicy> resume_policy_;
  std::optional<policy::PreemptionPolicy> engine_;
  int cluster_map_slots_ = 0;
  int preemptions_ = 0;
};

}  // namespace osap
