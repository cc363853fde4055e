// HFSP-style size-based scheduler (the authors' own scheduler [7][24],
// mentioned in §VI as the first consumer of the suspend primitive).
//
// Jobs are served shortest-remaining-size-first: the job with the least
// remaining work owns the cluster; anything else runs only in leftover
// slots. When a smaller job arrives and the slots are busy, the running
// tasks of the largest job are preempted with the configured primitive,
// and resumed once the small job is out of the way — exactly the pattern
// that makes a work-preserving, low-latency primitive valuable.
#pragma once

#include <optional>

#include "policy/policy.hpp"
#include "preempt/eviction.hpp"
#include "preempt/preemptor.hpp"
#include "preempt/resume_locality.hpp"
#include "hadoop/scheduler.hpp"

namespace osap {

class HfspScheduler : public Scheduler {
 public:
  struct Options {
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::MostProgress;
    Duration resume_locality_threshold = seconds(30);
    /// At most this many preemptions per heartbeat (paced, so a burst of
    /// small jobs doesn't thrash suspend/resume cycles — §III-A's note
    /// that schedulers should avoid paying the cycle cost too often).
    int max_preemptions_per_heartbeat = 1;
    /// Per-queue policy engine (docs/POLICY.md). When set, eviction
    /// orders route through it and `primitive` is ignored; when empty
    /// the scheduler applies `primitive` directly, as before.
    std::optional<policy::PolicyOptions> policy;
  };

  HfspScheduler() : options_(Options{}) {}
  explicit HfspScheduler(Options options) : options_(options) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

  /// Remaining virtual size (bytes of unprocessed input) of a job.
  [[nodiscard]] Bytes remaining_size(JobId id) const;
  /// Accepted preemption orders that changed a task; Wait orders leave
  /// their victim running and are not counted.
  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }

 private:
  void attached() override;
  [[nodiscard]] JobId head_job() const;
  /// The running job other than `head` to preempt: the largest remaining
  /// size with a victim candidate not in `refused`, lowest id on ties.
  /// Fills `pool` with that job's candidates minus `refused`; invalid
  /// when no job has one.
  [[nodiscard]] JobId fattest_job(JobId head, const std::vector<TaskId>& refused,
                                  std::vector<EvictionCandidate>& pool) const;
  /// Issue one order for `victim`; true when the JobTracker accepted it.
  bool issue_preemption(TaskId victim);

  Options options_;
  std::optional<Preemptor> preemptor_;
  std::optional<ResumeLocalityPolicy> resume_policy_;
  std::optional<policy::PreemptionPolicy> policy_engine_;
  int preemptions_ = 0;
};

}  // namespace osap
