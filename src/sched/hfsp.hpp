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
#include <utility>

#include "preempt/eviction.hpp"
#include "sched/preemptive.hpp"

namespace osap {

class HfspScheduler : public PreemptiveScheduler {
 public:
  struct Options {
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::MostProgress;
    Duration resume_locality_threshold = seconds(30);
    /// At most this many preemptions per heartbeat (paced, so a burst of
    /// small jobs doesn't thrash suspend/resume cycles — §III-A's note
    /// that schedulers should avoid paying the cycle cost too often).
    int max_preemptions_per_heartbeat = 1;
    /// Per-queue policy engine (docs/POLICY.md). When set, it replaces
    /// the single rule `primitive` otherwise gives the engine.
    std::optional<policy::PolicyOptions> policy;
  };

  HfspScheduler() : HfspScheduler(Options{}) {}
  explicit HfspScheduler(Options options)
      : PreemptiveScheduler(engine_options(options.primitive, options.policy),
                            options.resume_locality_threshold),
        options_(std::move(options)) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

  /// Remaining virtual size (bytes of unprocessed input) of a job.
  [[nodiscard]] Bytes remaining_size(JobId id) const;

 private:
  [[nodiscard]] JobId head_job() const;
  /// The running job other than `head` to preempt: the largest remaining
  /// size with a victim candidate not in `refused`, lowest id on ties.
  /// Fills `pool` with that job's candidates minus `refused`; invalid
  /// when no job has one.
  [[nodiscard]] JobId fattest_job(JobId head, const std::vector<TaskId>& refused,
                                  std::vector<EvictionCandidate>& pool) const;

  Options options_;
};

}  // namespace osap
