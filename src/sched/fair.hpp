// Simplified Hadoop FAIR scheduler with preemption (§II).
//
// Each job is its own pool with an equal share of the cluster's map
// slots. When a job has been starved below its fair share longer than the
// preemption timeout, tasks of over-share jobs are preempted with the
// configured primitive (the paper's motivation: FAIR "can use preemption
// to warrant fairness; if a job starves due to long-running tasks of
// another job, these latter may be preempted"). Victims are chosen by a
// pluggable eviction policy, and suspended victims are resumed through
// the resume-locality policy once capacity frees up.
#pragma once

#include <optional>
#include <unordered_map>
#include <utility>

#include "preempt/eviction.hpp"
#include "sched/preemptive.hpp"

namespace osap {

class FairScheduler : public PreemptiveScheduler {
 public:
  /// Shares are computed against the cluster's map slots: registered
  /// trackers × map slots per tracker.
  struct Options {
    /// How long a job may sit below its fair share before the scheduler
    /// preempts someone.
    Duration preemption_timeout = seconds(15);
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::SmallestMemory;
    Duration resume_locality_threshold = seconds(30);
    /// Per-queue policy engine (docs/POLICY.md). When set, it replaces
    /// the single rule `primitive` otherwise gives the engine.
    std::optional<policy::PolicyOptions> policy;
  };

  explicit FairScheduler(Options options)
      : PreemptiveScheduler(engine_options(options.primitive, options.policy),
                            options.resume_locality_threshold),
        options_(std::move(options)) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;
  void job_added(JobId id) override;
  void job_completed(JobId id) override;

 private:
  [[nodiscard]] int running_or_pending_command(JobId id) const;
  [[nodiscard]] int demand(JobId id) const;
  [[nodiscard]] double fair_share() const;
  void check_starvation();
  /// Queue suspended victims for resumption unless a job below its
  /// share is waiting, then drive the resumes.
  FreeSlots resume_where_possible(const TrackerStatus& status);

  Options options_;
  /// When each job last had at least its fair share (or had no demand).
  std::unordered_map<JobId, SimTime> satisfied_at_;
};

}  // namespace osap
