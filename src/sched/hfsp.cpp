#include "sched/hfsp.hpp"

#include <algorithm>
#include <iterator>

#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "hfsp";
}

Bytes HfspScheduler::remaining_size(JobId id) const {
  // The JobTracker keeps this total exact through its task-state and
  // task-progress choke points: per-task integer contributions are
  // swapped out and back in as they change, so the running sum equals
  // the old per-call rescan of every not-done task bit for bit.
  return jt_->job(id).remaining_bytes;
}

JobId HfspScheduler::head_job() const {
  // Front of the (remaining, id) order index — the old ascending-id
  // min-scan's pick, since strict-less kept the lowest id on size ties.
  const auto& by_remaining = jt_->jobs_by_remaining();
  return by_remaining.empty() ? JobId{} : by_remaining.begin()->second;
}

JobId HfspScheduler::fattest_job(JobId head, const std::vector<TaskId>& refused,
                                 std::vector<EvictionCandidate>& pool) const {
  // The largest remaining size wins, the lowest id breaks ties: walk the
  // (remaining, id) index from its largest size down, each size's run of
  // ids in ascending order, and stop at the first job with a victim left.
  const auto& by_remaining = jt_->jobs_by_remaining();
  auto run_end = by_remaining.end();
  while (run_end != by_remaining.begin()) {
    auto run_begin = std::prev(run_end);
    while (run_begin != by_remaining.begin() && std::prev(run_begin)->first == run_begin->first) {
      --run_begin;
    }
    for (auto it = run_begin; it != run_end; ++it) {
      if (it->second == head) continue;
      pool = collect_candidates(*jt_, it->second);
      std::erase_if(pool, [&refused](const EvictionCandidate& c) {
        return std::find(refused.begin(), refused.end(), c.task) != refused.end();
      });
      if (!pool.empty()) return it->second;
    }
    run_end = run_begin;
  }
  return JobId{};
}

std::vector<TaskId> HfspScheduler::assign(const TrackerStatus& status) {
  std::vector<TaskId> out;
  const JobId head = head_job();
  if (!head.valid()) return out;

  // The head job gets its suspended tasks back first (request_resume only
  // queues; nothing transitions until resume_pending below).
  request_resume(head);
  // Parked victims of other jobs come back once the head has no queued
  // demand. Kill victims re-enter through the leftover-slot loop below;
  // a suspend victim has no other path back, and without this an idle
  // slot can sit next to a parked task until the victim's job finally
  // becomes head — which for the fattest job means the end of the run.
  if (jt_->job(head).unassigned.empty()) {
    for (JobId jid : jt_->parked_jobs()) {
      if (jid != head) request_resume(jid);
    }
  }
  FreeSlots free = resume_pending(status);

  // Launch the head job's pending tasks.
  int head_pending = 0;
  for (TaskId tid : jt_->job(head).unassigned) {
    if (take_slot(tid, status, free, out) == Take::NoSlot) ++head_pending;
  }

  // Still starved? Take slots away from the largest job. The budget
  // paces *effective* preemptions: an order the JobTracker refuses (the
  // victim sits on a lost or blacklisted tracker, or a policy demotion
  // hit a non-preemptable state) excludes that victim and retries the
  // next candidate without consuming the budget — otherwise one dead
  // order per heartbeat would starve the head job indefinitely.
  int budget = options_.max_preemptions_per_heartbeat;
  std::vector<TaskId> refused;
  while (head_pending > 0 && budget > 0) {
    std::vector<EvictionCandidate> pool;
    const JobId fattest = fattest_job(head, refused, pool);
    if (!fattest.valid()) break;
    const TaskId victim = pick_victim(options_.eviction, pool);
    if (!victim.valid()) break;
    OSAP_LOG(Info, kLog) << "preempting " << victim << " of job " << fattest << " for head job "
                         << head;
    if (preempt(victim)) {
      --head_pending;
      --budget;
    } else {
      refused.push_back(victim);
    }
  }

  // Leftover slots go to the remaining jobs in ascending id, one task per
  // pass. Only jobs with a non-empty unassigned pool can take one;
  // skipping the rest skips exactly the iterations the old running-jobs
  // walk wasted.
  while (free.maps > 0 || free.reduces > 0) {
    bool assigned = false;
    for (JobId jid : jt_->schedulable_jobs()) {
      for (TaskId tid : jt_->job(jid).unassigned) {
        if (std::find(out.begin(), out.end(), tid) != out.end()) continue;
        if (take_slot(tid, status, free, out) == Take::Taken) {
          assigned = true;
          break;
        }
      }
      if (assigned) break;
    }
    if (!assigned) break;
  }
  return out;
}

}  // namespace osap
