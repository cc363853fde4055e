#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace osap {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(2.0, [&] { fired.push_back(2); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(3.0, [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) q.push(1.0, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  q.push(2.0, [] {});
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.push(1.0, [] {});
  q.cancel(999);
  q.cancel(0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, EmptyNextTimeIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, RejectsInfiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.push(kTimeNever, [] {}), SimError);
  EXPECT_THROW(q.push(-1.0, [] {}), SimError);
}

TEST(EventQueue, PopReportsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(4.5, [] {});
  auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 4.5);
  EXPECT_EQ(fired.id, id);
}

// A cancellation storm must neither leak closures nor let tombstones
// accumulate without bound: cancel() frees the closure eagerly (the
// shared_ptr's count drops at the cancel, not at the would-be fire
// time), and compaction keeps cancelled calendar entries below the live
// population once enough have piled up.
TEST(EventQueue, CancellationStormReleasesClosuresAndCompacts) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(42);
  std::vector<EventId> doomed;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const SimTime t = rng.uniform(0.0, 1000.0);
    if (i % 2 == 0) {
      doomed.push_back(q.push(t, [sentinel] { (void)*sentinel; }));
    } else {
      q.push(t, [] {});
    }
  }
  EXPECT_EQ(sentinel.use_count(), 1 + 5000);
  for (const EventId id : doomed) q.cancel(id);
  // Every captured copy was destroyed at cancel time, before any pop.
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(q.pending(), 5000u);
  // Tombstones are bounded: compaction fires once they outnumber the
  // live events (with a small floor so tiny queues skip the churn).
  EXPECT_LE(q.cancelled_entries(), q.pending());
  SimTime last = 0;
  std::size_t fired = 0;
  while (!q.empty()) {
    const auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
    ++fired;
  }
  EXPECT_EQ(fired, 5000u);
  EXPECT_EQ(q.cancelled_entries(), 0u);
}

// Steady-state re-arm, the heartbeat / lease-timer pattern: every round
// cancels one pending timer and pushes its replacement, and every few
// rounds the earliest timer fires and re-arms itself. Tombstones must
// stay bounded at every step (not only after one burst), and every
// cancelled closure must be gone the moment it is cancelled: the only
// copies of the sentinel left are the ones pending closures hold.
TEST(EventQueue, SteadyStateRearmKeepsTombstonesBounded) {
  constexpr std::size_t kTimers = 50;
  EventQueue q;
  auto sentinel = std::make_shared<int>(7);
  std::size_t fired_timer = kTimers;
  const auto arm = [&](std::size_t k, SimTime t) {
    return q.push(t, [sentinel, k, &fired_timer] { fired_timer = k; });
  };
  Rng rng(5);
  SimTime now = 0;
  std::vector<EventId> timer(kTimers);
  for (std::size_t k = 0; k < kTimers; ++k) timer[k] = arm(k, rng.uniform(0.0, 30.0));

  for (int round = 0; round < 20000; ++round) {
    const std::size_t k = rng.uniform_int(0, kTimers - 1);
    q.cancel(timer[k]);
    // Checked before the re-push, which could reuse the freed slot.
    ASSERT_EQ(sentinel.use_count(), static_cast<long>(1 + q.pending())) << "round " << round;
    timer[k] = arm(k, now + rng.uniform(1.0, 30.0));
    ASSERT_LE(q.cancelled_entries(), q.pending() + 64) << "round " << round;
    if (round % 4 == 3) {
      {
        const auto ev = q.pop();
        ASSERT_GE(ev.time, now);
        now = ev.time;
        ev.fn();
      }
      ASSERT_LT(fired_timer, kTimers);
      timer[fired_timer] = arm(fired_timer, now + 3.0);
      ASSERT_LE(q.cancelled_entries(), q.pending() + 64) << "round " << round;
      ASSERT_EQ(sentinel.use_count(), static_cast<long>(1 + q.pending())) << "round " << round;
    }
  }
  EXPECT_EQ(q.pending(), kTimers);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.cancelled_entries(), 0u);
  EXPECT_EQ(sentinel.use_count(), 1);
}

// Differential check against the textbook reference: a binary heap over
// (time, id) with FIFO tie-breaking. Random pushes, cancels, and pops
// must drain in exactly the reference order — the property the trace
// digests of whole simulations rest on.
TEST(EventQueue, RandomizedDifferentialAgainstBinaryHeap) {
  using Ref = std::pair<SimTime, EventId>;
  EventQueue q;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  std::vector<std::pair<SimTime, EventId>> drained_q;
  std::vector<Ref> drained_ref;
  std::vector<EventId> alive;
  Rng rng(11);
  for (int round = 0; round < 20000; ++round) {
    const double dice = rng.uniform();
    if (dice < 0.55 || ref.empty()) {
      // Cluster times onto a coarse grid so ties (and their FIFO order)
      // are actually exercised, not just distinct doubles.
      const SimTime t = static_cast<SimTime>(rng.uniform_int(0, 5000)) * 0.25;
      alive.push_back(q.push(t, [] {}));
      ref.emplace(t, alive.back());
    } else if (dice < 0.8 && !alive.empty()) {
      const std::size_t pick = rng.uniform_int(0, alive.size() - 1);
      const EventId id = alive[pick];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      q.cancel(id);
      // The reference has no O(1) cancel; rebuild without the id.
      std::vector<Ref> keep;
      while (!ref.empty()) {
        if (ref.top().second != id) keep.push_back(ref.top());
        ref.pop();
      }
      for (const Ref& r : keep) ref.push(r);
    } else {
      const auto ev = q.pop();
      drained_q.emplace_back(ev.time, ev.id);
      drained_ref.push_back(ref.top());
      ref.pop();
      std::erase(alive, ev.id);
    }
    ASSERT_EQ(q.pending(), ref.size());
  }
  while (!q.empty()) {
    const auto ev = q.pop();
    drained_q.emplace_back(ev.time, ev.id);
    drained_ref.push_back(ref.top());
    ref.pop();
  }
  ASSERT_EQ(drained_q.size(), drained_ref.size());
  for (std::size_t i = 0; i < drained_q.size(); ++i) {
    ASSERT_EQ(drained_q[i].first, drained_ref[i].first) << "at pop " << i;
    ASSERT_EQ(drained_q[i].second, drained_ref[i].second) << "at pop " << i;
  }
}

}  // namespace
}  // namespace osap
