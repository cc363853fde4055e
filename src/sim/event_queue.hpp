// Priority queue of timestamped events with stable FIFO tie-breaking and
// O(1) cancellation that releases the closure eagerly.
//
// A 4-ary min-heap of POD entries {time, id, slot} ordered by (time,
// insertion id): the textbook heap's total order, so the event-stream
// digest does not depend on the heap's shape (docs/PERF.md). Closures
// live in a slot arena; cancel() frees the slot (and everything the
// closure captured) at once and leaves a POD tombstone, detected by an
// id mismatch against its slot. pop() and next_time() drop stale tops,
// and the heap is compacted once tombstones outnumber live events.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"

namespace osap {

/// Handle for a scheduled event; usable to cancel it before it fires.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `t`. Events at equal times fire in
  /// insertion order.
  EventId push(SimTime t, std::function<void()> fn);

  /// Cancel a pending event, releasing its closure immediately.
  /// Cancelling an already-fired or unknown id is a harmless no-op (the
  /// id space is never reused).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Time of the earliest pending event; kTimeNever when empty. Drops
  /// stale tombstones off the top in passing, hence non-const.
  [[nodiscard]] SimTime next_time();

  /// Remove and return the earliest pending event.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    std::function<void()> fn;
  };
  Fired pop();

  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Cancelled tombstones still in the heap (their closures are already
  /// freed). Bounded by compaction; exposed for the stress tests.
  [[nodiscard]] std::size_t cancelled_entries() const noexcept { return cancelled_; }

 private:
  /// POD heap entry; the closure lives in arena_[slot]. Stale when
  /// arena_[slot].id != id (the event was cancelled, and the slot is
  /// free or already reused by a later event).
  struct Entry {
    SimTime time;
    EventId id;
    std::uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    EventId id = 0;  // 0 = free
    std::uint32_t next_free = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] bool stale(const Entry& e) const noexcept { return arena_[e.slot].id != e.id; }
  void sift_down(std::size_t i);
  /// Remove heap_[0], restoring the heap property.
  void pop_top();
  /// Destroy the slot's closure (if still there) and free the slot.
  void free_slot(std::uint32_t slot);
  /// Filter out every tombstone and re-heapify when they outnumber live
  /// events and either reach 64 or nothing live remains.
  void maybe_compact();

  std::vector<Entry> heap_;
  std::size_t live_ = 0;       ///< pending, non-cancelled events
  std::size_t cancelled_ = 0;  ///< tombstone entries still in heap_

  std::vector<Slot> arena_;
  std::uint32_t free_head_ = kNoSlot;
  /// Slot of each pending id, for cancel(); never iterated.
  std::unordered_map<EventId, std::uint32_t> slot_of_;

  EventId next_id_ = 1;
};

}  // namespace osap
