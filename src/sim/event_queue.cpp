#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace osap {

namespace {

constexpr std::size_t kArity = 4;

/// The total pop order: time, then insertion id (FIFO among ties).
template <typename Entry>
bool earlier(const Entry& a, const Entry& b) noexcept {
  return a.time < b.time || (a.time == b.time && a.id < b.id);
}

}  // namespace

EventId EventQueue::push(SimTime t, std::function<void()> fn) {
  OSAP_CHECK_MSG(t >= 0 && t < kTimeNever, "event time must be finite, got " << t);
  const EventId id = next_id_++;

  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = arena_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  arena_[slot].fn = std::move(fn);
  arena_[slot].id = id;
  slot_of_.emplace(id, slot);

  const Entry e{t, id, slot};  // sifted up through a hole
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0 && earlier(e, heap_[(i - 1) / kArity])) {
    heap_[i] = heap_[(i - 1) / kArity];
    i = (i - 1) / kArity;
  }
  heap_[i] = e;
  ++live_;
  return id;
}

void EventQueue::cancel(EventId id) {
  // Cancelling an id that already fired (or never existed) is a no-op —
  // periodic re-arm patterns cancel their own just-fired timer.
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  const std::uint32_t slot = it->second;
  slot_of_.erase(it);
  // Release the closure (and everything it captures) right now; the heap
  // entry becomes a POD tombstone, recognized by the id mismatch.
  free_slot(slot);
  --live_;
  ++cancelled_;
  maybe_compact();
}

SimTime EventQueue::next_time() {
  if (live_ == 0) return kTimeNever;
  // A live entry exists, so the heap cannot run dry while dropping.
  while (stale(heap_.front())) {
    pop_top();
    --cancelled_;
  }
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  OSAP_CHECK(next_time() != kTimeNever);  // non-empty; the top is now live
  const Entry e = heap_.front();
  pop_top();
  Fired fired{e.time, e.id, std::move(arena_[e.slot].fn)};
  free_slot(e.slot);
  slot_of_.erase(e.id);
  --live_;
  maybe_compact();
  return fired;
}

void EventQueue::free_slot(std::uint32_t slot) {
  arena_[slot].fn = nullptr;
  arena_[slot].id = 0;
  arena_[slot].next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (std::size_t first = kArity * i + 1; first < n; first = kArity * i + 1) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::maybe_compact() {
  if (cancelled_ <= live_ || (cancelled_ < 64 && live_ > 0)) return;
  // Dropping tombstones keeps every live entry's (time, id) key, and the
  // order is total, so the pop order is unchanged. With nothing live
  // left this simply empties the heap.
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  for (std::size_t i = (heap_.size() + 2) / kArity; i-- > 0;) sift_down(i);
  cancelled_ = 0;
}

}  // namespace osap
