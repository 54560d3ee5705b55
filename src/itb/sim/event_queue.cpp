#include "itb/sim/event_queue.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace itb::sim {

namespace {

constexpr std::uint32_t bucket_of(Time at, std::uint32_t mask) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(at) & mask);
}

}  // namespace

EventQueue::EventQueue()
    : wheel_(kWheelSize, kNoSlot), wheel_tail_(kWheelSize, kNoSlot) {}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].next;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action.reset();
  if (++s.gen == 0) s.gen = 1;  // generation 0 is reserved for null ids
  s.next = free_head_;
  free_head_ = slot;
}

void EventQueue::push_wheel(std::uint32_t slot) {
  // Append: schedule order is seq order, so each bucket list stays sorted
  // by seq and fire_next can pop the head without scanning.
  Slot& s = slots_[slot];
  const std::uint32_t b = bucket_of(s.at, kWheelSize - 1);
  s.next = kNoSlot;
  s.prev = wheel_tail_[b];
  if (s.prev != kNoSlot)
    slots_[s.prev].next = slot;
  else
    wheel_[b] = slot;
  wheel_tail_[b] = slot;
  occupied_[b >> 6] |= 1ull << (b & 63);
  summary_ |= 1ull << (b >> 6);
}

void EventQueue::push_wheel_ordered(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint32_t b = bucket_of(s.at, kWheelSize - 1);
  // A migrated event predates (seq-wise) anything scheduled after the
  // window reached it, so walk from the tail to its sorted spot — almost
  // always the tail itself, or an empty bucket.
  std::uint32_t after = wheel_tail_[b];
  while (after != kNoSlot && slots_[after].seq > s.seq)
    after = slots_[after].prev;
  s.prev = after;
  if (after == kNoSlot) {
    s.next = wheel_[b];
    wheel_[b] = slot;
  } else {
    s.next = slots_[after].next;
    slots_[after].next = slot;
  }
  if (s.next != kNoSlot)
    slots_[s.next].prev = slot;
  else
    wheel_tail_[b] = slot;
  occupied_[b >> 6] |= 1ull << (b & 63);
  summary_ |= 1ull << (b >> 6);
}

void EventQueue::unlink_wheel(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint32_t b = bucket_of(s.at, kWheelSize - 1);
  if (s.prev == kNoSlot)
    wheel_[b] = s.next;
  else
    slots_[s.prev].next = s.next;
  if (s.next == kNoSlot)
    wheel_tail_[b] = s.prev;
  else
    slots_[s.next].prev = s.prev;
  if (wheel_[b] == kNoSlot) clear_bucket_bit(b);
}

void EventQueue::clear_bucket_bit(std::uint32_t b) {
  const std::uint32_t w = b >> 6;
  occupied_[w] &= ~(1ull << (b & 63));
  if (occupied_[w] == 0) summary_ &= ~(1ull << w);
}

void EventQueue::heap_place(std::uint32_t i, const Ref& r) {
  heap_[i] = r;
  slots_[r.slot].heap_pos = i;
}

void EventQueue::sift_up(std::uint32_t i, Ref r) {
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!earlier(r, heap_[parent])) break;
    heap_place(i, heap_[parent]);
    i = parent;
  }
  heap_place(i, r);
}

void EventQueue::sift_down(std::uint32_t i, Ref r) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], r)) break;
    heap_place(i, heap_[child]);
    i = child;
  }
  heap_place(i, r);
}

void EventQueue::heap_remove(std::uint32_t i) {
  slots_[heap_[i].slot].heap_pos = kNoSlot;
  const Ref last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // it was the last entry
  // The last entry fills the hole: up past an earlier parent, else down.
  if (i > 0 && earlier(last, heap_[(i - 1) / 2]))
    sift_up(i, last);
  else
    sift_down(i, last);
}

void EventQueue::migrate() {
  do {
    const std::uint32_t slot = heap_.front().slot;
    heap_remove(0);
    push_wheel_ordered(slot);
  } while (heap_due());
}

std::uint32_t EventQueue::find_bucket(Time from) const {
  const std::uint32_t start = bucket_of(from, kWheelSize - 1);
  const std::uint32_t word = start >> 6;
  // The start word, masked to buckets at or after `start`.
  const std::uint64_t head = occupied_[word] & (~0ull << (start & 63));
  if (head)
    return (word << 6) + static_cast<std::uint32_t>(std::countr_zero(head));
  // Words strictly after the start word, then the wrapped tail (words at or
  // before it — re-reading the start word's low bits is the wrapped end of
  // the window). The summary makes each probe a single countr_zero.
  const std::uint64_t after =
      word + 1 < kWordCount ? summary_ & (~0ull << (word + 1)) : 0;
  const std::uint64_t wrapped = after ? after : summary_;
  if (!wrapped) return kWheelSize;
  const auto w = static_cast<std::uint32_t>(std::countr_zero(wrapped));
  return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
}

void EventQueue::enqueue_ready(std::uint32_t slot, Time at) {
  if (at - wbase_ < kWheelSpan) {
    push_wheel(slot);
    ++stats_.wheel_scheduled;
  } else {
    const Ref r{at, slots_[slot].seq, slot};
    heap_.push_back(r);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), r);
    ++stats_.spill_scheduled;
  }
  ++live_;
  ++stats_.scheduled;
  if (live_ > stats_.peak_pending) stats_.peak_pending = live_;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value >> 32);
  const auto gen = static_cast<std::uint32_t>(id.value);
  if (gen == 0 || slot >= slots_.size() || slots_[slot].gen != gen)
    return false;
  // Either tier lets go of the event here, and its closure dies with it.
  if (const std::uint32_t pos = slots_[slot].heap_pos; pos != kNoSlot)
    heap_remove(pos);
  else
    unlink_wheel(slot);
  free_slot(slot);
  --live_;
  ++stats_.cancelled;
  return true;
}

EventQueue::Next EventQueue::fire_next(Time limit) {
  for (;;) {
    if (live_ == 0) return Next::kEmpty;
    if (heap_due()) migrate();
    const std::uint32_t b = find_bucket(wbase_);
    if (b == kWheelSize) {
      // Wheel completely empty: every pending event is spilled beyond the
      // window, and the heap holds only live ones. Jump the window to the
      // earliest (idle-gap skip).
      const Time t = heap_.front().at;
      if (t > limit) return Next::kBeyond;
      wbase_ = t;
      continue;  // migrate() pulls it into the wheel
    }

    // Bucket lists are kept sorted by seq (append on schedule, ordered
    // insert on migrate) and hold a single timestamp, so the head IS the
    // smallest (at, seq) — exact FIFO tie-break in O(1).
    const std::uint32_t best = wheel_[b];
    Slot& chosen = slots_[best];
    if (chosen.at > limit) return Next::kBeyond;
    unlink_wheel(best);
    Action act = std::move(chosen.action);
    now_ = chosen.at;
    wbase_ = chosen.at;
    free_slot(best);
    --live_;
    ++stats_.fired;
    act();  // may schedule or cancel; the queue is consistent by now
    return Next::kFired;
  }
}

bool EventQueue::step() { return fire_next(INT64_MAX) == Next::kFired; }

std::uint64_t EventQueue::run(Time until) {
  std::uint64_t fired = 0;
  while (fire_next(until) == Next::kFired) ++fired;
  // Advance the clock to the horizon so repeated bounded runs make progress
  // even through idle gaps.
  if (until != INT64_MAX && now_ < until) {
    now_ = until;
    if (wbase_ < until) wbase_ = until;
  }
  return fired;
}

std::uint64_t EventQueue::run_events(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && step()) ++fired;
  return fired;
}

void EventQueue::reset() {
  // Visit only occupied buckets (the bitmap is exact for the wheel).
  for (std::uint32_t w = 0; w < kWordCount; ++w) {
    std::uint64_t bits = occupied_[w];
    while (bits) {
      const auto b =
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      std::uint32_t cur = wheel_[b];
      while (cur != kNoSlot) {
        const std::uint32_t nxt = slots_[cur].next;
        free_slot(cur);  // rewrites `next` as the free-list link
        cur = nxt;
      }
      wheel_[b] = kNoSlot;
      wheel_tail_[b] = kNoSlot;
    }
  }
  for (const Ref& r : heap_) {
    slots_[r.slot].heap_pos = kNoSlot;
    free_slot(r.slot);
  }
  heap_.clear();
  occupied_.fill(0);
  summary_ = 0;
  live_ = 0;
  now_ = 0;
  wbase_ = 0;
  next_seq_ = 1;
  // stats_ is cumulative across reset(): it describes the engine's whole
  // lifetime, and benches read it per-cluster anyway.
}

}  // namespace itb::sim
