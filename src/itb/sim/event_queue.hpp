// Discrete-event engine.
//
// A single EventQueue drives every model in the simulator: switches, links,
// DMA engines and the MCP interpreter all schedule closures at absolute
// simulated times. Events at equal timestamps fire in scheduling order
// (FIFO), which keeps runs deterministic for a fixed seed.
//
// Internals (see DESIGN.md "Event engine"):
//   * Closures are InlineFunction<void()> — captures up to 48 B live inside
//     the slot, so the schedule path makes no heap allocation.
//   * Every pending event owns a slot in a pooled free list; the EventId
//     handed back packs {slot, generation}. cancel() checks the generation,
//     destroys the closure immediately and recycles the slot — O(1), and no
//     cancelled capture outlives the cancel call.
//   * Timing is two-tier: a bucketed near-horizon wheel (kWheelSpan ns of
//     1 ns buckets, two-level occupancy bitmap for O(1) earliest-bucket
//     lookup) absorbs the byte-time/cycle-cost events that dominate
//     traffic, and a binary heap of plain {time, seq, slot} references
//     spills the far timers (retransmit timeouts, sampler ticks). Wheel
//     buckets are intrusive doubly-linked lists threaded through the
//     slots — no per-bucket allocation. Both tiers hold live events only:
//     a cancelled wheel event unlinks, and a cancelled spilled event
//     leaves the heap at once (each spilled slot records its heap index).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "itb/sim/inline_function.hpp"
#include "itb/sim/time.hpp"

namespace itb::sim {

/// Opaque handle used to cancel a scheduled event. Default-constructed ids
/// are null (cancel() on them returns false).
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId, EventId) = default;
};

/// Timed closure scheduler with a deterministic FIFO tie-break.
class EventQueue {
 public:
  using Action = InlineFunction<void()>;

  /// Engine self-observation counters (exported through telemetry as
  /// sim.events_fired / sim.events_cancelled / sim.peak_pending).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t peak_pending = 0;
    /// Insertions into the near-horizon wheel vs the far-timer spill heap.
    std::uint64_t wheel_scheduled = 0;
    std::uint64_t spill_scheduled = 0;
  };

  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time (time of the most recently fired event).
  Time now() const { return now_; }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_; }

  bool empty() const { return pending() == 0; }

  /// Schedule `action` to run at absolute time `at` (must be >= now()).
  /// Templated so the closure is constructed directly inside its event slot
  /// — no intermediate Action object, no relocate on the schedule path.
  template <typename F>
  EventId schedule_at(Time at, F&& action) {
    if (at < now_)
      throw std::invalid_argument("EventQueue: scheduling in the past");
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    s.at = at;
    s.seq = next_seq_++;
    s.action = std::forward<F>(action);
    enqueue_ready(slot, at);
    return EventId{(static_cast<std::uint64_t>(slot) << 32) | s.gen};
  }

  /// Schedule `action` to run `delay` ns from now.
  template <typename F>
  EventId schedule_in(Duration delay, F&& action) {
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Cancel a previously scheduled event. Returns false if it already fired
  /// or was already cancelled. The closure (and its captures) is destroyed
  /// before this returns.
  bool cancel(EventId id);

  /// Fire the next event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue drains or `until` is reached (events at exactly
  /// `until` still fire). Returns the number of events fired.
  std::uint64_t run(Time until = INT64_MAX);

  /// Run at most `max_events` events. Returns the number fired.
  std::uint64_t run_events(std::uint64_t max_events);

  /// Drop every pending event and reset the clock to zero. Outstanding
  /// EventIds are invalidated (their slots' generations advance).
  void reset();

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kWheelBits = 12;
  static constexpr std::uint32_t kWheelSize = 1u << kWheelBits;  // buckets
  static constexpr Time kWheelSpan = kWheelSize;                 // 1 ns each
  static constexpr std::uint32_t kWordCount = kWheelSize / 64;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Owner of one pending event. `gen` advances every time the slot is
  /// freed, so EventIds from a previous occupancy miss. While in the wheel,
  /// `next`/`prev` thread the slot into its bucket's doubly-linked list;
  /// while free, `next` is the free-list link. `heap_pos` is the slot's
  /// index in the spill heap while it is spilled, kNoSlot otherwise.
  struct Slot {
    Action action;
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
    std::uint32_t heap_pos = kNoSlot;
  };

  /// POD reference stored in the spill heap: the slot's own (at, seq),
  /// copied so sifting compares without touching the slots.
  struct Ref {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const Ref& a, const Ref& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  enum class Next : std::uint8_t { kFired, kBeyond, kEmpty };

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Second half of schedule_at: file the freshly filled slot into the
  /// wheel or the spill heap and update the bookkeeping.
  void enqueue_ready(std::uint32_t slot, Time at);

  /// Spill heap: a binary min-heap on (at, seq) whose moves keep each
  /// slot's heap_pos current. heap_remove takes out the entry at index `i`
  /// and re-seats the last entry there; a sift moves `r` from the hole at
  /// `i` to its place.
  void heap_remove(std::uint32_t i);
  void heap_place(std::uint32_t i, const Ref& r);
  void sift_up(std::uint32_t i, Ref r);
  void sift_down(std::uint32_t i, Ref r);
  /// Does the earliest spilled event lie inside the wheel window?
  bool heap_due() const {
    return !heap_.empty() && heap_.front().at - wbase_ < kWheelSpan;
  }

  void push_wheel(std::uint32_t slot);
  /// push_wheel for migrated spill refs: inserts by (at, seq) so the bucket
  /// list stays FIFO-sorted even when an older (smaller-seq) spilled event
  /// joins a bucket that already has same-time events.
  void push_wheel_ordered(std::uint32_t slot);
  void unlink_wheel(std::uint32_t slot);
  void clear_bucket_bit(std::uint32_t b);
  /// Move spilled refs whose time entered the wheel window into the wheel.
  /// Call only when heap_due().
  void migrate();
  /// First occupied bucket at or after absolute time `from` within the
  /// window [wbase_, wbase_ + kWheelSpan); kWheelSize when none.
  std::uint32_t find_bucket(Time from) const;

  /// Fire the earliest pending event if its time is <= limit.
  Next fire_next(Time limit);

  Time now_ = 0;
  /// Wheel window base: every wheel event's time is in [wbase_, wbase_ +
  /// kWheelSpan). Advances with the clock (and jumps over idle gaps).
  Time wbase_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  std::vector<std::uint32_t> wheel_;       // kWheelSize bucket list heads
  /// Bucket list tails: push_wheel appends, so each bucket stays sorted by
  /// seq and fire_next pops the head in O(1) — no min-scan. (A bucket only
  /// ever holds one timestamp: the wheel window spans exactly kWheelSize ns.)
  std::vector<std::uint32_t> wheel_tail_;
  /// Two-level occupancy bitmap: occupied_[w] has one bit per bucket,
  /// summary_ has one bit per word. find_bucket() is O(1): at most three
  /// word reads instead of a walk over empty buckets. Wheel bits are
  /// exact (wheel events unlink eagerly on cancel).
  std::array<std::uint64_t, kWordCount> occupied_{};
  std::uint64_t summary_ = 0;
  std::vector<Ref> heap_;                  // far-timer spill, min at front

  Stats stats_;
};

}  // namespace itb::sim
