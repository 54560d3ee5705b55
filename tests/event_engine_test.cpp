// Tests for the fast event engine internals: InlineFunction storage and
// lifetime, eager closure destruction on cancel, engine stats, the
// wheel/heap time split, and a randomized semantics-equivalence suite
// pitting EventQueue against a trivially-correct reference queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "itb/sim/event_queue.hpp"
#include "itb/sim/inline_function.hpp"
#include "itb/sim/rng.hpp"

namespace {

using itb::sim::EventId;
using itb::sim::EventQueue;
using itb::sim::InlineFunction;
using itb::sim::Rng;
using itb::sim::Time;

// ---------------------------------------------------------------------------
// InlineFunction

/// Counts live instances so tests can assert exactly when a capture dies.
struct Sentinel {
  explicit Sentinel(int* live) : live_(live) { ++*live_; }
  Sentinel(const Sentinel& o) : live_(o.live_) { ++*live_; }
  Sentinel(Sentinel&& o) noexcept : live_(o.live_) { ++*live_; }
  ~Sentinel() { --*live_; }
  int* live_;
};

TEST(InlineFunction, SmallCaptureIsInline) {
  int x = 0;
  InlineFunction<void()> f([&x] { ++x; });
  EXPECT_TRUE(f.is_inline());
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(x, 1);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 B > 48 B inline buffer
  big[15] = 7;
  InlineFunction<int()> f([big] { return static_cast<int>(big[15]); });
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 7);
}

TEST(InlineFunction, MovePreservesCallableAndEmptiesSource) {
  int x = 0;
  InlineFunction<void()> a([&x] { x += 5; });
  InlineFunction<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(x, 5);
}

TEST(InlineFunction, DestructionRunsCaptureDtors) {
  int live = 0;
  {
    InlineFunction<void()> f([s = Sentinel(&live)] { (void)s; });
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFunction, ResetDestroysHeapCallableToo) {
  int live = 0;
  std::array<std::uint64_t, 16> pad{};
  InlineFunction<void()> f([s = Sentinel(&live), pad] { (void)s; (void)pad; });
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(live, 1);
  f.reset();
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, MoveAssignDestroysPreviousCallable) {
  int live_a = 0, live_b = 0;
  InlineFunction<void()> f([s = Sentinel(&live_a)] { (void)s; });
  f = InlineFunction<void()>([s = Sentinel(&live_b)] { (void)s; });
  EXPECT_EQ(live_a, 0);
  EXPECT_EQ(live_b, 1);
}

// ---------------------------------------------------------------------------
// Eager cancellation (the satellite fix: cancel used to retain the closure
// until its timestamp surfaced in the heap)

TEST(EventQueue, CancelDestroysClosureImmediately) {
  EventQueue q;
  int live = 0;
  auto id = q.schedule_at(1000, [s = Sentinel(&live)] { (void)s; });
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(q.cancel(id));
  // The capture must die inside cancel(), not when time 1000 is reached.
  EXPECT_EQ(live, 0);
  q.run();
}

TEST(EventQueue, CancelDestroysFarTimerClosureImmediately) {
  EventQueue q;
  int live = 0;
  // Far beyond the wheel window: this event lives in the spill heap.
  auto id = q.schedule_at(50'000'000, [s = Sentinel(&live)] { (void)s; });
  EXPECT_EQ(live, 1);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(live, 0);
  q.run();
}

TEST(EventQueue, ResetDestroysAllClosures) {
  EventQueue q;
  int live = 0;
  q.schedule_at(10, [s = Sentinel(&live)] { (void)s; });         // wheel
  q.schedule_at(90'000'000, [s = Sentinel(&live)] { (void)s; }); // heap
  EXPECT_EQ(live, 2);
  q.reset();
  EXPECT_EQ(live, 0);
}

TEST(EventQueue, NullIdCancelFails) {
  EventQueue q;
  q.schedule_at(5, [] {});
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StaleIdFromRecycledSlotFails) {
  EventQueue q;
  auto a = q.schedule_at(10, [] {});
  ASSERT_TRUE(q.cancel(a));
  // The slot is recycled for b; a's generation is stale and must not be
  // able to cancel b.
  auto b = q.schedule_at(20, [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(b));
}

// ---------------------------------------------------------------------------
// Stats

TEST(EventQueue, StatsCountSchedulesFiresCancels) {
  EventQueue q;
  auto a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.schedule_at(30, [] {});
  q.cancel(a);
  q.run();
  EXPECT_EQ(q.stats().scheduled, 3u);
  EXPECT_EQ(q.stats().fired, 2u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().peak_pending, 3u);
}

TEST(EventQueue, StatsSplitWheelFromSpill) {
  EventQueue q;
  q.schedule_at(100, [] {});         // inside the 4096 ns wheel window
  q.schedule_at(50'000'000, [] {});  // far timer -> spill heap
  EXPECT_EQ(q.stats().wheel_scheduled, 1u);
  EXPECT_EQ(q.stats().spill_scheduled, 1u);
  q.run();
}

// ---------------------------------------------------------------------------
// Wheel/heap boundary behaviour

TEST(EventQueue, EventsStraddlingTheWindowBoundaryFireInOrder) {
  EventQueue q;
  std::vector<Time> fired;
  // One event per region: last wheel bucket, first spilled time, deep heap.
  q.schedule_at(4095, [&] { fired.push_back(q.now()); });
  q.schedule_at(4096, [&] { fired.push_back(q.now()); });
  q.schedule_at(4097, [&] { fired.push_back(q.now()); });
  q.schedule_at(1'000'000, [&] { fired.push_back(q.now()); });
  q.run();
  EXPECT_EQ(fired, (std::vector<Time>{4095, 4096, 4097, 1'000'000}));
}

TEST(EventQueue, FifoPreservedAcrossSpillMigration) {
  EventQueue q;
  std::vector<int> order;
  // Both at t=10000: the first spills (outside the initial window), the
  // second is scheduled later from inside an event when the window has
  // advanced — FIFO by schedule order must still hold after migration.
  q.schedule_at(10'000, [&] { order.push_back(0); });
  q.schedule_at(9'000, [&] {
    q.schedule_at(10'000, [&] { order.push_back(1); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, IdleGapJumpDoesNotOvershootRunHorizon) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(100'000, [&] { fired = true; });
  // Horizon far before the only event: the clock must stop at the horizon,
  // and the event must survive to a later run().
  EXPECT_EQ(q.run(50'000), 0u);
  EXPECT_EQ(q.now(), 50'000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 100'000);
}

TEST(EventQueue, ManyEventsInOneBucketKeepFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i)
    q.schedule_at(7, [&order, i] { order.push_back(i); });
  q.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// Randomized equivalence against a trivially-correct reference queue

/// The simplest possible correct implementation: a vector of {at, seq,
/// action} scanned linearly for the minimum. Semantics to match: FIFO at
/// equal times, cancel-before-fire, run(until) horizon clock, reset().
class ReferenceQueue {
 public:
  std::uint64_t schedule_at(Time at, std::function<void()> action) {
    events_.push_back({at, next_seq_, std::move(action)});
    return next_seq_++;
  }
  bool cancel(std::uint64_t seq) {
    for (auto it = events_.begin(); it != events_.end(); ++it)
      if (it->seq == seq) {
        events_.erase(it);
        return true;
      }
    return false;
  }
  std::uint64_t run(Time until) {
    std::uint64_t fired = 0;
    for (;;) {
      auto best = events_.end();
      for (auto it = events_.begin(); it != events_.end(); ++it)
        if (best == events_.end() || it->at < best->at ||
            (it->at == best->at && it->seq < best->seq))
          best = it;
      if (best == events_.end() || best->at > until) break;
      now_ = best->at;
      auto action = std::move(best->action);
      events_.erase(best);
      action();
      ++fired;
    }
    if (until != INT64_MAX && now_ < until) now_ = until;
    return fired;
  }
  Time now() const { return now_; }
  std::size_t pending() const { return events_.size(); }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> action;
  };
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 1;
  Time now_ = 0;
};

/// Drive both queues through an identical random schedule/cancel/run script
/// and require identical observable traces.
TEST(EventEngineEquivalence, RandomizedScriptMatchesReference) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed);
    EventQueue fast;
    ReferenceQueue ref;
    std::vector<std::pair<Time, int>> fast_trace, ref_trace;
    std::vector<EventId> fast_ids;
    std::vector<std::uint64_t> ref_ids;
    int tag = 0;

    for (int round = 0; round < 40; ++round) {
      // Burst of schedules: mixed near (wheel), far (heap) and duplicate
      // timestamps to exercise the FIFO tie-break.
      const int n = 1 + static_cast<int>(rng.next_below(12));
      for (int i = 0; i < n; ++i) {
        Time delay;
        switch (rng.next_below(4)) {
          case 0: delay = static_cast<Time>(rng.next_below(16)); break;
          case 1: delay = static_cast<Time>(rng.next_below(4096)); break;
          case 2: delay = static_cast<Time>(rng.next_below(100'000)); break;
          default: delay = static_cast<Time>(rng.next_below(10'000'000));
        }
        const Time at = fast.now() + delay;
        const int t = tag++;
        fast_ids.push_back(
            fast.schedule_at(at, [&fast_trace, &fast, t] {
              fast_trace.emplace_back(fast.now(), t);
            }));
        ref_ids.push_back(ref.schedule_at(at, [&ref_trace, &ref, t] {
          ref_trace.emplace_back(ref.now(), t);
        }));
      }
      // Random cancels (some already-fired ids: results must agree too).
      const int cancels = static_cast<int>(rng.next_below(4));
      for (int i = 0; i < cancels && !fast_ids.empty(); ++i) {
        const auto pick = rng.next_below(fast_ids.size());
        EXPECT_EQ(fast.cancel(fast_ids[pick]), ref.cancel(ref_ids[pick]));
      }
      // Run to a horizon that may fall in an idle gap.
      const Time until = fast.now() + static_cast<Time>(rng.next_below(200'000));
      EXPECT_EQ(fast.run(until), ref.run(until));
      EXPECT_EQ(fast.now(), ref.now()) << "seed " << seed;
      EXPECT_EQ(fast.pending(), ref.pending());
    }
    // Drain both completely.
    fast.run();
    ref.run(INT64_MAX);
    EXPECT_EQ(fast_trace, ref_trace) << "seed " << seed;
    EXPECT_EQ(fast.pending(), 0u);
  }

  // Cancel-heavy script, GM's pattern: far timers armed and most of them
  // cancelled before they surface. Each round first fires a no-op at now(),
  // which migrates every spilled event the window has reached, so the spill
  // heap holds exactly the pending events at or beyond now() + 4096 (the
  // wheel's span). Among those the script cancels the heap's front (the
  // earliest by time, then arming order), its last entry (a timer armed
  // later than every other, which its push leaves at the heap's end), a
  // middle entry and then most of the rest; and one timer that spilled
  // when armed but has since migrated into the wheel. Then it arms a timer
  // at the window's far edge, which must stay spilled until every earlier
  // event has fired.
  constexpr Time kSpan = 4096;
  for (std::uint64_t seed : {6ull, 7ull, 8ull}) {
    Rng rng(seed);
    EventQueue fast;
    ReferenceQueue ref;
    std::vector<std::pair<Time, int>> fast_trace, ref_trace;
    struct Armed {
      Time at;
      bool spilled;  // beyond the window when armed
      EventId fast_id;
      std::uint64_t ref_id;
      bool cancelled = false;
    };
    std::vector<Armed> armed;  // in arming (= sequence) order
    int tag = 0;
    const auto arm = [&](Time at) {
      const int t = tag++;
      armed.push_back(
          {at, at >= fast.now() + kSpan,
           fast.schedule_at(at, [&fast_trace, &fast, t] {
             fast_trace.emplace_back(fast.now(), t);
           }),
           ref.schedule_at(at, [&ref_trace, &ref, t] {
             ref_trace.emplace_back(ref.now(), t);
           })});
    };
    const auto cancel = [&](std::size_t i) {
      EXPECT_TRUE(fast.cancel(armed[i].fast_id)) << "seed " << seed;
      EXPECT_TRUE(ref.cancel(armed[i].ref_id));
      armed[i].cancelled = true;
    };
    const auto pick_one = [&](std::vector<std::size_t>& from) {
      const auto k = static_cast<std::ptrdiff_t>(rng.next_below(from.size()));
      const std::size_t i = from[static_cast<std::size_t>(k)];
      from.erase(from.begin() + k);
      return i;
    };
    for (int round = 0; round < 80; ++round) {
      const int timers = 8 + static_cast<int>(rng.next_below(16));
      for (int i = 0; i < timers; ++i)
        arm(fast.now() + kSpan +
            static_cast<Time>(rng.next_below(rng.next_below(2) ? 50'000
                                                               : 5'000'000)));
      for (int i = static_cast<int>(rng.next_below(4)); i > 0; --i)
        arm(fast.now() + static_cast<Time>(rng.next_below(kSpan)));
      arm(fast.now());
      EXPECT_EQ(fast.run(fast.now()), ref.run(ref.now()));

      // Pending events in the heap, and spilled ones now in the wheel.
      std::vector<std::size_t> in_heap, migrated;
      Time latest = fast.now();
      for (std::size_t i = 0; i < armed.size(); ++i) {
        if (armed[i].cancelled || armed[i].at <= fast.now()) continue;
        latest = std::max(latest, armed[i].at);
        if (armed[i].at >= fast.now() + kSpan)
          in_heap.push_back(i);
        else if (armed[i].spilled)
          migrated.push_back(i);
      }
      if (!in_heap.empty()) {
        const auto front = *std::min_element(
            in_heap.begin(), in_heap.end(), [&](std::size_t a, std::size_t b) {
              return armed[a].at < armed[b].at ||
                     (armed[a].at == armed[b].at && a < b);
            });
        cancel(front);
        std::erase(in_heap, front);
      }
      if (!in_heap.empty()) cancel(pick_one(in_heap));
      arm(std::max(latest, fast.now() + kSpan) + 1);
      cancel(armed.size() - 1);
      while (in_heap.size() > 24) cancel(pick_one(in_heap));
      for (const std::size_t i : in_heap)
        if (rng.next_below(3) == 0) cancel(i);
      if (!migrated.empty()) cancel(pick_one(migrated));
      arm(fast.now() + kSpan);  // the earliest time that spills
      EXPECT_EQ(fast.pending(), ref.pending()) << "seed " << seed;

      const Time until =
          fast.now() + static_cast<Time>(rng.next_below(2'000'000));
      EXPECT_EQ(fast.run(until), ref.run(until));
      EXPECT_EQ(fast.now(), ref.now()) << "seed " << seed;
      EXPECT_EQ(fast.pending(), ref.pending()) << "seed " << seed;
    }
    fast.run();
    ref.run(INT64_MAX);
    EXPECT_EQ(fast_trace, ref_trace) << "seed " << seed;
    EXPECT_EQ(fast.pending(), 0u);
  }
}

TEST(EventEngineEquivalence, ResetMatchesReferenceRestart) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(0); });
  q.schedule_at(5'000'000, [&] { order.push_back(1); });
  q.run(10);
  q.reset();
  EXPECT_EQ(q.now(), 0);
  EXPECT_TRUE(q.empty());
  // The queue is fully reusable after reset, including times below the
  // old clock.
  q.schedule_at(3, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(q.now(), 3);
}

}  // namespace
