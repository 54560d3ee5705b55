// Unit tests for the discrete-event core: event ordering, cancellation,
// clock semantics, RNG determinism and statistics accumulators.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "itb/sim/event_queue.hpp"
#include "itb/sim/rng.hpp"
#include "itb/sim/stats.hpp"

namespace {

using itb::sim::EventQueue;
using itb::sim::Rng;
using itb::sim::RunningStats;
using itb::sim::Time;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) q.schedule_at(5, [&, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  Time fired_at = -1;
  q.schedule_at(100, [&] { q.schedule_in(50, [&] { fired_at = q.now(); }); });
  q.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  auto id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  auto id = q.schedule_at(10, [] {});
  q.run();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { ++count; });
  q.schedule_at(20, [&] { ++count; });
  q.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(q.run(25), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 25);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunEventsBoundsWork) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 5; ++i) q.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(q.run_events(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) q.schedule_in(1, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), 99);
}

TEST(EventQueue, ResetClearsEverything) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run();
  q.schedule_at(50, [] {});
  q.reset();
  EXPECT_EQ(q.now(), 0);
  EXPECT_TRUE(q.empty());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(7);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    auto d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(3);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Time, ScaledBytesTimeRoundsUp) {
  // Myrinet: 1600 ns per 256 bytes = 6.25 ns/byte.
  EXPECT_EQ(itb::sim::scaled_bytes_time(256, 1600), 1600);
  EXPECT_EQ(itb::sim::scaled_bytes_time(4, 1600), 25);
  EXPECT_EQ(itb::sim::scaled_bytes_time(1, 1600), 7);  // 6.25 rounds up
  EXPECT_EQ(itb::sim::scaled_bytes_time(0, 1600), 0);
}

}  // namespace
