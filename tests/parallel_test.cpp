// Tests for the parallel sweep runner: exactly-once execution, inline
// serial path, exception propagation, ordered results, and the determinism
// contract (a real cluster sweep is bit-identical for any job count).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "itb/core/experiments.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using itb::sim::ParallelRunner;
using itb::sim::run_sweep_parallel;

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  const std::size_t count = 100;
  std::vector<std::atomic<int>> hits(count);
  ParallelRunner(4).run_indexed(count, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelRunner, SingleJobRunsInlineInOrder) {
  std::vector<std::size_t> order;
  ParallelRunner(1).run_indexed(10, [&](std::size_t i) {
    order.push_back(i);  // no synchronization: must be the calling thread
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelRunner, ZeroCountIsANoop) {
  bool called = false;
  ParallelRunner(4).run_indexed(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelRunner, ZeroJobsPicksHardwareConcurrency) {
  EXPECT_GE(ParallelRunner(0).jobs(), 1u);
  EXPECT_EQ(ParallelRunner(3).jobs(), 3u);
}

TEST(ParallelRunner, ExceptionPropagatesFromWorker) {
  for (unsigned jobs : {1u, 4u}) {
    EXPECT_THROW(
        ParallelRunner(jobs).run_indexed(
            8,
            [](std::size_t i) {
              if (i == 3) throw std::runtime_error("point 3 failed");
            }),
        std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(RunSweepParallel, ResultsComeBackInPointOrder) {
  for (unsigned jobs : {1u, 4u}) {
    auto out = run_sweep_parallel(
        64, [](std::size_t i) { return static_cast<int>(i * i); }, jobs);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(RunSweepParallel, MoveOnlyResultsWork) {
  auto out = run_sweep_parallel(
      8,
      [](std::size_t i) {
        return std::make_unique<std::size_t>(i);
      },
      4);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

/// The determinism contract on a real simulation: a sweep of independent
/// Fig. 8 clusters (one per message size) must produce bit-identical
/// results for any job count, because each point builds its own cluster.
TEST(RunSweepParallel, ClusterSweepIsBitIdenticalAcrossJobCounts) {
  using namespace itb;
  const std::vector<std::size_t> sizes = {16, 256, 1024};
  auto point = [&](std::size_t i) {
    auto cluster = core::make_fig8_cluster(true, nic::McpOptions{});
    auto r = workload::run_pingpong(cluster->queue(),
                                    cluster->port(core::kHost1),
                                    cluster->port(core::kHost2), sizes[i], 5);
    return r.half_rtt_ns;
  };
  const auto serial = run_sweep_parallel(sizes.size(), point, 1);
  const auto parallel = run_sweep_parallel(sizes.size(), point, 4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
