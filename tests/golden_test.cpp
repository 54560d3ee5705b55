// Golden regression tests: the simulation is deterministic, so the
// paper-calibrated headline numbers are exact values, not ranges. If a
// timing-model change moves them, these tests force the change to be a
// conscious recalibration (update EXPERIMENTS.md alongside).
#include <gtest/gtest.h>

#include "itb/core/experiments.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

double fig7_delta_ns(std::size_t size) {
  core::Cluster orig(core::fig7_config(false));
  core::Cluster mod(core::fig7_config(true));
  auto a = workload::run_pingpong(orig.queue(), orig.port(core::kHost1),
                                  orig.port(core::kHost2), size, 3);
  auto b = workload::run_pingpong(mod.queue(), mod.port(core::kHost1),
                                  mod.port(core::kHost2), size, 3);
  return b.half_rtt_ns - a.half_rtt_ns;
}

double fig8_overhead_ns(std::size_t size) {
  core::Cluster ud(core::fig8_config(false));
  core::Cluster itb(core::fig8_config(true));
  auto a = workload::run_pingpong(ud.queue(), ud.port(core::kHost1),
                                  ud.port(core::kHost2), size, 3);
  auto b = workload::run_pingpong(itb.queue(), itb.port(core::kHost1),
                                  itb.port(core::kHost2), size, 3);
  return 2.0 * (b.half_rtt_ns - a.half_rtt_ns);
}

TEST(Golden, Fig7SteadyStateDeltaIs120ns) {
  // The ITB-capable MCP's per-packet receive-path cost: 4 LANai cycles at
  // 30 ns. (Paper: ~125 ns average.)
  EXPECT_DOUBLE_EQ(fig7_delta_ns(256), 120.0);
  EXPECT_DOUBLE_EQ(fig7_delta_ns(1024), 120.0);
  EXPECT_DOUBLE_EQ(fig7_delta_ns(4000), 120.0);
}

TEST(Golden, Fig7TinyPacketWorstCaseIs234ns) {
  // Early Recv handler collision on the MCP CPU. (Paper: < 300 ns.)
  EXPECT_DOUBLE_EQ(fig7_delta_ns(4), 234.0);
}

TEST(Golden, Fig8PerItbOverheadIs1319ns) {
  // 25 ns (4 wire bytes) + 180 ns (Early Recv) + 780 ns (program DMA)
  // + 360 ns (DMA spin-up) + link extras. (Paper: ~1.3 us.)
  EXPECT_DOUBLE_EQ(fig8_overhead_ns(256), 1319.0);
  EXPECT_DOUBLE_EQ(fig8_overhead_ns(4000), 1319.0);
}

TEST(Golden, Fig7BaselineLatenciesStable) {
  core::Cluster orig(core::fig7_config(false));
  auto row = workload::run_pingpong(orig.queue(), orig.port(core::kHost1),
                                    orig.port(core::kHost2), 4, 3);
  EXPECT_DOUBLE_EQ(row.half_rtt_ns, 9059.5);
  EXPECT_DOUBLE_EQ(row.stddev_ns, 0.0);  // unloaded determinism
}

TEST(Golden, Fig8PathsTraverseFiveSwitchesWorth) {
  // Both Fig. 8 forward paths carry the same switch-count latency: their
  // absolute half-RTTs differ by exactly half the per-ITB overhead.
  core::Cluster ud(core::fig8_config(false));
  core::Cluster itb(core::fig8_config(true));
  auto a = workload::run_pingpong(ud.queue(), ud.port(core::kHost1),
                                  ud.port(core::kHost2), 64, 3);
  auto b = workload::run_pingpong(itb.queue(), itb.port(core::kHost1),
                                  itb.port(core::kHost2), 64, 3);
  EXPECT_DOUBLE_EQ(b.half_rtt_ns - a.half_rtt_ns, 1319.0 / 2.0);
}

}  // namespace
