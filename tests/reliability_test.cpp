// Fault-injection tests: GM's "reliable and ordered packet delivery in
// presence of network faults" (§3) exercised against a lossy and corrupting
// wire, including routes with in-transit buffers.
#include <gtest/gtest.h>

#include <numeric>

#include "itb/core/cluster.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;

std::unique_ptr<core::Cluster> lossy_cluster(double drop, double corrupt,
                                             engine::EngineKind kind,
                                             std::uint64_t seed = 9) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {kind, 1};
  cfg.fault_schedule.drop_probability = drop;
  cfg.fault_schedule.corrupt_probability = corrupt;
  cfg.fault_schedule.seed = seed;
  cfg.gm_config.retransmit_timeout = 200 * sim::kUs;
  return std::make_unique<core::Cluster>(std::move(cfg));
}

struct Collected {
  std::vector<int> order;
  std::size_t bytes = 0;
};

Collected exchange(core::Cluster& c, std::uint16_t src, std::uint16_t dst,
                   int count, std::size_t size) {
  Collected got;
  c.port(dst).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) {
        got.order.push_back(m[0]);
        got.bytes += m.size();
      });
  int next = 0;
  std::function<void()> feed = [&] {
    while (next < count &&
           c.port(src).send(dst, Bytes(size, static_cast<std::uint8_t>(next))))
      ++next;
    if (next < count) c.queue().schedule_in(100 * sim::kUs, feed);
  };
  feed();
  c.run();
  return got;
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, AllMessagesDeliveredInOrderDespiteDrops) {
  auto c = lossy_cluster(GetParam(), 0.0, engine::EngineKind::kUpDown);
  auto got = exchange(*c, 0, 7, 25, 900);
  ASSERT_EQ(got.order.size(), 25u);
  for (int i = 0; i < 25; ++i) EXPECT_EQ(got.order[static_cast<size_t>(i)], i);
  if (GetParam() > 0.0) {
    EXPECT_GT(c->network().stats().faults_injected, 0u);
    EXPECT_GT(c->port(0).stats().retransmissions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossSweep,
                         ::testing::Values(0.0, 0.02, 0.1, 0.3));

class CorruptionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorruptionSweep, CrcCatchesCorruptionAndGmRecovers) {
  auto c = lossy_cluster(0.0, GetParam(), engine::EngineKind::kUpDown);
  auto got = exchange(*c, 2, 5, 20, 700);
  ASSERT_EQ(got.order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got.order[static_cast<size_t>(i)], i);
  if (GetParam() >= 0.1) {
    std::uint64_t bad = 0;
    for (std::uint16_t h = 0; h < c->host_count(); ++h)
      bad += c->nic(h).stats().rx_bad_crc + c->nic(h).stats().rx_unknown_type;
    EXPECT_GT(bad, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CorruptionRates, CorruptionSweep,
                         ::testing::Values(0.0, 0.1, 0.25));

TEST(Reliability, ItbRoutesSurviveLossyWire) {
  // Host pair whose minimal route crosses an in-transit buffer: losses can
  // hit either wormhole segment; GM end-to-end recovery must still hold.
  auto c = lossy_cluster(0.15, 0.05, engine::EngineKind::kItb);
  ASSERT_EQ(c->route_table()->route(4, 1).itb_count(), 1u);
  auto got = exchange(*c, 4, 1, 30, 1200);
  ASSERT_EQ(got.order.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(got.order[static_cast<size_t>(i)], i);
  EXPECT_GT(c->network().stats().faults_injected, 0u);
}

TEST(Reliability, LostInTransitPacketFreesItsBuffer) {
  // A packet lost on its way INTO the in-transit host must not leak the
  // receive buffer it reserved: after heavy loss the fabric still moves
  // traffic (a leak would wedge the 2-buffer NIC permanently).
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {engine::EngineKind::kItb, 1};
  cfg.fault_schedule.drop_probability = 0.5;
  cfg.fault_schedule.seed = 1234;
  cfg.gm_config.retransmit_timeout = 150 * sim::kUs;
  core::Cluster c(std::move(cfg));
  auto got = exchange(c, 4, 1, 10, 400);
  ASSERT_EQ(got.order.size(), 10u);
  std::uint64_t aborted = 0;
  for (std::uint16_t h = 0; h < c.host_count(); ++h)
    aborted += c.nic(h).stats().rx_aborted;
  EXPECT_GT(aborted, 0u);
}

TEST(Reliability, MultiFragmentMessagesSurviveLoss) {
  auto c = lossy_cluster(0.12, 0.0, engine::EngineKind::kUpDown, 77);
  const std::size_t size = 3 * 4000;  // 3 fragments
  Bytes expected(size);
  std::iota(expected.begin(), expected.end(), std::uint8_t{0});
  Bytes got;
  c->port(3).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
  ASSERT_TRUE(c->port(0).send(3, expected));
  c->run();
  EXPECT_EQ(got, expected);
}

TEST(Reliability, BackoffSlowsRetransmissionStorms) {
  // With an aggressive timer and a congested path, the backoff must keep
  // the retransmission count sane (a storm would produce thousands).
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 2);
  cfg.gm_config.retransmit_timeout = 15 * sim::kUs;  // below the loaded RTT
  core::Cluster c(std::move(cfg));
  int got = 0;
  c.port(2).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got; });
  c.port(3).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got; });
  for (int i = 0; i < 8; ++i) {
    c.port(0).send(2, Bytes(4000, 1));
    c.port(1).send(3, Bytes(4000, 2));
  }
  c.run();
  EXPECT_EQ(got, 16);
  const auto rexmit = c.port(0).stats().retransmissions +
                      c.port(1).stats().retransmissions;
  EXPECT_LT(rexmit, 200u);
}

TEST(Reliability, DeterministicUnderFaults) {
  auto run_once = [] {
    auto c = lossy_cluster(0.2, 0.1, engine::EngineKind::kItb, 31337);
    exchange(*c, 0, 6, 15, 800);
    return c->queue().now();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Reliability, SequenceNumbersSurviveWraparound) {
  // Regression: cumulative-ack comparisons used plain <= on the 32-bit
  // sequence space, so the first connection to cross 2^32 stalled forever
  // (every ack looked "stale"). Serial-number arithmetic must carry a lossy
  // connection straight across the boundary.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.fault_schedule.drop_probability = 0.1;
  cfg.fault_schedule.seed = 9;
  cfg.gm_config.retransmit_timeout = 200 * sim::kUs;
  cfg.gm_config.initial_seq = 0xFFFFFFF0u;  // wraps within the first packets
  core::Cluster c(std::move(cfg));
  auto got = exchange(c, 0, 7, 40, 900);
  ASSERT_EQ(got.order.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(got.order[static_cast<size_t>(i)], i);
  EXPECT_GT(c.network().stats().lost, 0u);
}

TEST(Reliability, LostPacketsAreNotCountedDelivered) {
  // Regression: the network used to bump stats_.delivered even for packets
  // the fault injector swallowed; injected must now reconcile exactly with
  // delivered + dropped + lost, and the loss ledger must match the
  // injector's by-cause accounting.
  auto c = lossy_cluster(0.3, 0.0, engine::EngineKind::kUpDown, 4242);
  auto got = exchange(*c, 0, 7, 25, 900);
  ASSERT_EQ(got.order.size(), 25u);
  const auto& ns = c->network().stats();
  EXPECT_GT(ns.lost, 0u);
  EXPECT_EQ(ns.injected, ns.delivered + ns.dropped + ns.lost);
  ASSERT_NE(c->faults(), nullptr);
  EXPECT_EQ(ns.lost, c->faults()->stats().lost_drop);
  EXPECT_EQ(ns.faults_injected,
            c->faults()->stats().lost_drop + c->faults()->stats().corrupted);
}

TEST(Reliability, SenderGivesUpAfterMaxRetries) {
  // Regression: on_timeout retransmitted forever. Against a wire that eats
  // every packet the sender must declare the peer dead after max_retries,
  // fail the pending messages and hand the tokens back.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.fault_schedule.drop_probability = 1.0;  // nothing ever arrives
  cfg.gm_config.retransmit_timeout = 50 * sim::kUs;
  cfg.gm_config.max_retries = 4;
  core::Cluster c(std::move(cfg));
  std::uint32_t failed = 0;
  c.port(0).set_send_failure_handler(
      [&](sim::Time, std::uint16_t, std::uint32_t n) { failed += n; });
  ASSERT_TRUE(c.port(0).send(7, Bytes(600, 1)));
  ASSERT_TRUE(c.port(0).send(7, Bytes(600, 2)));
  EXPECT_EQ(c.port(0).tokens_in_use(), 2);
  c.run();
  EXPECT_TRUE(c.port(0).peer_failed(7));
  EXPECT_EQ(failed, 2u);
  EXPECT_EQ(c.port(0).stats().send_failures, 1u);
  EXPECT_EQ(c.port(0).stats().messages_failed, 2u);
  EXPECT_EQ(c.port(0).tokens_in_use(), 0);
  EXPECT_EQ(c.port(0).stats().retransmissions,
            4u * 2u);  // 4 barren rounds x 2 outstanding packets
  // The queue drained: no timer left spinning on the dead connection.
  EXPECT_FALSE(c.port(0).send(7, Bytes(10, 3)));
}

}  // namespace
