// End-to-end tests of multi-stage ITB chains ("more than a single ITB can
// be needed in a path", §1) running through the full stack — real NICs,
// GM reliability, channel accounting — plus flight-recorder coverage.
#include <gtest/gtest.h>

#include <algorithm>

#include "itb/core/cluster.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;

/// Chain of three switches, one host each; hosts 1 serves as a relay for
/// a two-ITB route from h0 to h2 that bounces off BOTH intermediate hosts:
/// h0 -> s0 -> h... Actually: eject at h1 (on s1), re-inject, eject again
/// at h1? A chain with 4 switches and hosts on each gives two distinct
/// in-transit hosts (h1 on s1, h2 on s2) for a route h0 -> h3.
std::unique_ptr<core::Cluster> chain_cluster(
    const nic::McpOptions& mcp = {}, const flight::RecorderConfig& flight = {}) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(4, 1);  // h_i on s_i, trunks s_i - s_{i+1}
  cfg.mcp_options = mcp;
  cfg.flight = flight;
  // make_linear port map: s0 {0: trunk->s1, 1: host}, s1 {0: trunk->s0,
  // 1: trunk->s2, 2: host}, s2 {0: trunk->s1, 1: trunk->s3, 2: host},
  // s3 {0: trunk->s2, 1: host}.
  using Routes = std::vector<std::vector<std::vector<packet::Route>>>;
  Routes r(4, std::vector<std::vector<packet::Route>>(4));
  // The measured route: h0 -> eject at h1 -> eject at h2 -> h3.
  r[0][3] = {{0, 2}, {1, 2}, {1, 1}};
  // Direct service routes for acks and the reverse direction.
  r[3][0] = {{0, 0, 0, 1}};
  r[1][0] = {{0, 1}};
  r[0][1] = {{0, 2}};
  r[2][0] = {{0, 0, 1}};
  r[0][2] = {{0, 1, 2}};
  r[3][1] = {{0, 0, 2}};
  r[1][3] = {{1, 1, 1}};
  r[3][2] = {{0, 2}};
  r[2][3] = {{1, 1}};
  r[2][1] = {{0, 2}};
  r[1][2] = {{1, 2}};
  cfg.manual_routes = std::move(r);
  return std::make_unique<core::Cluster>(std::move(cfg));
}

TEST(ItbChain, TwoItbsDeliverEndToEnd) {
  auto c = chain_cluster();
  Bytes msg(1234);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i ^ (i >> 5));
  Bytes got;
  c->port(3).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
  ASSERT_TRUE(c->port(0).send(3, msg));
  c->run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(c->nic(1).stats().itb_forwarded, 1u);
  EXPECT_EQ(c->nic(2).stats().itb_forwarded, 1u);
  EXPECT_EQ(c->nic(1).stats().delivered_to_host, 0u);
  EXPECT_EQ(c->nic(2).stats().delivered_to_host, 0u);
}

TEST(ItbChain, EachStageAddsRoughlyConstantLatency) {
  // Compare the 2-ITB route against the direct 4-switch route: the extra
  // latency should be about two per-ITB overheads (~1.3 us each).
  auto measure = [](bool via_itbs) {
    auto c = chain_cluster();
    if (!via_itbs) {
      c->nic(0).set_route(3, {{0, 1, 1, 1}});  // direct, no ejections
    }
    sim::Time arrival = -1;
    c->port(3).set_receive_handler(
        [&](sim::Time t, std::uint16_t, Bytes) { arrival = t; });
    c->port(0).send(3, Bytes(64, 1));
    c->run();
    return arrival;
  };
  const auto direct = measure(false);
  const auto chained = measure(true);
  ASSERT_GT(direct, 0);
  // Unlike the Fig. 8 methodology, the comparator here is NOT traversal-
  // equalised: the chained route crosses two extra switches and four extra
  // host links, so the bound is per-ITB cost plus that structural delta.
  const auto overhead = chained - direct;
  EXPECT_GT(overhead, 2 * 1000);  // > 2 x 1.0 us
  EXPECT_LT(overhead, 2 * 2100);  // < 2 x (1.3 us + structural extras)
}

TEST(ItbChain, PipelinedStagesOverlapForLongPackets) {
  // With virtual cut-through at each stage, a long packet's chain latency
  // grows by ~constant per stage, NOT by a full transmission per stage.
  auto measure = [](std::size_t size) {
    auto c = chain_cluster();
    sim::Time arrival = -1;
    c->port(3).set_receive_handler(
        [&](sim::Time t, std::uint16_t, Bytes) { arrival = t; });
    c->port(0).send(3, Bytes(size, 1));
    c->run();
    return arrival;
  };
  // One extra wire transmission of 3600 B would be ~22.5 us; the two-stage
  // chain's length-dependent cost must stay well under one extra copy.
  const auto small = measure(400);
  const auto big = measure(4000);
  const auto per_byte_cost = static_cast<double>(big - small) / 3600.0;
  EXPECT_LT(per_byte_cost, 2.0 * 6.25);  // < wire + PCI, i.e. no S&F stages
}

TEST(ItbChain, ChainSurvivesBackToBackTraffic) {
  auto c = chain_cluster();
  int got = 0;
  c->port(3).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got; });
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(c->port(0).send(3, Bytes(2000, static_cast<std::uint8_t>(i))));
  c->run();
  EXPECT_EQ(got, 12);
  EXPECT_EQ(c->nic(1).stats().itb_forwarded, 12u);
  EXPECT_EQ(c->nic(2).stats().itb_forwarded, 12u);
}

TEST(ItbChain, RelayHostsOwnTrafficInterleaves) {
  // The in-transit hosts also talk; pending-flag service must interleave
  // forwarding duty with their own sends without losses.
  auto c = chain_cluster();
  int got3 = 0, got0 = 0;
  c->port(3).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got3; });
  c->port(0).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got0; });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(c->port(0).send(3, Bytes(3000, 1)));
    ASSERT_TRUE(c->port(1).send(0, Bytes(3000, 2)));
    ASSERT_TRUE(c->port(2).send(0, Bytes(3000, 3)));
  }
  c->run();
  EXPECT_EQ(got3, 6);
  EXPECT_EQ(got0, 12);
}

TEST(ItbChain, TraceRecordsForwardingEvents) {
  auto c = chain_cluster({}, {.enabled = true});
  c->port(3).set_receive_handler([](sim::Time, std::uint16_t, Bytes) {});
  c->port(0).send(3, Bytes(100, 1));
  c->run();
  const auto events = c->flight()->snapshot().events;
  const auto recorded = [&](flight::EventType type, std::uint16_t node) {
    return std::any_of(events.begin(), events.end(), [&](const auto& e) {
      return e.type == type && e.node == node;
    });
  };
  // Both relays re-injected the worm, and the payload reached h3.
  EXPECT_TRUE(recorded(flight::EventType::kReinject, 1));
  EXPECT_TRUE(recorded(flight::EventType::kReinject, 2));
  EXPECT_TRUE(recorded(flight::EventType::kDeliver, 3));
}

TEST(ItbChain, ChannelBusyAccountingCoversAllSegments) {
  auto c = chain_cluster();
  c->port(3).set_receive_handler([](sim::Time, std::uint16_t, Bytes) {});
  c->port(0).send(3, Bytes(500, 1));
  c->run();
  // Every trunk of the chain carried wormhole traffic (data or acks).
  const auto& busy = c->network().channel_busy_ns();
  int active_channels = 0;
  for (auto ns : busy) active_channels += (ns > 0);
  EXPECT_GE(active_channels, 6);  // 3 trunks + host links, both directions
}

TEST(ItbChain, OriginalMcpBreaksTheChain) {
  auto c = chain_cluster(nic::McpOptions::original_gm());
  int got = 0;
  c->port(3).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got; });
  c->port(0).send(3, Bytes(100, 1));
  c->queue().run(5 * sim::kMs);  // bounded: GM would retransmit forever
  EXPECT_EQ(got, 0);
  EXPECT_GT(c->nic(1).stats().rx_unknown_type, 0u);
}

}  // namespace
