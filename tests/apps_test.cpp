// Tests for the distributed-application kernels and the routing-level
// optimisation knobs (root selection, ITB host spread).
#include <gtest/gtest.h>

#include <map>

#include "itb/core/cluster.hpp"
#include "itb/workload/apps.hpp"

namespace {

using namespace itb;

std::unique_ptr<core::Cluster> small_cluster(
    engine::EngineKind kind,
    routing::ItbHostSelection sel = routing::ItbHostSelection::kLowestIndex) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {kind, 1};
  cfg.itb_selection = sel;
  cfg.gm_config.send_tokens = 32;
  cfg.gm_config.window = 16;
  return std::make_unique<core::Cluster>(std::move(cfg));
}

TEST(Apps, AllToAllCompletes) {
  auto c = small_cluster(engine::EngineKind::kItb);
  auto r = workload::run_all_to_all(c->queue(), c->ports(), 256, 1);
  EXPECT_EQ(r.messages, 8u * 7u);
  EXPECT_EQ(r.bytes, 8u * 7u * 256u);
  EXPECT_GT(r.makespan, 0);
}

TEST(Apps, AllToAllMultipleRounds) {
  auto c = small_cluster(engine::EngineKind::kUpDown);
  auto r = workload::run_all_to_all(c->queue(), c->ports(), 64, 3);
  EXPECT_EQ(r.messages, 3u * 8u * 7u);
}

TEST(Apps, RingExchangeCompletesEveryRound) {
  auto c = small_cluster(engine::EngineKind::kItb);
  auto r = workload::run_ring_exchange(c->queue(), c->ports(), 1024, 5);
  EXPECT_EQ(r.messages, 5u * 8u);
  EXPECT_EQ(r.bytes, 5u * 8u * 1024u);
}

TEST(Apps, RingRoundsAreOrdered) {
  // Round k+1 cannot start before round k's message arrived: the makespan
  // of r rounds grows linearly in r.
  auto c1 = small_cluster(engine::EngineKind::kUpDown);
  auto one = workload::run_ring_exchange(c1->queue(), c1->ports(), 512, 1);
  auto c4 = small_cluster(engine::EngineKind::kUpDown);
  auto four = workload::run_ring_exchange(c4->queue(), c4->ports(), 512, 4);
  EXPECT_GT(four.makespan, 3 * one.makespan);
}

TEST(Apps, MasterWorkerCompletes) {
  auto c = small_cluster(engine::EngineKind::kItb);
  auto r = workload::run_master_worker(c->queue(), c->ports(), 512, 128, 3);
  EXPECT_EQ(r.messages, 3u * 2u * 7u);
}

TEST(Apps, RejectsDegenerateInputs) {
  auto c = small_cluster(engine::EngineKind::kUpDown);
  std::vector<gm::GmPort*> one{c->ports()[0]};
  EXPECT_THROW(workload::run_all_to_all(c->queue(), one, 64, 1),
               std::invalid_argument);
  EXPECT_THROW(workload::run_ring_exchange(c->queue(), one, 64, 1),
               std::invalid_argument);
  EXPECT_THROW(workload::run_master_worker(c->queue(), one, 64, 64, 1),
               std::invalid_argument);
}

// ------------------------------------------------- routing optimisations --

TEST(RoutingOpts, SelectBestRootNeverWorseThanDefault) {
  sim::Rng rng(1);
  for (int trial = 0; trial < 4; ++trial) {
    topo::IrregularSpec spec;
    spec.switches = 12;
    spec.hosts_per_switch = 2;
    auto topo = topo::make_random_irregular(spec, rng);
    const auto best = routing::select_best_root(topo);
    auto avg_hops = [&](std::uint16_t root) {
      routing::UpDown ud(topo, root);
      routing::Router router(ud);
      routing::RouteTable table(router, routing::Policy::kUpDown);
      return table.average_trunk_hops();
    };
    EXPECT_LE(avg_hops(best), avg_hops(0) + 1e-9) << "trial " << trial;
  }
}

TEST(RoutingOpts, SelectBestRootTieBreaksLow) {
  // On a tree (no cycles) every orientation permits every shortest path,
  // so all roots cost the same and the tie breaks toward switch 0.
  auto topo = topo::make_linear(5, 1);
  EXPECT_EQ(routing::select_best_root(topo), 0);
}

TEST(RoutingOpts, SelectBestRootPrefersHubOnWheel) {
  // A hub switch connected to every rim switch, rim also a ring: rooting
  // at the hub keeps every legal path minimal; rim roots force detours.
  topo::Topology t;
  for (int i = 0; i < 7; ++i) t.add_switch(8);  // 0 = hub, 1..6 rim
  std::vector<std::uint8_t> port(7, 0);
  for (std::uint16_t r = 1; r <= 6; ++r)
    t.connect_switches(0, port[0]++, r, port[r]++);
  for (std::uint16_t r = 1; r <= 6; ++r) {
    auto next = static_cast<std::uint16_t>(r == 6 ? 1 : r + 1);
    t.connect_switches(r, port[r]++, next, port[next]++);
  }
  for (std::uint16_t r = 0; r < 7; ++r) {
    t.add_host();
    t.attach_host(r, r, port[r]++);
  }
  EXPECT_EQ(routing::select_best_root(t), 0);
}

TEST(RoutingOpts, SpreadSelectionDistributesItbDuty) {
  // A network with several hosts per switch: spread selection must lower
  // the busiest host's forwarding duty and keep route lengths identical.
  sim::Rng rng(5);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 4;
  auto topo = topo::make_random_irregular(spec, rng);
  routing::UpDown ud(topo);

  auto duty_and_hops = [&](routing::ItbHostSelection sel) {
    routing::Router router(ud, sel);
    routing::RouteTable table(router, routing::Policy::kItb);
    std::map<std::uint16_t, std::size_t> duty;
    for (std::uint16_t s = 0; s < table.host_count(); ++s)
      for (std::uint16_t d = 0; d < table.host_count(); ++d) {
        if (s == d) continue;
        for (auto h : table.route(s, d).in_transit_hosts()) ++duty[h];
      }
    std::size_t max_duty = 0;
    for (auto& [h, n] : duty) max_duty = std::max(max_duty, n);
    return std::pair(max_duty, table.average_trunk_hops());
  };
  auto [low_duty, low_hops] = duty_and_hops(routing::ItbHostSelection::kLowestIndex);
  auto [spread_duty, spread_hops] = duty_and_hops(routing::ItbHostSelection::kSpread);
  EXPECT_LT(spread_duty, low_duty);
  EXPECT_DOUBLE_EQ(spread_hops, low_hops);
}

TEST(RoutingOpts, SpreadRoutesStillDeliver) {
  auto c = small_cluster(engine::EngineKind::kItb,
                         routing::ItbHostSelection::kSpread);
  int got = 0;
  for (std::uint16_t h = 0; h < 8; ++h)
    c->port(h).set_receive_handler(
        [&](sim::Time, std::uint16_t, packet::Bytes) { ++got; });
  for (std::uint16_t h = 0; h < 8; ++h)
    c->port(h).send(static_cast<std::uint16_t>((h + 5) % 8),
                    packet::Bytes(300, 1));
  c->run();
  EXPECT_EQ(got, 8);
}

TEST(RoutingOpts, ItbKernelsMatchUpDownResults) {
  // Same kernel, both policies: byte counts must agree (routing must never
  // change what the application sees).
  auto a = small_cluster(engine::EngineKind::kUpDown);
  auto b = small_cluster(engine::EngineKind::kItb);
  auto ra = workload::run_all_to_all(a->queue(), a->ports(), 512, 1);
  auto rb = workload::run_all_to_all(b->queue(), b->ports(), 512, 1);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.bytes, rb.bytes);
}

}  // namespace
