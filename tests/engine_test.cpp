// Deadlock-engine subsystem (DESIGN.md §6l): the policy interface that
// re-expresses up*/down*, the paper's ITBs and the new virtual-channel
// escape engine behind one abstraction — lane ladder decomposition, the
// vc-lane fallback when a minimal route needs more segments than lanes,
// per-lane CDG verification, cluster wiring (bind, recovery re-bind), the
// multi-lane zero-allocation steady state, and patch-vs-fresh parity for
// kVcEscape tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>

#include "itb/core/cluster.hpp"
#include "itb/engine/engine.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using engine::EngineKind;
using engine::EngineSpec;
using packet::Bytes;

// ------------------------------------------------------------ factory --

TEST(EngineFactory, ThreeEnginesExposeTheirContracts) {
  const auto ud = engine::make_engine({EngineKind::kUpDown, 1});
  EXPECT_EQ(ud->kind(), EngineKind::kUpDown);
  EXPECT_STREQ(ud->name(), "updown");
  EXPECT_EQ(ud->policy(), routing::Policy::kUpDown);
  EXPECT_EQ(ud->lane_count(), 1u);
  EXPECT_EQ(ud->buffer_lanes_per_port(), 1u);
  EXPECT_FALSE(ud->uses_host_buffers());

  const auto itb = engine::make_engine({EngineKind::kItb, 1});
  EXPECT_EQ(itb->kind(), EngineKind::kItb);
  EXPECT_STREQ(itb->name(), "itb");
  EXPECT_EQ(itb->policy(), routing::Policy::kItb);
  EXPECT_EQ(itb->lane_count(), 1u);
  EXPECT_TRUE(itb->uses_host_buffers());

  const auto vc = engine::make_engine({EngineKind::kVcEscape, 3});
  EXPECT_EQ(vc->kind(), EngineKind::kVcEscape);
  EXPECT_STREQ(vc->name(), "vc-escape");
  EXPECT_EQ(vc->policy(), routing::Policy::kVcEscape);
  EXPECT_EQ(vc->lane_count(), 3u);
  EXPECT_EQ(vc->buffer_lanes_per_port(), 3u);
  EXPECT_FALSE(vc->uses_host_buffers());

  // The escape scheme needs at least two lanes to mean anything.
  EXPECT_GE(engine::make_engine({EngineKind::kVcEscape, 0})->lane_count(), 2u);
  EXPECT_STREQ(engine::to_string(EngineKind::kVcEscape), "vc-escape");
}

// ------------------------------------------------- ladder decomposition --

/// Valley fabric: two hosts whose unique minimal path is
/// down,up,down,up (3 up*/down* segments), while the shortest legal
/// up*/down* route detours over the root (6 trunks). Three towers hang off
/// root 0 so the BFS depths put the valley floor below both peaks:
///
///   0-6-7-[1]   0-10-11-[3]   0-8-9-[5]      (towers)
///   [1]-2-[3]-4-[5]                          (valley, hosts at 1 and 5)
topo::Topology make_valley() {
  topo::Topology t;
  for (int s = 0; s < 12; ++s) t.add_switch(4);
  t.add_host();
  t.add_host();
  t.connect_switches(0, 0, 6, 0);
  t.connect_switches(6, 1, 7, 0);
  t.connect_switches(7, 1, 1, 0);
  t.connect_switches(0, 1, 8, 0);
  t.connect_switches(8, 1, 9, 0);
  t.connect_switches(9, 1, 5, 0);
  t.connect_switches(0, 2, 10, 0);
  t.connect_switches(10, 1, 11, 0);
  t.connect_switches(11, 1, 3, 0);
  t.connect_switches(1, 1, 2, 0);
  t.connect_switches(2, 1, 3, 1);
  t.connect_switches(3, 2, 4, 0);
  t.connect_switches(4, 1, 5, 1);
  t.attach_host(0, 1, 2);
  t.attach_host(1, 5, 2);
  return t;
}

TEST(LaneLadder, ValleyRouteDecomposesIntoThreeSegments) {
  const auto t = make_valley();
  routing::UpDown ud(t, 0);
  routing::Router router(ud);
  routing::RouteTable vc3(router, routing::Policy::kVcEscape, 1, 3);

  const auto r = vc3.route(0, 1);
  ASSERT_EQ(r.trunk_hops(), 4u);  // the minimal valley path
  EXPECT_EQ(router.updown_segments(r.trunk_channels()), 3u);
  EXPECT_TRUE(r.in_transit_hosts().empty());
  ASSERT_EQ(r.segment_count(), 1u);

  auto eng = engine::make_engine({EngineKind::kVcEscape, 3});
  eng->bind(ud, t, {});
  const auto lanes = engine::trunk_lanes(*eng, r);
  EXPECT_EQ(lanes, (std::vector<std::uint8_t>{0, 1, 1, 2}));
}

TEST(LaneLadder, RouteFallsBackToUpDownWhenOutOfLanes) {
  const auto t = make_valley();
  routing::UpDown ud(t, 0);
  routing::Router router(ud);
  routing::RouteTable vc2(router, routing::Policy::kVcEscape, 1, 2);
  routing::RouteTable plain(router, routing::Policy::kUpDown, 1);

  // 3 segments > 2 lanes: the row degrades to the exact up*/down* route.
  EXPECT_EQ(vc2.route(0, 1).trunk_hops(), 6u);
  EXPECT_TRUE(std::ranges::equal(vc2.route(0, 1).trunk_channels(),
                                 plain.route(0, 1).trunk_channels()));
  EXPECT_LT(vc2.minimal_fraction(router), 1.0);

  // One more lane restores minimality — and the per-lane CDG stays acyclic
  // in both configurations.
  routing::RouteTable vc3(router, routing::Policy::kVcEscape, 1, 3);
  EXPECT_DOUBLE_EQ(vc3.minimal_fraction(router), 1.0);
  for (unsigned lanes : {2u, 3u}) {
    auto eng = engine::make_engine({EngineKind::kVcEscape, lanes});
    eng->bind(ud, t, {});
    const auto& table = lanes == 2 ? vc2 : vc3;
    EXPECT_TRUE(engine::verify_deadlock_free(*eng, table, t)) << lanes;
  }
}

TEST(LaneLadder, LaneSequenceIsMonotoneAndMatchesSegmentCount) {
  // Invariant on every solved route, fallback rows included: lanes only
  // ratchet upward and the last lane index is segments - 1.
  for (auto& t : {topo::make_fig1_network(), make_valley(),
                  topo::make_ring(8, 2)}) {
    routing::UpDown ud(t, 0);
    routing::Router router(ud);
    routing::RouteTable table(router, routing::Policy::kVcEscape, 1, 3);
    auto eng = engine::make_engine({EngineKind::kVcEscape, 3});
    eng->bind(ud, t, {});
    const auto hosts = t.host_count();
    for (std::uint16_t s = 0; s < hosts; ++s)
      for (std::uint16_t d = 0; d < hosts; ++d) {
        if (s == d) continue;
        const auto r = table.route(s, d);
        if (r.empty()) continue;
        const auto lanes = engine::trunk_lanes(*eng, r);
        for (std::size_t i = 1; i < lanes.size(); ++i)
          EXPECT_LE(lanes[i - 1], lanes[i]);
        if (!lanes.empty()) {
          EXPECT_EQ(lanes.back() + 1u,
                    router.updown_segments(r.trunk_channels()));
        }
      }
  }
}

// ----------------------------------------------------- minimal_fraction --

TEST(SolveFlags, UnrestrictedEngineReportsFullMinimalityUnspecialCased) {
  // Satellite check: an engine with no routing restriction must come out of
  // the same minimal_fraction computation as everything else and report
  // exactly 1.0 — no policy-specific carve-out.
  for (auto& t : {topo::make_fig1_network(), topo::make_fat_tree(4)}) {
    routing::UpDown ud(t, 0);
    routing::Router router(ud);
    routing::RouteTable vc(router, routing::Policy::kVcEscape, 1, 8);
    EXPECT_DOUBLE_EQ(vc.minimal_fraction(router), 1.0);
    EXPECT_DOUBLE_EQ(vc.average_itbs(), 0.0);
  }
}

// ------------------------------------------------------ cluster wiring --

TEST(EngineCluster, VcEscapeDeliversEndToEndWithoutHostBuffers) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = EngineSpec{EngineKind::kVcEscape, 2};
  core::Cluster c(std::move(cfg));

  EXPECT_EQ(c.network().lane_count(), 2u);
  EXPECT_EQ(c.deadlock_engine().kind(), EngineKind::kVcEscape);
  EXPECT_EQ(c.nic(0).injection_lane(), 0u);
  EXPECT_TRUE(c.routes_deadlock_free());

  int got = 0;
  c.port(5).set_receive_handler(
      [&got](sim::Time, std::uint16_t, Bytes) { ++got; });
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(c.port(0).send(5, Bytes(256, static_cast<std::uint8_t>(i))));
  c.run();
  EXPECT_EQ(got, 8);
  EXPECT_EQ(c.network().in_flight(), 0u);
  // Minimal routing with NO in-transit forwarding: that is the trade.
  for (std::uint16_t h = 0; h < c.host_count(); ++h)
    EXPECT_EQ(c.nic(h).stats().itb_forwarded, 0u);
}

TEST(EngineCluster, VcEscapeSolvesForTheLanesTheNetworkRuns) {
  // The engine raises a 1-lane request to its 2-lane minimum; the boot
  // table must be solved for the lanes the network actually runs.
  auto build = [](unsigned lanes) {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_fig1_network();
    cfg.engine = EngineSpec{EngineKind::kVcEscape, lanes};
    return std::make_unique<core::Cluster>(std::move(cfg));
  };
  const auto one = build(1);
  const auto two = build(2);
  ASSERT_NE(one->route_table(), nullptr);
  EXPECT_EQ(one->network().lane_count(), 2u);
  EXPECT_EQ(one->route_table()->vc_lanes(), one->network().lane_count());
  std::ostringstream got, want;
  one->route_table()->dump(got);
  two->route_table()->dump(want);
  EXPECT_EQ(got.str(), want.str());
}

TEST(EngineCluster, PolicyAloneDerivesTheMatchingEngine) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {engine::EngineKind::kItb, 1};
  core::Cluster c(std::move(cfg));
  EXPECT_EQ(c.deadlock_engine().kind(), EngineKind::kItb);
  EXPECT_EQ(c.network().lane_count(), 1u);
  EXPECT_TRUE(c.routes_deadlock_free());
}

TEST(EngineCluster, VcEscapeChaosSoakHasNoUnrecoveredWedges) {
  // PR-3/PR-4 style chaos (link + switch windows, NIC stalls, lossy wire)
  // with the watchdog armed: the VC engine must ride the remap/re-bind
  // cycle with zero unrecovered stall verdicts and a reconciled ledger.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = EngineSpec{EngineKind::kVcEscape, 2};
  cfg.gm_config.retransmit_timeout = 150 * sim::kUs;
  cfg.gm_config.max_retries = 8;
  cfg.remap_delay = 300 * sim::kUs;
  cfg.watchdog.enabled = true;
  fault::FaultSchedule::ChaosSpec spec;
  spec.horizon = 8 * sim::kMs;
  spec.link_windows = 3;
  spec.switch_windows = 1;
  spec.stall_windows = 1;
  spec.mean_duration = 400 * sim::kUs;
  spec.seed = 9;
  spec.protected_hosts = {0, 5};
  cfg.fault_schedule = fault::FaultSchedule::chaos(cfg.topology, spec);
  cfg.fault_schedule.drop_probability = 0.02;
  core::Cluster c(std::move(cfg));

  int got = 0;
  c.port(5).set_receive_handler(
      [&got](sim::Time, std::uint16_t, Bytes) { ++got; });
  int accepted = 0;
  // The closure lives in this frame: c.run() drains every scheduled retry.
  std::function<void()> feed = [&] {
    if (c.port(0).peer_failed(5)) return;
    while (accepted < 30 &&
           c.port(0).send(5, Bytes(1000, static_cast<std::uint8_t>(accepted))))
      ++accepted;
    if (accepted < 30)
      c.queue().schedule_in(100 * sim::kUs, [&feed] { feed(); });
  };
  feed();
  c.run();

  EXPECT_GT(got, 0);
  const auto& ns = c.network().stats();
  EXPECT_EQ(ns.injected, ns.delivered + ns.dropped + ns.lost);
  ASSERT_NE(c.health(), nullptr);
  EXPECT_EQ(c.health()->verdict().unrecovered, 0u);
  ASSERT_NE(c.recovery(), nullptr);
  EXPECT_GE(c.recovery()->stats().remaps, 1u);
}

// -------------------------------------------------- zero-alloc hot path --

/// Re-injects every delivered packet from its original source: a closed
/// recirculating flow set (same as slab_pool_test, but over routes that
/// WOULD deadlock on one lane — the 2-lane ring proof running forever).
class RecyclingHost : public net::HostHooks {
 public:
  struct Flow {
    std::uint16_t src = 0;
    Bytes route_prefix;
  };

  RecyclingHost(net::Network& network, std::vector<Flow>& flows)
      : network_(network), flows_(flows) {}

  void on_rx_head(sim::Time, net::TxHandle) override {}
  void on_rx_early_header(sim::Time, net::TxHandle, const Bytes&) override {}
  void on_tx_started(sim::Time, net::TxHandle) override {}
  void on_tx_complete(sim::Time, net::TxHandle) override {}
  void on_rx_complete(sim::Time, net::WirePacket pkt) override {
    Flow& flow = flows_[pkt.src_host];
    Bytes buf = std::move(pkt.bytes);
    buf.insert(buf.begin(), flow.route_prefix.begin(),
               flow.route_prefix.end());
    network_.inject(flow.src, std::move(buf));
  }

 private:
  net::Network& network_;
  std::vector<Flow>& flows_;
};

TEST(ZeroAlloc, MultiLaneSteadyStateMakesNoHeapAllocations) {
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";

  // Ring of four, one host per switch, every host sending two hops
  // clockwise — the canonical cyclic dependency, legal only because the
  // 2-lane escape engine is arbitrating.
  topo::Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_switch(4);
  for (int i = 0; i < 4; ++i) topo.add_host();
  for (std::uint16_t s = 0; s < 4; ++s)
    topo.connect_switches(s, 1, static_cast<std::uint16_t>((s + 1) % 4), 0);
  for (std::uint16_t h = 0; h < 4; ++h) topo.attach_host(h, h, 2);

  sim::EventQueue queue;
  net::Network network(topo, net::NetTiming{}, queue);
  auto eng = engine::make_engine({EngineKind::kVcEscape, 2});
  eng->bind(routing::UpDown(topo, 0), topo, {});
  network.set_lane_policy(eng.get());
  ASSERT_EQ(network.lane_count(), 2u);

  std::vector<RecyclingHost::Flow> flows(4);
  std::vector<std::unique_ptr<RecyclingHost>> hosts;
  for (std::uint16_t h = 0; h < 4; ++h) {
    hosts.push_back(std::make_unique<RecyclingHost>(network, flows));
    network.attach_host(h, hosts.back().get());
  }
  const packet::Route route{1, 1, 2};
  for (std::uint16_t h = 0; h < 4; ++h) {
    flows[h].src = h;
    for (std::uint8_t port : route)
      flows[h].route_prefix.push_back(packet::encode_route_byte(port));
    network.inject(h, packet::build_packet(route, packet::PacketType::kGm,
                                           Bytes(64, h)));
  }

  queue.run_events(100'000);
  ASSERT_GT(network.stats().delivered, 0u);

  const std::uint64_t before = sim::total_allocations();
  queue.run_events(200'000);
  const std::uint64_t after = sim::total_allocations();
  EXPECT_EQ(after - before, 0u)
      << "multi-lane steady state allocated " << (after - before) << " times";
  EXPECT_EQ(network.in_flight(), 4u);  // the flows keep circulating
}

// ------------------------------------------------------ patch soundness --

TEST(VcEscape, PatchedTableMatchesFreshSolveAfterLinkLoss) {
  const auto t = topo::make_fig1_network();
  routing::UpDown base(t, 0);

  auto diff = [&t](const routing::UpDown& from, const routing::UpDown& to) {
    routing::LinkDelta delta;
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      const bool was = from.link_usable(l);
      const bool now = to.link_usable(l);
      if (was && !now)
        delta.removed.push_back(l);
      else if (!was && now)
        delta.added.push_back(l);
      else if (was && now && from.up_end(l) != to.up_end(l)) {
        delta.removed.push_back(l);
        delta.added.push_back(l);
      }
    }
    return delta;
  };

  int exercised = 0;
  for (topo::LinkId l = 0; l < t.link_count() && exercised < 3; ++l) {
    const auto& lk = t.link(l);
    if (lk.a.node.kind != topo::NodeKind::kSwitch ||
        lk.b.node.kind != topo::NodeKind::kSwitch)
      continue;
    std::vector<char> mask(t.link_count(), 1);
    mask[l] = 0;
    routing::UpDown degraded(t, 0, mask);
    bool connected = true;
    for (std::uint16_t sw = 0; sw < t.switch_count(); ++sw)
      connected = connected && degraded.reached(sw);
    if (!connected) continue;  // a cut link would unroute hosts, skip
    ++exercised;

    routing::Router base_router(base);
    routing::RouteTable table(base_router, routing::Policy::kVcEscape, 1, 2);
    table.enable_patching(base_router);

    routing::Router degraded_router(degraded);
    table.patch(degraded_router, diff(base, degraded), 1);

    routing::RouteTable fresh(degraded_router, routing::Policy::kVcEscape, 1,
                              2);
    std::ostringstream patched, solved;
    table.dump(patched);
    fresh.dump(solved);
    EXPECT_EQ(patched.str(), solved.str()) << "after losing link " << l;
  }
  EXPECT_GE(exercised, 1);
}

}  // namespace
