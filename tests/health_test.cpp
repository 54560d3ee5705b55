// Liveness watchdog, wait-graph diagnosis and graceful degradation.
//
// The centrepiece is the §8 buffer-wait wedge made reproducible: a ring of
// four switches whose ITB routes all hop two segments clockwise provably
// deadlocks under the faithful 2-buffer stop-when-full MCP — every NIC's
// receive pool fills with ITB packets whose re-injections wait on ring
// channels held by worms waiting on other full pools. The static
// buffer-augmented dependency graph predicts the wedge, the control run
// demonstrates it, and the watchdog run must detect it, name the buffer
// cycle, degrade the wedged NICs to §4 drop-on-full and drain the network
// with exactly-once delivery intact (GM retransmission recovers the
// drops).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/fault/fault.hpp"
#include "itb/flight/recorder.hpp"
#include "itb/health/diagnosis.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;

// ------------------------------------------------------------- ring rig --

/// Ring of four switches, one host per switch; ports 0/1 run the ring
/// (s p1 -> s+1 p0), port 2 serves the host. Link s is trunk s -> s+1.
topo::Topology make_ring() {
  topo::Topology t;
  for (int i = 0; i < 4; ++i) t.add_switch(4);
  for (int i = 0; i < 4; ++i) t.add_host();
  for (std::uint16_t s = 0; s < 4; ++s)
    t.connect_switches(s, 1, static_cast<std::uint16_t>((s + 1) % 4), 0);
  for (std::uint16_t h = 0; h < 4; ++h) t.attach_host(h, h, 2);
  return t;
}

/// Every host talks to the host two switches clockwise through the ITB
/// host one switch clockwise: h -> (h+2)%4 via (h+1)%4, two one-hop
/// segments {1,2}. Acks travel the same pattern, so all four receive
/// pools are under in-transit pressure at once.
core::ClusterConfig ring_config() {
  core::ClusterConfig cfg;
  cfg.topology = make_ring();
  using Routes = std::vector<std::vector<std::vector<packet::Route>>>;
  Routes r(4, std::vector<std::vector<packet::Route>>(4));
  for (std::uint16_t h = 0; h < 4; ++h)
    r[h][(h + 2) % 4] = {{1, 2}, {1, 2}};
  cfg.manual_routes = std::move(r);
  cfg.gm_config.retransmit_timeout = 3 * sim::kMs;
  cfg.gm_config.max_retries = 0;  // retry forever: recovery must drain all
  return cfg;
}

constexpr int kRingMessages = 10;  // per host
constexpr std::size_t kRingBytes = 1500;

/// Start the all-pairs clockwise load; delivered[flow][msg] counts arrivals.
void start_ring_load(core::Cluster& c,
                     std::map<int, std::map<int, int>>& delivered) {
  for (std::uint16_t h = 0; h < 4; ++h) {
    const auto dst = static_cast<std::uint16_t>((h + 2) % 4);
    c.port(dst).set_receive_handler(
        [&delivered, dst](sim::Time, std::uint16_t src, Bytes m) {
          ++delivered[src * 4 + dst][m.at(0)];
        });
  }
  for (int i = 0; i < kRingMessages; ++i)
    for (std::uint16_t h = 0; h < 4; ++h) {
      Bytes m(kRingBytes, 0);
      m[0] = static_cast<std::uint8_t>(i);
      ASSERT_TRUE(c.port(h).send(static_cast<std::uint16_t>((h + 2) % 4),
                                 std::move(m)));
    }
}

int total_delivered(const std::map<int, std::map<int, int>>& delivered) {
  int n = 0;
  for (const auto& [flow, msgs] : delivered)
    for (const auto& [id, count] : msgs) n += count;
  return n;
}

// ------------------------------------------------- static §8 prediction --

TEST(BufferAugmentedCdg, RingItbRoutesAcyclicClassicallyButWedgeCapable) {
  const auto topo = make_ring();
  // Hand-built one-route rows matching ring_config()'s manual routes.
  auto ring_path = [](std::uint16_t h) {
    const auto dst = static_cast<std::uint16_t>((h + 2) % 4);
    const std::uint16_t itb_host[] = {static_cast<std::uint16_t>((h + 1) % 4)};
    const topo::Channel trunks[] = {
        topo::Channel{h, true},
        topo::Channel{static_cast<std::uint16_t>((h + 1) % 4), true}};
    routing::RouteRow row;
    row.reset(dst);
    row.add({{1, 2}, {1, 2}}, itb_host, trunks);
    return row;
  };

  routing::DependencyGraph plain(topo);
  routing::DependencyGraph buffered(topo);
  for (std::uint16_t h = 0; h < 4; ++h) {
    const auto row = ring_path(h);
    const auto dst = static_cast<std::uint16_t>((h + 2) % 4);
    plain.add_route(row.route(h, dst), topo);
    buffered.add_route_buffered(row.route(h, dst), topo);
  }
  // The classical CDG is acyclic — ITB ejection breaks every channel
  // chain, so the static checker passes this route set.
  EXPECT_FALSE(plain.has_cycle());
  // The buffer-augmented graph sees the §8 wedge: a cycle through all four
  // in-transit pools.
  EXPECT_TRUE(buffered.has_cycle());
  EXPECT_TRUE(buffered.cycle_through_buffer());
  const auto cycle = buffered.find_cycle_nodes();
  int buffer_nodes = 0;
  for (const auto& n : cycle) buffer_nodes += n.is_buffer ? 1 : 0;
  EXPECT_GE(buffer_nodes, 1);
  EXPECT_FALSE(routing::DependencyGraph::describe(cycle).empty());
}

TEST(BufferAugmentedCdg, LegacyFindCycleProjectsChannelsOnly) {
  const auto topo = make_ring();
  routing::DependencyGraph g(topo);
  using Node = routing::DependencyGraph::Node;
  // buf(0) -> ch(0>) -> buf(1) -> ch(1>) -> buf(0): a pure buffer cycle.
  g.add_edge(Node::of_buffer(0), Node::of_channel({0, true}));
  g.add_edge(Node::of_channel({0, true}), Node::of_buffer(1));
  g.add_edge(Node::of_buffer(1), Node::of_channel({1, true}));
  g.add_edge(Node::of_channel({1, true}), Node::of_buffer(0));
  EXPECT_TRUE(g.has_cycle());
  EXPECT_TRUE(g.cycle_through_buffer());
  const auto channels = g.find_cycle();
  for (const auto& c : channels) EXPECT_LT(c.link, 2u);
  EXPECT_EQ(channels.size(), 2u);
}

// ------------------------------------------------------ §8 wedge itself --

TEST(BufferWaitWedge, RingDeadlocksWithoutWatchdog) {
  auto cfg = ring_config();
  core::Cluster c(std::move(cfg));
  std::map<int, std::map<int, int>> delivered;
  start_ring_load(c, delivered);
  c.run(30 * sim::kMs);
  // The run is wedged: traffic in flight, deliveries far short, and only
  // the (futile) GM retransmission timers keep the queue alive.
  EXPECT_GT(c.network().in_flight(), 0u);
  EXPECT_LT(total_delivered(delivered), 4 * kRingMessages);
}

TEST(BufferWaitWedge, WatchdogDiagnosesRecoversAndDrains) {
  auto cfg = ring_config();
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_period = 50 * sim::kUs;
  cfg.watchdog.stall_threshold = 250 * sim::kUs;
  core::Cluster c(std::move(cfg));
  std::map<int, std::map<int, int>> delivered;
  start_ring_load(c, delivered);
  c.run(2'000 * sim::kMs);

  // Recovery drained the network and every message arrived exactly once.
  EXPECT_EQ(c.network().in_flight(), 0u);
  for (std::uint16_t h = 0; h < 4; ++h) {
    const int flow = h * 4 + (h + 2) % 4;
    for (int i = 0; i < kRingMessages; ++i)
      EXPECT_EQ(delivered[flow][i], 1) << "flow " << flow << " msg " << i;
  }

  auto* wd = c.health();
  ASSERT_NE(wd, nullptr);
  const auto& hs = wd->stats();
  EXPECT_GE(hs.stalls_detected, 1u);
  EXPECT_GE(hs.buffer_deadlocks, 1u);
  EXPECT_GE(hs.pool_mode_switches, 1u);
  EXPECT_GE(hs.recoveries, 1u);

  // The diagnoser named the buffer cycle.
  ASSERT_FALSE(wd->diagnoses().empty());
  const auto& d = wd->diagnoses().front();
  EXPECT_EQ(d.kind, health::StallKind::kBufferDeadlock);
  EXPECT_FALSE(d.cycle.empty());
  EXPECT_FALSE(d.wedged_hosts.empty());
  EXPECT_NE(d.description.find("buf("), std::string::npos);

  // Ledger: no fault injector here, so the only admissible losses are the
  // watchdog's own forced ejections (usually zero on this path).
  const auto& ns = c.network().stats();
  EXPECT_EQ(ns.injected, ns.delivered + ns.dropped + ns.lost);
  EXPECT_EQ(ns.lost, hs.forced_ejections);

  const auto v = wd->verdict();
  EXPECT_EQ(v.unrecovered, 0u);
  EXPECT_FALSE(v.first_cycle.empty());
  EXPECT_FALSE(wd->recovery_latency().empty());
}

TEST(BufferWaitWedge, ForcedEjectionBreaksWedgeWhenPoolSwitchDisabled) {
  auto cfg = ring_config();
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_period = 50 * sim::kUs;
  cfg.watchdog.stall_threshold = 250 * sim::kUs;
  cfg.watchdog.switch_to_pool = false;  // no pool switch: eject
  core::Cluster c(std::move(cfg));
  std::map<int, std::map<int, int>> delivered;
  start_ring_load(c, delivered);
  c.run(2'000 * sim::kMs);

  EXPECT_EQ(c.network().in_flight(), 0u);
  for (std::uint16_t h = 0; h < 4; ++h) {
    const int flow = h * 4 + (h + 2) % 4;
    for (int i = 0; i < kRingMessages; ++i)
      EXPECT_EQ(delivered[flow][i], 1) << "flow " << flow << " msg " << i;
  }
  auto* wd = c.health();
  ASSERT_NE(wd, nullptr);
  EXPECT_GE(wd->stats().forced_ejections, 1u);
  EXPECT_EQ(wd->stats().pool_mode_switches, 0u);
  // Ejected packets count as lost on the health ledger and GM retransmits
  // them: the end-to-end story still reconciles.
  const auto& ns = c.network().stats();
  EXPECT_EQ(ns.injected, ns.delivered + ns.dropped + ns.lost);
  EXPECT_EQ(ns.lost, wd->stats().forced_ejections);
  EXPECT_EQ(wd->verdict().unrecovered, 0u);
}

TEST(BufferWaitWedge, EscalationFiresAtEachStallVerdict) {
  // Pins when the watchdog acts, from the flight recorder's kForceEject
  // times. With one receive buffer per NIC the ring re-wedges after every
  // forced ejection. With the pool switch off, each ejection fires on the
  // tick that declares the stall, and the ejection itself is progress: it
  // ends the episode, so the next verdict, and the next ejection, comes a
  // stall threshold after the tick that saw it, check_period later.
  auto cfg = ring_config();
  cfg.mcp_options.recv_buffers = 1;
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_period = 50 * sim::kUs;
  cfg.watchdog.stall_threshold = 250 * sim::kUs;
  cfg.watchdog.switch_to_pool = false;
  cfg.flight.enabled = true;
  core::Cluster c(std::move(cfg));
  std::map<int, std::map<int, int>> delivered;
  start_ring_load(c, delivered);
  c.run(10 * sim::kMs);

  std::vector<sim::Time> ejections;
  for (const auto& e : c.flight()->snapshot().events)
    if (e.type == flight::EventType::kForceEject) ejections.push_back(e.t);
  const auto& diagnoses = c.health()->diagnoses();
  ASSERT_GE(ejections.size(), 10u);
  ASSERT_EQ(diagnoses.size(), ejections.size());
  EXPECT_EQ(c.health()->stats().forced_ejections, ejections.size());
  for (std::size_t i = 0; i < ejections.size(); ++i) {
    EXPECT_EQ(diagnoses[i].kind, health::StallKind::kBufferDeadlock) << i;
    EXPECT_EQ(ejections[i], diagnoses[i].at) << i;
    if (i > 0) {
      EXPECT_EQ(ejections[i] - ejections[i - 1], 300 * sim::kUs) << i;
    }
  }
  EXPECT_EQ(ejections.front(), 306'966);
}

TEST(BufferWaitWedge, WedgeLeftByBlackholeIsEscalated) {
  // NIC-stall windows on all four hosts park the ring's traffic behind the
  // faults, so the first verdicts are blackholes and are left alone. The
  // ring comes out of the windows in the buffer-wait wedge; the next
  // verdict, diagnosed afresh, must see the buffer cycle and cure it.
  auto cfg = ring_config();
  for (std::uint16_t h = 0; h < 4; ++h)
    cfg.fault_schedule.nic_stall(h, 260 * sim::kUs, 1'500 * sim::kUs);
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_period = 50 * sim::kUs;
  cfg.watchdog.stall_threshold = 250 * sim::kUs;
  core::Cluster c(std::move(cfg));
  std::map<int, std::map<int, int>> delivered;
  start_ring_load(c, delivered);
  c.run(2'000 * sim::kMs);

  EXPECT_EQ(c.network().in_flight(), 0u);
  for (std::uint16_t h = 0; h < 4; ++h) {
    const int flow = h * 4 + (h + 2) % 4;
    for (int i = 0; i < kRingMessages; ++i)
      EXPECT_EQ(delivered[flow][i], 1) << "flow " << flow << " msg " << i;
  }
  auto* wd = c.health();
  ASSERT_NE(wd, nullptr);
  EXPECT_GE(wd->stats().pool_mode_switches, 1u);
  EXPECT_EQ(wd->verdict().unrecovered, 0u);
  // One episode, counted once, of the kind its first verdict found.
  EXPECT_EQ(wd->stats().stalls_detected, 1u);
  EXPECT_EQ(wd->stats().fault_blackholes, 1u);
  EXPECT_EQ(wd->stats().recoveries, 1u);

  // A verdict every stall threshold while the episode lasts: blackholes
  // until the windows close, then the buffer deadlock.
  const auto& diagnoses = wd->diagnoses();
  ASSERT_GE(diagnoses.size(), 2u);
  EXPECT_EQ(diagnoses.front().kind, health::StallKind::kFaultBlackhole);
  EXPECT_EQ(diagnoses.back().kind, health::StallKind::kBufferDeadlock);
  for (std::size_t i = 1; i < diagnoses.size(); ++i)
    EXPECT_EQ(diagnoses[i].at - diagnoses[i - 1].at, 250 * sim::kUs) << i;
  EXPECT_EQ(diagnoses.front().at, 514'598);
  EXPECT_EQ(diagnoses.back().at, 1'514'598);
}

// --------------------------------------------------- other stall kinds --

TEST(Watchdog, NicStallWindowClassifiedAsFaultBlackhole) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed();
  cfg.fault_schedule.nic_stall(2, 0, 3 * sim::kMs);
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_period = 50 * sim::kUs;
  cfg.watchdog.stall_threshold = 300 * sim::kUs;
  core::Cluster c(std::move(cfg));
  int delivered = 0;
  c.port(2).set_receive_handler(
      [&delivered](sim::Time, std::uint16_t, Bytes) { ++delivered; });
  ASSERT_TRUE(c.port(0).send(2, Bytes(512, 7)));
  c.run();

  EXPECT_EQ(delivered, 1);  // the window closed and the packet went through
  auto* wd = c.health();
  ASSERT_NE(wd, nullptr);
  EXPECT_GE(wd->stats().stalls_detected, 1u);
  EXPECT_GE(wd->stats().fault_blackholes, 1u);
  // Blackholes are never escalated: the fault window owns the recovery.
  EXPECT_EQ(wd->stats().pool_mode_switches, 0u);
  EXPECT_EQ(wd->stats().forced_ejections, 0u);
  EXPECT_GE(wd->stats().recoveries, 1u);
  EXPECT_EQ(wd->verdict().unrecovered, 0u);
  ASSERT_FALSE(wd->diagnoses().empty());
  EXPECT_EQ(wd->diagnoses().front().kind, health::StallKind::kFaultBlackhole);
}

TEST(Watchdog, ParksWhenIdleAndReArmsOnInjection) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed();
  cfg.watchdog.enabled = true;
  core::Cluster c(std::move(cfg));
  auto* wd = c.health();
  ASSERT_NE(wd, nullptr);

  // No traffic: the watchdog starts parked, so a drain run returns at
  // time zero with zero checks.
  c.run();
  EXPECT_EQ(c.queue().now(), 0);
  EXPECT_EQ(wd->stats().checks, 0u);

  int delivered = 0;
  c.port(2).set_receive_handler(
      [&delivered](sim::Time, std::uint16_t, Bytes) { ++delivered; });
  ASSERT_TRUE(c.port(0).send(2, Bytes(2048, 3)));
  c.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(wd->epoch(), 1u);  // progress was observed

  // Second round: the parked watchdog must re-arm off the injection hook.
  ASSERT_TRUE(c.port(0).send(2, Bytes(2048, 4)));
  c.run();
  EXPECT_EQ(delivered, 2);
  const auto v = wd->verdict();
  EXPECT_TRUE(v.clean());
  EXPECT_EQ(v.stalls_detected, 0u);
}

TEST(Watchdog, PerNicEpochsTrackReceiveSideProgress) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed();
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_period = 5 * sim::kUs;  // tick often enough to observe
  core::Cluster c(std::move(cfg));
  auto* wd = c.health();
  int delivered = 0;
  c.port(2).set_receive_handler(
      [&delivered](sim::Time, std::uint16_t, Bytes) { ++delivered; });
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(c.port(0).send(2, Bytes(4000, 1)));
  c.run();
  EXPECT_EQ(delivered, 5);
  // The receiving host's NIC made receive-side progress, and the global
  // epoch moved at least as much as any single NIC's.
  EXPECT_GE(wd->nic_epoch(2), 1u);
  EXPECT_GE(wd->epoch(), wd->nic_epoch(2));
}

// --------------------------------------------------- chaos hotspot burst --

TEST(ChaosHotspot, BurstPresetIsDeterministicAndProtectedHostAware) {
  const auto topo = topo::make_fig1_network();
  fault::FaultSchedule::ChaosSpec spec;
  spec.horizon = 10 * sim::kMs;
  spec.hotspot_bursts = 5;
  spec.hotspot_stall = 150 * sim::kUs;
  spec.hotspot_gap = 50 * sim::kUs;
  spec.protected_hosts = {0, 1, 2, 3};

  const auto a = fault::FaultSchedule::chaos(topo, spec);
  const auto b = fault::FaultSchedule::chaos(topo, spec);
  ASSERT_EQ(a.windows().size(), 5u);
  ASSERT_EQ(b.windows().size(), 5u);

  const auto target = a.windows().front().target;
  sim::Time expect_start = 0;
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const auto& w = a.windows()[i];
    EXPECT_EQ(w.kind, fault::FaultKind::kNicStall);
    EXPECT_EQ(w.target, target);  // one hotspot host for the whole train
    EXPECT_EQ(w.start, expect_start);
    EXPECT_EQ(w.end, w.start + spec.hotspot_stall);
    expect_start = w.end + spec.hotspot_gap;
    // Deterministic: the second draw is bit-identical.
    EXPECT_EQ(b.windows()[i].target, w.target);
    EXPECT_EQ(b.windows()[i].start, w.start);
    EXPECT_EQ(b.windows()[i].end, w.end);
  }
  // Protected hosts are never the hotspot.
  for (std::uint16_t p : spec.protected_hosts) EXPECT_NE(target, p);

  // Pinning a protected host is rejected.
  spec.hotspot_host = 2;
  EXPECT_THROW(fault::FaultSchedule::chaos(topo, spec),
               std::invalid_argument);
  // Pinning an unprotected one is honoured.
  spec.hotspot_host = 6;
  const auto pinned = fault::FaultSchedule::chaos(topo, spec);
  for (const auto& w : pinned.windows()) EXPECT_EQ(w.target, 6u);
}

TEST(ChaosHotspot, BurstRidesAlongsideOtherChaosWithoutPerturbingIt) {
  const auto topo = topo::make_fig1_network();
  fault::FaultSchedule::ChaosSpec spec;
  spec.horizon = 10 * sim::kMs;
  spec.link_windows = 3;
  spec.stall_windows = 2;
  const auto base = fault::FaultSchedule::chaos(topo, spec);
  spec.hotspot_bursts = 4;
  const auto with_burst = fault::FaultSchedule::chaos(topo, spec);
  ASSERT_EQ(with_burst.windows().size(), base.windows().size() + 4);
  for (std::size_t i = 0; i < base.windows().size(); ++i) {
    EXPECT_EQ(with_burst.windows()[i].target, base.windows()[i].target);
    EXPECT_EQ(with_burst.windows()[i].start, base.windows()[i].start);
  }
}

// ------------------------------------------------------------------ misc --

TEST(LivenessVerdict, MergeAggregatesAcrossRuns) {
  health::LivenessVerdict a, b;
  a.checks = 3;
  a.stalls_detected = 1;
  a.buffer_deadlocks = 1;
  a.recoveries = 1;
  a.first_cycle = "buf(h1) -> ch(0>)";
  b.checks = 5;
  b.unrecovered = 1;
  b.forced_ejections = 2;
  b.merge(a);
  EXPECT_EQ(b.checks, 8u);
  EXPECT_EQ(b.stalls_detected, 1u);
  EXPECT_EQ(b.forced_ejections, 2u);
  EXPECT_EQ(b.unrecovered, 1u);
  EXPECT_EQ(b.first_cycle, "buf(h1) -> ch(0>)");
  EXPECT_FALSE(b.clean());
  EXPECT_TRUE(health::LivenessVerdict{}.clean());
}

TEST(Cluster, BufferWedgePredictionOnMapperRoutes) {
  core::ClusterConfig up;
  up.topology = topo::make_paper_testbed();
  up.engine = {routing::Policy::kUpDown, 1};
  core::Cluster updown(std::move(up));
  EXPECT_TRUE(updown.routes_deadlock_free());
  // Up*/down* uses no in-transit hosts at all: no buffer edges, no wedge.
  EXPECT_TRUE(updown.routes_buffer_wedge_free());

  // The 3-host testbed's single in-transit hop cannot close a buffer
  // cycle...
  core::ClusterConfig tb;
  tb.topology = topo::make_paper_testbed();
  tb.engine = {routing::Policy::kItb, 1};
  core::Cluster testbed(std::move(tb));
  EXPECT_TRUE(testbed.routes_deadlock_free());
  EXPECT_TRUE(testbed.routes_buffer_wedge_free());

  // ...but the mapper's ITB tables on the full Fig. 1 irregular network —
  // classically deadlock-free per §1's argument — ARE wedge-capable: the
  // buffer-augmented graph finds a cycle through the in-transit pools.
  // This is the static predictor seeing the §8 finding before any packet
  // moves.
  core::ClusterConfig itb_cfg;
  itb_cfg.topology = topo::make_fig1_network();
  itb_cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster fig1(std::move(itb_cfg));
  EXPECT_TRUE(fig1.routes_deadlock_free());
  EXPECT_FALSE(fig1.routes_buffer_wedge_free());
}

}  // namespace
