// Fault windows and remap-and-recover: scheduled link/switch/host outages
// and NIC stalls driven through net::Network, the mapper re-running over the
// degraded fabric, and GM masking (or gracefully reporting) the damage.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "itb/core/cluster.hpp"
#include "itb/fault/recovery.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;

// Message ids observed by one receiver, for exactly-once assertions.
struct Observed {
  std::vector<int> order;
  std::multiset<int> ids;
};

// Feed `count` tagged messages src -> dst, refilling as tokens return and
// aborting the feed if the connection is declared dead. Returns how many
// sends were accepted.
int feed_messages(core::Cluster& c, std::uint16_t src, std::uint16_t dst,
                  int count, std::size_t size, Observed* obs) {
  if (obs) {
    c.port(dst).set_receive_handler([obs](sim::Time, std::uint16_t, Bytes m) {
      obs->order.push_back(m[0]);
      obs->ids.insert(m[0]);
    });
  }
  int accepted = 0;
  // The closure lives in this frame: c.run() drains every scheduled retry.
  std::function<void()> feed = [&] {
    if (c.port(src).peer_failed(dst)) return;
    while (accepted < count &&
           c.port(src).send(dst,
                            Bytes(size, static_cast<std::uint8_t>(accepted))))
      ++accepted;
    if (accepted < count)
      c.queue().schedule_in(100 * sim::kUs, [&feed] { feed(); });
  };
  feed();
  c.run();
  return accepted;
}

void expect_reconciled(core::Cluster& c) {
  const auto& ns = c.network().stats();
  EXPECT_EQ(ns.injected, ns.delivered + ns.dropped + ns.lost);
  ASSERT_NE(c.faults(), nullptr);
  EXPECT_EQ(ns.lost, c.faults()->stats().total_lost());
  std::uint64_t tokens = 0;
  for (std::uint16_t h = 0; h < c.host_count(); ++h)
    tokens += static_cast<std::uint64_t>(c.port(h).tokens_in_use());
  EXPECT_EQ(tokens, 0u) << "send tokens leaked";
}

TEST(FaultSchedule, ChaosIsDeterministicPerSeed) {
  const auto topo = topo::make_fig1_network();
  fault::FaultSchedule::ChaosSpec spec;
  spec.horizon = 10 * sim::kMs;
  spec.link_windows = 4;
  spec.switch_windows = 2;
  spec.host_windows = 2;
  spec.stall_windows = 2;
  spec.seed = 42;
  spec.protected_hosts = {0, 7};

  const auto a = fault::FaultSchedule::chaos(topo, spec);
  const auto b = fault::FaultSchedule::chaos(topo, spec);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  ASSERT_EQ(a.windows().size(), 10u);
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
    EXPECT_EQ(a.windows()[i].target, b.windows()[i].target);
    EXPECT_EQ(a.windows()[i].start, b.windows()[i].start);
    EXPECT_EQ(a.windows()[i].end, b.windows()[i].end);
  }
  for (const auto& w : a.windows()) {
    EXPECT_LT(w.start, w.end);
    if (w.kind == fault::FaultKind::kHostDown ||
        w.kind == fault::FaultKind::kNicStall) {
      EXPECT_NE(w.target, 0u);
      EXPECT_NE(w.target, 7u);
    }
  }

  spec.seed = 43;
  const auto other = fault::FaultSchedule::chaos(topo, spec);
  bool differs = false;
  for (std::size_t i = 0; i < other.windows().size(); ++i)
    differs |= other.windows()[i].start != a.windows()[i].start ||
               other.windows()[i].target != a.windows()[i].target;
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, RejectsEmptyWindowsAndBadTargets) {
  fault::FaultSchedule s;
  EXPECT_THROW(s.link_down(0, 100, 100), std::invalid_argument);
  EXPECT_THROW(s.link_down(0, 200, 100), std::invalid_argument);

  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed();
  cfg.fault_schedule.switch_down(55, 100, 200);  // only 2 switches exist
  EXPECT_THROW(core::Cluster{std::move(cfg)}, std::invalid_argument);
}

// The acceptance scenario: a scheduled link-down window on the Fig. 6
// testbed path h0 -> h2 triggers a mapper remap onto the second trunk; GM
// go-back-N masks the outage and every in-flight message is delivered
// exactly once; the fault/remap/recovery metrics land in the JSON export
// and the loss accounting reconciles.
TEST(FaultRecovery, TestbedLinkDownRemapsAndDeliversExactlyOnce) {
  topo::TestbedIds ids;
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed(&ids);
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.gm_config.retransmit_timeout = 150 * sim::kUs;
  cfg.remap_delay = 200 * sim::kUs;

  // The trunk the installed h0 -> h2 route crosses (the mapper is
  // deterministic, so a probe run over the same fabric finds it). Route
  // structures index links in the mapper's discovered graph, so recover the
  // fabric link from the port-faithful route bytes: the first byte is the
  // exit port on switch 0.
  const auto probe = mapper::run(cfg.topology, routing::Policy::kUpDown, 0);
  const auto before = probe.table.route(ids.host1, ids.host2);
  ASSERT_FALSE(before.empty());
  const std::uint8_t exit_port = before.segment(0).front();
  std::optional<topo::LinkId> victim_link;
  for (topo::LinkId l = 0; l < cfg.topology.link_count(); ++l) {
    const auto& link = cfg.topology.link(l);
    for (const auto& end : {link.a, link.b})
      if (end.node == topo::switch_id(ids.switch1) && end.port == exit_port)
        victim_link = l;
  }
  ASSERT_TRUE(victim_link.has_value());
  const auto victim = *victim_link;
  cfg.fault_schedule.link_down(victim, 120 * sim::kUs, 30 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);

  // Capture the mid-window route (the final window-close remap restores
  // the original table, so check while the trunk is still down). The swap
  // must have moved h0 -> h2 off the dead trunk's exit port.
  std::optional<std::uint8_t> mid_window_exit_port;
  c.queue().schedule_at(5 * sim::kMs, [&] {
    if (const auto* t = c.recovery()->current_table()) {
      const auto r = t->route(ids.host1, ids.host2);
      if (!r.empty()) mid_window_exit_port = r.segment(0).front();
    }
  });

  Observed obs;
  const int accepted = feed_messages(c, ids.host1, ids.host2, 30, 1000, &obs);

  EXPECT_EQ(accepted, 30);
  ASSERT_EQ(obs.order.size(), 30u) << "messages lost or duplicated";
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(obs.order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(obs.ids.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(obs.ids.count(i), 1u);

  // The outage actually bit and the mapper recovered over the other trunk.
  EXPECT_GT(c.network().stats().lost, 0u);
  EXPECT_GE(c.recovery()->stats().remaps, 2u);  // open + close remaps
  ASSERT_TRUE(mid_window_exit_port.has_value());
  EXPECT_NE(*mid_window_exit_port, exit_port);
  EXPECT_FALSE(c.recovery()->recovery_latency().empty());

  // Telemetry: counters in the registry, histogram percentiles in the JSON.
  const auto& reg = c.telemetry().registry();
  EXPECT_GE(reg.value("fault", "remaps").value_or(0), 2.0);
  EXPECT_GE(reg.value("fault", "windows_opened").value_or(0), 1.0);
  EXPECT_GT(reg.value("fault", "lost_link_down").value_or(0), 0.0);
  EXPECT_GT(reg.value("fault", "recovery_latency_p50_ns").value_or(0), 0.0);
  std::ostringstream json;
  c.telemetry().write_json(json);
  EXPECT_NE(json.str().find("\"recovery_latency_p50_ns\""), std::string::npos);
  EXPECT_NE(json.str().find("\"windows_opened\""), std::string::npos);

  expect_reconciled(c);
}

TEST(FaultRecovery, LinkDownWithoutRemapRecoversWhenWindowCloses) {
  // auto_remap off: the route stays pinned at the dead trunk, GM retries
  // until the window closes, then everything drains exactly once.
  topo::TestbedIds ids;
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed(&ids);
  cfg.auto_remap = false;
  cfg.gm_config.retransmit_timeout = 150 * sim::kUs;
  const auto probe = mapper::run(cfg.topology, routing::Policy::kUpDown, 0);
  const std::uint8_t exit_port =
      probe.table.route(ids.host1, ids.host2).segment(0).front();
  std::optional<topo::LinkId> victim;
  for (topo::LinkId l = 0; l < cfg.topology.link_count(); ++l) {
    const auto& link = cfg.topology.link(l);
    for (const auto& end : {link.a, link.b})
      if (end.node == topo::switch_id(ids.switch1) && end.port == exit_port)
        victim = l;
  }
  ASSERT_TRUE(victim.has_value());
  cfg.fault_schedule.link_down(*victim, 120 * sim::kUs, 2 * sim::kMs);

  core::Cluster c(std::move(cfg));
  EXPECT_EQ(c.recovery(), nullptr);
  Observed obs;
  feed_messages(c, ids.host1, ids.host2, 20, 1000, &obs);
  ASSERT_EQ(obs.order.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(obs.order[static_cast<std::size_t>(i)], i);
  EXPECT_GT(c.network().stats().lost, 0u);
  EXPECT_GT(c.port(ids.host1).stats().retransmissions, 0u);
  expect_reconciled(c);
}

TEST(FaultRecovery, ItbHostFailureMidPathReroutesWithoutItb) {
  // Fig. 1, ITB policy: the minimal route 4 -> 6 -> 1 needs the in-transit
  // host on switch 6. Kill that host mid-path: the remap must fall back to
  // the pure up*/down* route (switch 6 has no other host) and traffic keeps
  // flowing during the window.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  cfg.gm_config.retransmit_timeout = 150 * sim::kUs;
  cfg.remap_delay = 200 * sim::kUs;
  cfg.fault_schedule.host_down(6, 200 * sim::kUs, 40 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_EQ(c.route_table()->route(4, 1).itb_count(), 1u);
  ASSERT_EQ(c.route_table()->route(4, 1).in_transit_hosts().front(), 6);

  std::size_t mid_window_itbs = 99;
  bool mid_window_reachable = false;
  sim::Time last_delivery = 0;
  c.queue().schedule_at(10 * sim::kMs, [&] {
    if (const auto* t = c.recovery()->current_table()) {
      const auto r = t->route(4, 1);
      mid_window_itbs = r.itb_count();
      mid_window_reachable = !r.empty();
    }
  });

  Observed obs;
  c.port(1).set_receive_handler([&](sim::Time t, std::uint16_t, Bytes m) {
    obs.order.push_back(m[0]);
    last_delivery = t;
  });
  int next = 0;
  std::function<void()> feeder = [&] {
    while (next < 40 &&
           c.port(4).send(1, Bytes(900, static_cast<std::uint8_t>(next))))
      ++next;
    if (next < 40) c.queue().schedule_in(100 * sim::kUs, feeder);
  };
  feeder();
  c.run();

  ASSERT_EQ(obs.order.size(), 40u);
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(obs.order[static_cast<std::size_t>(i)], i);
  ASSERT_TRUE(mid_window_reachable);
  EXPECT_EQ(mid_window_itbs, 0u);  // rerouted without the dead ITB host
  // Deliveries continued during the window, not only after it closed.
  EXPECT_LT(last_delivery, 40 * sim::kMs);
  EXPECT_GE(c.recovery()->stats().remaps, 1u);
  expect_reconciled(c);
}

TEST(FaultRecovery, DeadPeerFailsPendingSendsAndReturnsTokens) {
  // A host that stays down past GM's retry budget: sends to it must fail
  // through the callback with tokens returned, not hang forever.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.gm_config.retransmit_timeout = 100 * sim::kUs;
  cfg.gm_config.max_retries = 4;
  cfg.remap_delay = 200 * sim::kUs;
  cfg.fault_schedule.host_down(6, 150 * sim::kUs, 200 * sim::kMs);

  core::Cluster c(std::move(cfg));
  Observed obs;
  std::uint32_t failed_reported = 0;
  std::uint16_t failed_dst = 0xFFFF;
  c.port(0).set_send_failure_handler(
      [&](sim::Time, std::uint16_t dst, std::uint32_t n) {
        failed_dst = dst;
        failed_reported += n;
      });
  const int accepted = feed_messages(c, 0, 6, 25, 800, &obs);

  EXPECT_TRUE(c.port(0).peer_failed(6));
  EXPECT_EQ(failed_dst, 6);
  EXPECT_EQ(c.port(0).stats().send_failures, 1u);
  EXPECT_GT(failed_reported, 0u);
  EXPECT_EQ(c.port(0).stats().messages_failed, failed_reported);
  // Every accepted message either arrived or was failed; none vanished. A
  // message can be counted on both sides (delivered, then its ack died with
  // the host), so this is >= rather than ==; the ids multiset guards the
  // at-most-once half.
  EXPECT_GE(obs.order.size() + failed_reported,
            static_cast<std::size_t>(accepted));
  for (int i = 0; i < accepted; ++i) EXPECT_LE(obs.ids.count(i), 1u);
  EXPECT_EQ(c.port(0).tokens_in_use(), 0);
  // A fresh send to the dead peer fails fast until the connection resets.
  EXPECT_FALSE(c.port(0).send(6, Bytes(100, 1)));
  c.port(0).reset_connection(6);
  c.port(6).reset_connection(0);
  EXPECT_FALSE(c.port(0).peer_failed(6));
  expect_reconciled(c);
}

TEST(FaultRecovery, NicStallIsLosslessBackpressure) {
  // A stalled NIC parks traffic under Stop&Go; nothing may be lost and no
  // remap happens (the topology never changed).
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.gm_config.retransmit_timeout = 400 * sim::kUs;
  cfg.fault_schedule.nic_stall(1, 100 * sim::kUs, 1500 * sim::kUs);

  core::Cluster c(std::move(cfg));
  EXPECT_EQ(c.recovery(), nullptr);  // stalls are not topology faults
  Observed obs;
  feed_messages(c, 0, 1, 15, 700, &obs);
  ASSERT_EQ(obs.order.size(), 15u);
  for (int i = 0; i < 15; ++i)
    EXPECT_EQ(obs.order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(c.network().stats().lost, 0u);
  EXPECT_EQ(c.faults()->stats().windows_opened, 1u);
  EXPECT_EQ(c.faults()->stats().windows_closed, 1u);
  expect_reconciled(c);
}

TEST(FaultRecovery, SwitchDownKillsAndRecovers) {
  // Down a leaf switch on the Fig. 1 fabric: its host drops off the map
  // (remap reports it unreachable) and comes back when the window closes.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.gm_config.retransmit_timeout = 200 * sim::kUs;
  cfg.remap_delay = 200 * sim::kUs;
  cfg.fault_schedule.switch_down(7, 20 * sim::kUs, 5 * sim::kMs);

  core::Cluster c(std::move(cfg));
  Observed obs;
  feed_messages(c, 0, 7, 20, 900, &obs);
  ASSERT_EQ(obs.order.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(obs.order[static_cast<std::size_t>(i)], i);
  EXPECT_GE(c.recovery()->stats().remaps, 2u);
  EXPECT_GT(c.faults()->stats().lost_switch_down +
                c.faults()->stats().lost_link_down,
            0u);
  expect_reconciled(c);
}

TEST(FaultRecovery, ChaosSoakIsDeterministicAndExactlyOnce) {
  auto run_once = [](std::uint64_t seed) {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_fig1_network();
    cfg.engine = {routing::Policy::kItb, 1};
    cfg.gm_config.retransmit_timeout = 150 * sim::kUs;
    cfg.gm_config.max_retries = 8;
    cfg.remap_delay = 300 * sim::kUs;
    fault::FaultSchedule::ChaosSpec spec;
    spec.horizon = 8 * sim::kMs;
    spec.link_windows = 3;
    spec.switch_windows = 1;
    spec.stall_windows = 1;
    spec.mean_duration = 400 * sim::kUs;
    spec.seed = seed;
    spec.protected_hosts = {0, 5};
    cfg.fault_schedule = fault::FaultSchedule::chaos(cfg.topology, spec);
    cfg.fault_schedule.drop_probability = 0.02;

    core::Cluster c(std::move(cfg));
    Observed obs;
    const int accepted = feed_messages(c, 0, 5, 30, 1100, &obs);

    // Exactly-once: every delivered id appears exactly once, and together
    // with failed messages accounts for every accepted send.
    for (int i = 0; i < accepted; ++i) EXPECT_LE(obs.ids.count(i), 1u);
    EXPECT_GE(obs.ids.size() + c.port(0).stats().messages_failed,
              static_cast<std::size_t>(accepted));
    expect_reconciled(c);

    struct Fingerprint {
      sim::Time end;
      std::size_t delivered;
      std::uint64_t lost, injected, remaps;
    } fp{c.queue().now(), obs.ids.size(), c.network().stats().lost,
         c.network().stats().injected,
         c.recovery() ? c.recovery()->stats().remaps : 0};
    return std::make_tuple(fp.end, fp.delivered, fp.lost, fp.injected,
                           fp.remaps);
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

}  // namespace
