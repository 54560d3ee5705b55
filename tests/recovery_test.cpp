// Incremental fault recovery: masked up*/down* orientation, scoped
// re-probe, route-table patching (byte-identical to from-scratch solves),
// epoch-safe hot-swap with NIC send re-sourcing, flap quarantine and storm
// control. Companion bench: bench/fault_recovery.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/fault/recovery.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/routing/paths.hpp"
#include "itb/routing/table.hpp"
#include "itb/routing/updown.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;

// ---- helpers shared with fault_test.cpp (kept local: test binaries are
// one-file by convention here) ------------------------------------------

struct Observed {
  std::vector<int> order;
  std::multiset<int> ids;
};

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

std::vector<topo::LinkId> trunk_links(const topo::Topology& topo) {
  std::vector<topo::LinkId> out;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(l);
    if (link.a.node.kind == topo::NodeKind::kSwitch &&
        link.b.node.kind == topo::NodeKind::kSwitch &&
        link.a.node != link.b.node)  // self-cables are not trunks
      out.push_back(l);
  }
  return out;
}

// The usability+orientation diff the recovery engine feeds to patch().
routing::LinkDelta diff_orientation(const topo::Topology& topo,
                                    const routing::UpDown& before,
                                    const routing::UpDown& after) {
  routing::LinkDelta delta;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const bool was = before.link_usable(l);
    const bool now = after.link_usable(l);
    if (was && !now)
      delta.removed.push_back(l);
    else if (!was && now)
      delta.added.push_back(l);
    else if (was && now && before.up_end(l) != after.up_end(l)) {
      delta.removed.push_back(l);
      delta.added.push_back(l);
    }
  }
  return delta;
}

std::string dump_of(const routing::RouteTable& t) {
  std::ostringstream os;
  t.dump(os);
  return os.str();
}

// The fabric link behind route(src, dst)'s first hop: the installed route's
// first byte is the exit port on src's uplink switch.
topo::LinkId first_hop_link(const topo::Topology& topo,
                            const routing::RouteTable& table,
                            std::uint16_t src, std::uint16_t dst) {
  const auto path = table.route(src, dst);
  EXPECT_FALSE(path.empty());
  const std::uint8_t exit_port = path.segment(0).front();
  const auto sw = topo.host_uplink(src).node;
  const auto link = topo.link_at(sw, exit_port);
  EXPECT_TRUE(link.has_value());
  return *link;
}

// ---- masked up*/down* --------------------------------------------------

TEST(MaskedUpDown, ToleratesCutOffSubtreesAndReportsUsability) {
  const auto topo = topo::make_linear(4, 1);
  const auto trunks = trunk_links(topo);  // chain: sw0-sw1, sw1-sw2, sw2-sw3
  ASSERT_EQ(trunks.size(), 3u);

  std::vector<char> mask(topo.link_count(), 1);
  mask[trunks[1]] = 0;  // cut sw2/sw3 off from the root side
  const routing::UpDown ud(topo, /*root=*/0, mask);

  EXPECT_TRUE(ud.reached(0));
  EXPECT_TRUE(ud.reached(1));
  EXPECT_FALSE(ud.reached(2));
  EXPECT_FALSE(ud.reached(3));

  EXPECT_TRUE(ud.link_usable(trunks[0]));
  EXPECT_FALSE(ud.link_usable(trunks[1]));  // masked
  EXPECT_FALSE(ud.link_usable(trunks[2]));  // both ends unreached
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(l);
    if (link.a.node.kind == topo::NodeKind::kSwitch &&
        link.b.node.kind == topo::NodeKind::kSwitch)
      continue;
    const auto sw = link.a.node.kind == topo::NodeKind::kSwitch
                        ? link.a.node.index
                        : link.b.node.index;
    EXPECT_EQ(ud.link_usable(l), ud.reached(sw)) << "host link " << l;
  }

  // The unmasked two-arg constructor still insists on full connectivity.
  auto disconnected = topo::make_linear(2, 1);
  std::vector<char> cut(disconnected.link_count(), 1);
  cut[trunk_links(disconnected)[0]] = 0;
  EXPECT_NO_THROW(routing::UpDown(disconnected, 0, cut));
}

// ---- route-table patching ---------------------------------------------

// Sweep every trunk link of two restricted-routing topologies: mask it,
// patch, byte-compare against a from-scratch solve; restore it, patch
// again, byte-compare against the original table. The patched table must
// be indistinguishable from a full re-solve at every step.
TEST(RoutePatching, PatchedTablesMatchFullSolveForEveryTrunk) {
  const topo::Topology topos[] = {topo::make_fig1_network(),
                                  topo::make_clos(2, 4, 2)};
  for (const auto& topo : topos) {
    const auto root = topo.host_uplink(0).node.index;
    const auto hosts = topo.host_count();
    std::vector<char> all_up(topo.link_count(), 1);
    for (const auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
      routing::UpDown base_ud(topo, root, all_up);
      routing::Router base_router(base_ud,
                                  routing::ItbHostSelection::kLowestIndex);
      routing::RouteTable table(base_router, policy, 1);
      table.enable_patching(base_router);
      const auto base_dump = dump_of(table);

      std::size_t scoped_removals = 0;
      for (const auto victim : trunk_links(topo)) {
        std::vector<char> mask = all_up;
        mask[victim] = 0;
        routing::UpDown down_ud(topo, root, mask);
        routing::Router down_router(down_ud,
                                    routing::ItbHostSelection::kLowestIndex);
        const auto st = table.patch(
            down_router, diff_orientation(topo, base_ud, down_ud), 1);
        EXPECT_FALSE(st.full);
        routing::RouteTable fresh(down_router, policy, 1);
        EXPECT_EQ(dump_of(table), dump_of(fresh))
            << "policy " << static_cast<int>(policy) << " victim " << victim;
        if (st.sources_resolved < hosts) ++scoped_removals;

        routing::UpDown up_ud(topo, root, all_up);
        const auto st2 = table.patch(
            base_router, diff_orientation(topo, down_ud, up_ud), 1);
        EXPECT_FALSE(st2.full);
        EXPECT_EQ(dump_of(table), base_dump)
            << "restore mismatch, victim " << victim;
      }
      // The reverse index must be doing real scoping work, not re-solving
      // the world on every removal.
      EXPECT_GT(scoped_removals, 0u);
    }
  }
}

TEST(RoutePatching, ForceFullAndUnindexedTablesFallBack) {
  const auto topo = topo::make_fig1_network();
  const auto root = topo.host_uplink(0).node.index;
  std::vector<char> all_up(topo.link_count(), 1);
  routing::UpDown ud(topo, root, all_up);
  routing::Router router(ud, routing::ItbHostSelection::kLowestIndex);

  routing::RouteTable unindexed(router, routing::Policy::kItb, 1);
  EXPECT_FALSE(unindexed.patching_enabled());
  const auto st = unindexed.patch(router, routing::LinkDelta{}, 1);
  EXPECT_TRUE(st.full);
  EXPECT_EQ(st.sources_resolved, topo.host_count());

  routing::RouteTable indexed(router, routing::Policy::kItb, 1);
  indexed.enable_patching(router);
  routing::LinkDelta force;
  force.force_full = true;
  EXPECT_TRUE(indexed.patch(router, force, 1).full);
}

TEST(RoutePatching, TablesCompareRouteByRoute) {
  // The recovery engine's verify step compares a patched table with a
  // fresh solve through RouteTable's equality: policy, host count, VC lane
  // count and every pair's header, in-transit hosts and trunk channels.
  sim::Rng rng(5);
  topo::IrregularSpec spec;
  spec.switches = 32;
  spec.hosts_per_switch = 4;
  const auto topo = topo::make_random_irregular(spec, rng);
  const auto root = topo.host_uplink(0).node.index;
  const std::vector<char> all_up(topo.link_count(), 1);
  const routing::UpDown ud(topo, root, all_up);
  const routing::Router router(ud);
  routing::RouteTable table(router, routing::Policy::kItb);
  table.enable_patching(router);

  auto mask = all_up;
  mask[trunk_links(topo).front()] = 0;
  const routing::UpDown down_ud(topo, root, mask);
  const routing::Router down_router(down_ud);
  const routing::RouteTable down(down_router, routing::Policy::kItb);
  ASSERT_NE(dump_of(table), dump_of(down)) << "the mask re-routes a pair";
  EXPECT_FALSE(table == down);

  const auto st =
      table.patch(down_router, diff_orientation(topo, ud, down_ud), 1);
  EXPECT_FALSE(st.full);
  EXPECT_TRUE(table == down) << "a patched table equals a fresh solve";
  EXPECT_EQ(dump_of(table), dump_of(down));

  // On a fat tree every minimal route is up*/down*, so 2 and 4 VC lanes
  // route alike: only the lane count tells the tables apart, as it does
  // their dumps. Outside kVcEscape the lane count is not part of a table.
  const auto fat_tree = topo::make_fat_tree(4);
  const routing::UpDown ft_ud(fat_tree);
  const routing::Router ft_router(ft_ud);
  const routing::RouteTable vc2(ft_router, routing::Policy::kVcEscape, 1, 2);
  const routing::RouteTable vc4(ft_router, routing::Policy::kVcEscape, 1, 4);
  const auto routes = [](const routing::RouteTable& t) {
    const auto dump = dump_of(t);
    return dump.substr(dump.find('\n'));
  };
  ASSERT_EQ(routes(vc2), routes(vc4));
  EXPECT_FALSE(vc2 == vc4) << "the lane count is part of a VC table";
  EXPECT_TRUE(vc2 == routing::RouteTable(ft_router, routing::Policy::kVcEscape,
                                         4, 2));
  EXPECT_TRUE(routing::RouteTable(ft_router, routing::Policy::kUpDown, 1, 2) ==
              routing::RouteTable(ft_router, routing::Policy::kUpDown, 1, 4));
}

TEST(RoutePatching, RestoredHostLinkPatchesPartOfASwitch) {
  // Two hosts of one switch are cut off; restoring one of them re-solves
  // it and its usable mates (their entries toward it were empty) but not
  // the mate still cut off, so the patch solves only part of the switch's
  // hosts as a group. The result must equal a fresh solve row for row.
  sim::Rng rng(3);
  topo::IrregularSpec spec;
  spec.switches = 32;
  spec.hosts_per_switch = 4;
  const auto topo = topo::make_random_irregular(spec, rng);
  const auto root = topo.host_uplink(0).node.index;
  const auto sw = static_cast<std::uint16_t>((root + 1) % spec.switches);
  std::vector<std::uint16_t> mates;
  for (std::uint16_t h = 0; h < topo.host_count(); ++h)
    if (topo.host_uplink(h).node.index == sw) mates.push_back(h);
  ASSERT_EQ(mates.size(), 4u);
  const auto uplink = [&topo](std::uint16_t h) {
    const auto up = topo.host_uplink(h);
    return *topo.link_at(up.node, up.port);
  };
  std::vector<char> two_cut(topo.link_count(), 1);
  two_cut[uplink(mates[1])] = 0;
  two_cut[uplink(mates[2])] = 0;
  auto one_cut = two_cut;
  one_cut[uplink(mates[2])] = 1;

  for (const auto selection : {routing::ItbHostSelection::kLowestIndex,
                               routing::ItbHostSelection::kSpread}) {
    const routing::UpDown before_ud(topo, root, two_cut);
    const routing::Router before(before_ud, selection);
    routing::RouteTable table(before, routing::Policy::kItb);
    table.enable_patching(before);
    const routing::UpDown after_ud(topo, root, one_cut);
    const routing::Router after(after_ud, selection);
    const auto st =
        table.patch(after, diff_orientation(topo, before_ud, after_ud), 1);
    EXPECT_FALSE(st.full);
    EXPECT_EQ(st.sources_resolved, topo.host_count() - 1)
        << "every usable source, not the mate still cut off";
    const routing::RouteTable fresh(after, routing::Policy::kItb);
    EXPECT_TRUE(table == fresh);
    for (std::uint16_t s = 0; s < topo.host_count(); ++s)
      EXPECT_TRUE(*table.row(s) == *fresh.row(s)) << "source " << s;
  }
}

// ---- scoped re-probe ---------------------------------------------------

TEST(ScopedProbe, RediscoverChargesOnlyTheFaultBoundary) {
  const auto topo = topo::make_fat_tree(4);  // 16 hosts, 20 switches
  std::vector<char> mask(topo.link_count(), 1);
  const auto full = mapper::discover_reachability(topo, 0, mask);
  EXPECT_EQ(full.probes_sent, full.full_walk_probes);
  EXPECT_EQ(std::count(full.host_up.begin(), full.host_up.end(), 1),
            static_cast<long>(topo.host_count()));

  const auto victim = trunk_links(topo).front();
  mask[victim] = 0;
  const auto scoped = mapper::rediscover_scoped(topo, 0, mask, full, {victim});
  EXPECT_LT(scoped.probes_sent, scoped.full_walk_probes)
      << "scoped walk charged a full fabric scan";
  // Accounting shortcut never changes the answer: a cold walk over the
  // same mask sees the identical reachable set.
  const auto cold = mapper::discover_reachability(topo, 0, mask);
  EXPECT_EQ(scoped.switch_up, cold.switch_up);
  EXPECT_EQ(scoped.host_up, cold.host_up);
  EXPECT_EQ(scoped.full_walk_probes, cold.full_walk_probes);

  // Restoring the link re-exposes the subtree; the scoped walk charges
  // the boundary plus newly reachable switches only.
  std::vector<char> back(topo.link_count(), 1);
  const auto restored =
      mapper::rediscover_scoped(topo, 0, back, scoped, {victim});
  EXPECT_EQ(restored.host_up, full.host_up);
  EXPECT_LT(restored.probes_sent, restored.full_walk_probes);
}

// ---- recovery engine, end to end --------------------------------------

// Satellite (a): the mapper's root host dies mid-run; recovery re-elects
// the lowest-id live host and keeps remapping (failed_remaps stays 0), and
// the traffic between two bystander hosts survives exactly once.
TEST(Recovery, RootHostFailsOverToLowestLiveHost) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  cfg.remap_delay = 200 * sim::kUs;
  cfg.recovery.verify_patches = true;
  cfg.fault_schedule.host_down(0, 1 * sim::kMs, 3 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  Observed obs;
  const int sent = feed_messages(c, 2, 5, 30, 256, &obs);

  EXPECT_EQ(sent, 30);
  EXPECT_EQ(obs.ids.size(), 30u);
  EXPECT_EQ(std::set<int>(obs.ids.begin(), obs.ids.end()).size(), 30u);
  const auto& st = c.recovery()->stats();
  EXPECT_EQ(st.failed_remaps, 0u) << "root election failed";
  EXPECT_GE(st.remaps, 2u);  // host-down open + close
  EXPECT_EQ(st.verify_fallbacks, 0u);
  EXPECT_EQ(c.recovery()->epoch(), st.remaps);
  expect_reconciled(c);

  // Satellite (f): the incremental counters ride the standard export.
  std::ostringstream json;
  c.telemetry().write_json(json);
  EXPECT_NE(json.str().find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.str().find("scoped_probes"), std::string::npos);
  EXPECT_NE(json.str().find("sources_patched"), std::string::npos);
  EXPECT_NE(json.str().find("flaps_quarantined"), std::string::npos);
}

// Satellite (b): a link restored while another is still down must be
// picked up by the very round that observes it — the Fig. 6 testbed's
// second trunk dies before the first comes back, so the only way h0 -> h2
// traffic resumes is the restored-at-close trunk re-entering the table in
// one pass.
TEST(Recovery, RestoredLinkReusedInSamePassWhileOtherStillDown) {
  topo::TestbedIds ids;
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed(&ids);
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.gm_config.retransmit_timeout = 300 * sim::kUs;
  cfg.remap_delay = 200 * sim::kUs;
  cfg.recovery.verify_patches = true;
  const auto trunks = trunk_links(cfg.topology);
  ASSERT_EQ(trunks.size(), 2u);
  cfg.fault_schedule.link_down(trunks[0], 1 * sim::kMs, 4 * sim::kMs);
  cfg.fault_schedule.link_down(trunks[1], 3 * sim::kMs, 8 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  Observed obs;
  const int sent = feed_messages(c, ids.host1, ids.host2, 40, 512, &obs);

  EXPECT_EQ(sent, 40);
  EXPECT_EQ(obs.ids.size(), 40u);
  EXPECT_EQ(std::set<int>(obs.ids.begin(), obs.ids.end()).size(), 40u);
  const auto& st = c.recovery()->stats();
  EXPECT_EQ(st.remaps, 4u);  // two opens, two closes, none coalesced
  EXPECT_EQ(st.failed_remaps, 0u);
  EXPECT_GE(st.patch_rounds, 2u);
  EXPECT_EQ(st.verify_fallbacks, 0u);
  EXPECT_TRUE(c.nic(ids.host1).has_route(ids.host2));
  expect_reconciled(c);
}

// Epoch-safe hot-swap: a send posted under the boot table and still queued
// when a remap retires its epoch is re-sourced against the new table (and
// only then, with the route still gone at the CURRENT epoch, surrendered
// as unroutable) instead of being silently launched down a dead path.
TEST(Recovery, NicResourcesQueuedSendsAcrossEpochSwap) {
  topo::TestbedIds ids;
  core::ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed(&ids);
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.remap_delay = 100 * sim::kUs;
  const auto trunks = trunk_links(cfg.topology);
  ASSERT_EQ(trunks.size(), 2u);
  // Both trunks down: host2 is unreachable from 200us until 5ms.
  for (const auto t : trunks)
    cfg.fault_schedule.link_down(t, 200 * sim::kUs, 5 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  const std::uint16_t src = ids.host1, dst = ids.host2;
  // Just after the remap fires (300us) but before the modelled
  // probe+solve cost lands the install: occupy the send DMA with a large
  // transfer, then queue a small send behind it. The small send's epoch-0
  // stamp goes stale while it waits.
  c.queue().schedule_in(310 * sim::kUs, [&c, src, dst] {
    for (int i = 0; i < 16; ++i)
      c.nic(src).post_send(dst, Bytes(nic::Nic::kMtu, 0xAA));
    c.nic(src).post_send(dst, Bytes(64, 0xBB));
  });
  c.run();

  const auto& ns = c.nic(src).stats();
  EXPECT_GE(ns.resourced_sends, 1u) << "stale-epoch send was not re-sourced";
  EXPECT_GE(ns.dropped_unroutable, 1u)
      << "re-sourced send should fail fast at the current epoch";
  EXPECT_GE(c.recovery()->epoch(), 2u);
}

// Satellite (c): two overlapping link-down windows on a 256-host Clos
// fabric reconcile exactly-once with the liveness watchdog reporting no
// unrecovered stalls, and every patched table verified against a full
// solve.
TEST(Recovery, Clos256OverlappingWindowsReconcileUnderWatchdog) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_clos(8, 16, 16);  // 256 hosts, 24 switches
  ASSERT_EQ(cfg.topology.host_count(), 256u);
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.route_solve_jobs = 4;
  cfg.remap_delay = 200 * sim::kUs;
  cfg.gm_config.retransmit_timeout = 400 * sim::kUs;
  cfg.recovery.verify_patches = true;
  cfg.watchdog.enabled = true;

  const std::uint16_t src = 0, dst = 16;  // leaf 0 -> leaf 1
  const auto probe = mapper::run(cfg.topology, routing::Policy::kUpDown, 0);
  const auto victim1 = first_hop_link(cfg.topology, probe.table, src, dst);
  // A second uplink of the same leaf, so the windows genuinely overlap on
  // distinct links.
  std::optional<topo::LinkId> victim2;
  const auto src_sw = cfg.topology.host_uplink(src).node;
  for (const auto l : trunk_links(cfg.topology)) {
    const auto& link = cfg.topology.link(l);
    if (l != victim1 && (link.a.node == src_sw || link.b.node == src_sw)) {
      victim2 = l;
      break;
    }
  }
  ASSERT_TRUE(victim2.has_value());
  cfg.fault_schedule.link_down(victim1, 1 * sim::kMs, 3 * sim::kMs);
  cfg.fault_schedule.link_down(*victim2, 2 * sim::kMs, 4 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  ASSERT_NE(c.health(), nullptr);
  Observed obs;
  const int sent = feed_messages(c, src, dst, 60, 512, &obs);

  EXPECT_EQ(sent, 60);
  EXPECT_EQ(obs.ids.size(), 60u);
  EXPECT_EQ(std::set<int>(obs.ids.begin(), obs.ids.end()).size(), 60u);
  EXPECT_EQ(c.health()->verdict().unrecovered, 0u);
  const auto& st = c.recovery()->stats();
  EXPECT_EQ(st.failed_remaps, 0u);
  EXPECT_EQ(st.verify_fallbacks, 0u);
  EXPECT_GE(st.patch_rounds, 1u);
  expect_reconciled(c);
}

// The scaling claim behind the tentpole: once the engine is warm, a
// single-link fault on a 128-host fat tree re-probes a small neighbourhood
// (not the fabric) and re-solves an order of magnitude fewer sources than
// all-pairs.
TEST(Recovery, ScopedRoundProbesAndSolvesFractionOfFabric) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fat_tree(8);  // 128 hosts, 80 switches
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.route_solve_jobs = 4;
  cfg.remap_delay = 200 * sim::kUs;
  cfg.recovery.verify_patches = true;

  // Victim: the median-usage trunk among those the installed table
  // actually crosses, picked off a table built in true-fabric coordinates
  // (identical to the engine's own epoch-1 solve).
  const auto root_sw = cfg.topology.host_uplink(0).node.index;
  std::vector<char> all_up(cfg.topology.link_count(), 1);
  routing::UpDown ud(cfg.topology, root_sw, all_up);
  routing::Router router(ud, routing::ItbHostSelection::kLowestIndex);
  routing::RouteTable table(router, routing::Policy::kUpDown, 4);
  const auto usage = table.channel_usage(cfg.topology);
  std::vector<std::pair<std::uint64_t, topo::LinkId>> by_usage;
  for (const auto l : trunk_links(cfg.topology))
    by_usage.push_back({usage[2 * l] + usage[2 * l + 1], l});
  ASSERT_FALSE(by_usage.empty());
  std::sort(by_usage.begin(), by_usage.end());
  // The canonical tie-break funnels every source's routes through a small
  // set of trunks (the busiest are crossed by ALL sources), so the median
  // trunk — like most of the fabric — carries no routes at all. That is
  // the representative single-link fault; the busiest trunk doubles as the
  // warm-up fault and documents the funnel worst case.
  const auto victim = by_usage[by_usage.size() / 2].second;
  const auto warmup = by_usage.back().second;
  ASSERT_NE(warmup, victim);

  cfg.fault_schedule.link_down(warmup, 1 * sim::kMs, 2 * sim::kMs);
  cfg.fault_schedule.link_down(victim, 10 * sim::kMs, 12 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  c.run();

  const auto& rounds = c.recovery()->rounds();
  ASSERT_EQ(rounds.size(), 4u);  // warmup open/close, victim open/close
  EXPECT_TRUE(rounds[0].full);  // cold engine: first round is a full solve
  // Funnel close: the re-solved world returns to the boot graph, so the
  // generation shortcut prices the whole restore by attraction only.
  EXPECT_FALSE(rounds[1].full);
  const auto& r = rounds[2];  // victim open, engine warm
  EXPECT_FALSE(r.full);
  EXPECT_LE(r.probes * 4, r.full_walk_probes)
      << "scoped re-probe scanned most of the fabric";
  EXPECT_LE(r.sources_resolved * 10, r.sources_total)
      << "single-link fault re-solved " << r.sources_resolved << "/"
      << r.sources_total << " sources";
  // Victim close: the graph returns to a state every surviving source was
  // last solved under — the restore is free.
  EXPECT_EQ(rounds[3].sources_resolved, 0u);
  EXPECT_EQ(c.recovery()->stats().verify_fallbacks, 0u);
}

// Flap quarantine: a link that bounces four times inside the window is
// parked (masked down regardless of its real state) and requalified after
// backoff; storm control degrades an over-budget dirty set to one full
// re-solve instead of queueing unbounded patch work.
TEST(Recovery, FlapQuarantineParksOscillatingLink) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kUpDown, 1};
  // Wider than the open->close gap, so a window's close coalesces into the
  // round armed by its open.
  cfg.remap_delay = 300 * sim::kUs;
  const auto victim = trunk_links(cfg.topology).front();
  cfg.fault_schedule.link_down(victim, 1000 * sim::kUs, 1200 * sim::kUs);
  cfg.fault_schedule.link_down(victim, 1400 * sim::kUs, 1600 * sim::kUs);
  cfg.fault_schedule.link_down(victim, 1800 * sim::kUs, 2000 * sim::kUs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  // The 4th transition (1.6ms close) crosses the threshold: by 2.5ms the
  // link must be parked even though its last window closed at 2.0ms.
  auto* rec = c.recovery();
  bool parked_midway = false;
  c.queue().schedule_in(2500 * sim::kUs,
                        [&, victim] { parked_midway = rec->quarantined(victim); });
  c.run();

  EXPECT_TRUE(parked_midway);
  EXPECT_FALSE(rec->quarantined(victim)) << "quarantine never released";
  EXPECT_GE(rec->stats().flaps_quarantined, 1u);
  EXPECT_GE(rec->stats().coalesced_events, 1u);
}

TEST(Recovery, StormControlDegradesOverflowToFullResolve) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.remap_delay = 100 * sim::kUs;
  cfg.recovery.max_pending_links = 2;
  // A switch takes all its links with it: more dirty links than the
  // pending budget in one event.
  cfg.fault_schedule.switch_down(7, 1 * sim::kMs, 2 * sim::kMs);

  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  c.run();

  const auto& st = c.recovery()->stats();
  EXPECT_GE(st.overflow_full_resolves, 1u);
  EXPECT_EQ(st.failed_remaps, 0u);
  EXPECT_GE(st.remaps, 2u);
}

// Tables, and therefore the entire packet stream, are jobs-invariant
// through recovery windows: the flight fingerprint of a faulted run must
// not depend on how many threads solved the routes.
TEST(Recovery, FlightFingerprintInvariantAcrossRouteJobs) {
  auto run_once = [](unsigned jobs) {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_fig1_network();
    cfg.engine = {routing::Policy::kItb, 1};
    cfg.route_solve_jobs = jobs;
    cfg.remap_delay = 200 * sim::kUs;
    cfg.recovery.verify_patches = (jobs == 1);  // exercised either way
    cfg.flight.enabled = true;
    const auto victim = trunk_links(cfg.topology).front();
    cfg.fault_schedule.link_down(victim, 1 * sim::kMs, 3 * sim::kMs);
    core::Cluster c(std::move(cfg));
    Observed obs;
    feed_messages(c, 2, 5, 30, 256, &obs);
    EXPECT_GE(c.recovery()->stats().remaps, 2u);
    return c.flight()->fingerprint();
  };
  const auto fp1 = run_once(1);
  const auto fp4 = run_once(4);
  EXPECT_NE(fp1, 0u);
  EXPECT_EQ(fp1, fp4);
}

// ---- shared route rows --------------------------------------------------

TEST(ZeroAlloc, ControlPlaneResolvesAndInstallsWithoutCopies) {
  // A 64 x 4 COW on the ITB engine. Once a row and its search scratch are
  // warm, re-solving every source — one solve per source, or one per
  // switch for its hosts, which publishes one row to all of them —
  // allocates nothing; installing a table in a NIC swaps a pointer; a patch
  // round pays a fixed handful of allocations per re-solved source (its
  // share of a fresh row) and no more.
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";
  core::ClusterConfig cfg;
  sim::Rng rng(2001);
  topo::IrregularSpec spec;
  spec.switches = 64;
  spec.hosts_per_switch = 4;
  cfg.topology = topo::make_random_irregular(spec, rng);
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  const auto& topo = c.topology();
  const auto hosts = static_cast<std::uint16_t>(topo.host_count());

  const auto root = topo.host_uplink(0).node.index;
  const std::vector<char> all_up(topo.link_count(), 1);
  const routing::UpDown ud(topo, root, all_up);
  const routing::Router router(ud);
  routing::RouteRow row;
  routing::Router::Scratch scratch;
  std::size_t stamped = 0, published = 0;
  const auto count = [&](const routing::RouteRow&,
                         std::span<const std::uint16_t> holders) {
    stamped += holders.size();
    ++published;
  };
  const auto solve_each = [&] {
    for (std::uint16_t s = 0; s < hosts; ++s)
      router.routes_from(std::span(&s, 1), routing::Policy::kItb, 2, row,
                         scratch, count);
  };
  std::vector<std::vector<std::uint16_t>> by_switch(topo.switch_count());
  for (std::uint16_t s = 0; s < hosts; ++s)
    by_switch[router.host_switch(s)].push_back(s);
  const auto solve_grouped = [&] {
    for (const auto& group : by_switch)
      router.routes_from(group, routing::Policy::kItb, 2, row, scratch, count);
  };
  solve_each();
  solve_grouped();
  auto before = sim::total_allocations();
  solve_each();
  EXPECT_EQ(sim::total_allocations() - before, 0u) << "warm re-solves";
  before = sim::total_allocations();
  solve_grouped();
  EXPECT_EQ(sim::total_allocations() - before, 0u) << "warm grouped re-solves";
  EXPECT_EQ(stamped, 4u * hosts);
  EXPECT_EQ(published, 2u * hosts + 2u * topo.switch_count())
      << "one row per source alone, one per switch for its hosts";

  const auto* boot = c.route_table();
  ASSERT_NE(boot, nullptr);
  before = sim::total_allocations();
  for (std::uint16_t h = 0; h < hosts; ++h) c.nic(h).load_routes(*boot);
  EXPECT_EQ(sim::total_allocations() - before, 0u) << "NIC installs";
  for (std::uint16_t d = 1; d < hosts; ++d)
    EXPECT_EQ(c.nic(0).route(d).header().data(),
              boot->route(0, d).header().data())
        << "the NIC holds the table's row, not a copy";

  // Fail the trunk most routes cross and patch, as a recovery round does.
  routing::RouteTable table(router, routing::Policy::kItb);
  table.enable_patching(router);
  const auto usage = table.channel_usage(topo);
  topo::LinkId busiest = trunk_links(topo).front();
  for (const auto l : trunk_links(topo))
    if (usage[2 * l] + usage[2 * l + 1] >
        usage[2 * busiest] + usage[2 * busiest + 1])
      busiest = l;
  std::vector<char> mask = all_up;
  mask[busiest] = 0;
  const routing::UpDown down_ud(topo, root, mask);
  const routing::Router down_router(down_ud);
  const auto delta = diff_orientation(topo, ud, down_ud);
  before = sim::total_allocations();
  const auto st = table.patch(down_router, delta);
  const auto patch_allocs = sim::total_allocations() - before;
  ASSERT_GT(st.sources_resolved, 0u);
  EXPECT_LE(patch_allocs, 8 * st.sources_resolved)
      << patch_allocs << " allocations for " << st.sources_resolved
      << " re-solved sources";
}

TEST(RecoveryInstall, NicsStampTheOldHeaderUntilTheRoundInstalls) {
  // A remap round solves or patches the recovery table at fire() and hands
  // it to the NICs only at install(), after the modelled recompute delay.
  // NICs share the table's rows, so a patch must publish new rows and
  // leave the installed ones alone: in between, a NIC still stamps its old
  // header toward a re-routed destination, and the new one once the round
  // installs. Round 1 (trunk down) is a full solve into a new table; round
  // 2 (trunk back up) patches the rows round 1 installed.
  core::ClusterConfig cfg;
  sim::Rng rng(2001);
  topo::IrregularSpec spec;
  spec.switches = 8;
  spec.hosts_per_switch = 2;
  cfg.topology = topo::make_random_irregular(spec, rng);
  cfg.engine = {routing::Policy::kItb, 1};
  // A pair whose route leaves the source switch over a trunk: failing that
  // trunk re-routes it, restoring the trunk routes it back.
  const std::uint16_t src = 0;
  std::uint16_t dst = 1;
  while (cfg.topology.host_uplink(dst).node ==
         cfg.topology.host_uplink(src).node)
    ++dst;
  const auto probe = mapper::run(cfg.topology, routing::Policy::kItb, 0);
  const auto victim = first_hop_link(cfg.topology, probe.table, src, dst);
  cfg.fault_schedule.link_down(victim, 100 * sim::kUs, 20 * sim::kMs);
  core::Cluster c(std::move(cfg));
  ASSERT_NE(c.recovery(), nullptr);
  const auto& recovery = *c.recovery();

  const auto header = [](routing::RouteView r) {
    return std::vector<std::uint8_t>(r.header().begin(), r.header().end());
  };
  const auto step_until = [&c](auto done) {
    while (!done() && c.queue().run_events(1) > 0) {
    }
    return done();
  };
  auto installed = header(c.nic(src).route(dst));
  ASSERT_FALSE(installed.empty());
  for (std::uint64_t round = 1; round <= 2; ++round) {
    SCOPED_TRACE(round);
    // Between the round's fire (its table is solved or patched) and its
    // install (the epoch moves).
    ASSERT_TRUE(step_until([&] {
      return recovery.current_table() != nullptr &&
             recovery.stats().full_resolves + recovery.stats().patch_rounds ==
                 round;
    }));
    ASSERT_EQ(recovery.epoch(), round - 1);
    const auto solved = header(recovery.current_table()->route(src, dst));
    ASSERT_FALSE(solved.empty());
    ASSERT_NE(solved, installed) << "the round re-routes the pair";
    EXPECT_EQ(header(c.nic(src).route(dst)), installed)
        << "a NIC stamps its installed header until the round installs";

    ASSERT_TRUE(step_until([&] { return recovery.epoch() == round; }));
    EXPECT_EQ(header(c.nic(src).route(dst)), solved);
    installed = solved;
  }
  EXPECT_EQ(recovery.stats().patch_rounds, 1u);
}

}  // namespace
