// Tests for up*/down* orientation, route computation, ITB path splitting and
// the channel-dependency-graph deadlock checker — including the paper's
// Fig. 1 scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "itb/routing/deadlock.hpp"
#include "itb/routing/paths.hpp"
#include "itb/routing/table.hpp"
#include "itb/routing/updown.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb::routing;
using namespace itb::topo;

// ---------------------------------------------------------------- UpDown --

TEST(UpDown, DepthsOfLinearChain) {
  auto t = make_linear(4);
  UpDown ud(t);
  EXPECT_EQ(ud.root(), 0);
  for (std::uint16_t s = 0; s < 4; ++s) EXPECT_EQ(ud.depth(s), s);
}

TEST(UpDown, UpEndIsCloserToRoot) {
  auto t = make_linear(3);
  UpDown ud(t);
  // Link 0 joins s0-s1, link 1 joins s1-s2 (built first in make_linear).
  EXPECT_EQ(ud.up_end(0), 0);
  EXPECT_EQ(ud.up_end(1), 1);
  EXPECT_TRUE(ud.is_up_traversal(0, 1));   // s1 -> s0 moves up
  EXPECT_FALSE(ud.is_up_traversal(0, 0));  // s0 -> s1 moves down
}

TEST(UpDown, TieBreaksOnLowerId) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_switch(4);
  t.add_host();
  t.add_host();
  t.connect_switches(0, 0, 1, 0);
  t.connect_switches(0, 1, 2, 0);
  auto cross = t.connect_switches(1, 1, 2, 1);  // both at depth 1
  t.attach_host(0, 1, 2);
  t.attach_host(1, 2, 2);
  UpDown ud(t);
  EXPECT_EQ(ud.up_end(cross), 1);  // lower ID wins the tie
}

TEST(UpDown, HostLinksUnoriented) {
  auto t = make_linear(2);
  UpDown ud(t);
  // make_linear builds the trunk first, then host links.
  EXPECT_FALSE(ud.up_end(1).has_value());
  EXPECT_THROW(ud.is_up_traversal(1, 0), std::invalid_argument);
}

TEST(UpDown, AlternativeRootChangesDepths) {
  auto t = make_linear(4);
  UpDown ud(t, 3);
  EXPECT_EQ(ud.depth(3), 0u);
  EXPECT_EQ(ud.depth(0), 3u);
}

TEST(UpDown, DisconnectedSwitchGraphThrows) {
  Topology t;
  t.add_switch(4);
  t.add_switch(4);
  EXPECT_THROW(UpDown ud(t), std::invalid_argument);
}

TEST(UpDown, BadRootThrows) {
  auto t = make_linear(2);
  EXPECT_THROW(UpDown ud(t, 9), std::invalid_argument);
}

// ---------------------------------------------------------------- Router --

TEST(Router, SameSwitchRoute) {
  auto t = make_linear(2, 2);  // hosts 0,1 on s0; hosts 2,3 on s1
  UpDown ud(t);
  Router r(ud);
  const auto row = r.updown_route(0, 1);
  const auto path = row.route(0, 1);
  EXPECT_EQ(path.segment_count(), 1u);
  EXPECT_EQ(path.segment(0).size(), 1u);  // one traversal of s0
  EXPECT_EQ(path.trunk_hops(), 0u);
  EXPECT_EQ(path.itb_count(), 0u);
}

TEST(Router, LinearChainRouteLength) {
  auto t = make_linear(4, 1);
  UpDown ud(t);
  Router r(ud);
  const auto row = r.updown_route(0, 3);
  const auto path = row.route(0, 3);
  EXPECT_EQ(path.trunk_hops(), 3u);
  EXPECT_EQ(path.switch_traversals(), 4u);
  EXPECT_TRUE(r.is_valid_updown(path.trunk_channels()));
}

TEST(Router, RouteBytesExecuteToDestination) {
  // Walk the route bytes over the topology and confirm they land on the
  // destination host. Exercised over every pair of the Fig. 1 network.
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  for (std::uint16_t s = 0; s < t.host_count(); ++s) {
    for (std::uint16_t d = 0; d < t.host_count(); ++d) {
      if (s == d) continue;
      const auto row = r.updown_route(s, d);
      const auto path = row.route(s, d);
      auto cur = t.host_uplink(s);
      for (std::size_t seg = 0; seg < path.segment_count(); ++seg) {
        if (seg > 0) cur = t.host_uplink(path.in_transit_hosts()[seg - 1]);
        for (auto port : path.segment(seg)) {
          auto peer = t.peer(cur.node, port);
          ASSERT_TRUE(peer.has_value()) << describe(path, t);
          cur = *peer;
        }
      }
      EXPECT_EQ(cur.node, host_id(d)) << describe(path, t);
    }
  }
}

TEST(Router, Fig1MinimalPathIsForbidden) {
  // The path s4 -> s6 -> s1 makes a down->up transition at s6.
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  const auto row = r.minimal_route(4, 1);  // host i sits on switch i
  const auto minimal = row.route(4, 1);
  EXPECT_EQ(minimal.trunk_hops(), 2u);
  EXPECT_FALSE(r.is_valid_updown(minimal.trunk_channels()));
}

TEST(Router, Fig1UpDownDetour) {
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  const auto row = r.updown_route(4, 1);
  const auto updown = row.route(4, 1);
  EXPECT_EQ(updown.trunk_hops(), 3u);  // 4 -> 2 -> 0 -> 1
  EXPECT_TRUE(r.is_valid_updown(updown.trunk_channels()));
  EXPECT_EQ(updown.itb_count(), 0u);
}

TEST(Router, Fig1ItbRouteIsMinimalWithOneItb) {
  // The ITB at the host on switch 6 splits 4->6->1 into two valid
  // up*/down* sub-paths (paper Fig. 1).
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  const auto row = r.itb_route(4, 1);
  const auto itb = row.route(4, 1);
  EXPECT_EQ(itb.trunk_hops(), 2u);
  EXPECT_EQ(itb.itb_count(), 1u);
  ASSERT_EQ(itb.in_transit_hosts().size(), 1u);
  EXPECT_EQ(itb.in_transit_hosts()[0], 6);  // host 6 hangs off switch 6
  EXPECT_EQ(itb.segment_count(), 2u);
  // Each sub-path must itself be a valid up*/down* path.
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < itb.segment_count(); ++i) {
    const std::size_t hops = itb.segment(i).size() - 1;
    EXPECT_TRUE(r.is_valid_updown(itb.trunk_channels().subspan(cursor, hops)));
    cursor += hops;
  }
}

TEST(Router, ItbNeverWorseThanUpDown) {
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  for (std::uint16_t s = 0; s < t.host_count(); ++s)
    for (std::uint16_t d = 0; d < t.host_count(); ++d) {
      if (s == d) continue;
      EXPECT_LE(r.itb_route(s, d).route(s, d).trunk_hops(),
                r.updown_route(s, d).route(s, d).trunk_hops());
    }
}

TEST(Router, ItbRoutesAreMinimalOnFig1) {
  // Every switch in Fig. 1 has a host, so every minimal path can be
  // legalised: the ITB route length must equal the unrestricted minimum.
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  for (std::uint16_t s = 0; s < t.host_count(); ++s) {
    const auto dist = r.min_hops_from_switch(r.host_switch(s));
    for (std::uint16_t d = 0; d < t.host_count(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(r.itb_route(s, d).route(s, d).trunk_hops(),
                dist[r.host_switch(d)]);
    }
  }
}

TEST(Router, ItbSubPathsAlwaysValidOnRandomNets) {
  itb::sim::Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    IrregularSpec spec;
    spec.switches = 10;
    spec.hosts_per_switch = 2;
    auto t = make_random_irregular(spec, rng);
    UpDown ud(t);
    Router r(ud);
    for (std::uint16_t s = 0; s < t.host_count(); s += 3) {
      const auto dist = r.min_hops_from_switch(r.host_switch(s));
      for (std::uint16_t d = 0; d < t.host_count(); d += 3) {
        if (s == d) continue;
        const auto row = r.itb_route(s, d);
        const auto path = row.route(s, d);
        std::size_t cursor = 0;
        for (std::size_t i = 0; i < path.segment_count(); ++i) {
          const auto seg = path.segment(i);
          ASSERT_GE(seg.size(), 1u);
          const auto chain = path.trunk_channels().subspan(cursor, seg.size() - 1);
          EXPECT_TRUE(r.is_valid_updown(chain)) << describe(path, t);
          cursor += seg.size() - 1;
        }
        EXPECT_EQ(path.trunk_hops(), dist[r.host_switch(d)])
            << describe(path, t);
      }
    }
  }
}

TEST(Router, PerPairHelpersRejectACutOffSource) {
  // Host 5's uplink is masked down: routes_from leaves its row empty, and
  // every per-pair helper must refuse the pair as it does for a cut-off
  // destination, instead of routing from the switch the host hangs off.
  itb::sim::Rng rng(7);
  IrregularSpec spec;
  spec.switches = 8;
  spec.hosts_per_switch = 3;
  const auto t = make_random_irregular(spec, rng);
  std::vector<char> mask(t.link_count(), 1);
  const auto uplink = t.host_uplink(5);
  mask[*t.link_at(uplink.node, uplink.port)] = 0;
  const UpDown ud(t, t.host_uplink(0).node.index, mask);
  const Router r(ud);
  ASSERT_FALSE(r.host_usable(5));
  RouteRow row;
  Router::Scratch scratch;
  const std::uint16_t cut_off[] = {5};
  r.routes_from(cut_off, Policy::kItb, 2, row, scratch,
                [](const RouteRow&, std::span<const std::uint16_t>) {});
  EXPECT_TRUE(row.route(5, 9).empty());
  EXPECT_THROW(r.updown_route(5, 9), std::logic_error);
  EXPECT_THROW(r.itb_route(5, 9), std::logic_error);
  EXPECT_THROW(r.minimal_route(5, 9), std::logic_error);
  // Either end cut off is refused the same way.
  EXPECT_THROW(r.itb_route(9, 5), std::logic_error);
  EXPECT_FALSE(r.itb_route(9, 10).route(9, 10).empty());
}

TEST(Router, DescribeMentionsItb) {
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  auto text = describe(r.itb_route(4, 1).route(4, 1), t);
  EXPECT_NE(text.find("ITB(h6)"), std::string::npos) << text;
  EXPECT_NE(text.find("h4"), std::string::npos);
}

// ------------------------------------------------------------ RouteTable --

TEST(RouteTable, ItbImprovesAverageHopsOnFig1) {
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  RouteTable updown(r, Policy::kUpDown);
  RouteTable itb(r, Policy::kItb);
  EXPECT_LT(itb.average_trunk_hops(), updown.average_trunk_hops());
  EXPECT_DOUBLE_EQ(itb.minimal_fraction(r), 1.0);
  EXPECT_LT(updown.minimal_fraction(r), 1.0);
  EXPECT_GT(itb.average_itbs(), 0.0);
  EXPECT_DOUBLE_EQ(updown.average_itbs(), 0.0);
}

TEST(RouteTable, DiagonalAccessThrows) {
  auto t = make_linear(2, 1);
  UpDown ud(t);
  Router r(ud);
  RouteTable table(r, Policy::kUpDown);
  EXPECT_THROW(table.route(0, 0), std::out_of_range);
  EXPECT_THROW(table.route(0, 5), std::out_of_range);
}

TEST(RouteTable, ChannelUsageCountsEveryTrunk) {
  auto t = make_linear(3, 1);  // hosts 0,1,2 on switches 0,1,2
  UpDown ud(t);
  Router r(ud);
  RouteTable table(r, Policy::kUpDown);
  auto usage = table.channel_usage(t);
  std::uint32_t total = 0;
  for (auto u : usage) total += u;
  // Pairs: 0<->1 (1 hop each way), 0<->2 (2), 1<->2 (1): total 8 trunk hops.
  EXPECT_EQ(total, 8u);
}

TEST(RouteTable, UpDownConcentratesTrafficNearRoot) {
  // The motivation claim (§1): spanning-tree routing saturates the root.
  itb::sim::Rng rng(5);
  IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 2;
  auto t = make_random_irregular(spec, rng);
  UpDown ud(t);
  Router r(ud);
  RouteTable updown(r, Policy::kUpDown);
  RouteTable itbt(r, Policy::kItb);
  auto peak = [](const std::vector<std::uint32_t>& v) {
    std::uint32_t m = 0;
    for (auto x : v) m = std::max(m, x);
    return m;
  };
  // ITB routing must reduce the most-loaded channel's share.
  EXPECT_LT(peak(itbt.channel_usage(t)), peak(updown.channel_usage(t)));
}

// -------------------------------------------------------------- Deadlock --

TEST(Deadlock, ExplicitCycleDetected) {
  auto t = make_linear(3, 1);
  DependencyGraph g(t);
  Channel c0{0, true}, c1{1, true}, c0r{0, false};
  g.add_dependency(c0, c1);
  EXPECT_FALSE(g.has_cycle());
  g.add_dependency(c1, c0r);
  g.add_dependency(c0r, c0);
  EXPECT_TRUE(g.has_cycle());
  auto cycle = g.find_cycle();
  EXPECT_GE(cycle.size(), 2u);
}

TEST(Deadlock, DuplicateEdgesIgnored) {
  auto t = make_linear(2, 1);
  DependencyGraph g(t);
  g.add_dependency({0, true}, {1, true});
  g.add_dependency({0, true}, {1, true});
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Deadlock, UpDownTablesAcyclic) {
  itb::sim::Rng rng(21);
  IrregularSpec spec;
  spec.switches = 12;
  spec.hosts_per_switch = 2;
  auto t = make_random_irregular(spec, rng);
  UpDown ud(t);
  Router r(ud);
  RouteTable table(r, Policy::kUpDown);
  DependencyGraph g(t);
  g.add_table(table, t);
  EXPECT_FALSE(g.has_cycle());
}

TEST(Deadlock, ItbTablesAcyclic) {
  // The paper's core deadlock-freedom claim: splitting at ITBs keeps the
  // CDG acyclic even though routes are minimal.
  itb::sim::Rng rng(22);
  for (int trial = 0; trial < 4; ++trial) {
    IrregularSpec spec;
    spec.switches = 12;
    spec.hosts_per_switch = 2;
    auto t = make_random_irregular(spec, rng);
    UpDown ud(t);
    Router r(ud);
    RouteTable table(r, Policy::kItb);
    DependencyGraph g(t);
    g.add_table(table, t);
    EXPECT_FALSE(g.has_cycle()) << "trial " << trial;
  }
}

TEST(Deadlock, MinimalRoutesWithoutItbsCanCycle) {
  // Sanity check of the checker itself: raw minimal routing over an
  // irregular net generally produces cyclic dependencies. We search a few
  // seeds for a cyclic instance — at least one must exist.
  itb::sim::Rng rng(1);
  bool found_cycle = false;
  for (int trial = 0; trial < 8 && !found_cycle; ++trial) {
    IrregularSpec spec;
    spec.switches = 12;
    spec.hosts_per_switch = 2;
    auto t = make_random_irregular(spec, rng);
    UpDown ud(t);
    Router r(ud);
    DependencyGraph g(t);
    for (std::uint16_t s = 0; s < t.host_count(); ++s)
      for (std::uint16_t d = 0; d < t.host_count(); ++d) {
        if (s == d) continue;
        g.add_route(r.minimal_route(s, d).route(s, d), t);
      }
    found_cycle = g.has_cycle();
  }
  EXPECT_TRUE(found_cycle);
}

TEST(Deadlock, ItbRouteChainsSplitAtEjection) {
  // The dependency from the last channel before an ITB to the first after
  // it must NOT exist.
  auto t = make_fig1_network();
  UpDown ud(t);
  Router r(ud);
  const auto row = r.itb_route(4, 1);
  const auto path = row.route(4, 1);
  ASSERT_EQ(path.itb_count(), 1u);
  DependencyGraph g(t);
  g.add_route(path, t);
  EXPECT_FALSE(g.has_cycle());
  // With only one route, edges = (channels per chain - 1) summed: chain 1
  // has host + 1 trunk + host = 3 channels (2 edges), chain 2 the same.
  EXPECT_EQ(g.edge_count(), 4u);
}

// ------------------------------------------------------------ dump pins --

/// FNV-1a 64 over a table dump, continuing from `h` (default: the offset
/// basis) so several dumps can fold into one digest.
std::uint64_t dump_digest(const RouteTable& table,
                          std::uint64_t h = 0xcbf29ce484222325ull) {
  std::ostringstream os;
  table.dump(os);
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(RouteTable, DumpDigestsPinnedOnEveryGenerator) {
  // One small instance of every generator in topo/builders.hpp, solved
  // under every policy the engines use: up*/down*, ITB with both in-transit
  // host selections, and VC escape with 1, 2 and 4 lanes (one lane forces
  // up*/down* escape fallbacks on the irregular, regular, ring and Fig. 1
  // fabrics). The digests were taken before routes were stored as flat
  // rows, so any change to a route byte, in-transit host, trunk channel or
  // the dump text shows here.
  itb::sim::Rng irregular_rng(7);
  itb::sim::Rng regular_rng(11);
  IrregularSpec irregular;
  irregular.switches = 8;
  irregular.hosts_per_switch = 3;
  RegularSpec regular;
  regular.switches = 8;
  regular.degree = 3;
  regular.hosts_per_switch = 2;
  const std::vector<std::pair<const char*, Topology>> fabrics = {
      {"paper_testbed", make_paper_testbed()},
      {"fig1", make_fig1_network()},
      {"irregular", make_random_irregular(irregular, irregular_rng)},
      {"regular", make_random_regular(regular, regular_rng)},
      {"fat_tree", make_fat_tree(4)},
      {"clos", make_clos(2, 4, 2)},
      {"linear", make_linear(4, 2)},
      {"ring", make_ring(6, 2)},
      {"mesh", make_mesh(3, 3, 2)},
      {"star", make_star(4, 2)},
  };
  struct Solve {
    const char* name;
    Policy policy;
    ItbHostSelection selection;
    unsigned lanes;
  };
  const Solve solves[] = {
      {"ud", Policy::kUpDown, ItbHostSelection::kLowestIndex, 2},
      {"itb", Policy::kItb, ItbHostSelection::kLowestIndex, 2},
      {"itb_spread", Policy::kItb, ItbHostSelection::kSpread, 2},
      {"vc1", Policy::kVcEscape, ItbHostSelection::kLowestIndex, 1},
      {"vc2", Policy::kVcEscape, ItbHostSelection::kLowestIndex, 2},
      {"vc4", Policy::kVcEscape, ItbHostSelection::kLowestIndex, 4},
  };
  const std::map<std::string, std::uint64_t> pinned = {
      {"paper_testbed/ud", 0x1b1f9fd81c8f460dull},
      {"paper_testbed/itb", 0x096de7fe66578ffcull},
      {"paper_testbed/itb_spread", 0x096de7fe66578ffcull},
      {"paper_testbed/vc1", 0x5e46a06fee194445ull},
      {"paper_testbed/vc2", 0xae1a3b579887d976ull},
      {"paper_testbed/vc4", 0x0ecc5a3ffecc3670ull},
      {"fig1/ud", 0x627c4521059c1486ull},
      {"fig1/itb", 0x201f0dff3576f006ull},
      {"fig1/itb_spread", 0x201f0dff3576f006ull},
      {"fig1/vc1", 0x190b323d4151358eull},
      {"fig1/vc2", 0xfffd0692554ac80cull},
      {"fig1/vc4", 0x3a3f56ca4423522eull},
      {"irregular/ud", 0x243670757ed0766eull},
      {"irregular/itb", 0x744f987543f28e3cull},
      {"irregular/itb_spread", 0x9747605a99ed1504ull},
      {"irregular/vc1", 0xf940f761260f1878ull},
      {"irregular/vc2", 0xcc5c0e1f14bc16daull},
      {"irregular/vc4", 0xb835bcaedb7fdd10ull},
      {"regular/ud", 0xa356dde215225185ull},
      {"regular/itb", 0x67d47b7b66fd927aull},
      {"regular/itb_spread", 0xee7501858bf1fee6ull},
      {"regular/vc1", 0xca5dd4b09dd1e82dull},
      {"regular/vc2", 0x427d77d10c960f30ull},
      {"regular/vc4", 0x517f9ad41c3dbe36ull},
      {"fat_tree/ud", 0xefcf71bad7ec4ae1ull},
      {"fat_tree/itb", 0xb9e64cfedd6ba0baull},
      {"fat_tree/itb_spread", 0xb9e64cfedd6ba0baull},
      {"fat_tree/vc1", 0xd03d9a4fcf5e1649ull},
      {"fat_tree/vc2", 0xf2875672ffac0d08ull},
      {"fat_tree/vc4", 0xb997e0255d8b403eull},
      {"clos/ud", 0xfa7e8d19feda1a66ull},
      {"clos/itb", 0x22c4ec4e382fd4efull},
      {"clos/itb_spread", 0x22c4ec4e382fd4efull},
      {"clos/vc1", 0x234e93f73169ffaeull},
      {"clos/vc2", 0x1e90f7c022d0032dull},
      {"clos/vc4", 0x89a1017dd4eb1033ull},
      {"linear/ud", 0x88b977642abdc302ull},
      {"linear/itb", 0xb06d7efb12c44e33ull},
      {"linear/itb_spread", 0xb06d7efb12c44e33ull},
      {"linear/vc1", 0xaf933db8fea8d48aull},
      {"linear/vc2", 0x6312ca8c3248e6b9ull},
      {"linear/vc4", 0xda9f7e02bd5ff8e7ull},
      {"ring/ud", 0x1bea281e048c4981ull},
      {"ring/itb", 0x504178a653c74892ull},
      {"ring/itb_spread", 0x4a340f04d9272aeeull},
      {"ring/vc1", 0xabba454a528d7f29ull},
      {"ring/vc2", 0x4ff8267f81255fa4ull},
      {"ring/vc4", 0xafd196c014cf0acaull},
      {"mesh/ud", 0x5238fb4b68e6cc96ull},
      {"mesh/itb", 0xf0afb3eea0e8d2c5ull},
      {"mesh/itb_spread", 0xf0afb3eea0e8d2c5ull},
      {"mesh/vc1", 0x0e786e1b5b6e752eull},
      {"mesh/vc2", 0x0d277e6c1442fd3full},
      {"mesh/vc4", 0xca61a2bb5ff28fb1ull},
      {"star/ud", 0x0746bae5809523deull},
      {"star/itb", 0x384704e3c9392af7ull},
      {"star/itb_spread", 0x384704e3c9392af7ull},
      {"star/vc1", 0xe8fb0b7dbdfaf9e6ull},
      {"star/vc2", 0xbe6b4df34bdd4bc5ull},
      {"star/vc4", 0x9abfb7dcd0ceabfbull},
  };
  std::size_t checked = 0;
  for (const auto& [fabric_name, topo] : fabrics) {
    const UpDown ud(topo);
    for (const Solve& s : solves) {
      const Router router(ud, s.selection);
      const RouteTable table(router, s.policy, /*jobs=*/1, s.lanes);
      const std::string key = std::string(fabric_name) + "/" + s.name;
      const auto it = pinned.find(key);
      ASSERT_NE(it, pinned.end()) << key;
      EXPECT_EQ(dump_digest(table), it->second) << key;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(fabrics) * std::size(solves));
}

TEST(RouteTable, DumpDigestsPinnedOnDegradedFabrics) {
  // Recovery solves masked fabrics, so the pins cover them too: a seeded
  // family of irregular COWs (four seeds each of 32 x 4 and 64 x 4), rooted
  // where the recovery engine roots them (host 0's switch), under three
  // link masks and four policies. The masks are
  //   none      every link up;
  //   busiest   the trunk carrying the most ITB routes down;
  //   cut       every trunk of one seeded switch (its hosts keep only each
  //             other), three more seeded trunks and one seeded host's
  //             uplink down.
  // Each pin folds the four seeds' dumps into one FNV-1a 64 digest. The
  // digests were taken before the bucket-queue search and the per-switch
  // shared entries, so any change to a route byte, in-transit host, trunk
  // channel or empty entry shows here.
  struct Solve {
    const char* name;
    Policy policy;
    ItbHostSelection selection;
  };
  const Solve solves[] = {
      {"ud", Policy::kUpDown, ItbHostSelection::kLowestIndex},
      {"itb", Policy::kItb, ItbHostSelection::kLowestIndex},
      {"itb_spread", Policy::kItb, ItbHostSelection::kSpread},
      {"vc2", Policy::kVcEscape, ItbHostSelection::kLowestIndex},
  };
  const char* const mask_names[] = {"none", "busiest", "cut"};
  const std::map<std::string, std::uint64_t> pinned = {
      {"32x4/busiest/itb", 0x86e76ad13bf1b9a5ull},
      {"32x4/busiest/itb_spread", 0xdd7945ee8a143159ull},
      {"32x4/busiest/ud", 0xa46392305351e165ull},
      {"32x4/busiest/vc2", 0xd60f9d86b2f5d359ull},
      {"32x4/cut/itb", 0xc4225ff567d47fcbull},
      {"32x4/cut/itb_spread", 0x230de26cd57063b8ull},
      {"32x4/cut/ud", 0x8bb34474019aea71ull},
      {"32x4/cut/vc2", 0x8473444b586fab23ull},
      {"32x4/none/itb", 0xf07278753062f1d1ull},
      {"32x4/none/itb_spread", 0x11544eeb6d67b4edull},
      {"32x4/none/ud", 0x8b10201b8bc4dbc9ull},
      {"32x4/none/vc2", 0xec5c120e2852691dull},
      {"64x4/busiest/itb", 0x48075f84afcd3455ull},
      {"64x4/busiest/itb_spread", 0xc4382429c1437f25ull},
      {"64x4/busiest/ud", 0xd631a47c4772cc85ull},
      {"64x4/busiest/vc2", 0x892e14827fe21aa9ull},
      {"64x4/cut/itb", 0x678197de468fcd4full},
      {"64x4/cut/itb_spread", 0x17437f520d53dc65ull},
      {"64x4/cut/ud", 0xbb3d690ce2674aa5ull},
      {"64x4/cut/vc2", 0x8ba15bf842593f69ull},
      {"64x4/none/itb", 0x3e4cc834121df725ull},
      {"64x4/none/itb_spread", 0x5611e8659200eb29ull},
      {"64x4/none/ud", 0x01bf9b3f90479949ull},
      {"64x4/none/vc2", 0x23f4bcfc84869f75ull},
  };
  std::map<std::string, std::uint64_t> got;
  for (const std::uint16_t switches : {32, 64}) {
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      itb::sim::Rng rng(seed);
      IrregularSpec spec;
      spec.switches = switches;
      spec.hosts_per_switch = 4;
      const auto t = make_random_irregular(spec, rng);
      const auto root = t.host_uplink(0).node.index;
      std::vector<LinkId> trunks;
      for (LinkId l = 0; l < t.link_count(); ++l) {
        const auto& link = t.link(l);
        if (link.a.node.kind == NodeKind::kSwitch &&
            link.b.node.kind == NodeKind::kSwitch && link.a.node != link.b.node)
          trunks.push_back(l);
      }
      const std::vector<char> all_up(t.link_count(), 1);
      std::vector<char> busiest = all_up;
      {
        const UpDown ud(t, root, all_up);
        const auto usage =
            RouteTable(Router(ud), Policy::kItb).channel_usage(t);
        LinkId top = trunks.front();
        for (const auto l : trunks)
          if (usage[2 * l] + usage[2 * l + 1] >
              usage[2 * top] + usage[2 * top + 1])
            top = l;
        busiest[top] = 0;
      }
      std::vector<char> cut = all_up;
      {
        itb::sim::Rng pick(seed * 1000 + switches);
        auto lone = static_cast<std::uint16_t>(pick.next_below(switches));
        if (lone == root)
          lone = static_cast<std::uint16_t>((lone + 1) % switches);
        for (const auto l : trunks) {
          const auto& link = t.link(l);
          if (link.a.node.index == lone || link.b.node.index == lone)
            cut[l] = 0;
        }
        for (int k = 0; k < 3; ++k)
          cut[trunks[pick.next_below(trunks.size())]] = 0;
        const auto host = static_cast<std::uint16_t>(
            1 + pick.next_below(t.host_count() - 1));
        const auto up = t.host_uplink(host);
        cut[*t.link_at(up.node, up.port)] = 0;
      }
      const std::vector<char>* masks[] = {&all_up, &busiest, &cut};
      for (std::size_t m = 0; m < std::size(masks); ++m) {
        const UpDown ud(t, root, *masks[m]);
        for (const Solve& s : solves) {
          const Router router(ud, s.selection);
          const RouteTable table(router, s.policy, /*jobs=*/1, /*vc_lanes=*/2);
          const std::string key = std::to_string(switches) + "x4/" +
                                  mask_names[m] + "/" + s.name;
          const auto it = got.find(key);
          got[key] = it == got.end() ? dump_digest(table)
                                     : dump_digest(table, it->second);
        }
      }
    }
  }
  for (const auto& [key, digest] : got) {
    const auto it = pinned.find(key);
    ASSERT_NE(it, pinned.end()) << key;
    EXPECT_EQ(digest, it->second) << key;
  }
  EXPECT_EQ(got.size(), 2 * std::size(mask_names) * std::size(solves));
}

/// The trunk of `t` the most ITB routes cross, solved from `root` with
/// every link up.
LinkId busiest_trunk(const Topology& t, std::uint16_t root) {
  const UpDown ud(t, root, std::vector<char>(t.link_count(), 1));
  const auto usage = RouteTable(Router(ud), Policy::kItb).channel_usage(t);
  std::optional<LinkId> top;
  for (LinkId l = 0; l < t.link_count(); ++l) {
    const auto& link = t.link(l);
    if (link.a.node.kind != NodeKind::kSwitch ||
        link.b.node.kind != NodeKind::kSwitch || link.a.node == link.b.node)
      continue;
    if (!top || usage[2 * l] + usage[2 * l + 1] >
                    usage[2 * *top] + usage[2 * *top + 1])
      top = l;
  }
  return top.value();
}

TEST(RouteTable, FramedHeadersMatchTheSegmentEncoder) {
  // A row stores a header in two parts, the bytes a destination switch's
  // hosts share and each host's final route byte, and the send path frames
  // both (packet::frame). Whatever the row layout, the wire bytes must be
  // what the segment encoder builds from the route's decoded segments
  // (packet::build_itb_packet): every (src, dst) of a seeded 32 x 4 and
  // 64 x 4 COW, whole and with the busiest trunk down, under UD, ITB with
  // both host selections and 2-lane VC.
  struct Solve {
    const char* name;
    Policy policy;
    ItbHostSelection selection;
  };
  const Solve solves[] = {
      {"ud", Policy::kUpDown, ItbHostSelection::kLowestIndex},
      {"itb", Policy::kItb, ItbHostSelection::kLowestIndex},
      {"itb_spread", Policy::kItb, ItbHostSelection::kSpread},
      {"vc2", Policy::kVcEscape, ItbHostSelection::kLowestIndex},
  };
  std::size_t framed = 0, unreachable = 0, with_itbs = 0;
  for (const auto& [switches, seed] :
       {std::pair<std::uint16_t, std::uint64_t>{32, 1}, {64, 2}}) {
    itb::sim::Rng rng(seed);
    IrregularSpec spec;
    spec.switches = switches;
    spec.hosts_per_switch = 4;
    const auto t = make_random_irregular(spec, rng);
    const auto root = t.host_uplink(0).node.index;
    const std::vector<char> all_up(t.link_count(), 1);
    auto busiest = all_up;
    busiest[busiest_trunk(t, root)] = 0;
    const std::vector<char>* const masks[] = {&all_up, &busiest};
    for (const auto* mask : masks) {
      const UpDown ud(t, root, *mask);
      for (const Solve& s : solves) {
        SCOPED_TRACE(::testing::Message()
                     << switches << " x 4 COW, seed " << seed << ", "
                     << (mask == &all_up ? "whole" : "busiest trunk down")
                     << ", " << s.name);
        const Router router(ud, s.selection);
        const RouteTable table(router, s.policy, /*jobs=*/1, /*vc_lanes=*/2);
        std::size_t mismatches = 0;
        for (std::uint16_t src = 0; src < t.host_count(); ++src)
          for (std::uint16_t dst = 0; dst < t.host_count(); ++dst) {
            if (src == dst) continue;
            const RouteView r = table.route(src, dst);
            if (r.empty()) {
              ++unreachable;
              continue;
            }
            const std::uint8_t payload[] = {
                static_cast<std::uint8_t>(src), static_cast<std::uint8_t>(dst),
                0xA5};
            const auto wire =
                itb::packet::frame(r.header(), itb::packet::PacketType::kGm,
                                   payload);
            if (wire != itb::packet::build_itb_packet(
                            r.segments(), itb::packet::PacketType::kGm,
                            payload) &&
                mismatches++ == 0)
              ADD_FAILURE() << "first mismatch: " << src << " > " << dst
                            << ": " << describe(r, t);
            ++framed;
            with_itbs += r.itb_count() > 0;
          }
        EXPECT_EQ(mismatches, 0u);
      }
    }
  }
  EXPECT_EQ(framed + unreachable,
            2u * std::size(solves) * (128u * 127 + 256u * 255));
  EXPECT_GT(framed, 0u);
  EXPECT_GT(with_itbs, 0u);
}

// ------------------------------------------------------------ grouped solve --

/// Fig. 1's switches and trunks with hosts dealt out of order: switch 4
/// holds hosts 1, 5, 9 and 12, switches 0, 2 and 5 one host each, and
/// switch 7 none.
Topology make_interleaved_fig1() {
  Topology t;
  for (int i = 0; i < 8; ++i) t.add_switch(8);
  const std::pair<int, int> trunks[] = {
      {0, 1}, {0, 2}, {1, 3}, {1, 6}, {2, 4}, {2, 5}, {4, 6}, {3, 7}, {5, 7},
  };
  std::vector<std::uint8_t> next_port(8, 0);
  for (auto [a, b] : trunks)
    t.connect_switches(static_cast<std::uint16_t>(a), next_port[a]++,
                       static_cast<std::uint16_t>(b), next_port[b]++);
  const std::uint16_t switch_of[] = {0, 4, 1, 6, 2, 4, 3, 1, 5, 4, 3, 6, 4};
  for (std::uint16_t h = 0; h < std::size(switch_of); ++h) {
    t.add_host();
    const auto sw = switch_of[h];
    t.attach_host(h, sw, next_port[sw]++, PortKind::kLan);
  }
  return t;
}

TEST(GroupedSolve, EveryRowEqualsItsOneSourceSolve) {
  // RouteTable solves the hosts of one switch as a group: one search, one
  // walk per destination switch, one row published to every holder. Each
  // holder's row must equal, field by field (offsets, header, in-transit
  // hosts, trunk channels), the row routes_from publishes for that source
  // alone, on irregular COWs, a fat tree and a hand-built fabric whose
  // switch-mates have non-adjacent ids, under four link masks:
  //   none      every link up;
  //   busiest   the trunk carrying the most ITB routes down;
  //   uplink    the second host of a 4-host switch cut off;
  //   switch    every trunk of the last non-root switch with hosts down.
  std::vector<std::pair<std::string, Topology>> fabrics;
  for (const std::uint16_t switches : {32, 64})
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      itb::sim::Rng rng(seed);
      IrregularSpec spec;
      spec.switches = switches;
      spec.hosts_per_switch = 4;
      fabrics.emplace_back(std::to_string(switches) + "x4/" +
                               std::to_string(seed),
                           make_random_irregular(spec, rng));
    }
  fabrics.emplace_back("ft8", make_fat_tree(8));
  fabrics.emplace_back("interleaved", make_interleaved_fig1());

  struct Solve {
    const char* name;
    Policy policy;
    ItbHostSelection selection;
  };
  const Solve solves[] = {
      {"ud", Policy::kUpDown, ItbHostSelection::kLowestIndex},
      {"itb", Policy::kItb, ItbHostSelection::kLowestIndex},
      {"itb_spread", Policy::kItb, ItbHostSelection::kSpread},
      {"vc2", Policy::kVcEscape, ItbHostSelection::kLowestIndex},
  };
  std::size_t vc_fallbacks = 0, spread_itbs = 0, rows = 0;
  RouteRow one;
  Router::Scratch scratch;
  for (const auto& [fabric_name, t] : fabrics) {
    const auto root = t.host_uplink(0).node.index;
    std::vector<std::vector<std::uint16_t>> hosts_on(t.switch_count());
    for (std::uint16_t h = 0; h < t.host_count(); ++h)
      hosts_on[t.host_uplink(h).node.index].push_back(h);
    const std::vector<char> all_up(t.link_count(), 1);
    std::vector<std::pair<const char*, std::vector<char>>> masks;
    masks.emplace_back("none", all_up);
    {
      const UpDown ud(t, root, all_up);
      const auto usage = RouteTable(Router(ud), Policy::kItb).channel_usage(t);
      std::optional<LinkId> top;
      for (LinkId l = 0; l < t.link_count(); ++l) {
        const auto& link = t.link(l);
        if (link.a.node.kind != NodeKind::kSwitch ||
            link.b.node.kind != NodeKind::kSwitch || link.a.node == link.b.node)
          continue;
        if (!top || usage[2 * l] + usage[2 * l + 1] >
                        usage[2 * *top] + usage[2 * *top + 1])
          top = l;
      }
      ASSERT_TRUE(top.has_value()) << fabric_name;
      masks.emplace_back("busiest", all_up);
      masks.back().second[*top] = 0;
    }
    {
      const auto it = std::ranges::find_if(
          hosts_on, [](const auto& hosts) { return hosts.size() == 4; });
      ASSERT_NE(it, hosts_on.end()) << fabric_name;
      const auto up = t.host_uplink((*it)[1]);
      masks.emplace_back("uplink", all_up);
      masks.back().second[*t.link_at(up.node, up.port)] = 0;
    }
    {
      std::uint16_t lone = 0;
      for (std::uint16_t sw = 0; sw < t.switch_count(); ++sw)
        if (sw != root && !hosts_on[sw].empty()) lone = sw;
      masks.emplace_back("switch", all_up);
      for (const auto l : t.links_of(switch_id(lone)))
        if (t.link(l).a.node.kind == NodeKind::kSwitch &&
            t.link(l).b.node.kind == NodeKind::kSwitch)
          masks.back().second[l] = 0;
    }
    for (const auto& [mask_name, mask] : masks) {
      const UpDown ud(t, root, mask);
      for (const Solve& s : solves) {
        const Router router(ud, s.selection);
        const RouteTable table(router, s.policy, /*jobs=*/1, /*vc_lanes=*/2);
        // A switch's hosts in any order: the lowest usable one leads.
        for (auto group : hosts_on) {
          std::ranges::reverse(group);
          router.routes_from(
              group, s.policy, 2, one, scratch,
              [&](const RouteRow& row, std::span<const std::uint16_t> held) {
                for (const auto h : held) {
                  EXPECT_TRUE(row == *table.row(h))
                      << fabric_name << "/" << mask_name << "/" << s.name
                      << " group source " << h;
                  ++rows;
                }
              });
        }
        for (std::uint16_t src = 0; src < t.host_count(); ++src) {
          router.routes_from(
              std::span(&src, 1), s.policy, 2, one, scratch,
              [&](const RouteRow& row, std::span<const std::uint16_t> held) {
                EXPECT_TRUE(std::ranges::equal(held, std::span(&src, 1)));
                EXPECT_TRUE(row == *table.row(src))
                    << fabric_name << "/" << mask_name << "/" << s.name
                    << " source " << src;
                ++rows;
              });
          if (!router.host_usable(src)) continue;
          const auto min_hops =
              router.min_hops_from_switch(router.host_switch(src));
          for (std::uint16_t dst = 0; dst < t.host_count(); ++dst) {
            const RouteView r = one.route(src, dst);
            if (r.empty()) continue;
            if (s.policy == Policy::kVcEscape &&
                r.trunk_hops() > min_hops[router.host_switch(dst)])
              ++vc_fallbacks;
            if (s.selection == ItbHostSelection::kSpread)
              spread_itbs += r.itb_count();
          }
        }
      }
    }
  }
  EXPECT_EQ(rows, 2u * 4 * 4 * (4 * 128 + 4 * 256 + 128 + 13));
  // Both exceptions to plain stamping were exercised.
  EXPECT_GT(vc_fallbacks, 0u);
  EXPECT_GT(spread_itbs, 0u);
}

TEST(GroupedSolve, SwitchMatesHoldOneRow) {
  // Under kLowestIndex a route row depends only on its source switch: the
  // usable hosts of a switch hold one row object, so the table holds one
  // distinct row per switch with usable hosts, plus one all-empty row for
  // the cut-off hosts. A view read through a shared row names its reader.
  itb::sim::Rng rng(2001);
  IrregularSpec spec;
  spec.switches = 64;
  spec.hosts_per_switch = 4;
  const auto t = make_random_irregular(spec, rng);
  const auto root = t.host_uplink(0).node.index;
  std::uint16_t cut = 0;  // a host off the root switch
  while (t.host_uplink(cut).node.index == root) ++cut;
  const std::vector<char> all_up(t.link_count(), 1);
  auto one_cut = all_up;
  const auto up = t.host_uplink(cut);
  one_cut[*t.link_at(up.node, up.port)] = 0;
  for (const auto& mask : {all_up, one_cut}) {
    const UpDown ud(t, root, mask);
    const Router router(ud);
    const RouteTable table(router, Policy::kItb);
    std::map<std::uint16_t, const RouteRow*> of_switch;
    std::set<const RouteRow*> distinct, cut_off;
    for (std::uint16_t h = 0; h < t.host_count(); ++h) {
      const RouteRow* row = table.row(h).get();
      distinct.insert(row);
      if (!router.host_usable(h)) {
        cut_off.insert(row);
        for (std::uint16_t d = 0; d < t.host_count(); ++d) {
          if (d == h) continue;
          EXPECT_TRUE(table.route(h, d).empty());
        }
        continue;
      }
      const auto [first, fresh] =
          of_switch.try_emplace(router.host_switch(h), row);
      EXPECT_EQ(first->second, row) << "host " << h;
    }
    EXPECT_EQ(of_switch.size(), static_cast<std::size_t>(spec.switches));
    EXPECT_EQ(cut_off.size(), mask == all_up ? 0u : 1u);
    EXPECT_EQ(distinct.size(), of_switch.size() + cut_off.size());

    // Host 0 leads its switch's solve; a mate reads the shared row as its
    // own: every view names it, its own entry is masked, and its entry
    // toward the lead is the one route byte to it.
    std::uint16_t mate = 1;
    while (t.host_uplink(mate).node.index != root) ++mate;
    ASSERT_EQ(table.row(mate), table.row(0));
    for (std::uint16_t d = 0; d < t.host_count(); ++d) {
      if (d == mate) continue;
      EXPECT_EQ(table.route(mate, d).src_host(), mate);
    }
    EXPECT_TRUE(table.row(mate)->route(mate, mate).empty());
    const auto to_lead = table.route(mate, 0);
    ASSERT_EQ(to_lead.header().size(), 1u);
    EXPECT_EQ(to_lead.segment(0).front(), t.host_uplink(0).port);
    EXPECT_EQ(to_lead.trunk_hops(), 0u);
  }
}

TEST(GroupedSolve, RowsStoreOnePathPerDestinationSwitch) {
  // A row stores each path once per destination switch. Under kLowestIndex
  // it holds one entry per destination switch its source reaches, which
  // every host on that switch reads with its own final route byte. Under
  // kSpread the in-transit pick hashes (src, dst), so each host an
  // in-transit route leads to gets an entry of its own; every other
  // switch still has one. The cut-off hosts' row holds no entry. Seeded
  // 32 x 4 and 64 x 4 COWs, whole and with one host's uplink down (its
  // switch-mates solve as a group with a cut-off member), under UD, ITB
  // with both host selections and 2-lane VC.
  struct Solve {
    const char* name;
    Policy policy;
    ItbHostSelection selection;
  };
  const Solve solves[] = {
      {"ud", Policy::kUpDown, ItbHostSelection::kLowestIndex},
      {"itb", Policy::kItb, ItbHostSelection::kLowestIndex},
      {"itb_spread", Policy::kItb, ItbHostSelection::kSpread},
      {"vc2", Policy::kVcEscape, ItbHostSelection::kLowestIndex},
  };
  std::size_t rows = 0, own_entries = 0, cut_off_rows = 0;
  for (const std::uint16_t switches : {32, 64}) {
    itb::sim::Rng rng(switches);
    IrregularSpec spec;
    spec.switches = switches;
    spec.hosts_per_switch = 4;
    const auto t = make_random_irregular(spec, rng);
    const auto root = t.host_uplink(0).node.index;
    const std::vector<char> all_up(t.link_count(), 1);
    auto one_cut = all_up;
    const auto up = t.host_uplink(5);
    one_cut[*t.link_at(up.node, up.port)] = 0;
    const std::vector<char>* const masks[] = {&all_up, &one_cut};
    for (const auto* mask : masks) {
      const UpDown ud(t, root, *mask);
      for (const Solve& s : solves) {
        SCOPED_TRACE(::testing::Message()
                     << switches << " x 4 COW, "
                     << (mask == &all_up ? "whole" : "host 5 cut off") << ", "
                     << s.name);
        const Router router(ud, s.selection);
        const RouteTable table(router, s.policy, /*jobs=*/1, /*vc_lanes=*/2);
        std::vector<std::vector<std::uint16_t>> on(t.switch_count());
        for (std::uint16_t h = 0; h < t.host_count(); ++h)
          if (router.host_usable(h)) on[router.host_switch(h)].push_back(h);
        // Read from a source outside the table, which masks no entry.
        const auto outside = static_cast<std::uint16_t>(t.host_count());
        std::set<const RouteRow*> seen;
        for (std::uint16_t src = 0; src < t.host_count(); ++src) {
          const RouteRow& row = *table.row(src);
          if (!seen.insert(&row).second) continue;
          ++rows;
          if (!router.host_usable(src)) {
            EXPECT_EQ(row.entry_count(), 0u) << "cut-off source " << src;
            ++cut_off_rows;
            continue;
          }
          std::size_t expected = 0;
          for (const auto& hosts : on) {
            if (hosts.empty()) continue;
            const RouteView first = row.route(outside, hosts.front());
            if (first.empty()) continue;
            const bool own = s.selection == ItbHostSelection::kSpread &&
                             first.itb_count() > 0;
            expected += own ? hosts.size() : 1;
            own_entries += own ? hosts.size() : 0;
            for (const auto h : hosts) {
              const RouteView r = row.route(outside, h);
              EXPECT_EQ(r.header().body().data() ==
                            first.header().body().data(),
                        !own || h == hosts.front())
                  << "source " << src << " toward " << h;
              EXPECT_EQ(r.header().last(),
                        itb::packet::encode_route_byte(t.host_uplink(h).port));
            }
          }
          EXPECT_EQ(row.entry_count(), expected) << "source " << src;
        }
      }
    }
  }
  EXPECT_GT(rows, 0u);
  EXPECT_GT(own_entries, 0u) << "a kSpread row held in-transit entries";
  EXPECT_EQ(cut_off_rows, 2u * std::size(solves));
}

TEST(GroupedSolve, CutOffSourceInAMixedGroupGetsAnEmptyRow) {
  // One switch's hosts solved as a group while one of them is cut off: the
  // usable ones are published the switch's row, the cut-off one a row of
  // the same length whose every entry is empty.
  itb::sim::Rng rng(7);
  IrregularSpec spec;
  spec.switches = 8;
  spec.hosts_per_switch = 3;
  const auto t = make_random_irregular(spec, rng);
  const std::uint16_t cut = 5;
  const auto up = t.host_uplink(cut);
  std::vector<char> mask(t.link_count(), 1);
  mask[*t.link_at(up.node, up.port)] = 0;
  const UpDown ud(t, t.host_uplink(0).node.index, mask);
  const Router r(ud);
  std::vector<std::uint16_t> group, usable;
  for (std::uint16_t h = 0; h < t.host_count(); ++h)
    if (t.host_uplink(h).node == up.node) {
      group.push_back(h);
      if (h != cut) usable.push_back(h);
    }
  ASSERT_EQ(group.size(), 3u);
  RouteRow row;
  Router::Scratch scratch;
  std::vector<std::pair<RouteRow, std::vector<std::uint16_t>>> published;
  r.routes_from(group, Policy::kItb, 2, row, scratch,
                [&](const RouteRow& one, std::span<const std::uint16_t> held) {
                  published.emplace_back(one, std::vector<std::uint16_t>(
                                                  held.begin(), held.end()));
                });
  ASSERT_EQ(published.size(), 2u);
  const auto& [shared, holders] = published[0];
  const auto& [empty, cut_off] = published[1];
  EXPECT_EQ(holders, usable);
  EXPECT_EQ(cut_off, std::vector<std::uint16_t>{cut});
  ASSERT_EQ(empty.size(), t.host_count());
  for (std::uint16_t d = 0; d < t.host_count(); ++d) {
    EXPECT_TRUE(empty.route(cut, d).empty()) << d;
    if (d != usable[0]) {
      EXPECT_EQ(shared.route(usable[0], d).empty(), d == cut) << d;
    }
  }
  EXPECT_TRUE(empty.stored_hosts().empty());
  EXPECT_TRUE(empty.stored_channels().empty());
}

TEST(GroupedSolve, SourcesOnSeveralSwitchesAreRefused) {
  const auto t = make_fig1_network();
  const UpDown ud(t);
  const Router router(ud);
  RouteRow row;
  Router::Scratch scratch;
  const std::uint16_t two_switches[] = {0, 1};
  EXPECT_THROW(router.routes_from(
                   two_switches, Policy::kItb, 2, row, scratch,
                   [](const RouteRow&, std::span<const std::uint16_t>) {}),
               std::invalid_argument);
}

}  // namespace
