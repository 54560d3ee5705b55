// Property-based suites: the DESIGN.md invariants checked across sweeps of
// random topologies, seeds, message sizes and fault rates (parameterised
// gtest, one instantiation axis per sweep).
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <numeric>
#include <ostream>
#include <queue>
#include <set>
#include <tuple>
#include <utility>

#include "itb/core/cluster.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;
using packet::Bytes;

topo::Topology random_topo(std::uint64_t seed, std::uint16_t switches = 10,
                           std::uint8_t hosts = 2) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = switches;
  spec.hosts_per_switch = hosts;
  return topo::make_random_irregular(spec, rng);
}

// ------------------------------------------------- routing invariants ----

class RoutingInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingInvariants, UpDownRoutesNeverTurnUpAfterDown) {
  auto t = random_topo(GetParam());
  routing::UpDown ud(t);
  routing::Router r(ud);
  for (std::uint16_t s = 0; s < t.host_count(); s += 2)
    for (std::uint16_t d = 1; d < t.host_count(); d += 2) {
      if (s == d) continue;
      EXPECT_TRUE(
          r.is_valid_updown(r.updown_route(s, d).route(s, d).trunk_channels()));
    }
}

TEST_P(RoutingInvariants, ItbRoutesAreMinimal) {
  // Every switch has hosts in these fabrics, so ITB legalisation reaches
  // the unrestricted minimum for every pair.
  auto t = random_topo(GetParam());
  routing::UpDown ud(t);
  routing::Router r(ud);
  for (std::uint16_t s = 0; s < t.host_count(); s += 2) {
    const auto dist = r.min_hops_from_switch(r.host_switch(s));
    for (std::uint16_t d = 1; d < t.host_count(); d += 2) {
      if (s == d) continue;
      EXPECT_EQ(r.itb_route(s, d).route(s, d).trunk_hops(),
                dist[r.host_switch(d)]);
    }
  }
}

TEST_P(RoutingInvariants, ItbSegmentsEachValidAndChainConsistent) {
  auto t = random_topo(GetParam());
  routing::UpDown ud(t);
  routing::Router r(ud);
  for (std::uint16_t s = 0; s < t.host_count(); s += 3)
    for (std::uint16_t d = 2; d < t.host_count(); d += 3) {
      if (s == d) continue;
      const auto row = r.itb_route(s, d);
      const auto p = row.route(s, d);
      ASSERT_EQ(p.segment_count(), p.in_transit_hosts().size() + 1);
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < p.segment_count(); ++i) {
        const auto seg = p.segment(i);
        ASSERT_GE(seg.size(), 1u);
        EXPECT_TRUE(r.is_valid_updown(
            p.trunk_channels().subspan(cursor, seg.size() - 1)));
        cursor += seg.size() - 1;
      }
      EXPECT_EQ(cursor, p.trunk_hops());
    }
}

TEST_P(RoutingInvariants, BothTablesDeadlockFree) {
  auto t = random_topo(GetParam());
  routing::UpDown ud(t);
  routing::Router r(ud);
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    routing::RouteTable table(r, policy);
    routing::DependencyGraph g(t);
    g.add_table(table, t);
    EXPECT_FALSE(g.has_cycle()) << to_string(policy);
  }
}

TEST_P(RoutingInvariants, RoutesExecuteToDestination) {
  auto t = random_topo(GetParam());
  auto result = mapper::run(t, routing::Policy::kItb);
  const auto& disc = result.report.discovered;
  for (std::uint16_t s = 0; s < t.host_count(); s += 2)
    for (std::uint16_t d = 1; d < t.host_count(); d += 2) {
      if (s == d) continue;
      const auto path = result.table.route(s, d);
      auto cur = disc.host_uplink(s);
      for (std::size_t seg = 0; seg < path.segment_count(); ++seg) {
        if (seg > 0) cur = disc.host_uplink(path.in_transit_hosts()[seg - 1]);
        for (auto port : path.segment(seg)) {
          auto peer = disc.peer(cur.node, port);
          ASSERT_TRUE(peer.has_value());
          cur = *peer;
        }
      }
      EXPECT_EQ(cur.node, topo::host_id(d));
    }
}

/// (hops, itbs), ordered lexicographically.
using LexCost = std::pair<std::uint32_t, std::uint32_t>;
constexpr LexCost kUnreached{0xFFFFFFFFu, 0xFFFFFFFFu};

/// The least (hops, itbs) of a legal route from `src_sw` to every switch:
/// a binary-heap Dijkstra over (switch, up*/down* phase) states, read
/// straight off the topology and its orientation, sharing no code with
/// routing::Router. Phase 1 means a down traversal happened; with
/// `allow_itb`, a phase-1 state on a switch with a usable host resets to
/// phase 0 for one ITB.
std::vector<LexCost> reference_costs(const topo::Topology& t,
                                     const routing::UpDown& ud,
                                     std::uint16_t src_sw, bool allow_itb) {
  const auto is_switch = [](const topo::Endpoint& e) {
    return e.node.kind == topo::NodeKind::kSwitch;
  };
  std::vector<bool> has_host(t.switch_count(), false);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const auto& link = t.link(l);
    if (ud.link_usable(l) && is_switch(link.a) != is_switch(link.b))
      has_host[(is_switch(link.a) ? link.a : link.b).node.index] = true;
  }
  std::vector<std::array<LexCost, 2>> best(t.switch_count(),
                                           {kUnreached, kUnreached});
  using Item = std::tuple<LexCost, std::uint16_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto offer = [&](LexCost c, std::uint16_t sw, int phase) {
    if (c >= best[sw][phase]) return;
    best[sw][phase] = c;
    heap.emplace(c, sw, phase);
  };
  offer({0, 0}, src_sw, 0);
  while (!heap.empty()) {
    const auto [c, sw, phase] = heap.top();
    heap.pop();
    if (c != best[sw][phase]) continue;
    if (allow_itb && phase == 1 && has_host[sw])
      offer({c.first, c.second + 1}, sw, 0);
    for (const auto l : t.links_of(topo::switch_id(sw))) {
      const auto& link = t.link(l);
      if (!ud.link_usable(l) || !is_switch(link.a) || !is_switch(link.b))
        continue;
      const bool up = ud.is_up_traversal(l, sw);
      if (up && phase == 1) continue;
      const auto to =
          link.a.node.index == sw ? link.b.node.index : link.a.node.index;
      offer({c.first + 1, c.second}, to, up ? phase : 1);
    }
  }
  std::vector<LexCost> out(t.switch_count());
  for (std::size_t sw = 0; sw < out.size(); ++sw)
    out[sw] = std::min(best[sw][0], best[sw][1]);
  return out;
}

TEST_P(RoutingInvariants, TablesReachTheReferenceLexOptimum) {
  // Every route of the UD and ITB tables, under both in-transit host
  // selections, has the reference search's least (hops, itbs): on the
  // whole fabric, with its busiest trunk down, and with one switch cut off.
  const auto t = random_topo(GetParam());
  const routing::UpDown whole(t);
  const auto usage =
      routing::RouteTable(routing::Router(whole), routing::Policy::kItb)
          .channel_usage(t);
  topo::LinkId busiest = 0;
  for (topo::LinkId l = 0; l < t.link_count(); ++l)
    if (usage[2 * l] + usage[2 * l + 1] >
        usage[2 * busiest] + usage[2 * busiest + 1])
      busiest = l;
  std::vector<std::vector<char>> masks(3, std::vector<char>(t.link_count(), 1));
  masks[1][busiest] = 0;
  const auto cut = static_cast<std::uint16_t>(t.switch_count() - 1);
  for (const auto l : t.links_of(topo::switch_id(cut))) masks[2][l] = 0;

  for (std::size_t m = 0; m < masks.size(); ++m) {
    const routing::UpDown ud(t, 0, masks[m]);
    const auto usable = [&](std::uint16_t h) {
      return ud.link_usable(t.links_of(topo::host_id(h)).front());
    };
    for (const bool itb : {false, true}) {
      std::vector<std::vector<LexCost>> want(t.switch_count());
      for (const auto selection : {routing::ItbHostSelection::kLowestIndex,
                                   routing::ItbHostSelection::kSpread}) {
        const routing::Router r(ud, selection);
        const routing::RouteTable table(
            r, itb ? routing::Policy::kItb : routing::Policy::kUpDown);
        for (std::uint16_t s = 0; s < t.host_count(); ++s)
          for (std::uint16_t d = 0; d < t.host_count(); ++d) {
            if (s == d) continue;
            const auto route = table.route(s, d);
            const auto ss = t.host_uplink(s).node.index;
            if (usable(s) && want[ss].empty())
              want[ss] = reference_costs(t, ud, ss, itb);
            const LexCost best = usable(s) && usable(d)
                                     ? want[ss][t.host_uplink(d).node.index]
                                     : kUnreached;
            const LexCost got = route.empty()
                                    ? kUnreached
                                    : LexCost(route.trunk_hops(),
                                              route.itb_count());
            EXPECT_EQ(got, best) << "mask " << m << (itb ? " ITB " : " UD ")
                                 << static_cast<int>(selection) << " h" << s
                                 << " -> h" << d;
          }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingInvariants,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ------------------------------------------------- delivery invariants ---

struct DeliveryCase {
  std::uint64_t seed;
  routing::Policy policy;
};

// Names the cases (ctest lists .../seed1_itb): CMake's test discovery takes
// the printed parameter, and without a printer gtest dumps the struct's raw
// bytes, uninitialised padding included, which differ from build to build.
void PrintTo(const DeliveryCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_" << routing::short_name(c.policy);
}

class DeliveryInvariants : public ::testing::TestWithParam<DeliveryCase> {};

TEST_P(DeliveryInvariants, EveryHostPairExchangesIntactPayloads) {
  const auto& param = GetParam();
  core::ClusterConfig cfg;
  cfg.topology = random_topo(param.seed, 6, 2);
  cfg.engine = {param.policy, 1};
  core::Cluster c(std::move(cfg));
  const auto n = static_cast<std::uint16_t>(c.host_count());

  // Each host sends a distinctive payload to every other; receivers check
  // content integrity and tally per-source counts.
  std::vector<std::map<std::uint16_t, int>> got(n);
  for (std::uint16_t h = 0; h < n; ++h) {
    c.port(h).set_receive_handler(
        [&, h](sim::Time, std::uint16_t src, Bytes m) {
          ASSERT_GE(m.size(), 2u);
          EXPECT_EQ(m[0], static_cast<std::uint8_t>(src));
          EXPECT_EQ(m[1], static_cast<std::uint8_t>(h));
          ++got[h][src];
        });
  }
  for (std::uint16_t s = 0; s < n; ++s)
    for (std::uint16_t d = 0; d < n; ++d) {
      if (s == d) continue;
      Bytes msg(64 + s + d, 0);
      msg[0] = static_cast<std::uint8_t>(s);
      msg[1] = static_cast<std::uint8_t>(d);
      ASSERT_TRUE(c.port(s).send(d, std::move(msg)));
    }
  c.run();
  for (std::uint16_t h = 0; h < n; ++h) {
    for (std::uint16_t s = 0; s < n; ++s) {
      if (s == h) continue;
      EXPECT_EQ(got[h][s], 1) << "h" << h << " from h" << s;
    }
  }
  // Conservation: nothing remains in flight, no drops in backpressure mode.
  EXPECT_EQ(c.network().in_flight(), 0u);
  EXPECT_EQ(c.network().stats().dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, DeliveryInvariants,
    ::testing::Values(DeliveryCase{1, routing::Policy::kUpDown},
                      DeliveryCase{1, routing::Policy::kItb},
                      DeliveryCase{2, routing::Policy::kUpDown},
                      DeliveryCase{2, routing::Policy::kItb},
                      DeliveryCase{3, routing::Policy::kItb},
                      DeliveryCase{4, routing::Policy::kItb}));

// --------------------------------------------------- latency properties --

class SizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SizeSweep, PayloadIntegrityAcrossItbChain) {
  // Messages of every size cross a route with an ITB and arrive intact.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  Bytes msg(GetParam());
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  Bytes got;
  c.port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
  ASSERT_TRUE(c.port(4).send(1, msg));
  c.run();
  EXPECT_EQ(got, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 64, 1000, 4072,
                                           4073, 4074, 8146, 12345, 16384));

class TimingMonotonic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimingMonotonic, HalfRttIncreasesWithSizeOnRandomFabrics) {
  core::ClusterConfig cfg;
  cfg.topology = random_topo(GetParam(), 5, 2);
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  const auto far = static_cast<std::uint16_t>(c.host_count() - 1);
  double prev = 0;
  for (std::size_t size : {8u, 128u, 2048u, 8192u}) {
    auto row = workload::run_pingpong(c.queue(), c.port(0), c.port(far), size, 2);
    EXPECT_GT(row.half_rtt_ns, prev);
    prev = row.half_rtt_ns;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingMonotonic, ::testing::Values(11, 22, 33));

// --------------------------------------------------- mapper properties ---

class MapperSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperSweep, DiscoveryIsExactForEverySeed) {
  auto t = random_topo(GetParam(), 12, 2);
  for (std::uint16_t root = 0; root < t.host_count();
       root = static_cast<std::uint16_t>(root + 7)) {
    auto report = mapper::discover(t, root);
    EXPECT_EQ(report.switches_found(), t.switch_count());
    EXPECT_EQ(report.hosts_found(), t.host_count());
    EXPECT_EQ(report.discovered.link_count(), t.link_count());
    // Every true switch appears exactly once in the discovery order.
    std::set<std::uint16_t> seen(report.switch_of.begin(),
                                 report.switch_of.end());
    EXPECT_EQ(seen.size(), t.switch_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperSweep,
                         ::testing::Values(7, 17, 27, 37, 47));

}  // namespace
