// Thousand-host scale suite (ROADMAP "Scale to thousand-host fabrics"):
// the iterative mapper walk, the 16-bit id-space guards, the datacenter
// topology generators, and the parallel per-source route solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "itb/mapper/mapper.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;

// ---- Headline regression: the walk is iterative -------------------------
// The recursive discovery walk overflowed the native stack on deep chains
// (one frame per newly found switch). The fix keeps frames on the heap; the
// contract is that nothing else changed, checked against this reference
// reimplementation of the recursive algorithm.

struct ReferenceWalk {
  const topo::Topology& fabric;
  std::vector<std::uint16_t> disc_of_true;
  std::vector<std::uint16_t> true_of_disc;
  std::set<topo::LinkId> seen_links;  // the old node-per-insert seen set
  std::uint64_t probes = 0;

  explicit ReferenceWalk(const topo::Topology& f)
      : fabric(f), disc_of_true(f.switch_count(), 0xFFFF) {}

  std::uint16_t admit(std::uint16_t true_sw) {
    if (disc_of_true[true_sw] != 0xFFFF) return disc_of_true[true_sw];
    const auto disc = static_cast<std::uint16_t>(true_of_disc.size());
    disc_of_true[true_sw] = disc;
    true_of_disc.push_back(true_sw);
    return disc;
  }

  void visit(std::uint16_t true_sw) {
    for (std::uint8_t p = 0; p < fabric.switch_spec(true_sw).ports; ++p) {
      ++probes;
      auto peer = fabric.peer(topo::switch_id(true_sw), p);
      if (!peer) continue;
      const auto lid = *fabric.link_at(topo::switch_id(true_sw), p);
      if (!seen_links.insert(lid).second) continue;
      if (peer->node.kind == topo::NodeKind::kHost) continue;
      const bool is_new = disc_of_true[peer->node.index] == 0xFFFF;
      admit(peer->node.index);
      if (is_new) visit(peer->node.index);
    }
  }
};

void expect_matches_reference(const topo::Topology& fabric,
                              std::uint16_t root_host) {
  ReferenceWalk ref(fabric);
  const auto start = fabric.host_uplink(root_host).node.index;
  ref.admit(start);
  ref.visit(start);

  const auto report = mapper::discover(fabric, root_host);
  EXPECT_EQ(report.probes_sent, ref.probes);
  EXPECT_EQ(report.switch_of, ref.true_of_disc);  // discovery order
  EXPECT_EQ(report.switches_found(), ref.true_of_disc.size());
}

TEST(IterativeWalk, MatchesRecursiveReferenceOnSmallFabrics) {
  expect_matches_reference(topo::make_fig1_network(), 0);
  expect_matches_reference(topo::make_paper_testbed(), 0);  // self-cable
  expect_matches_reference(topo::make_ring(16, 2), 3);
  sim::Rng rng(11);
  topo::IrregularSpec spec;
  spec.switches = 24;
  expect_matches_reference(topo::make_random_irregular(spec, rng), 7);
}

TEST(IterativeWalk, SurvivesDeepLinearChain) {
  // 8192 switches in a chain would have cost 8192 native stack frames under
  // the recursive walk — a stack overflow at default thread stack sizes.
  const auto t = topo::make_linear(8192);
  const auto report = mapper::discover(t, 0);
  EXPECT_EQ(report.switches_found(), 8192u);
  EXPECT_EQ(report.hosts_found(), t.host_count());
  EXPECT_EQ(report.probes_sent, 8192u * 8u);  // one probe per port
}

TEST(IterativeWalk, WalkIsAllocationFree) {
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable in this build";
  // A thousand-switch fabric: the walk pre-sizes everything up front, so
  // the probe loop itself must not touch the heap (the old std::set seen
  // set allocated a node per link).
  sim::Rng rng(5);
  topo::RegularSpec spec;
  spec.switches = 1024;
  spec.degree = 4;
  spec.hosts_per_switch = 1;
  const auto t = topo::make_random_regular(spec, rng);
  const auto report = mapper::discover(t, 0);
  EXPECT_EQ(report.switches_found(), 1024u);
  EXPECT_EQ(report.walk_heap_allocs, 0u);
}

// ---- 16-bit id-space guards ---------------------------------------------

TEST(IdSpace, TopologyRefusesSwitchIndexOverflow) {
  topo::Topology t;
  for (std::size_t i = 0; i < topo::Topology::kMaxNodesPerKind; ++i)
    t.add_switch(1);
  EXPECT_THROW(t.add_switch(1), std::invalid_argument);
}

TEST(IdSpace, TopologyRefusesHostIndexOverflow) {
  topo::Topology t;
  for (std::size_t i = 0; i < topo::Topology::kMaxNodesPerKind; ++i)
    t.add_host();
  EXPECT_THROW(t.add_host(), std::invalid_argument);
}

TEST(IdSpace, GeneratorsRefuseOverflowingParameters) {
  // k = 64 would place k^3/4 = 65536 hosts: one past the id space.
  EXPECT_THROW(topo::make_fat_tree(64), std::invalid_argument);
  EXPECT_THROW(topo::make_fat_tree(3), std::invalid_argument);  // odd k
  EXPECT_THROW(topo::make_fat_tree(0), std::invalid_argument);
  EXPECT_THROW(topo::make_clos(0, 8, 4), std::invalid_argument);
  // 300 leaves need 300 spine ports; the port byte tops out at 255.
  EXPECT_THROW(topo::make_clos(1, 300, 1), std::invalid_argument);
  sim::Rng rng(1);
  topo::RegularSpec spec;
  spec.degree = 200;
  spec.hosts_per_switch = 100;  // 300 ports per switch
  EXPECT_THROW(topo::make_random_regular(spec, rng), std::invalid_argument);
}

// ---- Generators ---------------------------------------------------------

TEST(FatTree, StructuralProperties) {
  for (std::uint8_t k : {std::uint8_t{4}, std::uint8_t{8}}) {
    const auto t = topo::make_fat_tree(k);
    const std::size_t half = k / 2;
    ASSERT_EQ(t.switch_count(), half * half + k * k);
    ASSERT_EQ(t.host_count(), static_cast<std::size_t>(k) * k * k / 4);
    // Uniform k-port switches; trunks + host links fill every edge port.
    for (std::uint16_t s = 0; s < t.switch_count(); ++s)
      EXPECT_EQ(t.switch_spec(s).ports, k);
    // core-agg + agg-edge trunks + host links, all k^3/4 each.
    EXPECT_EQ(t.link_count(), 3 * t.host_count());
    for (std::uint16_t h = 0; h < t.host_count(); ++h)
      EXPECT_TRUE(t.host_attached(h));
    t.validate();
    // Fully discoverable from any host: the fabric is connected.
    EXPECT_EQ(mapper::discover(t, 0).switches_found(), t.switch_count());
  }
}

TEST(Clos, StructuralProperties) {
  const auto t = topo::make_clos(4, 8, 8);
  ASSERT_EQ(t.switch_count(), 12u);
  ASSERT_EQ(t.host_count(), 64u);
  EXPECT_EQ(t.link_count(), 4u * 8u + 64u);  // full bipartite + host links
  // Spines come first and carry one port per leaf.
  for (std::uint16_t s = 0; s < 4; ++s) EXPECT_EQ(t.switch_spec(s).ports, 8);
  for (std::uint16_t l = 4; l < 12; ++l)
    EXPECT_EQ(t.switch_spec(l).ports, 4 + 8);
  t.validate();
  EXPECT_EQ(mapper::discover(t, 0).switches_found(), 12u);
}

TEST(RandomRegular, DegreeConnectivityAndDeterminism) {
  topo::RegularSpec spec;
  spec.switches = 64;
  spec.degree = 4;
  spec.hosts_per_switch = 2;
  sim::Rng a(7), b(7), c(8);
  const auto t1 = topo::make_random_regular(spec, a);
  const auto t2 = topo::make_random_regular(spec, b);
  const auto t3 = topo::make_random_regular(spec, c);

  // Every switch has exactly `degree` trunk endpoints.
  std::vector<unsigned> trunks(t1.switch_count(), 0);
  for (topo::LinkId l = 0; l < t1.link_count(); ++l) {
    const auto& link = t1.link(l);
    if (link.a.node.kind == topo::NodeKind::kSwitch &&
        link.b.node.kind == topo::NodeKind::kSwitch) {
      ++trunks[link.a.node.index];
      ++trunks[link.b.node.index];
    }
  }
  for (auto d : trunks) EXPECT_EQ(d, spec.degree);

  // Same seed, same wiring — link for link.
  ASSERT_EQ(t1.link_count(), t2.link_count());
  bool identical = true, differs_from_t3 = t1.link_count() != t3.link_count();
  for (topo::LinkId l = 0; l < t1.link_count(); ++l) {
    identical &= t1.link(l).a == t2.link(l).a && t1.link(l).b == t2.link(l).b;
    if (!differs_from_t3)
      differs_from_t3 =
          !(t1.link(l).a == t3.link(l).a) || !(t1.link(l).b == t3.link(l).b);
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(differs_from_t3);  // a different seed actually rewires

  // Generator only returns connected graphs.
  EXPECT_EQ(mapper::discover(t1, 0).switches_found(), t1.switch_count());
}

TEST(RandomRegular, OddStubTotalThrows) {
  topo::RegularSpec spec;
  spec.switches = 3;
  spec.degree = 3;  // 9 stubs: unpairable
  sim::Rng rng(1);
  EXPECT_THROW(topo::make_random_regular(spec, rng), std::invalid_argument);
}

// ---- Parallel per-source route solve ------------------------------------

std::string dump_of(const routing::RouteTable& t) {
  std::ostringstream os;
  t.dump(os);
  return os.str();
}

TEST(ParallelSolve, TableIsBitIdenticalForAnyJobCount) {
  sim::Rng rng(3);
  topo::IrregularSpec spec;
  spec.switches = 16;
  const auto t = topo::make_random_irregular(spec, rng);
  routing::UpDown ud(t);
  routing::Router router(ud);
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    const routing::RouteTable serial(router, policy, 1);
    const routing::RouteTable wide(router, policy, 8);
    EXPECT_EQ(dump_of(serial), dump_of(wide)) << to_string(policy);
    EXPECT_DOUBLE_EQ(serial.minimal_fraction(router, 1),
                     wide.minimal_fraction(router, 8));
  }
}

TEST(ParallelSolve, PerSourceRowsMatchPerPairRoutes) {
  const auto t = topo::make_ring(12, 2);
  routing::UpDown ud(t);
  routing::Router router(ud);
  const routing::RouteTable table(router, routing::Policy::kItb, 4);
  for (std::uint16_t s = 0; s < t.host_count(); ++s)
    for (std::uint16_t d = 0; d < t.host_count(); ++d) {
      if (s == d) continue;
      const auto pair = router.itb_route(s, d);
      const auto from_table = table.route(s, d);
      EXPECT_EQ(from_table.segments(), pair.route(s, d).segments());
      EXPECT_TRUE(std::ranges::equal(from_table.in_transit_hosts(),
                                     pair.route(s, d).in_transit_hosts()));
    }
}

TEST(ParallelSolve, MapperRunIsJobsInvariant) {
  const auto t = topo::make_fat_tree(4);
  const auto serial = mapper::run(t, routing::Policy::kItb, 0,
                                  routing::ItbHostSelection::kLowestIndex,
                                  false, 1);
  const auto wide = mapper::run(t, routing::Policy::kItb, 0,
                                routing::ItbHostSelection::kLowestIndex,
                                false, 8);
  EXPECT_EQ(dump_of(serial.table), dump_of(wide.table));
}

TEST(ZeroAlloc, RouteSearchStorageStaysBoundedByTheFrontier) {
  // A 1024-switch chain has routes of up to 1023 hops. The search queue
  // holds only the frontier, so a cold solve out of the middle of the chain
  // allocates a bounded handful of times (the row and scratch arrays
  // growing), not once per hop level, and a repeat solve of the same
  // source allocates nothing.
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable in this build";
  const auto t = topo::make_linear(1024, 1);
  const routing::UpDown ud(t);
  const routing::Router router(ud);
  for (const auto policy : {routing::Policy::kUpDown, routing::Policy::kItb,
                            routing::Policy::kVcEscape}) {
    routing::RouteRow row;
    routing::Router::Scratch scratch;
    const std::uint16_t middle[] = {512};
    const auto solve = [&] {
      router.routes_from(middle, policy, 2, row, scratch,
                         [](const routing::RouteRow&,
                            std::span<const std::uint16_t>) {});
    };
    auto before = sim::total_allocations();
    solve();
    const auto cold = sim::total_allocations() - before;
    EXPECT_LE(cold, 128u) << to_string(policy);
    EXPECT_EQ(row.route(512, 0).trunk_hops(), 512u);
    EXPECT_EQ(row.route(512, 1023).trunk_hops(), 511u);
    before = sim::total_allocations();
    solve();
    EXPECT_EQ(sim::total_allocations() - before, 0u) << to_string(policy);
  }
}

TEST(ZeroAlloc, RouterBuildDoesNotAllocatePerSwitch) {
  // The Router lays its adjacency, in-hops and ITB candidates out as flat
  // arrays sized once, so building one over four times the switches makes
  // the same number of allocations.
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable in this build";
  const auto build_allocs = [](std::uint16_t switches) {
    sim::Rng rng(2001);
    topo::IrregularSpec spec;
    spec.switches = switches;
    spec.hosts_per_switch = 4;
    const auto t = topo::make_random_irregular(spec, rng);
    const routing::UpDown ud(t);
    const auto before = sim::total_allocations();
    const routing::Router router(ud);
    return sim::total_allocations() - before;
  };
  EXPECT_EQ(build_allocs(64), build_allocs(256));
}

// ---- Route-set safety on the generated families -------------------------

TEST(GeneratedTables, ItbTablesAreDeadlockFree) {
  sim::Rng rng(9);
  topo::RegularSpec spec;
  spec.switches = 32;
  spec.degree = 4;
  spec.hosts_per_switch = 2;
  const topo::Topology fabrics[] = {topo::make_fat_tree(4),
                                    topo::make_clos(4, 8, 4),
                                    topo::make_random_regular(spec, rng),
                                    topo::make_ring(16, 2)};
  for (const auto& fabric : fabrics) {
    const auto result = mapper::run(fabric, routing::Policy::kItb, 0,
                                    routing::ItbHostSelection::kLowestIndex,
                                    false, 4);
    routing::DependencyGraph cdg(result.report.discovered);
    cdg.add_table(result.table, result.report.discovered);
    EXPECT_FALSE(cdg.has_cycle());
  }
}

TEST(GeneratedTables, TreeLikeFamiliesAreBufferWedgeFree) {
  // Fat trees and Clos fabrics route every pair up-then-down, which is
  // already up*/down*-legal — the ITB tables carry no in-transit hops, so
  // even the buffer-augmented graph must stay acyclic.
  for (const auto& fabric : {topo::make_fat_tree(4), topo::make_clos(4, 8, 4)}) {
    const auto result = mapper::run(fabric, routing::Policy::kItb);
    EXPECT_DOUBLE_EQ(result.table.average_itbs(), 0.0);
    EXPECT_DOUBLE_EQ(result.table.minimal_fraction(
                         routing::Router(routing::UpDown(
                             result.report.discovered, 0))),
                     1.0);
    routing::DependencyGraph g(result.report.discovered);
    g.add_table_buffered(result.table, result.report.discovered);
    EXPECT_FALSE(g.has_cycle());
  }
}

}  // namespace
