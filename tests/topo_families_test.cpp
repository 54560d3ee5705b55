// Routing behaviour across the canonical topology families (ring, mesh,
// star): where up*/down* hurts, where ITBs help, and end-to-end traffic on
// each shape.
#include <gtest/gtest.h>

#include "itb/core/cluster.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;

TEST(Ring, UpDownForbidsSomeMinimalPaths) {
  // A ring's single cycle guarantees at least one oriented "crossing" link
  // whose minimal paths are forbidden.
  auto t = topo::make_ring(6, 1);
  routing::UpDown ud(t);
  routing::Router r(ud);
  routing::RouteTable table(r, routing::Policy::kUpDown);
  EXPECT_LT(table.minimal_fraction(r), 1.0);
}

TEST(Ring, ItbRestoresMinimalityAndStaysDeadlockFree) {
  auto t = topo::make_ring(6, 1);
  routing::UpDown ud(t);
  routing::Router r(ud);
  routing::RouteTable table(r, routing::Policy::kItb);
  EXPECT_DOUBLE_EQ(table.minimal_fraction(r), 1.0);
  EXPECT_GT(table.average_itbs(), 0.0);
  routing::DependencyGraph g(t);
  g.add_table(table, t);
  EXPECT_FALSE(g.has_cycle());
}

TEST(Ring, TrafficFlowsUnderItbRouting) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_ring(6, 1);
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  int got = 0;
  for (std::uint16_t h = 0; h < 6; ++h)
    c.port(h).set_receive_handler(
        [&](sim::Time, std::uint16_t, packet::Bytes) { ++got; });
  for (std::uint16_t h = 0; h < 6; ++h)
    c.port(h).send(static_cast<std::uint16_t>((h + 3) % 6),
                   packet::Bytes(200, 1));
  c.run();
  EXPECT_EQ(got, 6);
}

TEST(Mesh, ItbShortensAverageRoutes) {
  auto t = topo::make_mesh(3, 3, 1);
  routing::UpDown ud(t);
  routing::Router r(ud);
  routing::RouteTable updown(r, routing::Policy::kUpDown);
  routing::RouteTable itb(r, routing::Policy::kItb);
  EXPECT_LE(itb.average_trunk_hops(), updown.average_trunk_hops());
  EXPECT_DOUBLE_EQ(itb.minimal_fraction(r), 1.0);
}

TEST(Mesh, MapperDiscoversMesh) {
  auto t = topo::make_mesh(3, 4, 2);
  auto report = mapper::discover(t, 0);
  EXPECT_EQ(report.switches_found(), 12u);
  EXPECT_EQ(report.hosts_found(), 24u);
}

TEST(Star, TreeTopologyNeedsNoItbs) {
  // A star (with no rim links) is a tree: every minimal path is already
  // up*/down*-legal, so the ITB table plants zero ITBs.
  auto t = topo::make_star(5, 2);
  routing::UpDown ud(t);
  routing::Router r(ud);
  routing::RouteTable table(r, routing::Policy::kItb);
  EXPECT_DOUBLE_EQ(table.average_itbs(), 0.0);
  EXPECT_DOUBLE_EQ(table.minimal_fraction(r), 1.0);
}

TEST(Star, EndToEndAcrossLeaves) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_star(4, 2);
  core::Cluster c(std::move(cfg));
  packet::Bytes got;
  c.port(7).set_receive_handler(
      [&](sim::Time, std::uint16_t, packet::Bytes m) { got = std::move(m); });
  packet::Bytes msg(1111, 0x42);
  ASSERT_TRUE(c.port(0).send(7, msg));
  c.run();
  EXPECT_EQ(got, msg);
}

TEST(Families, BestRootHelpsOnRings) {
  // Root choice changes which ring paths are forbidden; the optimiser must
  // never do worse than the default.
  for (std::uint16_t n : {5, 6, 9}) {
    auto t = topo::make_ring(n, 1);
    const auto best = routing::select_best_root(t);
    auto avg = [&](std::uint16_t root) {
      routing::UpDown ud(t, root);
      routing::Router r(ud);
      return routing::RouteTable(r, routing::Policy::kUpDown)
          .average_trunk_hops();
    };
    EXPECT_LE(avg(best), avg(0) + 1e-12) << "ring " << n;
  }
}

}  // namespace
