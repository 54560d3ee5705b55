// Tests for the mapper: discovery walk fidelity, probe accounting, and the
// route tables it produces (valid on the real fabric by construction).
#include <gtest/gtest.h>

#include "itb/mapper/mapper.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;

TEST(Mapper, DiscoversLinearChain) {
  auto fabric = topo::make_linear(4, 2);
  auto report = mapper::discover(fabric, 0);
  EXPECT_EQ(report.switches_found(), 4u);
  EXPECT_EQ(report.hosts_found(), 8u);
  EXPECT_EQ(report.discovered.link_count(), fabric.link_count());
  EXPECT_NO_THROW(report.discovered.validate());
}

TEST(Mapper, ProbeCountEqualsPortScans) {
  // The walk sends one probe out of every port of every discovered switch.
  auto fabric = topo::make_linear(3, 1);
  auto report = mapper::discover(fabric, 0);
  EXPECT_EQ(report.probes_sent, 3u * 8u);
}

TEST(Mapper, DiscoversFig1Network) {
  auto fabric = topo::make_fig1_network();
  auto report = mapper::discover(fabric, 0);
  EXPECT_EQ(report.switches_found(), 8u);
  EXPECT_EQ(report.hosts_found(), 8u);
  EXPECT_EQ(report.discovered.link_count(), fabric.link_count());
}

TEST(Mapper, DiscoversPaperTestbedWithSelfCable) {
  auto fabric = topo::make_paper_testbed();
  auto report = mapper::discover(fabric, 0);
  EXPECT_EQ(report.switches_found(), 2u);
  EXPECT_EQ(report.hosts_found(), 3u);
  EXPECT_EQ(report.discovered.link_count(), fabric.link_count());
}

TEST(Mapper, DiscoveryOrderIndependentOfRoot) {
  auto fabric = topo::make_fig1_network();
  for (std::uint16_t root = 0; root < fabric.host_count(); ++root) {
    auto report = mapper::discover(fabric, root);
    EXPECT_EQ(report.switches_found(), 8u) << "root " << root;
    EXPECT_EQ(report.hosts_found(), 8u) << "root " << root;
  }
}

TEST(Mapper, PreservesPortKinds) {
  auto fabric = topo::make_paper_testbed();
  auto report = mapper::discover(fabric, 0);
  // host1's link must still be a LAN link in the discovered fabric.
  auto lid = report.discovered.link_at(topo::host_id(0), 0);
  ASSERT_TRUE(lid.has_value());
  EXPECT_EQ(report.discovered.link(*lid).kind, topo::PortKind::kLan);
}

TEST(Mapper, RandomFabricsRoundTrip) {
  sim::Rng rng(314);
  for (int trial = 0; trial < 6; ++trial) {
    topo::IrregularSpec spec;
    spec.switches = 14;
    spec.hosts_per_switch = 2;
    auto fabric = topo::make_random_irregular(spec, rng);
    auto report = mapper::discover(fabric, 3);
    EXPECT_EQ(report.switches_found(), fabric.switch_count());
    EXPECT_EQ(report.hosts_found(), fabric.host_count());
    EXPECT_EQ(report.discovered.link_count(), fabric.link_count());
  }
}

TEST(Mapper, BadRootThrows) {
  auto fabric = topo::make_linear(2, 1);
  EXPECT_THROW(mapper::discover(fabric, 99), std::invalid_argument);
}

/// Execute a route (list of segments) over the REAL fabric and return the
/// final node, re-entering at in-transit hosts as the MCP would.
topo::NodeId execute_route(const topo::Topology& fabric, std::uint16_t src,
                           const std::vector<packet::Route>& segments) {
  auto cur = fabric.host_uplink(src);
  for (std::size_t seg = 0; seg < segments.size(); ++seg) {
    if (seg > 0) {
      // Re-injected from the host the previous segment ended at.
      if (cur.node.kind != topo::NodeKind::kHost) return cur.node;
      cur = fabric.host_uplink(cur.node.index);
    }
    for (auto port : segments[seg]) {
      auto peer = fabric.peer(cur.node, port);
      if (!peer) return cur.node;  // dangling: would be dropped
      cur = *peer;
    }
  }
  return cur.node;
}

TEST(Mapper, ComputedRoutesExecuteOnRealFabric) {
  // The mapper only ever sees its own discovered graph; its routes must
  // nevertheless steer packets correctly on the true fabric.
  sim::Rng rng(77);
  topo::IrregularSpec spec;
  spec.switches = 10;
  spec.hosts_per_switch = 2;
  auto fabric = topo::make_random_irregular(spec, rng);
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    auto result = mapper::run(fabric, policy, /*root_host=*/5);
    for (std::uint16_t s = 0; s < fabric.host_count(); ++s)
      for (std::uint16_t d = 0; d < fabric.host_count(); ++d) {
        if (s == d) continue;
        const auto path = result.table.route(s, d);
        EXPECT_EQ(execute_route(fabric, s, path.segments()), topo::host_id(d))
            << to_string(policy) << " " << s << "->" << d;
      }
  }
}

TEST(Mapper, ItbTableFromMapperIsDeadlockFree) {
  sim::Rng rng(99);
  topo::IrregularSpec spec;
  spec.switches = 12;
  spec.hosts_per_switch = 2;
  auto fabric = topo::make_random_irregular(spec, rng);
  auto result = mapper::run(fabric, routing::Policy::kItb);
  routing::DependencyGraph graph(result.report.discovered);
  graph.add_table(result.table, result.report.discovered);
  EXPECT_FALSE(graph.has_cycle());
}

TEST(Mapper, UnreachableHostThrows) {
  topo::Topology t;
  t.add_switch(4);
  t.add_switch(4);  // disconnected from switch 0
  t.add_host();
  t.add_host();
  t.attach_host(0, 0, 0);
  t.attach_host(1, 1, 0);
  EXPECT_THROW(mapper::discover(t, 0), std::logic_error);
}

}  // namespace
