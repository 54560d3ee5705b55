#include "itb/engine/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace itb::engine {

namespace {

/// Directed channel along a host's (single) link.
topo::Channel host_channel(const topo::Topology& topo, std::uint16_t host,
                           bool host_to_switch) {
  const auto lid = topo.link_at(topo::host_id(host), 0);
  if (!lid) throw std::logic_error("host unattached");
  const auto& l = topo.link(*lid);
  const bool host_is_a = l.a.node == topo::host_id(host);
  return topo::Channel{*lid, host_is_a == host_to_switch};
}

void add_laned_route(routing::DependencyGraph& graph,
                     const net::LaneLadder& ladder,
                     const routing::RouteView& path,
                     const topo::Topology& topo) {
  if (path.segment_count() != 1)
    throw std::logic_error("multi-lane engines route in one segment");
  using Node = routing::DependencyGraph::Node;
  net::LaneState state;
  Node prev = Node::of_channel(host_channel(topo, path.src_host(), true), 0);
  for (const auto& c : path.trunk_channels()) {
    const Node cur = Node::of_channel(c, ladder.next(state, c));
    graph.add_edge(prev, cur);
    prev = cur;
  }
  const topo::Channel down = host_channel(topo, path.dst_host(), false);
  graph.add_edge(prev, Node::of_channel(down, ladder.next(state, down)));
}

}  // namespace

// Only the escape ladder has lanes, and it needs two to mean anything.
DeadlockEngine::DeadlockEngine(const EngineSpec& spec)
    : policy_(spec.policy),
      ladder_(spec.policy == routing::Policy::kVcEscape
                  ? std::max(spec.lanes, 2u)
                  : 1) {}

std::unique_ptr<DeadlockEngine> make_engine(const EngineSpec& spec) {
  return std::unique_ptr<DeadlockEngine>(new DeadlockEngine(spec));
}

void DeadlockEngine::bind(const routing::UpDown& updown,
                          const topo::Topology& fabric,
                          const std::vector<std::uint16_t>& switch_of) {
  if (lane_count() == 1) return;
  using Dir = net::LaneLadder::Dir;
  ladder_.clear(fabric.link_count());
  const auto& disc = updown.topology();
  for (topo::LinkId l = 0; l < disc.link_count(); ++l) {
    if (!updown.link_usable(l)) continue;
    const auto& lk = disc.link(l);
    if (lk.a.node.kind != topo::NodeKind::kSwitch ||
        lk.b.node.kind != topo::NodeKind::kSwitch)
      continue;
    // Translate the a-end to true coordinates (ports survive discovery
    // verbatim; switch indices need the mapper's switch_of table).
    const std::uint16_t true_a =
        switch_of.empty() ? lk.a.node.index : switch_of.at(lk.a.node.index);
    const auto tl = fabric.link_at(topo::switch_id(true_a), lk.a.port);
    if (!tl) continue;
    const auto& tlk = fabric.link(*tl);
    const bool a_is_a =
        tlk.a.node == topo::switch_id(true_a) && tlk.a.port == lk.a.port;
    const bool a_up = updown.is_up_traversal(l, lk.a.node.index);
    ladder_.set({*tl, a_is_a}, a_up ? Dir::kUp : Dir::kDown);
    ladder_.set({*tl, !a_is_a}, a_up ? Dir::kDown : Dir::kUp);
  }
}

std::vector<std::uint8_t> trunk_lanes(const DeadlockEngine& engine,
                                      const routing::RouteView& path) {
  net::LaneState state;
  std::vector<std::uint8_t> lanes;
  lanes.reserve(path.trunk_hops());
  for (const auto& c : path.trunk_channels())
    lanes.push_back(engine.ladder().next(state, c));
  return lanes;
}

routing::DependencyGraph build_dependency_graph(const DeadlockEngine& engine,
                                                const routing::RouteTable& table,
                                                const topo::Topology& topo) {
  routing::DependencyGraph graph(topo, engine.lane_count());
  if (engine.lane_count() == 1) {
    // Classical single-lane CDG; ITB routes restart chains at ejections.
    graph.add_table(table, topo);
    return graph;
  }
  for (std::uint16_t s = 0; s < table.host_count(); ++s)
    for (std::uint16_t d = 0; d < table.host_count(); ++d) {
      if (s == d) continue;
      const routing::RouteView r = table.route(s, d);
      if (r.empty()) continue;  // degraded pair
      add_laned_route(graph, engine.ladder(), r, topo);
    }
  return graph;
}

bool verify_deadlock_free(const DeadlockEngine& engine,
                          const routing::RouteTable& table,
                          const topo::Topology& topo) {
  return !build_dependency_graph(engine, table, topo).has_cycle();
}

}  // namespace itb::engine
