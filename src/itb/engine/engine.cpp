#include "itb/engine/engine.hpp"

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

/// Plain up*/down*: one lane, restricted routes, no extra storage anywhere.
class UpDownEngine final : public DeadlockEngine {
 public:
  EngineKind kind() const override { return EngineKind::kUpDown; }
  const char* name() const override { return "updown"; }
  routing::Policy policy() const override { return routing::Policy::kUpDown; }
  bool uses_host_buffers() const override { return false; }
  void bind(const routing::UpDown&, const topo::Topology&,
            const std::vector<std::uint16_t>&) override {}
  unsigned lane_count() const override { return 1; }
  std::uint8_t injection_lane(std::uint16_t) const override { return 0; }
  std::uint8_t lane_for(net::LaneState& state, topo::Channel) const override {
    return state.lane;  // always 0
  }
};

/// The paper's mechanism: one lane, minimal routes legalised by ejection /
/// re-injection at in-transit hosts (host receive buffers are the storage).
class ItbEngine final : public DeadlockEngine {
 public:
  EngineKind kind() const override { return EngineKind::kItb; }
  const char* name() const override { return "itb"; }
  routing::Policy policy() const override { return routing::Policy::kItb; }
  bool uses_host_buffers() const override { return true; }
  void bind(const routing::UpDown&, const topo::Topology&,
            const std::vector<std::uint16_t>&) override {}
  unsigned lane_count() const override { return 1; }
  std::uint8_t injection_lane(std::uint16_t) const override { return 0; }
  std::uint8_t lane_for(net::LaneState& state, topo::Channel) const override {
    return state.lane;  // always 0
  }
};

/// Virtual-channel escape: the lane ladder described in the header. Keeps a
/// per-directed-channel up/down table in TRUE fabric coordinates so the hot
/// path is one array read plus a couple of branches.
class VcEscapeEngine final : public DeadlockEngine {
 public:
  explicit VcEscapeEngine(unsigned lanes) : lanes_(lanes < 2 ? 2 : lanes) {}

  EngineKind kind() const override { return EngineKind::kVcEscape; }
  const char* name() const override { return "vc-escape"; }
  routing::Policy policy() const override {
    return routing::Policy::kVcEscape;
  }
  bool uses_host_buffers() const override { return false; }
  unsigned lane_count() const override { return lanes_; }
  std::uint8_t injection_lane(std::uint16_t) const override { return 0; }

  std::uint8_t lane_for(net::LaneState& state, topo::Channel next) const override {
    const std::size_t idx = 2 * next.link + (next.forward ? 0 : 1);
    const Dir d = idx < dir_.size() ? dir_[idx] : Dir::kUnoriented;
    switch (d) {
      case Dir::kUnoriented:  // host link (or unbound): stay on the lane
        break;
      case Dir::kDown:
        state.flags |= kSawDown;
        break;
      case Dir::kUp:
        if (state.flags & kSawDown) {
          // down -> up: next up*/down*-valid segment, next lane. The route
          // solve guarantees segment count <= lanes_, so the clamp never
          // binds on solved routes; it only keeps a malformed manual route
          // in range.
          if (state.lane + 1u < lanes_) ++state.lane;
          state.flags = 0;
        }
        break;
    }
    return state.lane;
  }

  void bind(const routing::UpDown& updown, const topo::Topology& fabric,
            const std::vector<std::uint16_t>& switch_of) override {
    dir_.assign(fabric.link_count() * 2, Dir::kUnoriented);
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
      dir_[2 * *tl + (a_is_a ? 0 : 1)] = a_up ? Dir::kUp : Dir::kDown;
      dir_[2 * *tl + (a_is_a ? 1 : 0)] = a_up ? Dir::kDown : Dir::kUp;
    }
  }

 private:
  enum class Dir : std::uint8_t { kUnoriented, kUp, kDown };
  static constexpr std::uint8_t kSawDown = 1;

  unsigned lanes_;
  std::vector<Dir> dir_;  // per directed channel of the bound fabric
};

void add_laned_route(routing::DependencyGraph& graph,
                     const DeadlockEngine& engine,
                     const routing::RouteView& path,
                     const topo::Topology& topo) {
  if (path.segment_count() != 1)
    throw std::logic_error("multi-lane engines route in one segment");
  using Node = routing::DependencyGraph::Node;
  net::LaneState state{engine.injection_lane(path.src_host()), 0};
  Node prev =
      Node::of_channel(host_channel(topo, path.src_host(), true), state.lane);
  for (const auto& c : path.trunk_channels()) {
    const Node cur = Node::of_channel(c, engine.lane_for(state, c));
    graph.add_edge(prev, cur);
    prev = cur;
  }
  const topo::Channel down = host_channel(topo, path.dst_host(), false);
  graph.add_edge(prev, Node::of_channel(down, engine.lane_for(state, down)));
}

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kUpDown:
      return "updown";
    case EngineKind::kItb:
      return "itb";
    case EngineKind::kVcEscape:
      return "vc-escape";
  }
  return "?";
}

std::unique_ptr<DeadlockEngine> make_engine(const EngineSpec& spec) {
  switch (spec.kind) {
    case EngineKind::kUpDown:
      return std::make_unique<UpDownEngine>();
    case EngineKind::kItb:
      return std::make_unique<ItbEngine>();
    case EngineKind::kVcEscape:
      return std::make_unique<VcEscapeEngine>(spec.lanes);
  }
  throw std::invalid_argument("unknown engine kind");
}

std::vector<std::uint8_t> trunk_lanes(const DeadlockEngine& engine,
                                      const routing::RouteView& path) {
  net::LaneState state{engine.injection_lane(path.src_host()), 0};
  std::vector<std::uint8_t> lanes;
  lanes.reserve(path.trunk_hops());
  for (const auto& c : path.trunk_channels())
    lanes.push_back(engine.lane_for(state, c));
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
      add_laned_route(graph, engine, r, topo);
    }
  return graph;
}

bool verify_deadlock_free(const DeadlockEngine& engine,
                          const routing::RouteTable& table,
                          const topo::Topology& topo) {
  return !build_dependency_graph(engine, table, topo).has_cycle();
}

}  // namespace itb::engine
