// Channel-dependency-graph deadlock analysis.
//
// Wormhole routing is deadlock-free iff the channel dependency graph (CDG)
// induced by the route set is acyclic (Dally & Seitz). A packet holding
// channel c_i while requesting c_{i+1} creates the dependency c_i -> c_{i+1}
// for every consecutive channel pair of every route. ITB ejection ends the
// wormhole: the packet is fully buffered at the in-transit host, so no
// dependency crosses an ejection point — exactly how the mechanism breaks
// the down->up cycles (§1).
//
// That classical result silently assumes the ejection buffer is always
// available. With a finite in-transit pool under backpressure (§4's
// stop-when-full variant) the buffer itself is a contended resource: a full
// NIC closes the channel into its host, and the buffers only free when the
// host's re-injection drains. The *buffer-augmented* graph models this by
// adding one node per host buffer pool and threading ITB routes through it:
//     ... -> IN(itb_host) -> buf(itb_host) -> OUT(itb_host) -> ...
// A cycle through a buffer node is exactly the §8 buffer-wait wedge the
// plain CDG cannot see. The same node vocabulary serves the runtime
// wait-for graph built by health::WaitGraphDiagnoser from live worm state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "itb/routing/paths.hpp"
#include "itb/routing/table.hpp"

namespace itb::routing {

/// CDG over the directed channels of a topology, optionally augmented with
/// one buffer node per host (the NIC's in-transit receive pool). With
/// `lane_count` > 1 each directed channel splits into that many virtual-lane
/// nodes, so a multi-lane engine's deadlock-freedom claim ("the per-lane CDG
/// under my lane-selection function is acyclic") is checked in the same
/// vocabulary as the classical single-lane graph.
class DependencyGraph {
 public:
  /// Graph node: a directed channel lane, or a host's buffer pool.
  struct Node {
    bool is_buffer = false;
    topo::Channel channel{};  // valid when !is_buffer
    std::uint16_t host = 0;   // valid when is_buffer
    std::uint8_t lane = 0;    // valid when !is_buffer

    static Node of_channel(topo::Channel c, std::uint8_t lane = 0) {
      return Node{false, c, 0, lane};
    }
    static Node of_buffer(std::uint16_t h) {
      return Node{true, topo::Channel{}, h, 0};
    }
    bool operator==(const Node& o) const {
      return is_buffer == o.is_buffer &&
             (is_buffer ? host == o.host
                        : (channel.link == o.channel.link &&
                           channel.forward == o.channel.forward &&
                           lane == o.lane));
    }
  };

  explicit DependencyGraph(const topo::Topology& topo, unsigned lane_count = 1);

  /// Add the dependencies contributed by one route. Channel chains restart
  /// after every ITB ejection (and include the host access channels, which
  /// terminate/originate chains but never cycle).
  void add_route(const RouteView& path, const topo::Topology& topo);

  /// Add every route of a table.
  void add_table(const RouteTable& table, const topo::Topology& topo);

  /// Buffer-augmented variants: instead of restarting the chain at an ITB
  /// ejection, thread it through the in-transit host's buffer node. Predicts
  /// the §8 buffer-wait wedge of the finite stop-when-full pool; routes
  /// accepted by add_table but rejected here need §4 drop-on-full (or a
  /// runtime watchdog) to be live under load.
  void add_route_buffered(const RouteView& path, const topo::Topology& topo);
  void add_table_buffered(const RouteTable& table, const topo::Topology& topo);

  /// Explicit edges for tests and for the runtime wait-for graph.
  void add_dependency(topo::Channel from, topo::Channel to);
  void add_edge(Node from, Node to);

  bool has_cycle() const;

  /// One cycle as a channel sequence (empty when acyclic); for diagnostics.
  /// Buffer nodes are elided — use find_cycle_nodes() for the full cycle.
  std::vector<topo::Channel> find_cycle() const;

  /// One cycle including buffer nodes (empty when acyclic).
  std::vector<Node> find_cycle_nodes() const;

  /// True when the graph has a cycle that passes through at least one
  /// buffer node — the §8 wedge signature.
  bool cycle_through_buffer() const;

  /// "ch(3>) -> buf(h1) -> ch(5<,l1)" rendering of a node sequence (the
  /// lane suffix only appears for lanes above 0, so single-lane renderings
  /// are unchanged).
  static std::string describe(const std::vector<Node>& nodes);

  std::size_t edge_count() const;
  unsigned lane_count() const { return lanes_; }

 private:
  unsigned lanes_;        // virtual lanes per directed channel
  std::size_t channels_;  // channel-lane node count (2 * links * lanes_)
  std::size_t hosts_;     // buffer node count
  std::vector<std::vector<std::uint32_t>> out_;  // adjacency by node index

  // Node indexing: channel lanes occupy [0, channels_) grouped by physical
  // channel (2*link + dir, then lane), buffer nodes follow at channels_ +
  // host.
  std::uint32_t index(Node n) const {
    if (n.is_buffer) return static_cast<std::uint32_t>(channels_ + n.host);
    return (2 * n.channel.link + (n.channel.forward ? 0 : 1)) * lanes_ +
           n.lane;
  }
  Node node_of(std::uint32_t idx) const {
    if (idx >= channels_)
      return Node::of_buffer(static_cast<std::uint16_t>(idx - channels_));
    const std::uint32_t phys = idx / lanes_;
    return Node::of_channel(topo::Channel{phys / 2, (phys % 2) == 0},
                            static_cast<std::uint8_t>(idx % lanes_));
  }

  void add_route_impl(const RouteView& path, const topo::Topology& topo,
                      bool buffered);
};

}  // namespace itb::routing
