// Network topology substrate.
//
// A COW (cluster of workstations) topology is a bipartite-ish graph of
// switches and hosts joined by full-duplex links. Myrinet switches in the
// paper's testbed are M2FM-SW8 units: 8 ports, 4 of them LAN ports and 4 SAN
// ports; the latency through a switch depends on the port kinds traversed,
// which Figure 8's methodology controls for explicitly.
//
// Topology is pure structure: no timing, no queues. The net/ module builds a
// running network out of it; the routing/ module computes routes over it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace itb::topo {

/// Kind of a graph node.
enum class NodeKind : std::uint8_t { kSwitch, kHost };

/// Port electrical kind; switch fall-through latency depends on it (§5).
enum class PortKind : std::uint8_t { kSan, kLan };

const char* to_string(PortKind k);

/// Identifies a switch or host within one Topology.
struct NodeId {
  NodeKind kind = NodeKind::kSwitch;
  std::uint16_t index = 0;

  friend bool operator==(NodeId, NodeId) = default;
  friend auto operator<=>(NodeId, NodeId) = default;
};

inline NodeId switch_id(std::uint16_t i) { return {NodeKind::kSwitch, i}; }
inline NodeId host_id(std::uint16_t i) { return {NodeKind::kHost, i}; }

std::string to_string(NodeId id);

/// One end of a link: a node and the port it occupies on that node.
/// Hosts always attach through port 0 (a NIC has a single network port).
struct Endpoint {
  NodeId node;
  std::uint8_t port = 0;

  friend bool operator==(Endpoint, Endpoint) = default;
};

/// A full-duplex cable. Direction a->b and b->a are distinct channels for
/// routing/deadlock analysis; `LinkId` + direction names a channel.
struct Link {
  Endpoint a;
  Endpoint b;
  /// Port kind of this link (both ends must match: a LAN cable plugs into
  /// LAN ports on both sides).
  PortKind kind = PortKind::kSan;
};

using LinkId = std::uint32_t;

/// Directed channel: one direction of one link, packed into 4 bytes (a
/// route row stores one per trunk hop). The link id gets 31 bits;
/// Topology::connect refuses a link past them.
struct Channel {
  LinkId link : 31 = 0;
  bool forward : 1 = true;  // true: a->b, false: b->a

  friend bool operator==(Channel, Channel) = default;
};
static_assert(sizeof(Channel) == 4);

struct SwitchSpec {
  std::uint8_t ports = 8;
  std::string name;
};

struct HostSpec {
  std::string name;
};

/// Immutable-after-build description of a network.
///
/// Lookups are backed by a per-node incidence index maintained by connect(),
/// so link_at()/peer()/links_of() cost O(node degree), not O(total links) —
/// the difference between the mapper probing a 3-host testbed and an
/// 8192-switch fabric.
class Topology {
 public:
  /// Switch/host indices are 16-bit (NIC SRAM route tables and the GM wire
  /// header address hosts with a std::uint16_t). One id per kind is
  /// reserved as a sentinel, so a topology holds at most 65535 switches and
  /// 65535 hosts; add_switch()/add_host() throw past that instead of
  /// letting the index wrap.
  static constexpr std::size_t kMaxNodesPerKind = 0xFFFF;
  /// Link ids are 31-bit (topo::Channel packs the direction beside one);
  /// connect() throws past this many links.
  static constexpr std::size_t kMaxLinks = std::size_t{1} << 31;

  /// Add a switch with `ports` ports; returns its id.
  /// Throws std::invalid_argument past kMaxNodesPerKind switches.
  NodeId add_switch(std::uint8_t ports = 8, std::string name = {});

  /// Add a host; returns its id.
  /// Throws std::invalid_argument past kMaxNodesPerKind hosts.
  NodeId add_host(std::string name = {});

  /// Connect two endpoints with a cable of kind `kind`.
  /// Throws std::invalid_argument on bad ports / double connections, and
  /// past kMaxLinks links.
  LinkId connect(Endpoint a, Endpoint b, PortKind kind = PortKind::kSan);

  /// Convenience: connect switch s1 port p1 to switch s2 port p2.
  LinkId connect_switches(std::uint16_t s1, std::uint8_t p1, std::uint16_t s2,
                          std::uint8_t p2, PortKind kind = PortKind::kSan);

  /// Convenience: connect host h to switch s port p.
  LinkId attach_host(std::uint16_t h, std::uint16_t s, std::uint8_t p,
                     PortKind kind = PortKind::kSan);

  std::size_t switch_count() const { return switches_.size(); }
  std::size_t host_count() const { return hosts_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const SwitchSpec& switch_spec(std::uint16_t i) const { return switches_.at(i); }
  const HostSpec& host_spec(std::uint16_t i) const { return hosts_.at(i); }
  const Link& link(LinkId id) const { return links_.at(id); }

  /// The link plugged into (node, port), if any.
  std::optional<LinkId> link_at(NodeId node, std::uint8_t port) const;

  /// All links touching `node`.
  std::vector<LinkId> links_of(NodeId node) const;

  /// The neighbour reached by leaving `node` through `port`, if connected.
  std::optional<Endpoint> peer(NodeId node, std::uint8_t port) const;

  /// Endpoints of a directed channel: where it starts / ends.
  Endpoint channel_source(Channel c) const;
  Endpoint channel_target(Channel c) const;

  /// The switch a host hangs off (its only link). Throws if unattached.
  Endpoint host_uplink(std::uint16_t host) const;

  /// True when the host has an uplink. Degraded topologies (fault windows
  /// cutting a host off) legitimately carry unattached hosts.
  bool host_attached(std::uint16_t host) const;

  /// True if every node can reach every other node.
  bool connected() const;

  /// Throws std::logic_error describing the first structural problem found
  /// (unattached host, port collision, self-link); no-op when valid.
  void validate() const;

 private:
  std::vector<SwitchSpec> switches_;
  std::vector<HostSpec> hosts_;
  std::vector<Link> links_;
  /// Incidence index: the links touching each node. LinkIds are assigned
  /// monotonically by connect(), so appending keeps every list in ascending
  /// id order — links_of() returns exactly what the old full scan did.
  /// Self-cables appear once, matching the scan semantics.
  std::vector<std::vector<LinkId>> switch_links_;
  std::vector<std::vector<LinkId>> host_links_;

  const std::vector<LinkId>& incident(NodeId n) const;
  std::vector<LinkId>& incident_mutable(NodeId n);
  std::uint8_t port_count(NodeId n) const;
  void check_endpoint(Endpoint e) const;
};

}  // namespace itb::topo
