#include "itb/topo/topology.hpp"

#include <queue>
#include <set>
#include <stdexcept>

namespace itb::topo {

const char* to_string(PortKind k) { return k == PortKind::kSan ? "SAN" : "LAN"; }

std::string to_string(NodeId id) {
  std::string out = id.kind == NodeKind::kSwitch ? "s" : "h";
  out += std::to_string(id.index);
  return out;
}

NodeId Topology::add_switch(std::uint8_t ports, std::string name) {
  if (ports == 0) throw std::invalid_argument("switch needs at least one port");
  if (switches_.size() >= kMaxNodesPerKind)
    throw std::invalid_argument(
        "switch id space exhausted (65535 max): the mapper and route tables "
        "index switches with 16 bits");
  auto idx = static_cast<std::uint16_t>(switches_.size());
  if (name.empty()) name = "sw" + std::to_string(idx);
  switches_.push_back(SwitchSpec{ports, std::move(name)});
  switch_links_.emplace_back();
  return switch_id(idx);
}

NodeId Topology::add_host(std::string name) {
  if (hosts_.size() >= kMaxNodesPerKind)
    throw std::invalid_argument(
        "host id space exhausted (65535 max): NIC tables and the GM header "
        "address hosts with 16 bits");
  auto idx = static_cast<std::uint16_t>(hosts_.size());
  if (name.empty()) name = "host" + std::to_string(idx);
  hosts_.push_back(HostSpec{std::move(name)});
  host_links_.emplace_back();
  return host_id(idx);
}

std::uint8_t Topology::port_count(NodeId n) const {
  if (n.kind == NodeKind::kSwitch) return switches_.at(n.index).ports;
  return 1;  // A NIC exposes a single network port.
}

void Topology::check_endpoint(Endpoint e) const {
  if (e.node.kind == NodeKind::kSwitch && e.node.index >= switches_.size())
    throw std::invalid_argument("unknown switch " + to_string(e.node));
  if (e.node.kind == NodeKind::kHost && e.node.index >= hosts_.size())
    throw std::invalid_argument("unknown host " + to_string(e.node));
  if (e.port >= port_count(e.node))
    throw std::invalid_argument("port " + std::to_string(e.port) +
                                " out of range on " + to_string(e.node));
  if (link_at(e.node, e.port))
    throw std::invalid_argument("port already connected on " + to_string(e.node) +
                                " port " + std::to_string(e.port));
}

LinkId Topology::connect(Endpoint a, Endpoint b, PortKind kind) {
  check_endpoint(a);
  check_endpoint(b);
  // Switch self-cables (two ports of the same switch wired together) are
  // legal Myrinet configurations and the Fig. 8 methodology depends on one
  // ("the up*/down* path requires a loop in switch 2"). Hosts have a single
  // port, so a host can never self-connect.
  if (a == b)
    throw std::invalid_argument("port wired to itself on " + to_string(a.node));
  if (a.node == b.node && a.node.kind == NodeKind::kHost)
    throw std::invalid_argument("self-link on " + to_string(a.node));
  if (a.node.kind == NodeKind::kHost && b.node.kind == NodeKind::kHost)
    throw std::invalid_argument("host-to-host cable (" + to_string(a.node) +
                                " - " + to_string(b.node) +
                                "): NICs attach to switches");
  links_.push_back(Link{a, b, kind});
  const auto id = static_cast<LinkId>(links_.size() - 1);
  incident_mutable(a.node).push_back(id);
  if (!(b.node == a.node)) incident_mutable(b.node).push_back(id);
  return id;
}

LinkId Topology::connect_switches(std::uint16_t s1, std::uint8_t p1,
                                  std::uint16_t s2, std::uint8_t p2,
                                  PortKind kind) {
  return connect({switch_id(s1), p1}, {switch_id(s2), p2}, kind);
}

LinkId Topology::attach_host(std::uint16_t h, std::uint16_t s, std::uint8_t p,
                             PortKind kind) {
  return connect({host_id(h), 0}, {switch_id(s), p}, kind);
}

std::vector<LinkId>& Topology::incident_mutable(NodeId n) {
  // Only called by connect() after check_endpoint validated the node.
  auto& lists = n.kind == NodeKind::kSwitch ? switch_links_ : host_links_;
  return lists[n.index];
}

const std::vector<LinkId>& Topology::incident(NodeId n) const {
  static const std::vector<LinkId> kNone;
  const auto& lists = n.kind == NodeKind::kSwitch ? switch_links_ : host_links_;
  if (n.index >= lists.size()) return kNone;
  return lists[n.index];
}

std::optional<LinkId> Topology::link_at(NodeId node, std::uint8_t port) const {
  for (LinkId i : incident(node)) {
    const Link& l = links_[i];
    if ((l.a.node == node && l.a.port == port) ||
        (l.b.node == node && l.b.port == port))
      return i;
  }
  return std::nullopt;
}

std::vector<LinkId> Topology::links_of(NodeId node) const {
  return incident(node);
}

std::optional<Endpoint> Topology::peer(NodeId node, std::uint8_t port) const {
  auto lid = link_at(node, port);
  if (!lid) return std::nullopt;
  const Link& l = links_[*lid];
  return (l.a.node == node && l.a.port == port) ? l.b : l.a;
}

Endpoint Topology::channel_source(Channel c) const {
  const Link& l = links_.at(c.link);
  return c.forward ? l.a : l.b;
}

Endpoint Topology::channel_target(Channel c) const {
  const Link& l = links_.at(c.link);
  return c.forward ? l.b : l.a;
}

Endpoint Topology::host_uplink(std::uint16_t host) const {
  auto p = peer(host_id(host), 0);
  if (!p) throw std::logic_error("host " + std::to_string(host) + " unattached");
  return *p;
}

bool Topology::host_attached(std::uint16_t host) const {
  return peer(host_id(host), 0).has_value();
}

bool Topology::connected() const {
  const std::size_t total = switches_.size() + hosts_.size();
  if (total == 0) return true;
  std::set<NodeId> seen;
  std::queue<NodeId> frontier;
  NodeId start = switches_.empty() ? host_id(0) : switch_id(0);
  frontier.push(start);
  seen.insert(start);
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop();
    for (LinkId lid : links_of(n)) {
      const Link& l = links_[lid];
      NodeId other = (l.a.node == n) ? l.b.node : l.a.node;
      if (seen.insert(other).second) frontier.push(other);
    }
  }
  return seen.size() == total;
}

void Topology::validate() const {
  for (std::uint16_t h = 0; h < hosts_.size(); ++h) {
    if (!link_at(host_id(h), 0))
      throw std::logic_error("host " + std::to_string(h) + " is unattached");
    if (peer(host_id(h), 0)->node.kind != NodeKind::kSwitch)
      throw std::logic_error("host " + std::to_string(h) +
                             " must attach to a switch");
  }
  if (!connected()) throw std::logic_error("topology is not connected");
}

}  // namespace itb::topo
