#include "itb/routing/deadlock.hpp"

#include <algorithm>
#include <stdexcept>

namespace itb::routing {

DependencyGraph::DependencyGraph(const topo::Topology& topo,
                                 unsigned lane_count)
    : lanes_(lane_count == 0 ? 1 : lane_count),
      channels_(topo.link_count() * 2 * lanes_),
      hosts_(topo.host_count()),
      out_(channels_ + hosts_) {}

void DependencyGraph::add_edge(Node from, Node to) {
  const auto f = index(from);
  const auto t = index(to);
  if (f >= out_.size() || t >= out_.size())
    throw std::out_of_range("dependency node out of range");
  if (std::find(out_[f].begin(), out_[f].end(), t) == out_[f].end())
    out_[f].push_back(t);
}

void DependencyGraph::add_dependency(topo::Channel from, topo::Channel to) {
  add_edge(Node::of_channel(from), Node::of_channel(to));
}

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

}  // namespace

void DependencyGraph::add_route_impl(const RouteView& path,
                                     const topo::Topology& topo,
                                     bool buffered) {
  // Split the flat trunk-channel list at segment boundaries: segment i has
  // one trunk hop fewer than route bytes (its final route byte exits to a
  // host: the next in-transit host or the destination).
  const auto trunks = path.trunk_channels();
  const auto itb_hosts = path.in_transit_hosts();
  const std::size_t segments = path.segment_count();
  if (segments > 0 && itb_hosts.size() != segments - 1)
    throw std::logic_error("in-transit hosts inconsistent with segments");
  std::size_t trunk_cursor = 0;
  std::vector<topo::Channel> chain;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    chain.clear();
    const std::uint16_t entry_host =
        seg == 0 ? path.src_host() : itb_hosts[seg - 1];
    chain.push_back(host_channel(topo, entry_host, /*host_to_switch=*/true));
    const std::size_t trunks_here = path.segment(seg).size() - 1;
    for (std::size_t i = 0; i < trunks_here; ++i) {
      if (trunk_cursor >= trunks.size())
        throw std::logic_error("trunk channel count inconsistent with segments");
      chain.push_back(trunks[trunk_cursor++]);
    }
    const std::uint16_t exit_host =
        seg + 1 < segments ? itb_hosts[seg] : path.dst_host();
    chain.push_back(host_channel(topo, exit_host, /*host_to_switch=*/false));

    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      add_dependency(chain[i], chain[i + 1]);
    if (buffered && seg > 0) {
      // The previous segment's channels are released only once this
      // segment's re-injection drains the in-transit buffer: thread the
      // chain through the buffer node instead of restarting it.
      add_edge(Node::of_buffer(entry_host), Node::of_channel(chain.front()));
    }
    if (buffered && seg + 1 < segments) {
      // Delivery into the in-transit host consumes a finite pool buffer.
      add_edge(Node::of_channel(chain.back()), Node::of_buffer(exit_host));
    }
    // In the classical graph no edge crosses the ejection: the packet is
    // fully buffered in the in-transit NIC's SRAM, releasing every channel
    // of this chain before the next chain's channels are requested. The
    // buffered variant keeps the chain alive through the buffer node.
  }
  if (trunk_cursor != trunks.size())
    throw std::logic_error("trunk channel count inconsistent with segments");
}

void DependencyGraph::add_route(const RouteView& path,
                                const topo::Topology& topo) {
  add_route_impl(path, topo, /*buffered=*/false);
}

void DependencyGraph::add_route_buffered(const RouteView& path,
                                         const topo::Topology& topo) {
  add_route_impl(path, topo, /*buffered=*/true);
}

void DependencyGraph::add_table(const RouteTable& table,
                                const topo::Topology& topo) {
  for (std::uint16_t s = 0; s < table.host_count(); ++s)
    for (std::uint16_t d = 0; d < table.host_count(); ++d) {
      if (s == d) continue;
      add_route(table.route(s, d), topo);
    }
}

void DependencyGraph::add_table_buffered(const RouteTable& table,
                                         const topo::Topology& topo) {
  for (std::uint16_t s = 0; s < table.host_count(); ++s)
    for (std::uint16_t d = 0; d < table.host_count(); ++d) {
      if (s == d) continue;
      add_route_buffered(table.route(s, d), topo);
    }
}

std::size_t DependencyGraph::edge_count() const {
  std::size_t n = 0;
  for (const auto& adj : out_) n += adj.size();
  return n;
}

bool DependencyGraph::has_cycle() const { return !find_cycle_nodes().empty(); }

std::vector<topo::Channel> DependencyGraph::find_cycle() const {
  std::vector<topo::Channel> cycle;
  for (const Node& n : find_cycle_nodes())
    if (!n.is_buffer) cycle.push_back(n.channel);
  return cycle;
}

bool DependencyGraph::cycle_through_buffer() const {
  const auto cycle = find_cycle_nodes();
  return std::any_of(cycle.begin(), cycle.end(),
                     [](const Node& n) { return n.is_buffer; });
}

std::string DependencyGraph::describe(const std::vector<Node>& nodes) {
  std::string s;
  for (const Node& n : nodes) {
    if (!s.empty()) s += " -> ";
    if (n.is_buffer) {
      s += "buf(h" + std::to_string(n.host) + ")";
    } else {
      s += "ch(" + std::to_string(n.channel.link) +
           (n.channel.forward ? ">" : "<");
      if (n.lane > 0) s += ",l" + std::to_string(n.lane);
      s += ")";
    }
  }
  return s;
}

std::vector<DependencyGraph::Node> DependencyGraph::find_cycle_nodes() const {
  // Iterative three-colour DFS that records the tree path for cycle
  // extraction.
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  const std::size_t n = out_.size();
  std::vector<std::uint8_t> colour(n, kWhite);
  std::vector<std::uint32_t> parent(n, UINT32_MAX);

  for (std::uint32_t root = 0; root < n; ++root) {
    if (colour[root] != kWhite) continue;
    // Stack of (node, next-edge-index).
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    stack.emplace_back(root, 0);
    colour[root] = kGrey;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      if (edge < out_[node].size()) {
        const auto next = out_[node][edge++];
        if (colour[next] == kWhite) {
          colour[next] = kGrey;
          parent[next] = node;
          stack.emplace_back(next, 0);
        } else if (colour[next] == kGrey) {
          // Found a back edge node -> next; unwind the grey path.
          std::vector<Node> cycle;
          std::uint32_t walk = node;
          cycle.push_back(node_of(next));
          while (walk != next && walk != UINT32_MAX) {
            cycle.push_back(node_of(walk));
            walk = parent[walk];
          }
          std::reverse(cycle.begin(), cycle.end());
          return cycle;
        }
      } else {
        colour[node] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

}  // namespace itb::routing
