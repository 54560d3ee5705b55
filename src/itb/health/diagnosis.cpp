#include "itb/health/diagnosis.hpp"

#include <algorithm>
#include <optional>

namespace itb::health {

Diagnosis WaitGraphDiagnoser::diagnose(sim::Time now) const {
  using Node = routing::DependencyGraph::Node;
  routing::DependencyGraph graph(network_.topology(), network_.lane_count());
  const auto snap = network_.wait_snapshot();

  // The resource a blocked worm is parked on. A busy channel dominates: its
  // owner carries the dependency onward. A free-but-gated channel into a
  // host means the wait is really on that host's buffer pool — unless the
  // gate is a fault window, which is not a resource anything releases.
  auto wait_target = [](const net::Network::WormWait& w)
      -> std::optional<Node> {
    if (!w.blocked) return std::nullopt;
    if (w.waiting_channel_busy)
      return Node::of_channel(w.waiting_on, w.waiting_lane);
    if (w.gate_closed && !w.gate_fault) return Node::of_buffer(w.gate_host);
    return std::nullopt;  // fault-gated or transiently free
  };

  std::size_t blocked = 0;
  bool fault_parked = false;
  for (const auto& w : snap) {
    if (!w.blocked) continue;
    ++blocked;
    if (w.gate_fault) fault_parked = true;
    const auto target = wait_target(w);
    if (!target) continue;
    for (const auto& held : w.held)
      graph.add_edge(Node::of_channel(held.channel, held.lane), *target);
  }

  // Full receive pools: buf(h) frees only when host h's blocked outgoing
  // injection (the ITB re-injection holding the buffer) makes progress.
  for (std::size_t h = 0; h < nics_.size(); ++h) {
    const nic::Nic* nic = nics_[h];
    if (!nic || !nic->rx_full()) continue;
    for (const auto& w : snap) {
      if (w.src_host != h) continue;
      if (const auto target = wait_target(w))
        graph.add_edge(Node::of_buffer(static_cast<std::uint16_t>(h)),
                       *target);
    }
  }

  Diagnosis d;
  d.at = now;
  d.blocked_worms = blocked;
  d.cycle = graph.find_cycle_nodes();
  if (!d.cycle.empty()) {
    for (const auto& n : d.cycle)
      if (n.is_buffer) d.wedged_hosts.push_back(n.host);
    std::sort(d.wedged_hosts.begin(), d.wedged_hosts.end());
    d.wedged_hosts.erase(
        std::unique(d.wedged_hosts.begin(), d.wedged_hosts.end()),
        d.wedged_hosts.end());
    d.kind = d.wedged_hosts.empty() ? StallKind::kChannelDeadlock
                                    : StallKind::kBufferDeadlock;
    d.description = routing::DependencyGraph::describe(d.cycle);
  } else if (fault_parked) {
    d.kind = StallKind::kFaultBlackhole;
    d.description = "traffic parked behind a NIC-stall fault window";
  } else {
    d.kind = StallKind::kCongestion;
    d.description = "no wait cycle; " + std::to_string(blocked) +
                    " worm(s) blocked on busy resources";
  }
  return d;
}

}  // namespace itb::health
