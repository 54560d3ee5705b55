// Deterministic fault injector.
//
// Implements net::FaultHook: arms every window of a FaultSchedule on the
// event queue, tracks which links/switches/hosts are currently down (windows
// may overlap — a link is usable again only when the count of windows
// covering it returns to zero), answers the network's per-hop usability
// checks, and applies the schedule's probabilistic last-hop drop/corrupt
// coin flips with the same seeded draw order the old in-network
// implementation used, so existing loss-sweep results are bit-identical.
//
// Topology-affecting windows (everything but NIC stalls) are announced to
// listeners on open and close; the RecoveryManager subscribes and re-runs
// the mapper, mirroring Myrinet's reconfiguration-on-fault.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "itb/fault/fault.hpp"
#include "itb/net/network.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/sim/rng.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::fault {

class FaultInjector final : public net::FaultHook {
 public:
  /// Installs itself as `network`'s fault hook and schedules every window.
  FaultInjector(sim::EventQueue& queue, net::Network& network,
                const FaultSchedule& schedule);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // net::FaultHook
  bool channel_usable(topo::Channel c) const override {
    return effective_down_[c.link] == 0;
  }
  bool host_accepting(std::uint16_t host) const override {
    return nic_stall_[host] == 0;
  }
  Fate delivery_fate(std::uint16_t host, packet::Bytes& bytes) override;
  void note_kill(topo::Channel at) override;

  /// Called with (now, window) when a window that changes the usable
  /// topology opens or closes. NIC stalls are not announced (routing is
  /// unaffected).
  using TopologyListener = std::function<void(sim::Time, const FaultWindow&)>;
  void add_topology_listener(TopologyListener fn) {
    listeners_.push_back(std::move(fn));
  }

  const FaultStats& stats() const { return stats_; }
  int active_windows() const { return active_windows_; }

  /// Is this component currently inside one or more down windows?
  bool link_down(topo::LinkId link) const { return link_down_[link] > 0; }
  bool switch_down(std::uint16_t sw) const { return switch_down_[sw] > 0; }
  bool host_down(std::uint16_t host) const { return host_down_[host] > 0; }
  bool nic_stalled(std::uint16_t host) const { return nic_stall_[host] > 0; }

  /// True when either directed channel of `link` is unusable for any cause
  /// (its own window, a dead endpoint switch, a dead endpoint host).
  bool link_impaired(topo::LinkId link) const {
    return effective_down_[link] > 0;
  }

  /// Metric table "fault": the FaultStats counters and active_windows.
  std::unique_ptr<telemetry::MetricTable> metric_table() const;

 private:
  void open_window(const FaultWindow& w);
  void close_window(const FaultWindow& w);
  /// Impair / restore one link on behalf of some window; tells the network
  /// on 0 -> 1 and 1 -> 0 transitions of the covering-window count.
  void down_link(topo::LinkId link);
  void up_link(topo::LinkId link);
  std::vector<topo::LinkId> links_of_target(const FaultWindow& w) const;
  void announce(const FaultWindow& w);

  sim::EventQueue& queue_;
  net::Network& network_;
  const topo::Topology& topo_;
  double drop_probability_;
  double corrupt_probability_;
  sim::Rng rng_;
  FaultStats stats_;
  int active_windows_ = 0;

  std::vector<int> effective_down_;  // per link: windows impairing it
  std::vector<int> link_down_;       // per link: direct link windows
  std::vector<int> switch_down_;     // per switch
  std::vector<int> host_down_;       // per host
  std::vector<int> nic_stall_;       // per host
  std::vector<TopologyListener> listeners_;
};

}  // namespace itb::fault
