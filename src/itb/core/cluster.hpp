// Cluster: the top-level assembly a user of this library works with.
//
// A Cluster owns one fully wired COW: topology, up*/down* orientation,
// route tables (computed by the mapper), the wormhole network, one PCI bus
// + NIC + GM port per host, and the shared event queue. It is the
// public-API entry point used by the examples and every bench binary.
//
// Typical use:
//   core::ClusterConfig cfg;
//   cfg.topology = topo::make_fig1_network();
//   cfg.engine = {routing::Policy::kItb, 1};
//   core::Cluster cluster(cfg);
//   cluster.port(0).send(5, message);
//   cluster.run();
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "itb/engine/engine.hpp"
#include "itb/fault/fault.hpp"
#include "itb/fault/injector.hpp"
#include "itb/fault/recovery.hpp"
#include "itb/flight/recorder.hpp"
#include "itb/gm/port.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/host/pci.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/net/network.hpp"
#include "itb/nic/nic.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/telemetry/export.hpp"
#include "itb/topo/builders.hpp"

namespace itb::core {

struct ClusterConfig {
  topo::Topology topology;
  /// Deadlock-freedom engine (plain up*/down* by default). The cluster
  /// builds it once and takes the routing restriction and the lane budget
  /// from it, so the table solve, the lane arbitration and the recovery
  /// re-solves can never disagree.
  engine::EngineSpec engine;
  net::NetTiming net_timing;
  nic::LanaiTiming lanai_timing;
  nic::McpOptions mcp_options;  // defaults to the ITB-capable MCP
  host::PciTiming pci_timing;
  gm::GmConfig gm_config;
  /// Faults: timed windows (link/switch/host down, NIC stalls) plus
  /// per-packet last-hop drop/corrupt probabilities. Empty by default (a
  /// faithful wire); injected deterministically off the event queue.
  fault::FaultSchedule fault_schedule;
  /// Re-run the mapper and hot-swap route tables when a topology-affecting
  /// fault window opens or closes (no effect with manual_routes).
  bool auto_remap = true;
  /// Detection time from the first unabsorbed topology event to the remap
  /// recompute firing (the recompute itself is charged per probe/source —
  /// see fault/recovery.cpp).
  sim::Duration remap_delay = 500 * sim::kUs;
  /// Incremental recovery engine tuning (scoped re-probe, table patching,
  /// flap quarantine, verify-against-full).
  fault::RecoveryTuning recovery;
  /// Host that runs the mapper.
  std::uint16_t mapper_root_host = 0;
  /// Threads for the mapper's route solve, one search per source switch
  /// (0 = hardware concurrency). The table is bit-identical for any value;
  /// the default stays serial so clusters built inside parallel sweep
  /// workers do not oversubscribe. The scale bench raises it for
  /// thousand-host fabrics.
  unsigned route_solve_jobs = 1;
  /// Which host on a switch takes in-transit duty (kSpread balances the
  /// forwarding load across a switch's hosts).
  routing::ItbHostSelection itb_selection =
      routing::ItbHostSelection::kLowestIndex;
  /// When set, skip the mapper and install these exact route segments on
  /// every NIC instead (used by the Fig. 7/8 benches, which hand-build
  /// their measurement paths). Indexed [src][dst]. The constructor encodes
  /// them into route rows and throws std::invalid_argument when a row does
  /// not cover every destination or a port does not fit a route byte.
  std::optional<std::vector<std::vector<std::vector<packet::Route>>>>
      manual_routes;
  /// Tick period of the telemetry sampler (armed on demand; idle clusters
  /// pay nothing).
  sim::Duration telemetry_sample_period = 100 * sim::kUs;
  /// Liveness watchdog (DESIGN.md §6f): progress sentinel + wait-graph
  /// diagnosis + graceful degradation. Disabled by default; benches enable
  /// it behind --watchdog.
  health::WatchdogConfig watchdog;
  /// Flight recorder (DESIGN.md §6g): packed packet-lifecycle capture.
  /// Disabled by default; benches enable it behind --flight.
  flight::RecorderConfig flight;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t host_count() const { return gm_ports_.size(); }

  sim::EventQueue& queue() { return queue_; }
  net::Network& network() { return *network_; }

  /// Observability bundle: one metric table per component family (sim,
  /// net, nic, gm, and fault, recovery, health, flight when built) plus the
  /// periodic sampler. `telemetry().start_sampling()` arms time series;
  /// `telemetry().write_json(path)` dumps everything. Default series:
  ///   channel_utilization  — per channel, rate of net.channel_busy_ns
  ///   lane_utilization     — per lane slot, rate of net.lane_busy_ns
  ///   itb_pending_depth    — per host, ITB packets waiting for send DMA
  ///   send_dma_utilization — per host, rate of nic.send_dma_busy_ns
  ///   rx_buffer_utilization— per host, rate of nic.rx_busy_ns
  ///   gm_tokens_in_use     — per host, gm.tokens_in_use
  ///   gm_retransmit_per_s  — per host, 1e9 x rate of gm.retransmissions
  telemetry::Telemetry& telemetry() { return *telemetry_; }
  const telemetry::Telemetry& telemetry() const { return *telemetry_; }
  gm::GmPort& port(std::uint16_t host) { return *gm_ports_.at(host); }
  /// Fault injector; nullptr when the config schedules no faults.
  fault::FaultInjector* faults() { return fault_injector_.get(); }
  /// Remap-and-recover manager; nullptr unless auto_remap applies to a
  /// schedule with topology faults.
  fault::RecoveryManager* recovery() { return recovery_.get(); }
  /// Liveness watchdog; nullptr unless config.watchdog.enabled.
  health::LivenessWatchdog* health() { return watchdog_.get(); }
  const health::LivenessWatchdog* health() const { return watchdog_.get(); }
  /// Flight recorder; nullptr unless config.flight.enabled.
  flight::FlightRecorder* flight() { return flight_.get(); }
  const flight::FlightRecorder* flight() const { return flight_.get(); }
  nic::Nic& nic(std::uint16_t host) { return *nics_.at(host); }
  const topo::Topology& topology() const { return config_.topology; }
  /// The active deadlock-freedom engine (always present; single-lane for
  /// plain up*/down* and ITB clusters).
  const engine::DeadlockEngine& deadlock_engine() const { return *engine_; }
  const routing::RouteTable* route_table() const {
    return table_ ? &*table_ : nullptr;
  }
  const mapper::DiscoveryReport* mapper_report() const {
    return report_ ? &*report_ : nullptr;
  }

  /// Run until the event queue drains (or the horizon is reached).
  void run(sim::Time until = INT64_MAX) { queue_.run(until); }

  /// Assert the installed route set is deadlock-free (CDG acyclic).
  bool routes_deadlock_free() const;

  /// Stricter §8 prediction: the buffer-augmented dependency graph (ITB
  /// routes threaded through finite in-transit pools) is acyclic too. A
  /// false here with routes_deadlock_free() true means the route set can
  /// wedge under load unless drop-on-full (or the watchdog) is enabled.
  bool routes_buffer_wedge_free() const;

  std::vector<gm::GmPort*> ports();

 private:
  ClusterConfig config_;
  sim::EventQueue queue_;
  // Before network_: every layer records through the network's pointer, so
  // the recorder must outlive the components that feed it.
  std::unique_ptr<flight::FlightRecorder> flight_;
  // Before network_ too: the network arbitrates through the engine's
  // lane ladder.
  std::unique_ptr<engine::DeadlockEngine> engine_;
  std::unique_ptr<net::Network> network_;
  std::optional<mapper::DiscoveryReport> report_;
  std::optional<routing::RouteTable> table_;
  std::vector<std::unique_ptr<host::PciBus>> pci_;
  std::vector<std::unique_ptr<nic::Nic>> nics_;
  std::vector<std::unique_ptr<gm::GmPort>> gm_ports_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<fault::RecoveryManager> recovery_;
  // Declared after network_/nics_ (it reads both) and destroyed before
  // them; its destructor detaches the network's activity hook.
  std::unique_ptr<health::LivenessWatchdog> watchdog_;
  // Last member: its metric tables point into the components above, so it
  // must be destroyed first.
  std::unique_ptr<telemetry::Telemetry> telemetry_;

  void wire_telemetry();
};

}  // namespace itb::core
