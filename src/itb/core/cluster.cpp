#include "itb/core/cluster.hpp"

#include <stdexcept>

namespace itb::core {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  config_.topology.validate();
  const auto hosts = config_.topology.host_count();

  engine_ = engine::make_engine(config_.engine);

  network_ = std::make_unique<net::Network>(config_.topology,
                                            config_.net_timing, queue_);
  if (engine_->lane_count() > 1) network_->set_lane_policy(engine_.get());
  if (config_.flight.enabled) {
    flight_ = std::make_unique<flight::FlightRecorder>(config_.flight);
    network_->set_flight_recorder(flight_.get());
  }
  for (std::uint16_t h = 0; h < hosts; ++h) {
    pci_.push_back(std::make_unique<host::PciBus>(queue_, config_.pci_timing));
    nics_.push_back(std::make_unique<nic::Nic>(
        queue_, *network_, *pci_.back(), h, config_.lanai_timing,
        config_.mcp_options));
  }

  if (config_.manual_routes) {
    const auto& routes = *config_.manual_routes;
    if (routes.size() != hosts)
      throw std::invalid_argument("manual_routes must cover every source");
    for (std::uint16_t s = 0; s < hosts; ++s)
      for (std::uint16_t d = 0; d < hosts; ++d)
        if (s != d && !routes[s][d].empty())
          nics_[s]->set_route(d, routes[s][d]);
    // Hand-built routes were (by contract) planned against the root-0
    // orientation of the true topology.
    engine_->bind(routing::UpDown(config_.topology, 0), config_.topology, {});
  } else {
    // Run the mapper: discovery walk + route computation + table download.
    auto result = mapper::run(config_.topology, engine_->policy(),
                              config_.mapper_root_host, config_.itb_selection,
                              /*allow_partial=*/false, config_.route_solve_jobs,
                              engine_->lane_count());
    report_ = std::move(result.report);
    table_ = std::move(result.table);
    // Bind the engine to the orientation the solve used (discovered
    // coordinates, translated to true fabric indices via switch_of).
    engine_->bind(routing::UpDown(report_->discovered, 0), config_.topology,
                  report_->switch_of);
    for (auto& nic : nics_) nic->load_routes(*table_);
  }

  // GM is each NIC's one host-side client (its constructor registers it).
  for (std::uint16_t h = 0; h < hosts; ++h)
    gm_ports_.push_back(
        std::make_unique<gm::GmPort>(queue_, *nics_[h], config_.gm_config));

  // Fault injection + remap-and-recover. The injector is only built when
  // the config actually schedules faults, keeping the faithful-wire hot
  // path free of hook checks.
  if (!config_.fault_schedule.empty()) {
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        queue_, *network_, config_.fault_schedule);
    if (config_.auto_remap && !config_.manual_routes &&
        config_.fault_schedule.has_topology_faults()) {
      std::vector<nic::Nic*> nic_ptrs;
      nic_ptrs.reserve(nics_.size());
      for (auto& nic : nics_) nic_ptrs.push_back(nic.get());
      fault::RecoveryManager::Config rc;
      rc.selection = config_.itb_selection;
      rc.preferred_root_host = config_.mapper_root_host;
      rc.remap_delay = config_.remap_delay;
      rc.route_jobs = config_.route_solve_jobs;
      rc.tuning = config_.recovery;
      recovery_ = std::make_unique<fault::RecoveryManager>(
          queue_, config_.topology, *fault_injector_, std::move(nic_ptrs),
          *engine_, rc);
    }
  }

  if (config_.watchdog.enabled) {
    std::vector<nic::Nic*> nic_ptrs;
    nic_ptrs.reserve(nics_.size());
    for (auto& nic : nics_) nic_ptrs.push_back(nic.get());
    watchdog_ = std::make_unique<health::LivenessWatchdog>(
        queue_, *network_, std::move(nic_ptrs), config_.watchdog);
  }

  wire_telemetry();
}

void Cluster::wire_telemetry() {
  telemetry_ = std::make_unique<telemetry::Telemetry>(
      queue_, config_.telemetry_sample_period);
  auto& reg = telemetry_->registry();
  network_->register_metrics(reg);
  for (auto& nic : nics_) nic->register_metrics(reg);
  for (auto& port : gm_ports_) port->register_metrics(reg);
  if (fault_injector_) fault_injector_->register_metrics(reg);
  if (recovery_) recovery_->register_metrics(reg);
  if (watchdog_) watchdog_->register_metrics(reg);
  if (flight_) flight_->register_metrics(reg);

  // Default sampler probes (see the telemetry() doc comment in the header).
  auto& s = telemetry_->sampler();
  using Mode = telemetry::Sampler::Mode;
  const auto channels = config_.topology.link_count() * 2;
  for (std::size_t c = 0; c < channels; ++c)
    s.add_probe("channel_utilization",
                telemetry::Labels{.host = -1, .channel = static_cast<int>(c)},
                Mode::kRate, [net = network_.get(), c] {
                  return static_cast<double>(net->channel_busy_ns()[c]);
                });
  // Per-lane busy fractions when a multi-lane engine is active (channel
  // label = channel * lanes + lane, matching the network's slot indexing).
  if (network_->lane_count() > 1)
    for (std::size_t slot = 0; slot < channels * network_->lane_count(); ++slot)
      s.add_probe(
          "lane_utilization",
          telemetry::Labels{.host = -1, .channel = static_cast<int>(slot)},
          Mode::kRate, [net = network_.get(), slot] {
            return static_cast<double>(net->lane_busy_ns()[slot]);
          });
  for (std::uint16_t h = 0; h < host_count(); ++h) {
    const telemetry::Labels labels{.host = h, .channel = -1};
    auto* nic = nics_[h].get();
    auto* port = gm_ports_[h].get();
    s.add_probe("itb_pending_depth", labels, Mode::kLevel, [nic] {
      return static_cast<double>(nic->itb_pending_depth());
    });
    s.add_probe("send_dma_utilization", labels, Mode::kRate, [nic] {
      return static_cast<double>(nic->send_dma_busy_ns());
    });
    s.add_probe("rx_buffer_utilization", labels, Mode::kRate, [nic] {
      return static_cast<double>(nic->rx_busy_ns());
    });
    s.add_probe("gm_tokens_in_use", labels, Mode::kLevel, [port] {
      return static_cast<double>(port->tokens_in_use());
    });
    s.add_probe(
        "gm_retransmit_per_s", labels, Mode::kRate,
        [port] { return static_cast<double>(port->stats().retransmissions); },
        /*scale=*/1e9);
  }
}

bool Cluster::routes_deadlock_free() const {
  if (!table_ || !report_) return true;  // manual routes: caller's business
  // The table stores discovered-coordinate channels, while the live engine
  // is bound in true coordinates — so check with a throwaway engine bound
  // over the discovered topology itself. Single-lane engines reduce to the
  // classical CDG either way.
  auto check = engine::make_engine({engine_->kind(), engine_->lane_count()});
  check->bind(routing::UpDown(report_->discovered, 0), report_->discovered, {});
  return engine::verify_deadlock_free(*check, *table_, report_->discovered);
}

bool Cluster::routes_buffer_wedge_free() const {
  if (!table_ || !report_) return true;  // manual routes: caller's business
  routing::DependencyGraph graph(report_->discovered);
  graph.add_table_buffered(*table_, report_->discovered);
  return !graph.cycle_through_buffer();
}

std::vector<gm::GmPort*> Cluster::ports() {
  std::vector<gm::GmPort*> out;
  out.reserve(gm_ports_.size());
  for (auto& p : gm_ports_) out.push_back(p.get());
  return out;
}

}  // namespace itb::core
