#include "itb/core/cluster.hpp"

#include <stdexcept>
#include <string>

namespace itb::core {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  config_.topology.validate();
  const auto hosts = config_.topology.host_count();

  engine_ = engine::make_engine(config_.engine);

  network_ = std::make_unique<net::Network>(config_.topology,
                                            config_.net_timing, queue_);
  network_->set_ladder(&engine_->ladder());
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
    // Encode every hand-built route into its source's row once, here: a
    // short row or a port the route-byte format cannot carry fails the
    // construction instead of the first send.
    const auto& routes = *config_.manual_routes;
    if (routes.size() != hosts)
      throw std::invalid_argument("manual_routes must cover every source");
    for (std::uint16_t s = 0; s < hosts; ++s) {
      if (routes[s].size() != hosts)
        throw std::invalid_argument("manual_routes[" + std::to_string(s) +
                                    "] must cover every destination");
      auto row = std::make_shared<routing::RouteRow>();
      for (std::uint16_t d = 0; d < hosts; ++d) {
        if (s == d)
          row->add(routing::RouteView{});
        else
          row->add(routes[s][d]);
      }
      nics_[s]->load_routes(std::move(row));
    }
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
  reg.add(network_->metric_table());
  const auto& channels = reg.add(network_->busy_table(/*lanes=*/false));
  const auto& lanes = reg.add(network_->busy_table(/*lanes=*/true));
  const auto& nics = reg.add(nic::Nic::metric_table(nics_));
  const auto& ports = reg.add(gm::GmPort::metric_table(gm_ports_));
  if (fault_injector_) reg.add(fault_injector_->metric_table());
  if (recovery_) {
    reg.add(recovery_->fault_table());
    reg.add(recovery_->metric_table());
  }
  if (watchdog_) {
    reg.add(watchdog_->metric_table());
    reg.add(watchdog_->nic_table());
  }
  if (flight_) reg.add(flight_->metric_table());

  // Default sampler series (see the telemetry() doc comment in the header).
  // Lane slots are labelled channel * lanes + lane, like the network's; a
  // single-lane network has none.
  auto& s = telemetry_->sampler();
  using Mode = telemetry::Sampler::Mode;
  s.add_series({{"channel_utilization", &channels, "channel_busy_ns",
                 Mode::kRate}});
  s.add_series({{"lane_utilization", &lanes, "lane_busy_ns", Mode::kRate}});
  const auto& pending = s.own(nic::Nic::pending_table(nics_));
  s.add_series(
      {{"itb_pending_depth", &pending, "itb_pending_depth", Mode::kLevel},
       {"send_dma_utilization", &nics, "send_dma_busy_ns", Mode::kRate},
       {"rx_buffer_utilization", &nics, "rx_busy_ns", Mode::kRate},
       {"gm_tokens_in_use", &ports, "tokens_in_use", Mode::kLevel},
       {"gm_retransmit_per_s", &ports, "retransmissions", Mode::kRate, 1e9}});
}

bool Cluster::routes_deadlock_free() const {
  if (!table_ || !report_) return true;  // manual routes: caller's business
  // The table stores discovered-coordinate channels, while the live engine
  // is bound in true coordinates — so check with a throwaway engine bound
  // over the discovered topology itself. Single-lane engines reduce to the
  // classical CDG either way.
  auto check = engine::make_engine({engine_->policy(), engine_->lane_count()});
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
