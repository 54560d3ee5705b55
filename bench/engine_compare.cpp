// Deadlock-engine comparison: ITB vs VC-escape vs raw up*/down* on the SAME
// topology and traffic (ROADMAP "engine subsystem"; DESIGN.md §6l).
//
// The paper's argument for in-transit buffers is that they buy minimal
// routing on switches with no virtual channels. This bench puts that
// trade-off side by side with the hardware alternative: a virtual-channel
// escape engine (>= 2 lanes per physical channel, lane-ladder assignment)
// delivers the same minimal routes with zero host-buffer involvement, at
// the cost of per-port flit storage. Every engine is statically verified
// deadlock-free (per-lane CDG acyclic) before traffic runs; a failed check
// exits nonzero.
//
// Points: the paper's Fig. 1 irregular network, a 4-ary fat tree, a small
// Clos, and a ring (an up*/down* worst case: ~10% of its minimal routes
// are UD-invalid, yet any ring route has at most one down->up transition,
// so even a 2-lane ladder restores 100% minimality).
//
// `--jobs N` threads for per-source route solves. Output contains NO wall
// clock and no --jobs echo: CI byte-compares the full stdout and JSON of
// --jobs 1 vs --jobs 8 runs.
// `--json P` itb.telemetry.v1 report (BENCH_10.json is the committed
// headline the CI regression gate compares against).
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/engine/engine.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;

struct Point {
  std::string label;
  topo::Topology topo;
};

std::vector<Point> make_points() {
  std::vector<Point> pts;
  pts.push_back(Point{"fig1", topo::make_fig1_network()});
  pts.push_back(Point{"ft4", topo::make_fat_tree(4)});
  pts.push_back(Point{"clos4x8", topo::make_clos(4, 8, 8)});
  pts.push_back(Point{"ring8", topo::make_ring(8, 2)});
  return pts;
}

std::vector<engine::EngineSpec> make_specs() {
  return {
      engine::EngineSpec{routing::Policy::kUpDown, 1},
      engine::EngineSpec{routing::Policy::kItb, 1},
      engine::EngineSpec{routing::Policy::kVcEscape, 2},
      engine::EngineSpec{routing::Policy::kVcEscape, 4},
  };
}

std::string spec_label(const engine::EngineSpec& spec) {
  if (spec.policy == routing::Policy::kVcEscape)
    return "vc" + std::to_string(spec.lanes);
  return routing::short_name(spec.policy);
}

struct Result {
  double avg_hops = 0;
  double minimal_frac = 0;
  double avg_itbs = 0;
  unsigned buffer_lanes = 0;
  bool host_buffers = false;
  bool deadlock_free = false;
  double accepted = 0;  // msgs/s/host
  double lat_us = 0;
  double p99_us = 0;
};

/// Same traffic run for every engine: the solved table goes in as manual
/// routes (identical injection pattern), the engine spec arms the lane
/// arbitration.
void run_traffic(const topo::Topology& fabric,
                 const routing::RouteTable& table,
                 const engine::EngineSpec& spec, Result& out) {
  const auto hosts = fabric.host_count();
  std::vector<std::vector<std::vector<packet::Route>>> manual(
      hosts, std::vector<std::vector<packet::Route>>(hosts));
  for (std::uint16_t s = 0; s < hosts; ++s)
    for (std::uint16_t d = 0; d < hosts; ++d)
      if (s != d) manual[s][d] = table.route(s, d).segments();

  core::ClusterConfig cfg;
  cfg.topology = fabric;
  cfg.engine = spec;
  cfg.manual_routes = std::move(manual);
  // Loaded-network MCP configuration (see motivation_throughput): circular
  // receive pool + drop-on-full so in-transit forwarding cannot wedge.
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  core::Cluster cluster(std::move(cfg));

  workload::LoadConfig lc;
  lc.message_bytes = 512;
  lc.arrivals.rate_per_s = 1e4;
  lc.warmup = 1 * sim::kMs;
  lc.measure = 4 * sim::kMs;
  lc.arrivals.seed = 2018;
  const auto r = workload::run_load(cluster.queue(), cluster.ports(), lc);
  out.accepted = r.accepted_msgs_per_s_per_host;
  out.lat_us = r.latency_mean_ns / 1000.0;
  out.p99_us = r.latency_p99_ns / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("engine_compare", bench::kJson | bench::kJobs);
  h.jobs = 1;
  h.parse(argc, argv);
  const unsigned jobs = h.jobs;

  telemetry::BenchReport& report = h.report;
  const auto specs = make_specs();

  std::printf(
      "Deadlock-engine comparison (identical topology + traffic per row)\n\n");
  std::printf("%-8s %-7s %5s %7s %6s %6s %7s | %9s %8s %8s\n", "point",
              "engine", "lanes", "hops", "min%", "itbs", "hostbuf", "acc/s",
              "lat(us)", "p99(us)");

  bool all_verified = true;
  for (auto& pt : make_points()) {
    // One orientation per point (root switch 0 over the true fabric); every
    // engine solves and binds against it, so rows differ only by engine.
    routing::UpDown updown(pt.topo, 0);
    routing::Router router(updown);

    for (const auto& spec : specs) {
      auto eng = engine::make_engine(spec);
      eng->bind(updown, pt.topo, {});
      routing::RouteTable table(router, eng->policy(), jobs, spec.lanes);

      Result res;
      res.avg_hops = table.average_trunk_hops();
      res.minimal_frac = table.minimal_fraction(router, jobs);
      res.avg_itbs = table.average_itbs();
      res.buffer_lanes = eng->lane_count();
      res.host_buffers = eng->uses_host_buffers();
      res.deadlock_free = engine::verify_deadlock_free(*eng, table, pt.topo);
      if (!res.deadlock_free) {
        std::fprintf(stderr, "FATAL: %s on %s has a cyclic per-lane CDG\n",
                     eng->name(), pt.label.c_str());
        all_verified = false;
      }
      run_traffic(pt.topo, table, spec, res);

      const std::string label = spec_label(spec);
      std::printf("%-8s %-7s %5u %7.2f %5.0f%% %6.2f %7s | %9.0f %8.1f %8.1f\n",
                  pt.label.c_str(), label.c_str(), res.buffer_lanes,
                  res.avg_hops, 100.0 * res.minimal_frac, res.avg_itbs,
                  res.host_buffers ? "yes" : "no", res.accepted, res.lat_us,
                  res.p99_us);

      telemetry::BenchReport::Row row;
      row.text["point"] = pt.label;
      row.text["engine"] = label;
      row.num["buffer_lanes_per_port"] = res.buffer_lanes;
      row.num["uses_host_buffers"] = res.host_buffers ? 1 : 0;
      row.num["avg_trunk_hops"] = res.avg_hops;
      row.num["minimal_fraction"] = res.minimal_frac;
      row.num["avg_itbs"] = res.avg_itbs;
      row.num["deadlock_free"] = res.deadlock_free ? 1 : 0;
      row.num["accepted_msgs_per_s"] = res.accepted;
      row.num["latency_mean_us"] = res.lat_us;
      row.num["latency_p99_us"] = res.p99_us;
      report.add_row("engines", std::move(row));

      // Headline scalars the CI regression gate reads from BENCH_10.json.
      if (pt.label == "fig1") {
        report.add_scalar("fig1_" + label + "_accepted_msgs_per_s",
                          res.accepted);
        report.add_scalar("fig1_" + label + "_latency_mean_us", res.lat_us);
        report.add_scalar("fig1_" + label + "_minimal_fraction",
                          res.minimal_frac);
      }
    }
  }

  std::printf(
      "\n(every row passed its static per-lane CDG deadlock-freedom check; "
      "tables are bit-identical for any --jobs value)\n");

  if (!all_verified) return 1;
  return h.finish();
}
