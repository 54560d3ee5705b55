// Scale study: the mapper + ITB pipeline from 16 hosts to a thousand-host
// fabric (ROADMAP "Scale to thousand-host fabrics").
//
// The paper evaluates on a 3-host testbed and cites simulation studies on
// ~32-switch COWs; the natural question is whether the mechanism — and our
// reproduction of GM's mapper — survives three orders of magnitude. This
// bench sweeps four families:
//   cow      — random irregular COWs (the prior-work methodology, scaled)
//   fattree  — k-ary fat trees, k = 4/8/16 (16/128/1024 hosts)
//   clos     — two-level leaf-spine
//   ring     — the worst case for up*/down* detours
// and per point reports: mapper probe count, static route metrics (trunk
// hops, minimal fraction, ITBs/route, peak and spanning-tree-root channel
// usage), and a short uniform-traffic run with accepted throughput +
// latency for up*/down* vs ITB. Stdout carries only simulated numbers; the
// discovery and per-policy route-solve wall-clock (parallel block solves,
// --jobs) go to the JSON rows as discover_ms and solve_ms, the latter the
// median of kSolves solves so one cold solve's heap state does not set it.
//
// `--jobs N`       threads for the per-source route solves (0 = hardware
//                  concurrency, the default). Tables are bit-identical for
//                  any value.
// `--max-hosts N`  skip sweep points with more than N hosts (CI runs 256).
// `--routes-out P` append every computed table's canonical dump to P
//                  (points with <= 256 hosts only). CI byte-compares the
//                  --jobs 1 and --jobs 8 artifacts; no timings go in here.
// `--json P`       itb.telemetry.v1 report with the sweep table.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;
using Clock = std::chrono::steady_clock;

constexpr int kSolves = 3;  // route solves per policy and point

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Point {
  std::string family;
  std::string label;
  topo::Topology topo;
};

std::vector<Point> make_points() {
  std::vector<Point> pts;
  auto cow = [&](std::uint16_t switches) {
    sim::Rng rng(2001);
    topo::IrregularSpec spec;
    spec.switches = switches;
    spec.hosts_per_switch = 4;
    pts.push_back(Point{"cow", "cow" + std::to_string(switches),
                        topo::make_random_irregular(spec, rng)});
  };
  cow(4);
  cow(16);
  cow(32);
  cow(64);
  cow(128);
  for (std::uint8_t k : {std::uint8_t{4}, std::uint8_t{8}, std::uint8_t{16}})
    pts.push_back(Point{"fattree", "ft" + std::to_string(k),
                        topo::make_fat_tree(k)});
  pts.push_back(Point{"clos", "clos4x8", topo::make_clos(4, 8, 8)});
  pts.push_back(Point{"clos", "clos8x32", topo::make_clos(8, 32, 8)});
  auto ring = [&](std::uint16_t switches) {
    pts.push_back(Point{"ring", "ring" + std::to_string(switches),
                        topo::make_ring(switches, 2)});
  };
  ring(8);
  ring(32);
  ring(128);
  return pts;
}

struct PolicyResult {
  double solve_ms = 0;
  double avg_hops = 0;
  double minimal_frac = 0;
  double avg_itbs = 0;
  std::uint32_t peak_usage = 0;
  std::uint32_t root_usage = 0;  // peak over channels at the tree root
  double accepted = 0;           // msgs/s/host
  double lat_us = 0;
  double p99_us = 0;
};

/// Peak directed-channel usage over trunks incident to the spanning-tree
/// root — the congestion up*/down* concentrates and ITBs spread out.
std::uint32_t root_peak(const std::vector<std::uint32_t>& usage,
                        const topo::Topology& topo, std::uint16_t root) {
  std::uint32_t peak = 0;
  for (topo::LinkId lid : topo.links_of(topo::switch_id(root))) {
    const auto& l = topo.link(lid);
    if (l.a.node.kind != topo::NodeKind::kSwitch ||
        l.b.node.kind != topo::NodeKind::kSwitch)
      continue;
    peak = std::max({peak, usage[2 * lid], usage[2 * lid + 1]});
  }
  return peak;
}

/// Traffic run: the table is handed to the cluster as manual routes so the
/// mapper (already measured separately) is not re-run per policy.
void run_traffic(const topo::Topology& fabric,
                 const routing::RouteTable& table, PolicyResult& out) {
  const auto hosts = fabric.host_count();
  std::vector<std::vector<std::vector<packet::Route>>> manual(
      hosts, std::vector<std::vector<packet::Route>>(hosts));
  for (std::uint16_t s = 0; s < hosts; ++s)
    for (std::uint16_t d = 0; d < hosts; ++d)
      if (s != d) manual[s][d] = table.route(s, d).segments();

  core::ClusterConfig cfg;
  cfg.topology = fabric;
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
  bench::Harness h("scale_topology", bench::kJson | bench::kJobs |
                                         bench::kMaxHosts | bench::kRoutesOut);
  h.parse(argc, argv);
  const unsigned jobs = h.jobs;

  std::ofstream routes_file;
  if (h.routes_out) {
    routes_file.open(*h.routes_out);
    if (!routes_file) {
      std::fprintf(stderr, "cannot write %s\n", h.routes_out->c_str());
      return 1;
    }
  }

  telemetry::BenchReport& report = h.report;
  report.set_param("jobs", static_cast<double>(jobs));

  std::printf(
      "Scale sweep: mapper discovery + parallel route solve + traffic "
      "(--jobs %u%s)\n\n",
      jobs, jobs == 0 ? " = hw concurrency" : "");
  std::printf("%-10s %6s %6s | %8s | %23s | %23s\n", "point", "sw", "hosts",
              "probes", "UD acc/lat/p99", "ITB acc/lat/p99");

  for (auto& pt : make_points()) {
    if (pt.topo.host_count() > h.max_hosts) continue;

    auto t0 = Clock::now();
    const auto disc = mapper::discover(pt.topo, 0);
    const double disc_ms = ms_since(t0);

    // Orient + solve on the discovered graph, exactly as mapper::run does.
    routing::UpDown updown(disc.discovered, 0);
    routing::Router router(updown);

    PolicyResult res[2];
    const routing::Policy policies[2] = {routing::Policy::kUpDown,
                                         routing::Policy::kItb};
    for (int p = 0; p < 2; ++p) {
      std::optional<routing::RouteTable> solved;
      std::array<double, kSolves> solve_ms;
      for (double& ms : solve_ms) {
        solved.reset();
        t0 = Clock::now();
        solved.emplace(router, policies[p], jobs);
        ms = ms_since(t0);
      }
      std::nth_element(solve_ms.begin(), solve_ms.begin() + kSolves / 2,
                       solve_ms.end());
      res[p].solve_ms = solve_ms[kSolves / 2];
      const routing::RouteTable& table = *solved;
      res[p].avg_hops = table.average_trunk_hops();
      res[p].minimal_frac = table.minimal_fraction(router, jobs);
      res[p].avg_itbs = table.average_itbs();
      const auto usage = table.channel_usage(disc.discovered);
      for (auto u : usage) res[p].peak_usage = std::max(res[p].peak_usage, u);
      res[p].root_usage = root_peak(usage, disc.discovered, updown.root());
      if (routes_file && pt.topo.host_count() <= 256) {
        routes_file << "== " << pt.label << " ==\n";
        table.dump(routes_file);
      }
      run_traffic(pt.topo, table, res[p]);
    }

    std::printf(
        "%-10s %6zu %6zu | %8llu | %9.0f %6.1f %6.1f | %9.0f %6.1f %6.1f\n",
        pt.label.c_str(), pt.topo.switch_count(), pt.topo.host_count(),
        static_cast<unsigned long long>(disc.probes_sent), res[0].accepted,
        res[0].lat_us, res[0].p99_us, res[1].accepted, res[1].lat_us,
        res[1].p99_us);

    if (h.json) {
      for (int p = 0; p < 2; ++p) {
        telemetry::BenchReport::Row row;
        row.text["point"] = pt.label;
        row.text["family"] = pt.family;
        row.text["policy"] = p == 0 ? "ud" : "itb";
        row.num["switches"] = static_cast<double>(pt.topo.switch_count());
        row.num["hosts"] = static_cast<double>(pt.topo.host_count());
        row.num["probes"] = static_cast<double>(disc.probes_sent);
        row.num["discover_ms"] = disc_ms;
        row.num["solve_ms"] = res[p].solve_ms;
        row.num["avg_trunk_hops"] = res[p].avg_hops;
        row.num["minimal_fraction"] = res[p].minimal_frac;
        row.num["avg_itbs"] = res[p].avg_itbs;
        row.num["peak_channel_usage"] = res[p].peak_usage;
        row.num["root_channel_usage"] = res[p].root_usage;
        row.num["accepted_msgs_per_s"] = res[p].accepted;
        row.num["latency_mean_us"] = res[p].lat_us;
        row.num["latency_p99_us"] = res[p].p99_us;
        report.add_row("scale", std::move(row));
      }
    }
  }

  std::printf(
      "\n(static metrics and root congestion per point are in the JSON "
      "report; route tables are bit-identical for any --jobs value)\n");

  return h.finish();
}
