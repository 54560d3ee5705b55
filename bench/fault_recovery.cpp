// Incremental fault recovery at scale (headline bench for the recovery
// engine; committed numbers in BENCH_9.json).
//
// Sweeps three fabrics (64-host Clos, 256-host Clos, 1024-host fat tree)
// through three fault scenarios:
//   single — warm-up fault on the busiest trunk, then the measured
//            single-link fault cycle on the median trunk
//   flap   — one link oscillating through three down/up windows, driving
//            the quarantine + coalescing machinery
//   burst  — a switch plus two links inside one detection window with a
//            tight pending budget, driving storm-control degradation
// and runs every scenario twice: the incremental engine (scoped re-probe +
// table patching, patches verified against full solves) vs the PR 3
// baseline (full discovery + all-pairs solve every round). Reported per
// run: simulated recovery latency p50/p99 (first unabsorbed event ->
// table install, probe/solve costs charged per probe and per source),
// probe and source ratios, and the engine counters.
//
// `--jobs N`       threads for per-source route solves (0 = hw concurrency)
// `--max-hosts N`  skip sweep points with more than N hosts (CI runs 256)
// `--routes-out P` append the post-chaos scoped table dump (points <= 256)
//                  — CI byte-compares --jobs 1 vs --jobs 8
// `--no-verify`    skip the verify-against-full safety net (full 1024-host
//                  sweeps re-solve all pairs per patched round otherwise)
// `--json P`       itb.telemetry.v1 report
//
// Exit is nonzero when a verified patch mismatched a full solve, when the
// warmed single-fault round degraded to a full re-solve, or when the
// 1024-host single-link fault failed the >= 10x source-scoping bar.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/routing/table.hpp"
#include "itb/routing/updown.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Point {
  std::string label;
  topo::Topology topo;
  engine::EngineKind engine;
  // Chosen off the canonical boot table (below): the busiest trunk is
  // crossed by every source (the up*/down* funnel), the median trunk — like
  // most of the fabric — carries no stored routes.
  topo::LinkId median_trunk = 0;
  topo::LinkId busiest_trunk = 0;
  std::uint16_t victim_switch = 0;  // for the burst scenario
};

std::vector<Point> make_points() {
  std::vector<Point> pts;
  pts.push_back(
      {"clos64", topo::make_clos(4, 16, 4), engine::EngineKind::kItb});
  pts.push_back(
      {"clos256", topo::make_clos(8, 16, 16), engine::EngineKind::kItb});
  // The thousand-host headline measures recovery scaling; ITB-candidate
  // invalidation is exercised at the Clos points (an ITB solve at this size
  // would dominate the sweep's wall clock without changing the story).
  pts.push_back(
      {"ft1024", topo::make_fat_tree(16), engine::EngineKind::kUpDown});
  return pts;
}

// Pick victims off a table built in TRUE fabric coordinates (all links up,
// root at host 0's uplink switch) — identical to the recovery engine's own
// epoch-1 solve, so link ids and usage are the ones the engine will see.
void choose_victims(Point& pt, unsigned jobs) {
  const auto root = pt.topo.host_uplink(0).node.index;
  std::vector<char> all_up(pt.topo.link_count(), 1);
  const routing::UpDown ud(pt.topo, root, all_up);
  const routing::Router router(ud, routing::ItbHostSelection::kLowestIndex);
  const routing::RouteTable table(
      router, engine::make_engine({pt.engine, 1})->policy(), jobs);
  const auto usage = table.channel_usage(pt.topo);
  std::vector<std::pair<std::uint64_t, topo::LinkId>> trunks;
  for (topo::LinkId l = 0; l < pt.topo.link_count(); ++l) {
    const auto& link = pt.topo.link(l);
    if (link.a.node.kind == topo::NodeKind::kSwitch &&
        link.b.node.kind == topo::NodeKind::kSwitch &&
        !(link.a.node == link.b.node))
      trunks.push_back({usage[2 * l] + usage[2 * l + 1], l});
  }
  std::sort(trunks.begin(), trunks.end());
  pt.median_trunk = trunks[trunks.size() / 2].second;
  pt.busiest_trunk = trunks.back().second;
  // Burst: take down a non-root switch the busiest trunk touches.
  const auto& busy = pt.topo.link(pt.busiest_trunk);
  pt.victim_switch = busy.a.node.index != root ? busy.a.node.index
                                               : busy.b.node.index;
}

fault::FaultSchedule make_schedule(const Point& pt, const std::string& mode) {
  fault::FaultSchedule s;
  if (mode == "single") {
    s.link_down(pt.busiest_trunk, 1 * sim::kMs, 2 * sim::kMs);  // warm-up
    s.link_down(pt.median_trunk, 10 * sim::kMs, 12 * sim::kMs);
  } else if (mode == "flap") {
    s.link_down(pt.median_trunk, 1000 * sim::kUs, 1200 * sim::kUs);
    s.link_down(pt.median_trunk, 1400 * sim::kUs, 1600 * sim::kUs);
    s.link_down(pt.median_trunk, 1800 * sim::kUs, 2000 * sim::kUs);
  } else {  // burst: a switch and two more trunks inside one window
    s.switch_down(pt.victim_switch, 1 * sim::kMs, 3 * sim::kMs);
    s.link_down(pt.median_trunk, 1050 * sim::kUs, 3050 * sim::kUs);
    s.link_down(pt.busiest_trunk, 1100 * sim::kUs, 3100 * sim::kUs);
  }
  return s;
}

struct RunResult {
  fault::RecoveryManager::Stats stats;
  std::vector<fault::RecoveryManager::RoundInfo> rounds;
  double p50_ns = 0, p99_ns = 0, max_ns = 0;
  std::uint64_t epoch = 0;
  double wall_ms = 0;
  telemetry::LatencyHistogram latency;
};

RunResult run_scenario(const Point& pt, const std::string& mode,
                       bool incremental, bool verify, unsigned jobs,
                       std::ofstream* routes_out) {
  core::ClusterConfig cfg;
  cfg.topology = pt.topo;
  cfg.engine = {pt.engine, 1};
  cfg.route_solve_jobs = jobs;
  cfg.fault_schedule = make_schedule(pt, mode);
  cfg.recovery.incremental = incremental;
  cfg.recovery.verify_patches = incremental && verify;
  if (mode == "burst") cfg.recovery.max_pending_links = 8;

  const auto t0 = Clock::now();
  core::Cluster c(std::move(cfg));
  c.run();
  RunResult r;
  r.wall_ms = ms_since(t0);
  r.stats = c.recovery()->stats();
  r.rounds = c.recovery()->rounds();
  r.latency = c.recovery()->recovery_latency();
  if (!r.latency.empty()) {
    r.p50_ns = r.latency.percentile(50);
    r.p99_ns = r.latency.percentile(99);
    r.max_ns = static_cast<double>(r.latency.max());
  }
  r.epoch = c.recovery()->epoch();
  if (routes_out && *routes_out && pt.topo.host_count() <= 256 &&
      c.recovery()->current_table()) {
    *routes_out << "== " << pt.label << " " << mode << " ==\n";
    c.recovery()->current_table()->dump(*routes_out);
  }
  return r;
}

double ratio(std::uint64_t total, std::uint64_t part) {
  return static_cast<double>(total) / static_cast<double>(std::max<std::uint64_t>(part, 1));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("fault_recovery", bench::kJson | bench::kJobs |
                                         bench::kMaxHosts | bench::kRoutesOut |
                                         bench::kNoVerify);
  h.parse(argc, argv);
  const unsigned jobs = h.jobs;
  const bool verify = h.verify;

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
  report.set_param("verify", verify ? 1.0 : 0.0);

  std::printf(
      "Incremental recovery sweep: scoped re-probe + table patching vs full "
      "re-solve (--jobs %u%s, verify %s)\n\n",
      jobs, jobs == 0 ? " = hw concurrency" : "", verify ? "on" : "off");
  std::printf("%-8s %-7s %-7s | %6s %5s %5s | %10s %10s | %9s %9s\n", "point",
              "mode", "engine", "remaps", "full", "patch", "p50(us)",
              "p99(us)", "probes", "sources");

  bool failed = false;
  for (auto& pt : make_points()) {
    if (pt.topo.host_count() > h.max_hosts) continue;
    choose_victims(pt, jobs);

    for (const std::string mode : {"single", "flap", "burst"}) {
      RunResult res[2];
      for (const bool incremental : {true, false}) {
        auto& r = res[incremental ? 0 : 1];
        r = run_scenario(pt, mode, incremental, verify, jobs,
                         incremental && mode == "single" ? &routes_file
                                                         : nullptr);
        const char* engine = incremental ? "scoped" : "full";
        std::printf(
            "%-8s %-7s %-7s | %6llu %5llu %5llu | %10.1f %10.1f | %4llu/%-4llu "
            "%4llu/%-4llu\n",
            pt.label.c_str(), mode.c_str(), engine,
            static_cast<unsigned long long>(r.stats.remaps),
            static_cast<unsigned long long>(r.stats.full_resolves),
            static_cast<unsigned long long>(r.stats.patch_rounds),
            r.p50_ns / 1e3, r.p99_ns / 1e3,
            static_cast<unsigned long long>(r.stats.scoped_probes),
            static_cast<unsigned long long>(r.stats.full_probe_equiv),
            static_cast<unsigned long long>(r.stats.sources_patched),
            static_cast<unsigned long long>(r.stats.sources_total));

        if (r.stats.verify_fallbacks != 0) {
          std::fprintf(stderr,
                       "FAIL: %s/%s: %llu patched tables mismatched the full "
                       "solve\n",
                       pt.label.c_str(), mode.c_str(),
                       static_cast<unsigned long long>(r.stats.verify_fallbacks));
          failed = true;
        }

        if (h.json) {
          const std::string run = pt.label + "_" + mode + "_" + engine;
          telemetry::BenchReport::Row row;
          row.text["point"] = pt.label;
          row.text["mode"] = mode;
          row.text["engine"] = engine;
          row.num["hosts"] = static_cast<double>(pt.topo.host_count());
          row.num["switches"] = static_cast<double>(pt.topo.switch_count());
          row.num["remaps"] = static_cast<double>(r.stats.remaps);
          row.num["full_resolves"] = static_cast<double>(r.stats.full_resolves);
          row.num["patch_rounds"] = static_cast<double>(r.stats.patch_rounds);
          row.num["p50_ns"] = r.p50_ns;
          row.num["p99_ns"] = r.p99_ns;
          row.num["max_ns"] = r.max_ns;
          row.num["scoped_probes"] = static_cast<double>(r.stats.scoped_probes);
          row.num["full_probe_equiv"] =
              static_cast<double>(r.stats.full_probe_equiv);
          row.num["sources_patched"] =
              static_cast<double>(r.stats.sources_patched);
          row.num["sources_total"] = static_cast<double>(r.stats.sources_total);
          row.num["coalesced_events"] =
              static_cast<double>(r.stats.coalesced_events);
          row.num["flaps_quarantined"] =
              static_cast<double>(r.stats.flaps_quarantined);
          row.num["overflow_full_resolves"] =
              static_cast<double>(r.stats.overflow_full_resolves);
          row.num["verify_fallbacks"] =
              static_cast<double>(r.stats.verify_fallbacks);
          row.num["epoch"] = static_cast<double>(r.epoch);
          row.num["wall_ms"] = r.wall_ms;
          report.add_row("sweep", std::move(row));
          report.add_histogram("recovery_latency", run, r.latency);
        }
      }

      const auto& scoped = res[0];
      if (mode == "single") {
        // The measured fault cycle: rounds 2 (open) and 3 (close) after
        // the warm-up pair. The open must patch, not degrade.
        if (scoped.rounds.size() >= 4 && scoped.rounds[2].full) {
          std::fprintf(stderr,
                       "FAIL: %s: warmed single-link fault degraded to a "
                       "full re-solve\n",
                       pt.label.c_str());
          failed = true;
        }
        if (scoped.rounds.size() >= 4) {
          const auto& open = scoped.rounds[2];
          const double src_ratio =
              ratio(open.sources_total, open.sources_resolved);
          const double probe_ratio =
              ratio(open.full_walk_probes, open.probes);
          std::printf(
              "  -> %s single-fault open: %llu/%llu sources (%.0fx), "
              "%llu/%llu probes (%.0fx), latency %.1f us (full engine: "
              "%.1f us)\n",
              pt.label.c_str(),
              static_cast<unsigned long long>(open.sources_resolved),
              static_cast<unsigned long long>(open.sources_total), src_ratio,
              static_cast<unsigned long long>(open.probes),
              static_cast<unsigned long long>(open.full_walk_probes),
              probe_ratio,
              static_cast<double>(open.installed - open.fired) / 1e3,
              res[1].rounds.size() >= 3
                  ? static_cast<double>(res[1].rounds[2].installed -
                                        res[1].rounds[2].fired) /
                        1e3
                  : 0.0);
          if (h.json) {
            report.add_scalar("scoped_p99_ns_" + pt.label, scoped.p99_ns);
            report.add_scalar("full_p99_ns_" + pt.label, res[1].p99_ns);
            report.add_scalar("sources_ratio_" + pt.label, src_ratio);
            report.add_scalar("probes_ratio_" + pt.label, probe_ratio);
            report.add_scalar(
                "scoped_open_ns_" + pt.label,
                static_cast<double>(open.installed - open.fired));
            if (res[1].rounds.size() >= 3)
              report.add_scalar(
                  "full_open_ns_" + pt.label,
                  static_cast<double>(res[1].rounds[2].installed -
                                      res[1].rounds[2].fired));
          }
          if (pt.topo.host_count() >= 1024 && src_ratio < 10.0) {
            std::fprintf(stderr,
                         "FAIL: %s: single-link fault source ratio %.1fx "
                         "< 10x\n",
                         pt.label.c_str(), src_ratio);
            failed = true;
          }
        }
      } else if (h.json) {
        report.add_scalar(mode + "_scoped_p99_ns_" + pt.label, scoped.p99_ns);
      }
      if (mode == "flap" && scoped.stats.flaps_quarantined == 0) {
        std::fprintf(stderr, "FAIL: %s: flap scenario never quarantined\n",
                     pt.label.c_str());
        failed = true;
      }
      if (mode == "burst" && scoped.stats.overflow_full_resolves == 0) {
        std::fprintf(stderr,
                     "FAIL: %s: burst scenario never tripped storm control\n",
                     pt.label.c_str());
        failed = true;
      }
    }
  }

  std::printf(
      "\n(latencies are simulated first-event->install; probe/source costs "
      "charged at 1 us/probe + 2 us/source; patched tables %s)\n",
      verify ? "verified byte-identical against full solves"
             : "NOT verified (--no-verify)");
  report.add_scalar("verify_enabled", verify ? 1 : 0);
  const int rc = h.finish();
  return failed ? 1 : rc;
}
