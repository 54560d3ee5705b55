// Figure 7 reproduction: overhead of the ITB-capable MCP on normal traffic.
//
// Methodology (paper §5): gm_allsize half-round-trip between host1 and
// host2 over up*/down* routes crossing 2.5 switches on average, 100
// iterations per size, original vs modified MCP. The paper reports the
// latency difference "does not exceed 300 ns and, on average, is equal to
// 125 ns", with relative overhead falling from ~1% (short) to ~0.4% (long).
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// per-size table, half-RTT histograms and per-channel utilization series
// for both MCPs (runs "orig" and "mod").
//
// `--flight` records packet lifecycles on both clusters and prints the
// critical-path breakdown; `--flight-out`/`--flight-trace` save the merged
// recording / the Perfetto-loadable Chrome trace.
#include <cstdio>

#include "harness.hpp"
#include "itb/core/experiments.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

/// Under --json the MCP's cluster is sampled and captured as `run`.
std::vector<workload::AllsizeRow> run_mcp(bool modified_mcp,
                                          workload::AllsizeConfig cfg,
                                          const std::string& run,
                                          bench::Point& p) {
  core::Cluster cluster(p.arm(core::fig7_config(modified_mcp)));
  if (!run.empty()) {
    cfg.sampler = &cluster.telemetry().sampler();
    cluster.telemetry().start_sampling();
  }
  auto rows = workload::run_allsize(cluster.queue(), cluster.port(core::kHost1),
                                    cluster.port(core::kHost2), cfg);
  p.capture(cluster, run);
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace itb;
  bench::Harness h("fig7_code_overhead", bench::kJson | bench::kFlight);
  h.parse(argc, argv);

  workload::AllsizeConfig cfg;
  cfg.iterations = 100;
  // Single-packet GM messages, like the paper's sweep.
  cfg.sizes = {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4000};

  // Point 0 = the original MCP, point 1 = the modified one.
  auto rows = h.sweep(2, [&](std::size_t i, bench::Point& p) {
    return run_mcp(/*modified_mcp=*/i == 1, cfg,
                   h.json ? (i ? "mod" : "orig") : "", p);
  });
  const auto& rows_orig = rows[0];
  const auto& rows_mod = rows[1];

  std::printf("Figure 7: message latency overhead of the new GM/MCP code\n");
  std::printf("(half-round-trip, host1 <-> host2, up*/down* routes, 100 iters)\n\n");
  std::printf("%10s %14s %14s %12s %10s\n", "size(B)", "original(us)",
              "modified(us)", "delta(ns)", "rel(%)");
  telemetry::BenchReport& report = h.report;
  report.set_param("iterations", cfg.iterations);
  double sum_delta = 0, max_delta = 0;
  for (std::size_t i = 0; i < rows_orig.size(); ++i) {
    const double a = rows_orig[i].half_rtt_ns;
    const double b = rows_mod[i].half_rtt_ns;
    const double delta = b - a;
    sum_delta += delta;
    if (delta > max_delta) max_delta = delta;
    std::printf("%10zu %14.2f %14.2f %12.1f %10.2f\n", rows_orig[i].size,
                a / 1000.0, b / 1000.0, delta, 100.0 * delta / a);
    telemetry::BenchReport::Row row;
    row.num["size_bytes"] = static_cast<double>(rows_orig[i].size);
    row.num["orig_half_rtt_ns"] = a;
    row.num["mod_half_rtt_ns"] = b;
    row.num["orig_p99_ns"] = rows_orig[i].p99_ns;
    row.num["mod_p99_ns"] = rows_mod[i].p99_ns;
    row.num["delta_ns"] = delta;
    row.num["rel_percent"] = 100.0 * delta / a;
    report.add_row("overhead", std::move(row));
    const std::string hist_name =
        "half_rtt_" + std::to_string(rows_orig[i].size) + "B";
    report.add_histogram(hist_name, "orig", rows_orig[i].hist);
    report.add_histogram(hist_name, "mod", rows_mod[i].hist);
  }
  const double avg_delta = sum_delta / static_cast<double>(rows_orig.size());
  std::printf("\naverage delta: %.1f ns   (paper: ~125 ns)\n", avg_delta);
  std::printf("maximum delta: %.1f ns   (paper: < 300 ns)\n", max_delta);
  std::printf("relative overhead falls with size (paper: ~1%% -> ~0.4%%)\n");

  report.add_scalar("average_delta_ns", avg_delta);
  report.add_scalar("maximum_delta_ns", max_delta);
  return h.finish();
}
