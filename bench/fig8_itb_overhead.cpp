// Figure 8 reproduction: per-ITB latency overhead for in-transit packets.
//
// Methodology (paper §5): half-round-trip between host1 and host2 where the
// forward path either is a 5-switch-traversal up*/down* route (with a loop
// in switch 2) or crosses the in-transit host once (also 5 traversals, same
// port kinds). Only the forward leg differs, so the per-ITB overhead is
// twice the half-round-trip difference. The paper measures ~1.3 us per ITB
// (its earlier simulation estimate was ~0.5 us), with relative overhead
// falling from ~10% (short) to ~3% (long messages).
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// per-size table, half-RTT histograms and per-channel utilization series
// for both paths (runs "ud" and "itb").
//
// `--jobs N` fans the two independent clusters (ud, itb) across threads;
// output is bit-identical to `--jobs 1` because each point owns its
// cluster and results return by value.
//
// `--flight` records every packet's lifecycle, prints the critical-path
// breakdown and run fingerprint, and writes a Perfetto-loadable Chrome
// trace (default fig8_flight_trace.json; override with --flight-trace).
// `--flight-out <path>` saves the merged itb.flight.v1 recording, which CI
// diffs across --jobs values and commits.
#include <cstdio>

#include "harness.hpp"
#include "itb/core/experiments.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

std::vector<workload::AllsizeRow> run(core::Cluster& cluster,
                                      workload::AllsizeConfig cfg,
                                      bool sample) {
  if (sample) {
    cfg.sampler = &cluster.telemetry().sampler();
    cluster.telemetry().start_sampling();
  }
  auto rows = workload::run_allsize(cluster.queue(), cluster.port(core::kHost1),
                                    cluster.port(core::kHost2), cfg);
  if (sample) cluster.telemetry().stop_sampling();
  return rows;
}

/// One forward-path configuration, returned by value so the cluster can
/// die on the worker thread.
struct PathOutput {
  std::vector<workload::AllsizeRow> rows;
  std::uint64_t itb_forwarded = 0;
  std::uint64_t delivered_to_host = 0;
  std::vector<telemetry::MetricSample> counters;
  std::vector<telemetry::Sampler::Series> series;
  flight::Recording recording;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace itb;
  bench::Harness h("fig8_itb_overhead",
                   bench::kJson | bench::kJobs | bench::kFlight);
  h.parse(argc, argv);
  // Acceptance artifact: plain --flight still emits the Perfetto trace.
  if (h.flight && !h.flight_trace) h.flight_trace = "fig8_flight_trace.json";

  workload::AllsizeConfig cfg;
  cfg.iterations = 100;
  cfg.sizes = {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4000};

  // Point 0 = the UD forward route, point 1 = the UD+ITB route.
  auto outputs = sim::run_sweep_parallel(
      2,
      [&](std::size_t i) {
        auto cluster = core::make_fig8_cluster(/*itb_path=*/i == 1, {}, {}, {},
                                               h.recorder());
        PathOutput out;
        out.rows = run(*cluster, cfg, h.json.has_value());
        out.itb_forwarded = cluster->nic(core::kInTransit).stats().itb_forwarded;
        out.delivered_to_host =
            cluster->nic(core::kInTransit).stats().delivered_to_host;
        if (h.json) {
          out.counters = cluster->telemetry().registry().snapshot();
          out.series = cluster->telemetry().sampler().series();
        }
        if (cluster->flight()) out.recording = cluster->flight()->snapshot();
        return out;
      },
      h.jobs);
  const auto& rows_ud = outputs[0].rows;
  const auto& rows_itb = outputs[1].rows;

  std::printf("Figure 8: message latency overhead of the ITB mechanism\n");
  std::printf("(half-round-trip; both paths cross 5 switches and the same "
              "port kinds)\n\n");
  std::printf("%10s %12s %12s %14s %10s\n", "size(B)", "UD(us)", "UD-ITB(us)",
              "overhead(us)", "rel(%)");
  telemetry::BenchReport& report = h.report;
  report.set_param("iterations", cfg.iterations);
  double sum = 0;
  for (std::size_t i = 0; i < rows_ud.size(); ++i) {
    const double a = rows_ud[i].half_rtt_ns;
    const double b = rows_itb[i].half_rtt_ns;
    const double overhead = 2.0 * (b - a);  // one ITB in the round trip
    sum += overhead;
    std::printf("%10zu %12.2f %12.2f %14.3f %10.2f\n", rows_ud[i].size,
                a / 1000.0, b / 1000.0, overhead / 1000.0,
                100.0 * (b - a) / a);
    telemetry::BenchReport::Row row;
    row.num["size_bytes"] = static_cast<double>(rows_ud[i].size);
    row.num["ud_half_rtt_ns"] = a;
    row.num["itb_half_rtt_ns"] = b;
    row.num["ud_p99_ns"] = rows_ud[i].p99_ns;
    row.num["itb_p99_ns"] = rows_itb[i].p99_ns;
    row.num["per_itb_overhead_ns"] = overhead;
    row.num["rel_percent"] = 100.0 * (b - a) / a;
    report.add_row("overhead", std::move(row));
    const std::string hist_name =
        "half_rtt_" + std::to_string(rows_ud[i].size) + "B";
    report.add_histogram(hist_name, "ud", rows_ud[i].hist);
    report.add_histogram(hist_name, "itb", rows_itb[i].hist);
  }
  const double avg_overhead = sum / static_cast<double>(rows_ud.size());
  std::printf("\naverage per-ITB overhead: %.3f us   (paper: ~1.3 us)\n",
              avg_overhead / 1000.0);
  std::printf("overhead is flat in message size (virtual cut-through)\n");
  std::printf("relative overhead falls with size (paper: ~10%% -> ~3%%)\n");

  // Sanity: the in-transit NIC actually forwarded every ping in firmware.
  const auto forwarded = outputs[1].itb_forwarded;
  const auto delivered = outputs[1].delivered_to_host;
  std::printf("\nin-transit NIC forwarded %llu packets, delivered %llu to "
              "its host\n",
              static_cast<unsigned long long>(forwarded),
              static_cast<unsigned long long>(delivered));

  for (auto& o : outputs) h.add_recording(std::move(o.recording));
  report.add_scalar("average_per_itb_overhead_ns", avg_overhead);
  report.add_scalar("itb_forwarded", static_cast<double>(forwarded));
  report.add_scalar("itb_delivered_to_host", static_cast<double>(delivered));
  report.add_counters("ud", std::move(outputs[0].counters));
  report.add_counters("itb", std::move(outputs[1].counters));
  report.add_series("ud", std::move(outputs[0].series));
  report.add_series("itb", std::move(outputs[1].series));
  return h.finish();
}
