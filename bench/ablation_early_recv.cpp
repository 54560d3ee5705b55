// Ablation of the two §4 design choices in the ITB MCP:
//   * Early Recv detection (at 4 bytes) vs late detection (at completion):
//     late detection loses virtual cut-through, so its penalty grows with
//     message length — one full store-and-forward per ITB.
//   * Recv-side re-injection (the Recv machine programs the send DMA
//     itself) vs going back through the event handler: one dispatching
//     cycle of difference, constant in message length.
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// overhead table, half-RTT histograms per configuration, and — for the
// paper MCP only — the ITB-path cluster's utilization series and counters.
//
// `--jobs N` fans the sixteen independent {size, MCP options} measurement
// pairs across N threads (default: hardware concurrency); output is
// bit-identical to `--jobs 1` because every pair owns its two clusters.
#include <cstdio>
#include <string>
#include <vector>

#include "itb/core/experiments.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/flight/bench_support.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/telemetry/export.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

/// One {options, size} measurement pair, returned by value so both
/// clusters can die on the worker thread.
struct OverheadOutput {
  double overhead_ns = 0;
  telemetry::LatencyHistogram ud_hist;
  telemetry::LatencyHistogram itb_hist;
  std::vector<telemetry::MetricSample> counters;  // want_series pairs only
  std::vector<telemetry::Sampler::Series> series;
  health::LivenessVerdict liveness;  // --watchdog only, both clusters merged
  // --flight only. Kept separate: handles are only unique per cluster, so
  // the timeline must stitch each recording on its own.
  flight::Recording ud_recording;
  flight::Recording itb_recording;
};

OverheadOutput itb_overhead(const nic::McpOptions& options, std::size_t size,
                            bool sample, bool want_series, bool watchdog,
                            const flight::RecorderConfig& frc) {
  health::WatchdogConfig wc;
  wc.enabled = watchdog;
  auto ud = core::make_fig8_cluster(false, options, {}, wc, frc);
  auto itb = core::make_fig8_cluster(true, options, {}, wc, frc);
  if (sample) itb->telemetry().start_sampling();
  auto a = workload::run_pingpong(ud->queue(), ud->port(core::kHost1),
                                  ud->port(core::kHost2), size, 20);
  workload::AllsizeConfig cfg;
  cfg.iterations = 20;
  cfg.sizes = {size};
  if (sample) cfg.sampler = &itb->telemetry().sampler();
  auto b = workload::run_allsize(itb->queue(), itb->port(core::kHost1),
                                 itb->port(core::kHost2), cfg)
               .front();
  OverheadOutput out;
  out.overhead_ns = 2.0 * (b.half_rtt_ns - a.half_rtt_ns);
  if (sample) {
    out.ud_hist = a.hist;
    out.itb_hist = b.hist;
    itb->telemetry().stop_sampling();
    // Series from every configuration would be repetitive; keep the paper
    // MCP's as the reference picture of the ITB path under ping-pong.
    if (want_series) {
      out.counters = itb->telemetry().registry().snapshot();
      out.series = itb->telemetry().sampler().series();
    }
  }
  if (watchdog) {
    out.liveness = ud->health()->verdict();
    out.liveness.merge(itb->health()->verdict());
  }
  if (ud->flight()) {
    out.ud_recording = ud->flight()->snapshot();
    out.itb_recording = itb->flight()->snapshot();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = telemetry::json_flag(argc, argv);
  const unsigned jobs = sim::jobs_flag(argc, argv).value_or(0);
  const bool watchdog = health::watchdog_flag(argc, argv);
  const auto fcli = flight::flight_flags(argc, argv);
  const std::size_t sizes[] = {16, 256, 1024, 4000};

  telemetry::BenchReport report("ablation_early_recv");
  report.set_param("iterations", 20);
  telemetry::BenchReport* rp = json_path ? &report : nullptr;

  std::printf("Ablation: Early Recv event and Recv-side re-injection\n");
  std::printf("(per-ITB overhead in us, Fig. 8 methodology)\n\n");
  std::printf("%10s %12s %14s %16s %18s\n", "size(B)", "paper MCP",
              "no early-recv", "no recv-side", "neither");

  struct Variant {
    const char* run;
    nic::McpOptions options;
  };
  nic::McpOptions paper;                    // both optimisations on
  nic::McpOptions late = paper;
  late.early_recv = false;
  nic::McpOptions dispatch = paper;
  dispatch.recv_side_reinjection = false;
  nic::McpOptions neither = paper;
  neither.early_recv = false;
  neither.recv_side_reinjection = false;
  const Variant variants[] = {{"paper", paper},
                              {"no_early_recv", late},
                              {"no_recv_side", dispatch},
                              {"neither", neither}};

  // 4 sizes x 4 variants = 16 independent measurement pairs.
  auto outputs = sim::run_sweep_parallel(
      std::size(sizes) * std::size(variants),
      [&](std::size_t i) {
        const std::size_t size = sizes[i / std::size(variants)];
        const Variant& v = variants[i % std::size(variants)];
        return itb_overhead(v.options, size, rp != nullptr,
                            std::string_view(v.run) == "paper", watchdog,
                            fcli.recorder());
      },
      jobs);

  flight::BenchFlight bflight(fcli);
  if (fcli.enabled) {
    for (auto& o : outputs) {
      bflight.add(std::move(o.ud_recording));
      bflight.add(std::move(o.itb_recording));
    }
  }

  health::LivenessVerdict liveness;
  for (std::size_t si = 0; si < std::size(sizes); ++si) {
    const std::size_t size = sizes[si];
    double overhead[std::size(variants)];
    for (std::size_t vi = 0; vi < std::size(variants); ++vi) {
      OverheadOutput& o = outputs[si * std::size(variants) + vi];
      liveness.merge(o.liveness);
      overhead[vi] = o.overhead_ns;
      if (rp) {
        const std::string tag =
            std::string(variants[vi].run) + "_" + std::to_string(size) + "B";
        rp->add_histogram("ud_half_rtt", tag, o.ud_hist);
        rp->add_histogram("itb_half_rtt", tag, o.itb_hist);
        if (std::string_view(variants[vi].run) == "paper") {
          rp->add_counters(tag, std::move(o.counters));
          rp->add_series(tag, std::move(o.series));
        }
      }
    }
    std::printf("%10zu %12.3f %14.3f %16.3f %18.3f\n", size,
                overhead[0] / 1000.0, overhead[1] / 1000.0,
                overhead[2] / 1000.0, overhead[3] / 1000.0);
    telemetry::BenchReport::Row row;
    row.num["size_bytes"] = static_cast<double>(size);
    row.num["paper_mcp_ns"] = overhead[0];
    row.num["no_early_recv_ns"] = overhead[1];
    row.num["no_recv_side_ns"] = overhead[2];
    row.num["neither_ns"] = overhead[3];
    report.add_row("per_itb_overhead", std::move(row));
  }
  std::printf("\nExpected: the paper MCP is flat (~1.3 us); dropping Early "
              "Recv makes the\noverhead grow with message size "
              "(store-and-forward); dropping Recv-side\nre-injection adds "
              "one dispatch cycle (%d LANai cycles).\n",
              nic::LanaiTiming{}.dispatch);
  if (watchdog) health::print_liveness_summary(liveness);
  if (!bflight.finish("ablation_early_recv", rp)) return 1;

  if (json_path) {
    if (watchdog) health::add_liveness_scalars(report, liveness);
    if (!report.write(*json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("\nJSON report written to %s\n", json_path->c_str());
  }
  return 0;
}
