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

#include "harness.hpp"
#include "itb/core/experiments.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

/// One {options, size} measurement pair, returned by value so both
/// clusters can die on the worker thread.
struct OverheadOutput {
  double overhead_ns = 0;
  telemetry::LatencyHistogram ud_hist;
  telemetry::LatencyHistogram itb_hist;
};

/// A pair with a `tag` samples its ITB-path cluster and captures it under
/// the tag; `sample` keeps the half-RTT histograms.
OverheadOutput itb_overhead(const nic::McpOptions& options, std::size_t size,
                            bool sample, const std::string& tag,
                            bench::Point& p) {
  core::Cluster ud(p.arm(core::fig8_config(false, options)));
  core::Cluster itb(p.arm(core::fig8_config(true, options)));
  if (sample) itb.telemetry().start_sampling();
  auto a = workload::run_pingpong(ud.queue(), ud.port(core::kHost1),
                                  ud.port(core::kHost2), size, 20);
  workload::AllsizeConfig cfg;
  cfg.iterations = 20;
  cfg.sizes = {size};
  if (sample) cfg.sampler = &itb.telemetry().sampler();
  auto b = workload::run_allsize(itb.queue(), itb.port(core::kHost1),
                                 itb.port(core::kHost2), cfg)
               .front();
  OverheadOutput out;
  out.overhead_ns = 2.0 * (b.half_rtt_ns - a.half_rtt_ns);
  if (sample) {
    out.ud_hist = a.hist;
    out.itb_hist = b.hist;
  }
  // Two recordings: handles are only unique per cluster, so the timeline
  // must stitch each on its own.
  p.capture(ud);
  p.capture(itb, tag);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_early_recv", bench::kSweep);
  h.parse(argc, argv);
  const std::size_t sizes[] = {16, 256, 1024, 4000};

  telemetry::BenchReport& report = h.report;
  report.set_param("iterations", 20);
  telemetry::BenchReport* rp = h.json_report();

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

  // 4 sizes x 4 variants = 16 independent measurement pairs. Series from
  // every configuration would be repetitive; the paper MCP's are the
  // reference picture of the ITB path under ping-pong.
  auto tag_of = [&](std::size_t i) {
    return std::string(variants[i % std::size(variants)].run) + "_" +
           std::to_string(sizes[i / std::size(variants)]) + "B";
  };
  auto outputs = h.sweep(
      std::size(sizes) * std::size(variants),
      [&](std::size_t i, bench::Point& p) {
        const std::size_t vi = i % std::size(variants);
        return itb_overhead(variants[vi].options,
                            sizes[i / std::size(variants)], rp != nullptr,
                            rp && vi == 0 ? tag_of(i) : "", p);
      });

  for (std::size_t si = 0; si < std::size(sizes); ++si) {
    const std::size_t size = sizes[si];
    double overhead[std::size(variants)];
    for (std::size_t vi = 0; vi < std::size(variants); ++vi) {
      const std::size_t i = si * std::size(variants) + vi;
      const OverheadOutput& o = outputs[i];
      overhead[vi] = o.overhead_ns;
      if (rp) {
        rp->add_histogram("ud_half_rtt", tag_of(i), o.ud_hist);
        rp->add_histogram("itb_half_rtt", tag_of(i), o.itb_hist);
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
  return h.finish();
}
