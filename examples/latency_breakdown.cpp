// Where do the microseconds go? A measured, stage-by-stage decomposition of
// one GM message's latency on the Fig. 8 paths, computed from flight-recorder
// journeys (WormTimeline spans) rather than from the static cost model — the
// attribution telescopes, so the stages sum to the observed latency exactly.
//
//   $ ./latency_breakdown [payload_bytes]
//
// Runs the Fig. 8 ping-pong on both forward paths (plain up*/down* and
// up*/down* through one in-transit host) with the flight recorder armed,
// stitches the recordings into per-packet journeys, and prints:
//   * the mean per-stage latency on each path, side by side,
//   * the ITB-hop split (detect / wait / dma) behind the ~1.3 us figure,
//   * the measured per-ITB overhead at this payload size.
#include <cstdio>

#include "harness.hpp"
#include "itb/core/experiments.hpp"
#include "itb/flight/recorder.hpp"
#include "itb/flight/timeline.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

struct PathRun {
  workload::AllsizeRow pingpong;
  flight::Recording recording;
};

PathRun run_path(bool itb_path, std::size_t payload) {
  core::ClusterConfig cfg = core::fig8_config(itb_path);
  cfg.flight.enabled = true;
  core::Cluster cluster(std::move(cfg));
  PathRun r;
  r.pingpong = workload::run_pingpong(cluster.queue(),
                                      cluster.port(core::kHost1),
                                      cluster.port(core::kHost2), payload, 20);
  r.recording = cluster.flight()->snapshot();
  return r;
}

/// Mean nanoseconds per complete journey for one stage.
double mean_ns(const flight::WormTimeline& tl,
               sim::Duration flight::StageBreakdown::* field) {
  if (tl.complete_count() == 0) return 0;
  return static_cast<double>(tl.totals().*field) /
         static_cast<double>(tl.complete_count());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("latency_breakdown", 0);
  std::size_t payload = 256;
  h.cli.positional("payload_bytes", &payload, std::size_t{1},
                   std::size_t{1} << 20);
  h.parse(argc, argv);

  auto ud = run_path(/*itb_path=*/false, payload);
  auto itb = run_path(/*itb_path=*/true, payload);

  flight::WormTimeline tl_ud(ud.recording);
  flight::WormTimeline tl_itb(itb.recording);

  std::printf("Measured one-way breakdown for a %zu B GM payload on the "
              "Fig. 8 paths\n(mean ns per delivered packet, from flight-"
              "recorder journeys; the stages\ntelescope, so each column sums "
              "to the packet's observed latency):\n\n",
              payload);
  std::printf("  %-14s %12s %12s %12s\n", "stage", "UD(us)", "UD+ITB(us)",
              "delta(ns)");
  double sum_ud = 0, sum_itb = 0;
  for (const auto& sv : flight::stage_views()) {
    const double a = mean_ns(tl_ud, sv.field);
    const double b = mean_ns(tl_itb, sv.field);
    sum_ud += a;
    sum_itb += b;
    std::printf("  %-14s %12.3f %12.3f %12.1f\n", sv.name, a / 1000.0,
                b / 1000.0, b - a);
  }
  std::printf("  %-14s %12.3f %12.3f %12.1f\n", "total", sum_ud / 1000.0,
              sum_itb / 1000.0, sum_itb - sum_ud);
  std::printf("\n  journeys: %zu complete of %zu (UD), %zu of %zu (UD+ITB); "
              "max stage\n  residual %lld ns / %lld ns (0 = exact "
              "attribution)\n",
              tl_ud.complete_count(), tl_ud.journeys().size(),
              tl_itb.complete_count(), tl_itb.journeys().size(),
              static_cast<long long>(tl_ud.max_stage_residual()),
              static_cast<long long>(tl_itb.max_stage_residual()));

  const auto split = tl_itb.itb_hop_split();
  std::printf("\nPer-ITB forwarding cost (Fig. 8's ~1.3 us), mean over %zu "
              "recorded hops:\n",
              split.hops);
  auto line = [](const char* what, double ns) {
    std::printf("  %-42s %8.3f us\n", what, ns / 1000.0);
  };
  line("detect (eject -> Early Recv, 4 B + trigger)", split.detect_ns);
  line("wait (type probe, dispatch, DMA queueing)", split.wait_ns);
  line("dma (program + send DMA spin-up)", split.dma_ns);
  line("total in-NIC forwarding", split.total_ns());

  std::printf("\nmeasured per-ITB overhead at this size: %.3f us\n",
              2 * (itb.pingpong.half_rtt_ns - ud.pingpong.half_rtt_ns) /
                  1000.0);
  std::printf("(the overhead exceeds the in-NIC split by the two extra "
              "host-link\ncrossings — eject and re-inject — which the wire "
              "stage absorbs)\n");
  return 0;
}
