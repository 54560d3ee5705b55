// Ablation of the §5 observation that "the latency through a switch
// depends on the type of traversed ports": the Fig. 8 methodology had to
// build both measurement paths over the same port-kind multiset. This
// bench quantifies the effect by timing the same 2-switch path with every
// LAN/SAN combination of host links.
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// combination table plus a half-RTT histogram and utilization series per
// combination (runs like "san_lan_san" for src_trunk_dst).
//
// `--jobs N` fans the eight independent port-kind combinations across N
// threads (default: hardware concurrency); output is bit-identical to
// `--jobs 1` because every combination owns its cluster.
#include <cstdio>
#include <string>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/flight/bench_support.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/telemetry/export.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

/// One combination's output, returned by value so the cluster can die on
/// its worker thread.
struct MeasureOutput {
  workload::AllsizeRow row;
  std::vector<telemetry::MetricSample> counters;
  std::vector<telemetry::Sampler::Series> series;
  health::LivenessVerdict liveness;  // --watchdog only
  flight::Recording recording;       // --flight only
};

MeasureOutput measure(topo::PortKind src_kind, topo::PortKind dst_kind,
                      topo::PortKind trunk_kind, std::size_t size,
                      bool sample, bool watchdog,
                      const flight::RecorderConfig& frc) {
  topo::Topology topo;
  topo.add_switch(8);
  topo.add_switch(8);
  topo.add_host();
  topo.add_host();
  topo.connect_switches(0, 0, 1, 0, trunk_kind);
  topo.attach_host(0, 0, 1, src_kind);
  topo.attach_host(1, 1, 1, dst_kind);

  core::ClusterConfig cfg;
  cfg.topology = std::move(topo);
  cfg.watchdog.enabled = watchdog;
  cfg.flight = frc;
  core::Cluster cluster(std::move(cfg));
  workload::AllsizeConfig acfg;
  acfg.iterations = 20;
  acfg.sizes = {size};
  if (sample) {
    acfg.sampler = &cluster.telemetry().sampler();
    cluster.telemetry().start_sampling();
  }
  MeasureOutput out;
  out.row = workload::run_allsize(cluster.queue(), cluster.port(0),
                                  cluster.port(1), acfg)
                .front();
  if (sample) {
    cluster.telemetry().stop_sampling();
    out.counters = cluster.telemetry().registry().snapshot();
    out.series = cluster.telemetry().sampler().series();
  }
  if (watchdog) out.liveness = cluster.health()->verdict();
  if (cluster.flight()) out.recording = cluster.flight()->snapshot();
  return out;
}

const char* name(topo::PortKind k) { return topo::to_string(k); }

}  // namespace

int main(int argc, char** argv) {
  using topo::PortKind;
  const auto json_path = telemetry::json_flag(argc, argv);
  const unsigned jobs = sim::jobs_flag(argc, argv).value_or(0);
  const bool watchdog = health::watchdog_flag(argc, argv);
  const auto fcli = flight::flight_flags(argc, argv);
  const std::size_t size = 256;

  telemetry::BenchReport report("ablation_port_kinds");
  report.set_param("message_bytes", static_cast<double>(size));
  report.set_param("iterations", 20);
  telemetry::BenchReport* rp = json_path ? &report : nullptr;

  std::printf("Ablation: switch latency by traversed port kinds\n");
  std::printf("(2-switch path, 256 B ping-pong, LAN ports re-time the "
              "signal)\n\n");
  std::printf("%8s %8s %8s %14s\n", "src", "trunk", "dst", "half-RTT(us)");

  struct Combo {
    PortKind src, trunk, dst;
  };
  std::vector<Combo> combos;
  for (auto src : {PortKind::kSan, PortKind::kLan})
    for (auto trunk : {PortKind::kSan, PortKind::kLan})
      for (auto dst : {PortKind::kSan, PortKind::kLan})
        combos.push_back({src, trunk, dst});

  // Eight independent clusters; fan out, then print/report in combo order.
  auto outputs = sim::run_sweep_parallel(
      combos.size(),
      [&](std::size_t i) {
        const Combo& c = combos[i];
        return measure(c.src, c.dst, c.trunk, size, rp != nullptr, watchdog,
                       fcli.recorder());
      },
      jobs);

  flight::BenchFlight bflight(fcli);
  health::LivenessVerdict liveness;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const auto& [src, trunk, dst] = combos[i];
    MeasureOutput& o = outputs[i];
    liveness.merge(o.liveness);
    if (fcli.enabled) bflight.add(std::move(o.recording));
    const std::string tag =
        std::string(name(src)) + "_" + name(trunk) + "_" + name(dst);
    std::printf("%8s %8s %8s %14.3f\n", name(src), name(trunk), name(dst),
                o.row.half_rtt_ns / 1000.0);
    if (rp) {
      rp->add_histogram("half_rtt", tag, o.row.hist);
      rp->add_counters(tag, std::move(o.counters));
      rp->add_series(tag, std::move(o.series));
    }
    telemetry::BenchReport::Row r;
    r.text["src"] = name(src);
    r.text["trunk"] = name(trunk);
    r.text["dst"] = name(dst);
    r.num["half_rtt_ns"] = o.row.half_rtt_ns;
    r.num["p50_ns"] = o.row.p50_ns;
    r.num["p99_ns"] = o.row.p99_ns;
    report.add_row("combinations", std::move(r));
  }
  std::printf("\nEach LAN port on the path adds a fixed re-timing penalty "
              "per traversal\n(default %lld ns); trunk LAN links are "
              "crossed by two fall-throughs and pay twice.\n",
              static_cast<long long>(net::NetTiming{}.lan_port_penalty_ns));
  if (watchdog) health::print_liveness_summary(liveness);
  if (!bflight.finish("ablation_port_kinds", rp)) return 1;

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
