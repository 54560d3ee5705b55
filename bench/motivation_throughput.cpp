// Motivation experiment (paper §1-2, from refs [2,3]): ITB routing versus
// up*/down* on medium irregular networks.
//
// The paper's premise is that the simulation studies it builds on showed
// "network throughput can be easily doubled and, in some cases, tripled"
// by ITB routing, thanks to (a) minimal paths, (b) traffic balanced away
// from the spanning-tree root, and (c) reduced wormhole contention. This
// bench regenerates that comparison: a random irregular COW, uniform
// traffic, offered-load sweep, accepted throughput and latency for both
// policies, plus the static route metrics behind the effect.
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// sweep and route-metric tables, per-rate latency histograms, and — for
// the highest offered load only (the saturated regime, where the channel
// picture is interesting) — per-channel utilization series and registry
// counters for both policies (runs "ud" and "itb").
//
// `--jobs N` fans the 16 independent {policy, rate} points across N
// threads (default: hardware concurrency). Every point builds its own
// cluster from the seed, so results are bit-identical to `--jobs 1`.
//
// `--flight` records packet lifecycles on every point and prints the
// merged critical-path breakdown and run fingerprint;
// `--flight-out`/`--flight-trace` save the recording / Chrome trace.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;

struct SweepPoint {
  double offered;   // msgs/s/host
  double accepted;  // msgs/s/host
  double lat_us;
  double p99_us;
};

/// The prior-work network model ([2,3]): 8-port switches, 4 hosts on each,
/// the remaining ports wired irregularly. That leaves at most 4 trunk
/// ports per switch, so spanning-tree routing detours and concentrates
/// traffic near the root — the regime the ITB mechanism targets.
topo::Topology make_network(std::uint64_t seed) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 32;
  spec.hosts_per_switch = 4;
  return topo::make_random_irregular(spec, rng);
}

/// One {policy, rate} point; a point with a `run` tag is sampled and
/// captured under it.
workload::LoadResult run_point(engine::EngineKind kind, std::uint64_t seed,
                               double rate, const std::string& run,
                               bench::Point& p) {
  core::ClusterConfig cfg;
  cfg.topology = make_network(seed);
  cfg.engine = {kind, 1};
  // Loaded-network configuration (paper §4): the two-buffer shipped MCP
  // can deadlock through buffer-wait cycles once in-transit packets hold
  // receive buffers while their re-injection blocks; the proposed
  // circular buffer pool (accept, drop when full, GM retransmits) breaks
  // the cycle. Applied to both policies for a fair comparison.
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  // Deep send queues so the fabric, not GM token flow control, is what
  // saturates; a patient retransmit timer avoids go-back-N storms.
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  // Coarse sampling: the 12 ms run yields ~24 points per channel.
  cfg.telemetry_sample_period = 500 * sim::kUs;
  core::Cluster cluster(p.arm(std::move(cfg)));

  if (!run.empty()) cluster.telemetry().start_sampling();

  workload::LoadConfig lc;
  lc.message_bytes = 512;
  lc.arrivals.rate_per_s = rate;
  lc.warmup = 2 * sim::kMs;
  lc.measure = 8 * sim::kMs;
  lc.arrivals.seed = seed + 17;
  auto load = workload::run_load(cluster.queue(), cluster.ports(), lc);
  p.capture(cluster, run);
  return load;
}

std::vector<SweepPoint> sweep(engine::EngineKind kind, std::uint64_t seed,
                              const std::vector<double>& rates,
                              const std::string& run, bench::Harness& h) {
  telemetry::BenchReport* report = h.json_report();
  // Every rate is an independent simulation. Counters and time series only
  // at the saturating rate, under --json: 128 channels x 8 rates would
  // swamp the report without adding information.
  auto outputs = h.sweep(rates.size(), [&](std::size_t i, bench::Point& p) {
    const bool sample = report && i + 1 == rates.size();
    return run_point(kind, seed, rates[i], sample ? run : "", p);
  });

  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const workload::LoadResult& r = outputs[i];
    points.push_back(SweepPoint{rate, r.accepted_msgs_per_s_per_host,
                                r.latency_mean_ns / 1000.0,
                                r.latency_p99_ns / 1000.0});
    if (report) {
      telemetry::BenchReport::Row row;
      row.text["policy"] = run;
      row.num["offered_msgs_per_s"] = rate;
      row.num["accepted_msgs_per_s"] = r.accepted_msgs_per_s_per_host;
      row.num["latency_mean_ns"] = r.latency_mean_ns;
      row.num["latency_p50_ns"] = r.latency_p50_ns;
      row.num["latency_p95_ns"] = r.latency_p95_ns;
      row.num["latency_p99_ns"] = r.latency_p99_ns;
      row.num["latency_p999_ns"] = r.latency_p999_ns;
      row.num["sends_refused"] = static_cast<double>(r.sends_refused);
      row.num["retransmissions"] = static_cast<double>(r.retransmissions);
      report->add_row("sweep", std::move(row));
      report->add_histogram("latency_rate_" + std::to_string(int(rate)), run,
                            r.latency_hist);
    }
  }
  return points;
}

double saturation_throughput(const std::vector<SweepPoint>& pts) {
  double best = 0;
  for (const auto& p : pts) best = std::max(best, p.accepted);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("motivation_throughput", bench::kSweep);
  h.parse(argc, argv);
  const std::uint64_t seed = 2001;
  const std::vector<double> rates = {2.5e3, 5e3,   1e4,   1.5e4,
                                     2e4,   2.5e4, 3e4,   4e4};

  telemetry::BenchReport& report = h.report;
  report.set_param("seed", static_cast<double>(seed));
  report.set_param("message_bytes", 512);

  // Static route metrics first: the mechanism behind the throughput gap.
  {
    auto topo = make_network(seed);
    routing::UpDown ud(topo);
    routing::Router router(ud);
    routing::RouteTable t_ud(router, routing::Policy::kUpDown);
    routing::RouteTable t_itb(router, routing::Policy::kItb);
    auto peak = [](const std::vector<std::uint32_t>& v) {
      std::uint32_t m = 0;
      for (auto x : v) m = std::max(m, x);
      return m;
    };
    std::printf("Motivation: %zu-switch irregular COW, %zu hosts (seed %llu)\n\n",
                topo.switch_count(), topo.host_count(),
                static_cast<unsigned long long>(seed));
    std::printf("route metrics            %12s %12s\n", "up*/down*", "UD+ITB");
    std::printf("avg trunk hops           %12.3f %12.3f\n",
                t_ud.average_trunk_hops(), t_itb.average_trunk_hops());
    std::printf("minimal-path fraction    %12.3f %12.3f\n",
                t_ud.minimal_fraction(router), t_itb.minimal_fraction(router));
    std::printf("avg ITBs per route       %12.3f %12.3f\n", t_ud.average_itbs(),
                t_itb.average_itbs());
    std::printf("peak channel usage       %12u %12u  (root congestion)\n",
                peak(t_ud.channel_usage(topo)), peak(t_itb.channel_usage(topo)));
    for (const auto* entry : {&t_ud, &t_itb}) {
      telemetry::BenchReport::Row row;
      row.text["policy"] = entry == &t_ud ? "ud" : "itb";
      row.num["avg_trunk_hops"] = entry->average_trunk_hops();
      row.num["minimal_fraction"] = entry->minimal_fraction(router);
      row.num["avg_itbs"] = entry->average_itbs();
      row.num["peak_channel_usage"] = peak(entry->channel_usage(topo));
      report.add_row("route_metrics", std::move(row));
    }
  }

  auto ud = sweep(engine::EngineKind::kUpDown, seed, rates, "ud", h);
  auto itb = sweep(engine::EngineKind::kItb, seed, rates, "itb", h);

  std::printf("\nuniform traffic, 512 B messages, accepted msgs/s/host and "
              "mean latency:\n\n");
  std::printf("%12s | %12s %10s %10s | %12s %10s %10s\n", "offered",
              "UD accepted", "lat(us)", "p99(us)", "ITB accepted", "lat(us)",
              "p99(us)");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%12.0f | %12.0f %10.1f %10.1f | %12.0f %10.1f %10.1f\n",
                rates[i], ud[i].accepted, ud[i].lat_us, ud[i].p99_us,
                itb[i].accepted, itb[i].lat_us, itb[i].p99_us);
  }
  const double f =
      saturation_throughput(itb) / saturation_throughput(ud);
  double matched = 0;
  for (std::size_t i = 0; i < rates.size(); ++i)
    if (ud[i].accepted > 0)
      matched = std::max(matched, itb[i].accepted / ud[i].accepted);
  std::printf("\nsaturation throughput: ITB/UD = %.2fx; best matched-load "
              "ratio = %.2fx\n(paper claim from [2,3]: 2x-3x on the bare "
              "fabric; our figure includes full\nGM endpoint overheads, "
              "which compress the ratio)\n", f, matched);
  report.add_scalar("saturation_ratio", f);
  report.add_scalar("best_matched_load_ratio", matched);
  return h.finish();
}
