// Ablation of the routing-level knobs the ITB papers explore:
//   * spanning-tree root selection — a bad root lengthens up*/down* routes
//     and sharpens root congestion; select_best_root() optimises it;
//   * in-transit host selection — spreading ITB duty across a switch's
//     hosts instead of always picking the lowest-index one.
// Reported metrics are static route-table properties plus the ITB-duty
// distribution (max packets forwarded by any single host's NIC).
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// static table plus one dynamic validation run (uniform load on the first
// seed's network with spread ITB selection) contributing a message latency
// histogram, utilization series and counters (run "best_spread").
//
// `--jobs N` fans the per-seed route-table evaluations across N threads
// (default: hardware concurrency); output is bit-identical to `--jobs 1`
// because each seed's topology and tables are rebuilt from the seed.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/routing/table.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;

struct Metrics {
  double avg_hops;
  double minimal_fraction;
  std::uint32_t peak_channel;
  std::size_t max_itb_duty;  // routes forwarded by the busiest ITB host
};

Metrics evaluate(const topo::Topology& topo, std::uint16_t root,
                 routing::ItbHostSelection selection) {
  routing::UpDown ud(topo, root);
  routing::Router router(ud, selection);
  routing::RouteTable table(router, routing::Policy::kItb);
  Metrics m;
  m.avg_hops = table.average_trunk_hops();
  m.minimal_fraction = table.minimal_fraction(router);
  m.peak_channel = 0;
  for (auto u : table.channel_usage(topo))
    m.peak_channel = std::max(m.peak_channel, u);
  std::map<std::uint16_t, std::size_t> duty;
  for (std::uint16_t s = 0; s < table.host_count(); ++s)
    for (std::uint16_t d = 0; d < table.host_count(); ++d) {
      if (s == d) continue;
      for (auto h : table.route(s, d).in_transit_hosts()) ++duty[h];
    }
  m.max_itb_duty = 0;
  for (auto& [h, n] : duty) m.max_itb_duty = std::max(m.max_itb_duty, n);
  return m;
}

topo::Topology make_topology(std::uint64_t seed) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 4;
  return topo::make_random_irregular(spec, rng);
}

/// Dynamic validation for the JSON report: run uniform load on the
/// optimised configuration so the static claims (balanced duty, lower
/// channel peak) are observable as utilization series.
workload::LoadResult validation_run(std::uint64_t seed, bench::Point& p) {
  core::ClusterConfig cfg;
  cfg.topology = make_topology(seed);
  cfg.engine = {engine::EngineKind::kItb, 1};
  cfg.itb_selection = routing::ItbHostSelection::kSpread;
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  cfg.telemetry_sample_period = 500 * sim::kUs;
  core::Cluster cluster(p.arm(std::move(cfg)));
  cluster.telemetry().start_sampling();

  workload::LoadConfig lc;
  lc.message_bytes = 512;
  lc.arrivals.rate_per_s = 1e4;
  lc.warmup = 1 * sim::kMs;
  lc.measure = 4 * sim::kMs;
  lc.arrivals.seed = seed + 17;
  auto r = workload::run_load(cluster.queue(), cluster.ports(), lc);
  p.capture(cluster, "best_spread");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_routing_opts", bench::kSweep);
  h.parse(argc, argv);
  telemetry::BenchReport& report = h.report;

  std::printf("Ablation: root selection and in-transit host selection "
              "(UD+ITB tables)\n\n");
  std::printf("%6s %6s %10s | %9s %8s %9s %9s\n", "seed", "root", "itb-host",
              "avg hops", "minimal", "peak ch.", "max duty");

  struct Case {
    const char* root_name;
    bool use_best;  // root = select_best_root(topo) instead of switch 0
    const char* sel_name;
    routing::ItbHostSelection sel;
  };
  constexpr Case kCases[] = {
      {"0", false, "lowest", routing::ItbHostSelection::kLowestIndex},
      {"best", true, "lowest", routing::ItbHostSelection::kLowestIndex},
      {"best", true, "spread", routing::ItbHostSelection::kSpread},
  };
  const std::vector<std::uint64_t> seeds = {11, 12, 13};

  // Each seed's topology + best-root search + three table builds form one
  // independent unit of work; fan the seeds, then print in seed order.
  struct SeedOutput {
    std::uint16_t best = 0;
    std::array<Metrics, std::size(kCases)> metrics;
  };
  auto outputs = h.sweep(seeds.size(), [&](std::size_t i, bench::Point&) {
    auto topo = make_topology(seeds[i]);
    SeedOutput out;
    out.best = routing::select_best_root(topo);
    for (std::size_t c = 0; c < std::size(kCases); ++c)
      out.metrics[c] = evaluate(
          topo, kCases[c].use_best ? out.best : std::uint16_t{0},
          kCases[c].sel);
    return out;
  });

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const SeedOutput& so = outputs[i];
    for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
      const Case& c = kCases[ci];
      const Metrics& m = so.metrics[ci];
      std::printf("%6llu %6s %10s | %9.3f %8.3f %9u %9zu\n",
                  static_cast<unsigned long long>(seed), c.root_name,
                  c.sel_name, m.avg_hops, m.minimal_fraction, m.peak_channel,
                  m.max_itb_duty);
      telemetry::BenchReport::Row row;
      row.num["seed"] = static_cast<double>(seed);
      row.text["root"] = c.root_name;
      row.num["root_switch"] =
          static_cast<double>(c.use_best ? so.best : std::uint16_t{0});
      row.text["itb_selection"] = c.sel_name;
      row.num["avg_trunk_hops"] = m.avg_hops;
      row.num["minimal_fraction"] = m.minimal_fraction;
      row.num["peak_channel_usage"] = static_cast<double>(m.peak_channel);
      row.num["max_itb_duty"] = static_cast<double>(m.max_itb_duty);
      report.add_row("route_metrics", std::move(row));
    }
    std::printf("   (best root for seed %llu is switch %u)\n",
                static_cast<unsigned long long>(seed), so.best);
  }
  std::printf("\nExpected: the optimised root shortens routes and lowers the "
              "channel peak;\nspread selection cuts the busiest ITB host's "
              "duty without touching hops.\n");

  // The sweep above is static route-table analysis — only the validation
  // run simulates traffic, so --watchdog and --flight attach there
  // (forcing the run even without --json so a verdict/recording always
  // exists).
  if (h.json || h.watchdog || h.flight) {
    const auto r = h.sweep(1, [](std::size_t, bench::Point& p) {
      return validation_run(11, p);
    }).front();
    report.add_scalar("validation_accepted_msgs_per_s",
                      r.accepted_msgs_per_s_per_host);
    report.add_histogram("message_latency", "best_spread", r.latency_hist);
  }
  return h.finish();
}
