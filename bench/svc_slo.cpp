// Service-level SLO sweep: RPC/KV traffic over ITB vs up*/down* routing.
//
// The paper's §6 next step is application traffic; the ROADMAP north star
// is "heavy traffic from millions of users". This bench drives the itb::svc
// layer — open-loop arrivals (lognormal inter-arrival gaps), bounded-Pareto
// heavy-tailed service demands, three priority classes, tokened admission
// with a bounded blocked-request buffer and first-fit admit-on-departure —
// over a 8-switch irregular COW, and reports the service-level picture the
// fabric actually delivers: p50/p99/p999 request latency split into
// admission-wait vs network vs service time, goodput, deadline-miss rate,
// and admission blocking probability.
//
// Three tables:
//   * load sweep      — offered rate to saturation, UD vs ITB;
//   * pattern table   — uniform / incast / hotspot / all-to-all at a fixed
//                       rate (incast is where admission control earns its
//                       keep: ~all clients dogpile one server);
//   * chaos soak      — the 70%-load point re-run under scheduled fault
//                       windows (links, a switch, NIC stalls) with
//                       remap-and-recover live; --watchdog arms the
//                       liveness sentinel and the verdict lands in the
//                       health_* scalars CI gates on.
//
// `--jobs N` fans the independent points across threads (bit-identical
// output for any N), `--json <path>` writes the itb.telemetry.v1 report,
// `--flight` records packet lifecycles, `--watchdog` arms liveness.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/svc/openloop.hpp"

namespace {

using namespace itb;

constexpr std::uint64_t kSeed = 6001;
constexpr sim::Duration kWarmup = 2 * sim::kMs;
constexpr sim::Duration kMeasure = 10 * sim::kMs;
const std::vector<double> kRates = {2.5e3, 5e3, 1e4, 1.5e4, 2e4, 2.5e4};
// Pattern rates are scaled so each exercise is an overload study, not a
// collapse: incast concentrates 31 clients on one 26.7k req/s server, so
// 1.2k req/s/client offers ~1.4x its capacity; all-to-all fans every
// arrival into 31 calls, so the per-client arrival rate drops by the
// fan-out to keep the per-host call rate comparable to the uniform runs.
constexpr double kHotspotRate = 5e3;
constexpr double kIncastRate = 1.2e3;
constexpr double kAllToAllRate = 5e3 / 31.0;

topo::Topology make_network(std::uint64_t seed) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 8;
  spec.hosts_per_switch = 4;
  return topo::make_random_irregular(spec, rng);
}

struct PointSpec {
  routing::Policy policy = routing::Policy::kUpDown;
  double rate = 1e4;
  workload::Pattern pattern = workload::Pattern::kUniform;
  bool chaos = false;
  bool sample = false;  // embed registry counters in the JSON report
};

const char* policy_name(routing::Policy p) {
  return p == routing::Policy::kItb ? "itb" : "ud";
}

struct PointOutput {
  svc::SloStats slo;
  svc::AdmissionStats admission;
  std::uint64_t retransmissions = 0;
  // The point's liveness verdict, --watchdog only.
  std::uint64_t stalls = 0, recoveries = 0, unrecovered = 0;
};

PointOutput run_point(const PointSpec& ps, bench::Point& p) {
  core::ClusterConfig cfg;
  cfg.topology = make_network(kSeed);
  cfg.engine = {ps.policy, 1};
  // Loaded-network MCP (paper §4): circular pool, drop when full; GM
  // retransmission recovers. Deep send queues so the fabric saturates
  // before GM token flow control does.
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  if (ps.chaos) {
    fault::FaultSchedule::ChaosSpec spec;
    spec.horizon = kWarmup + kMeasure;
    spec.link_windows = 6;
    spec.switch_windows = 1;
    spec.stall_windows = 2;
    spec.mean_duration = 800 * sim::kUs;
    spec.seed = kSeed + 13;
    cfg.fault_schedule = fault::FaultSchedule::chaos(cfg.topology, spec);
    cfg.remap_delay = 300 * sim::kUs;
  }
  core::Cluster cluster(p.arm(std::move(cfg)));

  svc::EndpointConfig ec;
  // Admission: 8 tokens, heavy requests cost up to 4 of them, a 32-deep
  // blocked buffer. Saturation is therefore reachable inside the sweep:
  // capacity / mean_service ~ 8 / 300us ~ 26.7k req/s per server.
  ec.server.admission.capacity_tokens = 8;
  ec.server.admission.queue_limit = 32;
  ec.server.cost_quantum = 150 * sim::kUs;
  ec.server.max_cost = 4;
  ec.client.max_retries = 1;
  ec.client.deadlines = {2 * sim::kMs, 8 * sim::kMs, 32 * sim::kMs};
  ec.client.measure_start = kWarmup;
  ec.client.measure_end = kWarmup + kMeasure;

  std::vector<std::unique_ptr<svc::RpcEndpoint>> endpoints;
  std::vector<svc::RpcEndpoint*> eps;
  for (auto* port : cluster.ports()) {
    endpoints.push_back(
        std::make_unique<svc::RpcEndpoint>(cluster.queue(), *port, ec));
    eps.push_back(endpoints.back().get());
  }
  if (ps.sample)
    cluster.telemetry().registry().add(
        svc::RpcEndpoint::metric_table(endpoints));

  svc::OpenLoopConfig lc;
  lc.arrivals.gaps = workload::GapLaw::kLognormal;
  lc.arrivals.gap_sigma = 1.5;
  lc.arrivals.pattern = ps.pattern;
  lc.arrivals.rate_per_s = ps.rate;
  lc.arrivals.seed = kSeed + 29;
  lc.service = svc::ServiceDist::kBoundedPareto;
  lc.mean_service = 300 * sim::kUs;
  lc.pareto_alpha = 1.5;
  lc.pareto_cap = 50.0;
  lc.resp_bytes = 512;
  lc.duration = kWarmup + kMeasure;
  svc::OpenLoopDriver driver(cluster.queue(), eps, lc);
  driver.start();
  cluster.run();

  PointOutput out;
  out.slo = driver.merged_slo();
  out.admission = driver.merged_admission();
  for (auto* port : cluster.ports())
    out.retransmissions += port->stats().retransmissions;
  const health::LivenessVerdict v = p.capture(
      cluster, ps.sample ? std::string(policy_name(ps.policy)) + "_rate_" +
                               std::to_string(static_cast<int>(ps.rate))
                         : "");
  out.stalls = v.stalls_detected;
  out.recoveries = v.recoveries;
  out.unrecovered = v.unrecovered;
  return out;
}

double window_s() { return static_cast<double>(kMeasure) / 1e9; }

void add_slo_rows(telemetry::BenchReport& report, const std::string& table,
                  const PointSpec& ps, const PointOutput& out) {
  auto row_of = [&](const char* cls_name, const svc::SloClassStats& c) {
    telemetry::BenchReport::Row row;
    row.text["policy"] = policy_name(ps.policy);
    row.text["pattern"] = workload::to_string(ps.pattern);
    row.text["class"] = cls_name;
    row.num["rate_rps"] = ps.rate;
    row.num["chaos"] = ps.chaos ? 1.0 : 0.0;
    row.num["issued"] = static_cast<double>(c.issued);
    row.num["completed"] = static_cast<double>(c.completed);
    row.num["failed"] = static_cast<double>(c.failed);
    row.num["rejected"] = static_cast<double>(c.rejected);
    row.num["retries"] = static_cast<double>(c.retries);
    row.num["deadline_misses"] = static_cast<double>(c.deadline_misses);
    row.num["deadline_miss_rate"] = c.deadline_miss_rate();
    row.num["goodput_bytes_per_s"] =
        static_cast<double>(c.goodput_bytes) / window_s();
    row.num["latency_p50_ns"] = c.total.percentile(50);
    row.num["latency_p99_ns"] = c.total.percentile(99);
    row.num["latency_p999_ns"] = c.total.percentile(99.9);
    row.num["admit_p99_ns"] = c.admit.percentile(99);
    row.num["network_p99_ns"] = c.network.percentile(99);
    row.num["service_p99_ns"] = c.service.percentile(99);
    report.add_row(table, std::move(row));
  };
  static const char* kClassNames[] = {"high", "normal", "bulk"};
  for (std::size_t c = 0; c < svc::kPriorityClasses; ++c)
    row_of(kClassNames[c], out.slo.cls[c]);
  svc::SloClassStats all = out.slo.combined();
  telemetry::BenchReport::Row row;  // combined row carries admission stats
  row.text["policy"] = policy_name(ps.policy);
  row.text["pattern"] = workload::to_string(ps.pattern);
  row.text["class"] = "all";
  row.num["rate_rps"] = ps.rate;
  row.num["chaos"] = ps.chaos ? 1.0 : 0.0;
  row.num["issued"] = static_cast<double>(all.issued);
  row.num["completed"] = static_cast<double>(all.completed);
  row.num["failed"] = static_cast<double>(all.failed);
  row.num["rejected"] = static_cast<double>(all.rejected);
  row.num["retries"] = static_cast<double>(all.retries);
  row.num["deadline_misses"] = static_cast<double>(all.deadline_misses);
  row.num["deadline_miss_rate"] = all.deadline_miss_rate();
  row.num["goodput_bytes_per_s"] =
      static_cast<double>(all.goodput_bytes) / window_s();
  row.num["latency_p50_ns"] = all.total.percentile(50);
  row.num["latency_p99_ns"] = all.total.percentile(99);
  row.num["latency_p999_ns"] = all.total.percentile(99.9);
  row.num["admit_p99_ns"] = all.admit.percentile(99);
  row.num["network_p99_ns"] = all.network.percentile(99);
  row.num["service_p99_ns"] = all.service.percentile(99);
  row.num["blocking_probability"] = out.admission.blocking_probability();
  row.num["admission_offered"] = static_cast<double>(out.admission.offered);
  row.num["admission_evicted"] = static_cast<double>(out.admission.evicted);
  row.num["first_fit_skips"] =
      static_cast<double>(out.admission.first_fit_skips);
  row.num["retransmissions"] = static_cast<double>(out.retransmissions);
  report.add_row(table, std::move(row));
}

void print_row(const char* label, double rate, const PointOutput& out) {
  const svc::SloClassStats all = out.slo.combined();
  std::printf("%-14s %8.0f | %8.2f | %8.1f %9.1f %9.1f | %6.2f%% %6.2f%% | "
              "%5llu\n",
              label, rate,
              static_cast<double>(all.goodput_bytes) / window_s() / 1e6,
              all.total.percentile(50) / 1000.0,
              all.total.percentile(99) / 1000.0,
              all.total.percentile(99.9) / 1000.0,
              all.deadline_miss_rate() * 100.0,
              out.admission.blocking_probability() * 100.0,
              static_cast<unsigned long long>(all.retries));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("svc_slo", bench::kSweep);
  h.parse(argc, argv);

  telemetry::BenchReport& report = h.report;
  report.set_param("seed", static_cast<double>(kSeed));
  report.set_param("mean_service_ns", 300.0 * sim::kUs);
  report.set_param("measure_ns", static_cast<double>(kMeasure));
  report.set_param("arrivals", "lognormal");
  report.set_param("service_dist", "bounded-pareto");

  // Point list: load sweep (both policies), then patterns, then chaos.
  std::vector<PointSpec> points;
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb})
    for (std::size_t i = 0; i < kRates.size(); ++i)
      points.push_back({policy, kRates[i], workload::Pattern::kUniform, false,
                        h.json.has_value() && i + 1 == kRates.size()});
  const std::size_t pattern_begin = points.size();
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    points.push_back({policy, kIncastRate, workload::Pattern::kIncast});
    points.push_back({policy, kHotspotRate, workload::Pattern::kHotspot});
    points.push_back({policy, kAllToAllRate, workload::Pattern::kAllToAll});
  }
  const std::size_t chaos_begin = points.size();
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb})
    points.push_back({policy, 1.5e4, workload::Pattern::kUniform, true, false});

  auto outputs = h.sweep(points.size(), [&](std::size_t i, bench::Point& p) {
    return run_point(points[i], p);
  });

  std::printf("svc_slo: 8-switch irregular COW, 32 hosts; open-loop "
              "lognormal arrivals,\nbounded-Pareto service (mean 300us, "
              "alpha 1.5), 3 priority classes,\nadmission 8 tokens + "
              "32-deep blocked buffer, first-fit on departure\n\n");
  std::printf("%-14s %8s | %8s | %8s %9s %9s | %7s %7s | %5s\n", "policy",
              "rate", "good MB/s", "p50(us)", "p99(us)", "p999(us)", "miss",
              "block", "retry");
  for (std::size_t i = 0; i < pattern_begin; ++i)
    print_row(policy_name(points[i].policy), points[i].rate, outputs[i]);

  std::printf("\npatterns (per-client rate scaled per pattern):\n");
  for (std::size_t i = pattern_begin; i < chaos_begin; ++i) {
    const std::string label = std::string(policy_name(points[i].policy)) +
                              "/" + workload::to_string(points[i].pattern);
    print_row(label.c_str(), points[i].rate, outputs[i]);
  }

  std::printf("\nchaos soak at 15000 req/s/client (6 link + 1 switch + 2 "
              "stall windows):\n");
  for (std::size_t i = chaos_begin; i < points.size(); ++i) {
    const std::string label =
        std::string(policy_name(points[i].policy)) + "/chaos";
    print_row(label.c_str(), points[i].rate, outputs[i]);
  }

  // Headline for the tracked perf trajectory (BENCH_6.json): the ITB
  // sweep's 70%-of-saturation operating point. Saturation = the offered
  // rate with peak goodput; headline = the largest swept rate at or below
  // 70% of it.
  double sat_rate = kRates.front(), best_goodput = -1;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].policy == routing::Policy::kItb && !points[i].chaos &&
        points[i].pattern == workload::Pattern::kUniform) {
      const auto g = static_cast<double>(
          outputs[i].slo.combined().goodput_bytes);
      if (g > best_goodput) {
        best_goodput = g;
        sat_rate = points[i].rate;
      }
    }
  }
  double headline_rate = kRates.front();
  for (double r : kRates)
    if (r <= 0.7 * sat_rate && r > headline_rate) headline_rate = r;
  const PointOutput* headline = nullptr;
  const PointOutput* headline_ud = nullptr;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!points[i].chaos && points[i].pattern == workload::Pattern::kUniform &&
        points[i].rate == headline_rate) {
      (points[i].policy == routing::Policy::kItb ? headline : headline_ud) =
          &outputs[i];
    }
  if (headline) {
    const auto all = headline->slo.combined();
    std::printf("\nheadline (ITB, %.0f req/s/client ~ 70%% of saturation "
                "%.0f): p99 = %.1f us, goodput = %.2f MB/s\n",
                headline_rate, sat_rate, all.total.percentile(99) / 1000.0,
                static_cast<double>(all.goodput_bytes) / window_s() / 1e6);
    report.add_scalar("headline_rate_rps", headline_rate);
    report.add_scalar("saturation_rate_rps", sat_rate);
    report.add_scalar("headline_p99_ns", all.total.percentile(99));
    report.add_scalar("headline_p999_ns", all.total.percentile(99.9));
    report.add_scalar("headline_goodput_bytes_per_s",
                      static_cast<double>(all.goodput_bytes) / window_s());
    report.add_scalar("headline_miss_rate", all.deadline_miss_rate());
    if (headline_ud) {
      const auto ud = headline_ud->slo.combined();
      report.add_scalar("headline_ud_p99_ns", ud.total.percentile(99));
      report.add_scalar("headline_ud_goodput_bytes_per_s",
                        static_cast<double>(ud.goodput_bytes) / window_s());
    }
  }

  if (h.json) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const char* table = i < pattern_begin ? "sweep"
                          : i < chaos_begin ? "patterns"
                                            : "chaos";
      add_slo_rows(report, table, points[i], outputs[i]);
      if (i + 1 == kRates.size() || i + 1 == 2 * kRates.size()) {
        const auto all = outputs[i].slo.combined();
        report.add_histogram("svc_total_latency",
                             policy_name(points[i].policy), all.total);
        report.add_histogram("svc_admit_wait",
                             policy_name(points[i].policy), all.admit);
      }
      if (points[i].chaos && h.watchdog) {
        telemetry::BenchReport::Row row;
        row.text["policy"] = policy_name(points[i].policy);
        row.num["health_stalls"] = static_cast<double>(outputs[i].stalls);
        row.num["health_recoveries"] =
            static_cast<double>(outputs[i].recoveries);
        row.num["health_unrecovered"] =
            static_cast<double>(outputs[i].unrecovered);
        report.add_row("chaos_health", std::move(row));
      }
    }
  }
  return h.finish();
}
