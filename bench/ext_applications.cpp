// Extension experiment (paper §6 future work): impact of ITBs on the
// execution time of distributed applications.
//
// Three communication skeletons run to completion on a 32-switch irregular
// COW under both routing policies; the reported metric is wall-clock
// execution time of the kernel (simulated), not network throughput.
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// kernel table plus utilization series and registry counters per
// kernel/policy combination (runs like "all_to_all_itb").
//
// `--jobs N` fans the six independent {kernel, policy} runs across N
// threads (default: hardware concurrency); results are bit-identical to
// `--jobs 1` because every run owns its cluster.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/flight/bench_support.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/telemetry/export.hpp"
#include "itb/workload/apps.hpp"

namespace {

using namespace itb;

bool g_watchdog = false;
flight::RecorderConfig g_flight;

std::unique_ptr<core::Cluster> make_cluster(engine::EngineKind kind,
                                            std::uint64_t seed) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 32;
  spec.hosts_per_switch = 4;
  core::ClusterConfig cfg;
  cfg.topology = topo::make_random_irregular(spec, rng);
  cfg.engine = {kind, 1};
  // Loaded-network MCP (§4 buffer pool) — collectives burst hard.
  cfg.mcp_options.recv_buffers = 512;  // 8 MB SRAM at 2 KB packets (paper: overflow "very unusual")
  cfg.itb_selection = routing::ItbHostSelection::kSpread;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 50 * sim::kMs;  // patient: ack RTT is large under bursts
  cfg.telemetry_sample_period = 500 * sim::kUs;
  cfg.watchdog.enabled = g_watchdog;
  cfg.flight = g_flight;
  return std::make_unique<core::Cluster>(std::move(cfg));
}

telemetry::BenchReport* g_report = nullptr;

/// One {kernel, policy} run's full output, returned by value so the
/// cluster can die on its worker thread.
struct KernelOutput {
  workload::AppResult result;
  std::vector<telemetry::MetricSample> counters;
  std::vector<telemetry::Sampler::Series> series;
  health::LivenessVerdict liveness;  // --watchdog only
  flight::Recording recording;       // --flight only
};

KernelOutput run_kernel(
    std::uint64_t seed, engine::EngineKind kind,
    const std::function<workload::AppResult(core::Cluster&)>& body) {
  auto cluster = make_cluster(kind, seed);
  if (g_report) cluster->telemetry().start_sampling();
  KernelOutput out;
  out.result = body(*cluster);
  if (g_report) {
    cluster->telemetry().stop_sampling();
    out.counters = cluster->telemetry().registry().snapshot();
    out.series = cluster->telemetry().sampler().series();
  }
  if (g_watchdog) out.liveness = cluster->health()->verdict();
  if (cluster->flight()) out.recording = cluster->flight()->snapshot();
  return out;
}

void report(const char* kernel, workload::AppResult ud,
            workload::AppResult itb) {
  std::printf("%-14s | %12.1f | %12.1f | %6.2fx  (%llu msgs, %.1f MB)\n",
              kernel, static_cast<double>(ud.makespan) / 1000.0,
              static_cast<double>(itb.makespan) / 1000.0,
              static_cast<double>(ud.makespan) /
                  static_cast<double>(itb.makespan),
              static_cast<unsigned long long>(ud.messages),
              static_cast<double>(ud.bytes) / 1e6);
  if (g_report) {
    telemetry::BenchReport::Row row;
    row.text["kernel"] = kernel;
    row.num["ud_makespan_ns"] = static_cast<double>(ud.makespan);
    row.num["itb_makespan_ns"] = static_cast<double>(itb.makespan);
    row.num["speedup"] = static_cast<double>(ud.makespan) /
                         static_cast<double>(itb.makespan);
    row.num["messages"] = static_cast<double>(ud.messages);
    row.num["bytes"] = static_cast<double>(ud.bytes);
    g_report->add_row("kernels", std::move(row));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = telemetry::json_flag(argc, argv);
  const unsigned jobs = sim::jobs_flag(argc, argv).value_or(0);
  g_watchdog = health::watchdog_flag(argc, argv);
  const auto fcli = flight::flight_flags(argc, argv);
  g_flight = fcli.recorder();
  telemetry::BenchReport bench_report("ext_applications");
  if (json_path) g_report = &bench_report;
  const std::uint64_t seed = 1977;
  bench_report.set_param("seed", static_cast<double>(seed));

  std::printf("Extension: distributed-application kernels, 32-switch "
              "irregular COW, 128 hosts\n");
  std::printf("(execution time in us; speedup = UD time / ITB time)\n\n");
  std::printf("%-14s | %12s | %12s | %s\n", "kernel", "UD (us)", "UD+ITB (us)",
              "speedup");

  struct Kernel {
    const char* name;
    std::function<workload::AppResult(core::Cluster&)> body;
  };
  const std::vector<Kernel> kernels = {
      {"all_to_all",
       [](core::Cluster& c) {
         return workload::run_all_to_all(c.queue(), c.ports(), 2048, 1);
       }},
      {"ring_exchange",
       [](core::Cluster& c) {
         return workload::run_ring_exchange(c.queue(), c.ports(), 4096, 8);
       }},
      {"master_worker",
       [](core::Cluster& c) {
         return workload::run_master_worker(c.queue(), c.ports(), 2048, 256,
                                            4);
       }},
  };

  // Six independent simulations (kernel x policy), fanned across threads;
  // stdout and the report are assembled serially afterwards, in the same
  // order the serial program produced them.
  auto outputs = sim::run_sweep_parallel(
      kernels.size() * 2,
      [&](std::size_t i) {
        const Kernel& k = kernels[i / 2];
        const auto kind =
            i % 2 == 0 ? engine::EngineKind::kUpDown : engine::EngineKind::kItb;
        return run_kernel(seed, kind, k.body);
      },
      jobs);

  flight::BenchFlight bflight(fcli);
  health::LivenessVerdict liveness;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    KernelOutput& ud = outputs[2 * i];
    KernelOutput& itb = outputs[2 * i + 1];
    liveness.merge(ud.liveness);
    liveness.merge(itb.liveness);
    if (fcli.enabled) {
      bflight.add(std::move(ud.recording));
      bflight.add(std::move(itb.recording));
    }
    if (g_report) {
      const std::string base = kernels[i].name;
      g_report->add_counters(base + "_ud", std::move(ud.counters));
      g_report->add_series(base + "_ud", std::move(ud.series));
      g_report->add_counters(base + "_itb", std::move(itb.counters));
      g_report->add_series(base + "_itb", std::move(itb.series));
    }
    report(kernels[i].name, ud.result, itb.result);
  }

  std::printf("\nExpected: the bursty all-to-all gains most (root "
              "decongestion); the latency-bound\nring gains less; the "
              "endpoint-bound master/worker is unaffected.\n");
  if (g_watchdog) health::print_liveness_summary(liveness);
  if (!bflight.finish("ext_applications", g_report)) return 1;

  if (json_path) {
    if (g_watchdog) health::add_liveness_scalars(bench_report, liveness);
    if (!bench_report.write(*json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("\nJSON report written to %s\n", json_path->c_str());
  }
  return 0;
}
