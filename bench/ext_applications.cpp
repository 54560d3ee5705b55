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
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/workload/apps.hpp"

namespace {

using namespace itb;

core::ClusterConfig make_config(routing::Policy policy, std::uint64_t seed) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 32;
  spec.hosts_per_switch = 4;
  core::ClusterConfig cfg;
  cfg.topology = topo::make_random_irregular(spec, rng);
  cfg.engine = {policy, 1};
  // Loaded-network MCP (§4 buffer pool) — collectives burst hard.
  cfg.mcp_options.recv_buffers = 512;  // 8 MB SRAM at 2 KB packets (paper: overflow "very unusual")
  cfg.itb_selection = routing::ItbHostSelection::kSpread;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 50 * sim::kMs;  // patient: ack RTT is large under bursts
  cfg.telemetry_sample_period = 500 * sim::kUs;
  return cfg;
}

/// One {kernel, policy} run; a run with a `tag` is sampled and captured
/// under it.
workload::AppResult run_kernel(
    std::uint64_t seed, routing::Policy policy, const std::string& tag,
    const std::function<workload::AppResult(core::Cluster&)>& body,
    bench::Point& p) {
  core::Cluster cluster(p.arm(make_config(policy, seed)));
  if (!tag.empty()) cluster.telemetry().start_sampling();
  auto result = body(cluster);
  p.capture(cluster, tag);
  return result;
}

void report(telemetry::BenchReport* rp, const char* kernel,
            const workload::AppResult& ud, const workload::AppResult& itb) {
  std::printf("%-14s | %12.1f | %12.1f | %6.2fx  (%llu msgs, %.1f MB)\n",
              kernel, static_cast<double>(ud.makespan) / 1000.0,
              static_cast<double>(itb.makespan) / 1000.0,
              static_cast<double>(ud.makespan) /
                  static_cast<double>(itb.makespan),
              static_cast<unsigned long long>(ud.messages),
              static_cast<double>(ud.bytes) / 1e6);
  if (rp) {
    telemetry::BenchReport::Row row;
    row.text["kernel"] = kernel;
    row.num["ud_makespan_ns"] = static_cast<double>(ud.makespan);
    row.num["itb_makespan_ns"] = static_cast<double>(itb.makespan);
    row.num["speedup"] = static_cast<double>(ud.makespan) /
                         static_cast<double>(itb.makespan);
    row.num["messages"] = static_cast<double>(ud.messages);
    row.num["bytes"] = static_cast<double>(ud.bytes);
    rp->add_row("kernels", std::move(row));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ext_applications", bench::kSweep);
  h.parse(argc, argv);
  telemetry::BenchReport* rp = h.json_report();
  const std::uint64_t seed = 1977;
  h.report.set_param("seed", static_cast<double>(seed));

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
  auto results = h.sweep(kernels.size() * 2, [&](std::size_t i,
                                                  bench::Point& p) {
    const Kernel& k = kernels[i / 2];
    const bool ud = i % 2 == 0;
    const std::string tag = std::string(k.name) + (ud ? "_ud" : "_itb");
    return run_kernel(
        seed, ud ? routing::Policy::kUpDown : routing::Policy::kItb,
        rp ? tag : "", k.body, p);
  });
  for (std::size_t i = 0; i < kernels.size(); ++i)
    report(rp, kernels[i].name, results[2 * i], results[2 * i + 1]);

  std::printf("\nExpected: the bursty all-to-all gains most (root "
              "decongestion); the latency-bound\nring gains less; the "
              "endpoint-bound master/worker is unaffected.\n");
  return h.finish();
}
