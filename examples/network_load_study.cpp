// Load study on an irregular COW: what the ITB mechanism buys under real
// traffic — the §1-2 story (minimal paths, balanced channels, less
// contention) on a network small enough to run in seconds.
//
//   $ ./network_load_study [seed]
#include <cstdio>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;

topo::Topology make_fabric(std::uint64_t seed) {
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 4;
  return topo::make_random_irregular(spec, rng);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("network_load_study", 0);
  std::uint64_t seed = 3;
  h.cli.positional("seed", &seed, std::uint64_t{0});
  h.parse(argc, argv);

  std::printf("16-switch irregular COW, 64 hosts, uniform 512 B traffic\n\n");
  std::printf("%10s | %22s | %22s\n", "", "up*/down*", "UD+ITB");
  std::printf("%10s | %10s %11s | %10s %11s\n", "offered", "accepted",
              "mean lat us", "accepted", "mean lat us");

  for (double rate : {2e3, 8e3, 1.6e4, 2.4e4}) {
    double acc[2], lat[2];
    int i = 0;
    for (auto kind : {engine::EngineKind::kUpDown, engine::EngineKind::kItb}) {
      core::ClusterConfig cfg;
      cfg.topology = make_fabric(seed);
      cfg.engine = {kind, 1};
      cfg.mcp_options.recv_buffers = 64;
      cfg.mcp_options.drop_when_full = true;  // loaded-network MCP (§4)
      core::Cluster cluster(std::move(cfg));

      workload::LoadConfig lc;
      lc.message_bytes = 512;
      lc.arrivals.rate_per_s = rate;
      lc.warmup = 1 * sim::kMs;
      lc.measure = 5 * sim::kMs;
      lc.arrivals.seed = seed;
      auto r = workload::run_load(cluster.queue(), cluster.ports(), lc);
      acc[i] = r.accepted_msgs_per_s_per_host;
      lat[i] = r.latency_mean_ns / 1000.0;
      ++i;
    }
    std::printf("%10.0f | %10.0f %11.1f | %10.0f %11.1f\n", rate, acc[0],
                lat[0], acc[1], lat[1]);
  }
  std::printf("\nAs load approaches saturation the ITB table keeps accepting "
              "traffic the\nspanning-tree table has to refuse, at a fraction "
              "of the latency.\n");
  return 0;
}
