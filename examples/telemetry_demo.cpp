// Telemetry demo: the observability subsystem end to end on the paper's
// Fig. 1 network.
//
// Drives uniform random traffic over the 8-switch irregular COW with ITB
// routing, samples per-channel utilization while it runs, and renders an
// ASCII heatmap — one row per directed channel, one column per sampler
// tick, shade by utilization. Busy channels (the spanning-tree root and
// the ITB hosts' links) stand out immediately.
//
//   $ ./telemetry_demo [--json out.json] [rate_msgs_per_s]
//
// With --json the full cluster telemetry (registry snapshot + every time
// series) is also written as an itb.telemetry.v1 document.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;

std::string channel_name(const topo::Topology& topo, std::size_t c) {
  const topo::Channel ch{static_cast<topo::LinkId>(c / 2), c % 2 == 0};
  const auto src = topo.channel_source(ch);
  const auto dst = topo.channel_target(ch);
  auto end_name = [&](topo::Endpoint e) {
    return e.node.kind == topo::NodeKind::kSwitch
               ? topo.switch_spec(e.node.index).name
               : topo.host_spec(e.node.index).name;
  };
  return end_name(src) + " -> " + end_name(dst);
}

/// Map utilization in [0, 1] to a shade character.
char shade(double u) {
  static const char kRamp[] = " .:-=+*#%@";
  const double clamped = std::clamp(u, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(clamped * 9.0 + 0.5);
  return kRamp[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("telemetry_demo", bench::kJson);
  double rate = 8e3;
  h.cli.positional("rate_msgs_per_s", &rate, 1, 1e6);
  h.parse(argc, argv);

  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {engine::EngineKind::kItb, 1};
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;  // loaded-network MCP (§4)
  cfg.telemetry_sample_period = 100 * sim::kUs;
  core::Cluster cluster(std::move(cfg));
  const auto& topo = cluster.topology();

  std::printf("Fig. 1 network (%zu switches, %zu hosts, %zu links), UD+ITB "
              "routing,\nuniform %0.0f msgs/s/host of 512 B for 6 ms\n\n",
              topo.switch_count(), topo.host_count(), topo.link_count(), rate);

  cluster.telemetry().start_sampling();
  workload::LoadConfig lc;
  lc.message_bytes = 512;
  lc.arrivals.rate_per_s = rate;
  lc.warmup = 0;
  lc.measure = 6 * sim::kMs;
  lc.arrivals.seed = 42;
  auto r = workload::run_load(cluster.queue(), cluster.ports(), lc);
  cluster.telemetry().stop_sampling();

  const auto& sampler = cluster.telemetry().sampler();
  const std::size_t channels = topo.link_count() * 2;

  // Longest row label, for alignment.
  std::size_t label_width = 0;
  std::vector<std::string> names(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    names[c] = channel_name(topo, c);
    label_width = std::max(label_width, names[c].size());
  }

  std::printf("per-channel utilization, one column per %lld us tick "
              "(shade ramp \" .:-=+*#%%@\"):\n\n",
              static_cast<long long>(sampler.period() / sim::kUs));
  for (std::size_t c = 0; c < channels; ++c) {
    const auto* s = sampler.find(
        "channel_utilization",
        telemetry::Labels{.host = -1, .channel = static_cast<int>(c)});
    if (!s) continue;
    double mean = 0;
    std::string row;
    row.reserve(s->values.size());
    for (double v : s->values) {
      row.push_back(shade(v));
      mean += v;
    }
    if (!s->values.empty()) mean /= static_cast<double>(s->values.size());
    std::printf("%-*s |%s| %4.1f%%\n", static_cast<int>(label_width),
                names[c].c_str(), row.c_str(), 100.0 * mean);
  }

  std::printf("\naccepted %.0f msgs/s/host, mean latency %.1f us, p99 %.1f "
              "us, %llu retransmissions\n",
              r.accepted_msgs_per_s_per_host, r.latency_mean_ns / 1000.0,
              r.latency_p99_ns / 1000.0,
              static_cast<unsigned long long>(r.retransmissions));

  if (h.json) {
    if (!cluster.telemetry().write_json(*h.json)) {
      std::fprintf(stderr, "cannot write %s\n", h.json->c_str());
      return 1;
    }
    std::printf("cluster telemetry written to %s\n", h.json->c_str());
  }
  return 0;
}
