// Ablation of the §4 buffering proposal: the shipped MCP keeps GM's two
// receive buffers (enough for the unloaded testbed); the paper proposes a
// circular buffer pool that drops arrivals when full (GM retransmission
// recovers) instead of exerting link-level backpressure.
//
// This bench loads one in-transit host with converging ITB traffic and
// sweeps the pool size in both modes, reporting drops, retransmissions and
// total completion time for a fixed work quantum.
//
// `--json <path>` additionally writes an itb.telemetry.v1 report: the
// outcome table, per-configuration send-to-ack latency histograms, and
// utilization series + counters per configuration (runs like "drop_b4").
//
// `--jobs N` fans the eight independent {mode, pool size} runs across N
// threads (default: hardware concurrency); output is bit-identical to
// `--jobs 1` because every run owns its cluster.
#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/workload/load.hpp"

namespace {

using namespace itb;

struct Outcome {
  sim::Time makespan = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t itb_forwarded = 0;
  /// Send-call to acknowledgement (token return) per message, ns. Under
  /// drops this includes the retransmission stalls — the latency price of
  /// the smaller pool.
  telemetry::LatencyHistogram send_to_ack;
};

/// Star topology stressing one in-transit host: four sources on switch 0,
/// four sinks on switch 1; every route is forced through the ITB host h8
/// on switch 0, so its NIC forwards every packet. A run with a `tag` is
/// sampled and captured under it.
Outcome run(int recv_buffers, bool drop_when_full, const std::string& tag,
            bench::Point& p) {
  topo::Topology topo;
  topo.add_switch(16);
  topo.add_switch(16);
  topo.connect_switches(0, 0, 1, 0);
  topo.connect_switches(0, 1, 1, 1);
  for (int i = 0; i < 9; ++i) topo.add_host();
  for (std::uint16_t h = 0; h < 4; ++h) topo.attach_host(h, 0, static_cast<std::uint8_t>(2 + h));
  for (std::uint16_t h = 4; h < 8; ++h) topo.attach_host(h, 1, static_cast<std::uint8_t>(2 + h - 4));
  topo.attach_host(8, 0, 6);  // the in-transit host

  core::ClusterConfig cfg;
  cfg.topology = std::move(topo);
  cfg.mcp_options.recv_buffers = recv_buffers;
  cfg.mcp_options.drop_when_full = drop_when_full;
  cfg.gm_config.retransmit_timeout = 500 * sim::kUs;
  // Manual routes: source s -> sink s+4 via ITB at h8; service routes for
  // acks are direct.
  using Routes = std::vector<std::vector<std::vector<packet::Route>>>;
  Routes r(9, std::vector<std::vector<packet::Route>>(9));
  for (std::uint16_t s = 0; s < 4; ++s) {
    const std::uint16_t d = static_cast<std::uint16_t>(s + 4);
    // Source -> ITB host (port 6 on s0), re-inject -> trunk 0 -> sink.
    r[s][d] = {{6}, {0, static_cast<std::uint8_t>(2 + s)}};
    // Ack path back: direct over trunk 1.
    r[d][s] = {{1, static_cast<std::uint8_t>(2 + s)}};
  }
  cfg.manual_routes = std::move(r);
  core::Cluster cluster(p.arm(std::move(cfg)));

  Outcome out;
  if (!tag.empty()) cluster.telemetry().start_sampling();

  // Each source sends 30 x 2 KB messages as fast as tokens allow. The
  // feeders live in this frame: cluster.run() drains every scheduled retry.
  int remaining = 4 * 30;
  std::array<int, 4> sent{};
  std::array<std::function<void()>, 4> feed;
  for (std::uint16_t s = 0; s < 4; ++s) {
    const std::uint16_t d = static_cast<std::uint16_t>(s + 4);
    // Makespan = last delivery (not drain time: the sampler's final tick
    // would otherwise pad it in --json runs).
    cluster.port(d).set_receive_handler(
        [&remaining, &out](sim::Time t, std::uint16_t, packet::Bytes) {
          if (--remaining == 0) out.makespan = t;
        });
    feed[s] = [&cluster, &out, &sent, &feed, s, d] {
      auto& port = cluster.port(s);
      while (sent[s] < 30) {
        const sim::Time t0 = cluster.queue().now();
        if (!port.send(d, packet::Bytes(2048, 1), [&out, t0](sim::Time t) {
              out.send_to_ack.add(static_cast<double>(t - t0));
            }))
          break;
        ++sent[s];
      }
      if (sent[s] < 30)
        cluster.queue().schedule_in(100 * sim::kUs, [&feed, s] { feed[s](); });
    };
    feed[s]();
  }
  cluster.run();

  out.drops = cluster.nic(8).stats().dropped_no_buffer;
  out.itb_forwarded = cluster.nic(8).stats().itb_forwarded;
  out.retransmissions = 0;
  for (std::uint16_t s = 0; s < 4; ++s)
    out.retransmissions += cluster.port(s).stats().retransmissions;
  if (remaining != 0) out.makespan = -1;  // did not complete (diagnostic)
  p.capture(cluster, tag);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ablation_buffer_pool", bench::kSweep);
  h.parse(argc, argv);
  telemetry::BenchReport& report = h.report;
  report.set_param("messages", 4 * 30);
  report.set_param("message_bytes", 2048);
  telemetry::BenchReport* rp = h.json_report();

  std::printf("Ablation: receive buffering at the in-transit host\n");
  std::printf("(4 sources -> 4 sinks, every packet forwarded by one ITB "
              "host, 120 x 2KB messages)\n\n");
  std::printf("%8s %12s | %12s %8s %10s %10s\n", "buffers", "mode",
              "makespan(us)", "drops", "rexmit", "forwarded");

  struct Config {
    bool drop;
    int buffers;
  };
  std::vector<Config> configs;
  for (bool drop : {false, true})
    for (int buffers : {2, 4, 8, 16}) configs.push_back({drop, buffers});

  auto mode_of = [&](std::size_t i) {
    return std::string(configs[i].drop ? "drop" : "backpressure");
  };
  auto tag_of = [&](std::size_t i) {
    return mode_of(i) + "_b" + std::to_string(configs[i].buffers);
  };
  // Eight independent clusters; fan out, then print/report in config order.
  auto outcomes = h.sweep(configs.size(), [&](std::size_t i, bench::Point& p) {
    return run(configs[i].buffers, configs[i].drop, rp ? tag_of(i) : "", p);
  });

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const int buffers = configs[i].buffers;
    const Outcome& o = outcomes[i];
    const std::string mode = mode_of(i);
    std::printf("%8d %12s | %12.1f %8llu %10llu %10llu\n", buffers,
                mode.c_str(), static_cast<double>(o.makespan) / 1000.0,
                static_cast<unsigned long long>(o.drops),
                static_cast<unsigned long long>(o.retransmissions),
                static_cast<unsigned long long>(o.itb_forwarded));
    if (rp) rp->add_histogram("send_to_ack", tag_of(i), o.send_to_ack);
    telemetry::BenchReport::Row row;
    row.text["mode"] = mode;
    row.num["buffers"] = buffers;
    row.num["makespan_ns"] = static_cast<double>(o.makespan);
    row.num["drops"] = static_cast<double>(o.drops);
    row.num["retransmissions"] = static_cast<double>(o.retransmissions);
    row.num["itb_forwarded"] = static_cast<double>(o.itb_forwarded);
    row.num["send_to_ack_p50_ns"] = o.send_to_ack.percentile(50);
    row.num["send_to_ack_p99_ns"] = o.send_to_ack.percentile(99);
    report.add_row("outcomes", std::move(row));
  }
  std::printf("\nExpected: backpressure never drops (Stop&Go stalls the "
              "link); drop mode loses\npackets when the pool is small and "
              "GM retransmission recovers them at a\nmakespan cost; larger "
              "pools eliminate drops (the paper notes 8 MB of NIC\nSRAM "
              "makes overflow 'very unusual').\n");
  return h.finish();
}
