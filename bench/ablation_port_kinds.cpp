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

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

/// A combination with a `tag` is sampled and captured under it.
workload::AllsizeRow measure(topo::PortKind src_kind, topo::PortKind dst_kind,
                             topo::PortKind trunk_kind, std::size_t size,
                             const std::string& tag, bench::Point& p) {
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
  core::Cluster cluster(p.arm(std::move(cfg)));
  workload::AllsizeConfig acfg;
  acfg.iterations = 20;
  acfg.sizes = {size};
  if (!tag.empty()) {
    acfg.sampler = &cluster.telemetry().sampler();
    cluster.telemetry().start_sampling();
  }
  auto row = workload::run_allsize(cluster.queue(), cluster.port(0),
                                   cluster.port(1), acfg)
                 .front();
  p.capture(cluster, tag);
  return row;
}

const char* name(topo::PortKind k) { return topo::to_string(k); }

}  // namespace

int main(int argc, char** argv) {
  using topo::PortKind;
  bench::Harness h("ablation_port_kinds", bench::kSweep);
  h.parse(argc, argv);
  const std::size_t size = 256;

  telemetry::BenchReport& report = h.report;
  report.set_param("message_bytes", static_cast<double>(size));
  report.set_param("iterations", 20);
  telemetry::BenchReport* rp = h.json_report();

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

  auto tag_of = [&](const Combo& c) {
    return std::string(name(c.src)) + "_" + name(c.trunk) + "_" + name(c.dst);
  };
  // Eight independent clusters; fan out, then print/report in combo order.
  auto rows = h.sweep(combos.size(), [&](std::size_t i, bench::Point& p) {
    const Combo& c = combos[i];
    return measure(c.src, c.dst, c.trunk, size, rp ? tag_of(c) : "", p);
  });

  for (std::size_t i = 0; i < combos.size(); ++i) {
    const auto& [src, trunk, dst] = combos[i];
    const workload::AllsizeRow& row = rows[i];
    std::printf("%8s %8s %8s %14.3f\n", name(src), name(trunk), name(dst),
                row.half_rtt_ns / 1000.0);
    if (rp) rp->add_histogram("half_rtt", tag_of(combos[i]), row.hist);
    telemetry::BenchReport::Row r;
    r.text["src"] = name(src);
    r.text["trunk"] = name(trunk);
    r.text["dst"] = name(dst);
    r.num["half_rtt_ns"] = row.half_rtt_ns;
    r.num["p50_ns"] = row.p50_ns;
    r.num["p99_ns"] = row.p99_ns;
    report.add_row("combinations", std::move(r));
  }
  std::printf("\nEach LAN port on the path adds a fixed re-timing penalty "
              "per traversal\n(default %lld ns); trunk LAN links are "
              "crossed by two fall-throughs and pay twice.\n",
              static_cast<long long>(net::NetTiming{}.lan_port_penalty_ns));
  return h.finish();
}
