// google-benchmark micro-benchmarks for the simulator's building blocks.
// These measure the *host* cost of running the reproduction (how fast the
// simulator itself is), not simulated time.
//
// The command line is google-benchmark's own, strict about unknown flags;
// `--benchmark_out=<path>` writes its JSON document (google-benchmark's
// schema, not itb.telemetry.v1).
#include <benchmark/benchmark.h>

#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/packet/crc.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.schedule_in(i, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The GM retransmit-timer pattern: arm a far timer per message, cancel it
  // when the ack lands (almost always before it fires). The old engine paid
  // a heap entry + hash-set round trip per timer and kept the dead closure
  // until it surfaced; this measures schedule+cancel churn directly.
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    sim::EventId timers[64];
    for (int i = 0; i < 64; ++i)
      timers[i] = q.schedule_in(5 * sim::kMs + i, [&sink] { ++sink; });
    for (int i = 0; i < 64; ++i) q.cancel(timers[i]);
    q.schedule_in(1, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_EventQueueFarTimers(benchmark::State& state) {
  // All events far beyond the near horizon (sampler ticks, retransmit
  // timeouts): exercises the spill path (old engine: the same heap).
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      q.schedule_in((i + 1) * 100 * sim::kUs, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueFarTimers);

void BM_EventQueueMixedHorizon(benchmark::State& state) {
  // The realistic mix: mostly byte-time/cycle-cost events within a few us,
  // a minority of ms-scale timers (wheel + spill split in the new engine).
  sim::EventQueue q;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 56; ++i) q.schedule_in(6 * (i + 1), [&sink] { ++sink; });
    for (int i = 0; i < 8; ++i)
      q.schedule_in(2 * sim::kMs + i, [&sink] { ++sink; });
    q.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueMixedHorizon);

void BM_Crc32(benchmark::State& state) {
  packet::Bytes data(static_cast<std::size_t>(state.range(0)), 0xA7);
  for (auto _ : state) benchmark::DoNotOptimize(packet::crc32(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

void BM_Crc8(benchmark::State& state) {
  packet::Bytes data(static_cast<std::size_t>(state.range(0)), 0xA7);
  for (auto _ : state) benchmark::DoNotOptimize(packet::crc8(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc8)->Arg(64)->Arg(4096);

void BM_BuildItbPacket(benchmark::State& state) {
  std::vector<packet::Route> segments{{1, 2, 3}, {4, 5}};
  packet::Bytes payload(1024, 0x3C);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        packet::build_itb_packet(segments, packet::PacketType::kGm, payload));
}
BENCHMARK(BM_BuildItbPacket);

void BM_UpDownOrientation(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = static_cast<std::uint16_t>(state.range(0));
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  for (auto _ : state) {
    routing::UpDown ud(topo);
    benchmark::DoNotOptimize(ud.depth(0));
  }
}
BENCHMARK(BM_UpDownOrientation)->Arg(8)->Arg(32);

void BM_ItbRouteTable(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = static_cast<std::uint16_t>(state.range(0));
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  routing::UpDown ud(topo);
  routing::Router router(ud);
  for (auto _ : state) {
    routing::RouteTable table(router, routing::Policy::kItb);
    benchmark::DoNotOptimize(table.average_trunk_hops());
  }
}
BENCHMARK(BM_ItbRouteTable)->Arg(8)->Arg(16);

void BM_MapperDiscovery(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  for (auto _ : state) {
    auto report = mapper::discover(topo, 0);
    benchmark::DoNotOptimize(report.probes_sent);
  }
}
BENCHMARK(BM_MapperDiscovery);

void BM_DeadlockCheck(benchmark::State& state) {
  sim::Rng rng(7);
  topo::IrregularSpec spec;
  spec.switches = 16;
  spec.hosts_per_switch = 2;
  auto topo = topo::make_random_irregular(spec, rng);
  routing::UpDown ud(topo);
  routing::Router router(ud);
  routing::RouteTable table(router, routing::Policy::kItb);
  for (auto _ : state) {
    routing::DependencyGraph graph(topo);
    graph.add_table(table, topo);
    benchmark::DoNotOptimize(graph.has_cycle());
  }
}
BENCHMARK(BM_DeadlockCheck);

void BM_SimulatedPingPong(benchmark::State& state) {
  // Cost of simulating one full GM ping-pong (the inner loop of every
  // figure bench).
  for (auto _ : state) {
    state.PauseTiming();
    core::ClusterConfig cfg;
    cfg.topology = topo::make_linear(2, 1);
    core::Cluster cluster(std::move(cfg));
    state.ResumeTiming();
    auto row = workload::run_pingpong(cluster.queue(), cluster.port(0),
                                      cluster.port(1), 256, 1);
    benchmark::DoNotOptimize(row.half_rtt_ns);
  }
}
BENCHMARK(BM_SimulatedPingPong);

}  // namespace

BENCHMARK_MAIN();
