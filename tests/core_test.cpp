// Integration tests over the Cluster facade and the paper's experiment
// presets (Fig. 6 testbed with the Fig. 7/8 measurement routes), plus the
// ping-pong harness and the one open-loop traffic source.
#include <gtest/gtest.h>

#include "itb/core/experiments.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/svc/openloop.hpp"
#include "itb/workload/load.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;
using packet::Bytes;

TEST(Cluster, BuildsWithMapperAndDeliversTraffic) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  EXPECT_EQ(c.host_count(), 8u);
  EXPECT_NE(c.route_table(), nullptr);
  EXPECT_NE(c.mapper_report(), nullptr);
  EXPECT_TRUE(c.routes_deadlock_free());

  int delivered = 0;
  for (std::uint16_t h = 0; h < 8; ++h)
    c.port(h).set_receive_handler(
        [&](sim::Time, std::uint16_t, Bytes) { ++delivered; });
  for (std::uint16_t h = 0; h < 8; ++h)
    c.port(h).send(static_cast<std::uint16_t>((h + 3) % 8), Bytes(777, 1));
  c.run();
  EXPECT_EQ(delivered, 8);
}

TEST(Cluster, ManualRoutesSkipMapper) {
  core::Cluster c(core::fig7_config(true));
  EXPECT_EQ(c.route_table(), nullptr);
  EXPECT_EQ(c.mapper_report(), nullptr);
}

TEST(Cluster, ManualRoutesWithShortRowsThrow) {
  // Every source row must name a route (or none) for every destination;
  // a 1-entry row on a 4-host fabric is rejected before any NIC reads it.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(4);
  cfg.manual_routes = std::vector<std::vector<std::vector<packet::Route>>>(
      4, std::vector<std::vector<packet::Route>>(1));
  EXPECT_THROW(core::Cluster c(std::move(cfg)), std::invalid_argument);
}

TEST(Cluster, ManualRoutesWithUnencodablePortsThrow) {
  // Route bytes carry the port in 7 bits: port 128 fails at construction,
  // not at the first send inside the event loop.
  const auto config = [](std::uint8_t last_port) {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_linear(2);
    std::vector<std::vector<std::vector<packet::Route>>> routes(
        2, std::vector<std::vector<packet::Route>>(2));
    routes[0][1] = {{0, 1}};
    routes[1][0] = {{0, last_port}};
    cfg.manual_routes = std::move(routes);
    return cfg;
  };
  EXPECT_THROW(core::Cluster c(config(128)), std::invalid_argument);
  EXPECT_NO_THROW(core::Cluster c(config(1)));
}

TEST(Cluster, InvalidTopologyThrows) {
  core::ClusterConfig cfg;
  cfg.topology.add_switch(4);
  cfg.topology.add_host();  // unattached
  EXPECT_THROW(core::Cluster c(std::move(cfg)), std::logic_error);
}

TEST(Cluster, ForeignPacketTypesReachTheHostButNotGm) {
  // GM is each NIC's only host client and claims just the GM and mapping
  // types. A well-formed GM data packet posted under the IP type lands in
  // host memory yet leaves GM's state and receive handler untouched.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  core::Cluster c(std::move(cfg));
  int handled = 0;
  c.port(0).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++handled; });
  gm::GmHeader h;
  h.src_host = 1;
  h.dst_host = 0;
  h.seq = gm::GmConfig{}.initial_seq;
  h.msg_len = 64;
  h.frag_len = 64;
  c.nic(1).post_send(0, gm::encode(h, Bytes(64, 0x5A)),
                     packet::PacketType::kIp);
  c.run();
  EXPECT_EQ(c.nic(0).stats().delivered_to_host, 1u);
  EXPECT_EQ(handled, 0);
  const auto& gs = c.port(0).stats();
  EXPECT_EQ(gs.messages_delivered, 0u);
  EXPECT_EQ(gs.packets_ack, 0u);
  EXPECT_EQ(gs.duplicates, 0u);
  EXPECT_EQ(gs.out_of_order, 0u);
}

TEST(PingPong, ProducesPositiveLatency) {
  core::Cluster c(core::fig7_config(true));
  auto row = workload::run_pingpong(c.queue(), c.port(core::kHost1),
                                    c.port(core::kHost2), 64, 10);
  EXPECT_GT(row.half_rtt_ns, 0);
  EXPECT_GE(row.max_ns, row.min_ns);
  // Unloaded deterministic simulation: iterations are identical.
  EXPECT_DOUBLE_EQ(row.stddev_ns, 0.0);
}

TEST(PingPong, LatencyMonotonicInSize) {
  core::Cluster c(core::fig7_config(true));
  workload::AllsizeConfig cfg;
  cfg.iterations = 3;
  cfg.sizes = {8, 256, 4096, 16384};
  auto rows = workload::run_allsize(c.queue(), c.port(core::kHost1),
                                    c.port(core::kHost2), cfg);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GT(rows[i].half_rtt_ns, rows[i - 1].half_rtt_ns);
}

TEST(Fig7, ModifiedMcpOverheadSmallAndPositive) {
  // The headline Fig. 7 result: the ITB-capable MCP adds a small constant
  // to the receive path of every packet — the paper measured ~125 ns
  // average and < 300 ns.
  core::Cluster orig(core::fig7_config(false));
  core::Cluster mod(core::fig7_config(true));
  // Single-packet message sizes (multi-fragment messages pay the
  // per-packet overhead once per fragment).
  for (std::size_t size : {16u, 1024u, 4000u}) {
    auto a = workload::run_pingpong(orig.queue(), orig.port(core::kHost1),
                                    orig.port(core::kHost2), size, 5);
    auto b = workload::run_pingpong(mod.queue(), mod.port(core::kHost1),
                                    mod.port(core::kHost2), size, 5);
    const double overhead = b.half_rtt_ns - a.half_rtt_ns;
    EXPECT_GT(overhead, 0) << size;
    EXPECT_LT(overhead, 300) << size;
  }
}

TEST(Fig8, BothPathsCrossFiveSwitchesAndDeliver) {
  for (bool itb : {false, true}) {
    core::Cluster c(core::fig8_config(itb));
    Bytes got;
    c.port(core::kHost2)
        .set_receive_handler(
            [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
    Bytes msg(333, 5);
    ASSERT_TRUE(c.port(core::kHost1).send(core::kHost2, msg));
    c.run();
    EXPECT_EQ(got, msg) << (itb ? "ITB" : "UD");
    if (itb) {
      EXPECT_GE(c.nic(core::kInTransit).stats().itb_forwarded, 1u);
    }
  }
}

TEST(Fig8, ItbOverheadAboutOneMicrosecondAndFlat) {
  // The headline Fig. 8 result: each ITB costs ~1.3 us, roughly flat in
  // message size. Methodology as in the paper: overhead = 2 * (half-RTT
  // with ITB - half-RTT without), since only the forward leg differs.
  std::vector<double> overheads;
  for (std::size_t size : {16u, 512u, 4096u}) {
    core::Cluster ud(core::fig8_config(false));
    core::Cluster itb(core::fig8_config(true));
    auto a = workload::run_pingpong(ud.queue(), ud.port(core::kHost1),
                                    ud.port(core::kHost2), size, 5);
    auto b = workload::run_pingpong(itb.queue(), itb.port(core::kHost1),
                                    itb.port(core::kHost2), size, 5);
    overheads.push_back(2 * (b.half_rtt_ns - a.half_rtt_ns));
  }
  for (double o : overheads) {
    EXPECT_GT(o, 700.0);   // the prior-work estimate was ~0.5 us; measured
    EXPECT_LT(o, 2000.0);  // ~1.3 us on real hardware
  }
  // Flatness (virtual cut-through): sizes differ by 256x, overhead within
  // a few hundred ns.
  const auto [lo, hi] = std::minmax_element(overheads.begin(), overheads.end());
  EXPECT_LT(*hi - *lo, 500.0);
}

TEST(Load, UniformTrafficDeliversUnderLightLoad) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.message_bytes = 256;
  lc.arrivals.rate_per_s = 2000;  // light
  lc.warmup = 1 * sim::kMs;
  lc.measure = 5 * sim::kMs;
  auto result = workload::run_load(c.queue(), c.ports(), lc);
  EXPECT_GT(result.messages_delivered, 20u);
  EXPECT_GT(result.latency_mean_ns, 0);
  EXPECT_EQ(result.retransmissions, 0u);
}

TEST(Load, SaturationCapsAcceptedThroughput) {
  // Offered load far beyond capacity: accepted throughput must saturate
  // (send-token refusals appear) instead of diverging.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.message_bytes = 2048;
  lc.arrivals.rate_per_s = 5e5;  // absurd
  lc.warmup = 500 * sim::kUs;
  lc.measure = 3 * sim::kMs;
  auto result = workload::run_load(c.queue(), c.ports(), lc);
  EXPECT_GT(result.sends_refused, 0u);
  // Wire limit is 160 MB/s per direction; two hosts exchanging traffic
  // full-duplex can accept at most ~320 MB/s in aggregate.
  EXPECT_LT(result.accepted_bytes_per_s, 330e6);
}

TEST(Load, DeterministicForSeed) {
  auto run_once = [] {
    core::ClusterConfig cfg;
    cfg.topology = topo::make_fig1_network();
    cfg.engine = {routing::Policy::kUpDown, 1};
    core::Cluster c(std::move(cfg));
    workload::LoadConfig lc;
    lc.arrivals.rate_per_s = 3000;
    lc.warmup = 1 * sim::kMs;
    lc.measure = 3 * sim::kMs;
    lc.arrivals.seed = 42;
    return workload::run_load(c.queue(), c.ports(), lc).messages_delivered;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Load, BackpressureRefusesSendsAndBoundsLatency) {
  // A tiny GM send-token pool under absurd offered load: the runner must
  // surface the backpressure as sends_refused (not queue unboundedly), and
  // the latency of the messages that DO go out must stay bounded — refusal
  // happens at call time, so accepted messages never sit in a client queue.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);
  cfg.gm_config.send_tokens = 2;
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.message_bytes = 1024;
  lc.arrivals.rate_per_s = 2e5;
  lc.warmup = 500 * sim::kUs;
  lc.measure = 3 * sim::kMs;
  auto result = workload::run_load(c.queue(), c.ports(), lc);
  EXPECT_GT(result.sends_refused, 100u);
  EXPECT_GT(result.messages_delivered, 0u);
  // With 2 tokens x 1 KB in flight, delivery latency is a few packet times,
  // nowhere near the measurement window.
  EXPECT_LT(result.latency_p999_ns, 1.0 * sim::kMs);
  EXPECT_GE(result.latency_p999_ns, result.latency_p99_ns);
}

TEST(Load, SweepResultsAreJobsInvariant) {
  // The motivation bench's --jobs guarantee, as a regression test: each
  // sweep point seeds per-host counter-style RNG streams, so results are
  // bit-identical no matter how many workers run the sweep.
  const std::vector<double> rates = {1e3, 3e3, 6e3};
  auto run_sweep = [&](unsigned jobs) {
    return sim::run_sweep_parallel(
        rates.size(),
        [&](std::size_t i) {
          core::ClusterConfig cfg;
          cfg.topology = topo::make_fig1_network();
          core::Cluster c(std::move(cfg));
          workload::LoadConfig lc;
          lc.arrivals.rate_per_s = rates[i];
          lc.warmup = 500 * sim::kUs;
          lc.measure = 2 * sim::kMs;
          lc.arrivals.seed = 7;
          return workload::run_load(c.queue(), c.ports(), lc);
        },
        jobs);
  };
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].messages_delivered, parallel[i].messages_delivered);
    EXPECT_EQ(serial[i].sends_refused, parallel[i].sends_refused);
    EXPECT_DOUBLE_EQ(serial[i].latency_mean_ns, parallel[i].latency_mean_ns);
    EXPECT_DOUBLE_EQ(serial[i].latency_p999_ns, parallel[i].latency_p999_ns);
    EXPECT_DOUBLE_EQ(serial[i].accepted_bytes_per_s,
                     parallel[i].accepted_bytes_per_s);
  }
}

TEST(Load, LeavesNothingPendingAfterReturn) {
  // With no warm-up the cool-down ends at the window's end. No arrival may
  // still be pending then: draining the queue afterwards sends nothing and
  // touches nothing of the returned call.
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  workload::LoadConfig lc;
  lc.arrivals.rate_per_s = 8000;
  lc.warmup = 0;
  lc.measure = 6 * sim::kMs;
  const auto result = workload::run_load(c.queue(), c.ports(), lc);
  ASSERT_GT(result.messages_delivered, 0u);
  std::vector<std::uint64_t> sent;
  for (auto* p : c.ports()) sent.push_back(p->stats().messages_sent);
  c.queue().run();
  for (std::size_t h = 0; h < sent.size(); ++h)
    EXPECT_EQ(c.port(static_cast<std::uint16_t>(h)).stats().messages_sent,
              sent[h])
        << "host " << h;
}

// The one arrival generator's destination patterns, through both of its
// sources: GM messages (run_load) and RPC calls (svc::OpenLoopDriver), on
// the Fig. 1 network. Either way a host's sends or calls, and what each
// host receives, show where the arrivals went.
struct Tally {
  std::uint64_t arrivals = 0;
  std::uint64_t attempts = 0;  // sends or calls, accepted or refused
  std::vector<std::uint64_t> sent, received;
};

core::Cluster fig1_cluster() {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  return core::Cluster(std::move(cfg));
}

Tally gm_tally(const workload::Arrivals& arrivals) {
  core::Cluster c = fig1_cluster();
  workload::LoadConfig lc;
  lc.arrivals = arrivals;
  lc.warmup = 500 * sim::kUs;
  lc.measure = 4 * sim::kMs;
  const auto r = workload::run_load(c.queue(), c.ports(), lc);
  Tally t;
  t.arrivals = r.arrivals;
  t.attempts = r.sends_refused;
  for (auto* p : c.ports()) {
    t.attempts += p->stats().messages_sent;
    t.sent.push_back(p->stats().messages_sent);
    t.received.push_back(p->stats().messages_delivered);
  }
  return t;
}

Tally rpc_tally(const workload::Arrivals& arrivals) {
  core::Cluster c = fig1_cluster();
  std::vector<std::unique_ptr<svc::RpcEndpoint>> owned;
  std::vector<svc::RpcEndpoint*> endpoints;
  for (auto* port : c.ports()) {
    owned.push_back(std::make_unique<svc::RpcEndpoint>(
        c.queue(), *port, svc::EndpointConfig{}));
    endpoints.push_back(owned.back().get());
  }
  svc::OpenLoopConfig lc;
  lc.arrivals = arrivals;
  lc.duration = 4 * sim::kMs;
  svc::OpenLoopDriver d(c.queue(), endpoints, lc);
  d.start();
  c.run();
  Tally t;
  t.arrivals = d.stats().arrivals;
  t.attempts = d.stats().calls_issued + d.stats().calls_refused;
  for (auto* e : endpoints) {
    t.sent.push_back(e->client().slo().combined().issued);
    t.received.push_back(e->server().stats().requests);
  }
  return t;
}

struct PatternCase {
  workload::Pattern pattern;
  bool rpc;  // RPC calls, else GM messages
};

// Names the cases (ctest lists .../uniform_gm); see property_test.cpp.
void PrintTo(const PatternCase& c, std::ostream* os) {
  *os << workload::to_string(c.pattern) << (c.rpc ? "_rpc" : "_gm");
}

std::vector<PatternCase> pattern_cases() {
  std::vector<PatternCase> out;
  for (auto p : {workload::Pattern::kUniform, workload::Pattern::kIncast,
                 workload::Pattern::kHotspot, workload::Pattern::kAllToAll})
    for (bool rpc : {false, true}) out.push_back({p, rpc});
  return out;
}

class TrafficPattern : public ::testing::TestWithParam<PatternCase> {};

TEST_P(TrafficPattern, SendsWhereThePatternSays) {
  const auto [pattern, rpc] = GetParam();
  workload::Arrivals a;
  a.pattern = pattern;
  a.target_host = 3;
  a.rate_per_s = pattern == workload::Pattern::kAllToAll ? 500 : 3000;
  // GmPort::send throws on a send to its own host, so a run that completes
  // is one where no arrival picked its source.
  Tally t;
  ASSERT_NO_THROW(t = rpc ? rpc_tally(a) : gm_tally(a));
  ASSERT_GT(t.arrivals, 0u);
  const std::size_t n = t.sent.size();
  std::uint64_t sent = 0, received = 0;
  for (std::size_t h = 0; h < n; ++h) {
    sent += t.sent[h];
    received += t.received[h];
  }
  EXPECT_EQ(received, sent);  // light load: everything sent arrives
  // All-to-all fans each arrival out to every other host; the rest send
  // one message or call per arrival.
  const std::size_t fan_out =
      pattern == workload::Pattern::kAllToAll ? n - 1 : 1;
  EXPECT_EQ(t.attempts, t.arrivals * fan_out);
  switch (pattern) {
    case workload::Pattern::kUniform:
      for (std::size_t h = 0; h < n; ++h) {
        EXPECT_GT(t.sent[h], 0u) << "host " << h;
        EXPECT_GT(t.received[h], 0u) << "host " << h;
      }
      break;
    case workload::Pattern::kIncast:
      EXPECT_EQ(t.sent[a.target_host], 0u);
      EXPECT_GT(t.received[a.target_host], 0u);
      EXPECT_EQ(t.received[a.target_host], sent);
      break;
    case workload::Pattern::kHotspot:
      for (std::size_t h = 0; h < n; ++h) {
        if (h == a.target_host) continue;
        EXPECT_GT(t.received[a.target_host], t.received[h]) << "host " << h;
      }
      break;
    case workload::Pattern::kAllToAll:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, TrafficPattern,
                         ::testing::ValuesIn(pattern_cases()));

// Arrivals fall in (now, until]: an arrival drawn exactly at the horizon is
// issued, one a nanosecond past it is not. Host 0 is the only generating
// host (incast onto host 1), and its first gap is redrawn from its stream.
TEST(Arrivals, HorizonIncludesAnArrivalDrawnAtIt) {
  workload::Arrivals a;
  a.pattern = workload::Pattern::kIncast;
  a.target_host = 1;
  a.seed = 7;
  const auto first_gap = static_cast<sim::Duration>(
      sim::Rng::stream(a.seed, 0).next_exponential(1e9 / a.rate_per_s));
  ASSERT_GT(first_gap, 1);
  for (const sim::Time until : {first_gap, first_gap - 1}) {
    sim::EventQueue queue;
    std::vector<sim::Time> issued;
    workload::ArrivalGenerator gen(
        queue, 2, a, [&](std::size_t src, std::uint16_t dst) {
          EXPECT_EQ(src, 0u);
          EXPECT_EQ(dst, 1u);
          issued.push_back(queue.now());
        });
    gen.start(until);
    queue.run();
    const auto want = until == first_gap ? std::vector<sim::Time>{first_gap}
                                         : std::vector<sim::Time>{};
    EXPECT_EQ(issued, want) << "horizon " << until;
    EXPECT_EQ(gen.arrivals(), issued.size());
  }
}

}  // namespace
