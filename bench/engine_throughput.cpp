// Pure engine throughput microbench — the tracked perf trajectory's
// events/sec point (BENCH_7.json).
//
// Drives net::Network directly with a saturating closed-loop workload on a
// synthetic COW: a chain of 8-port switches with hosts hanging off each,
// every host streaming fixed-size packets at its mirror host with a fixed
// window. Chain routes are up*/down*-valid by construction (all-left or
// all-right), so the saturation is deadlock-free and the in-flight
// population stays pinned at the window limit. No NIC, no GM, no I/O in the
// timed region: what is measured is the simulator's own hot loop — event
// engine, channel arbitration, worm bookkeeping.
//
// Delivered packets recycle their byte buffers back into the next injection
// (route prefix re-inserted in place), so in an allocation-free engine the
// steady state performs ZERO heap allocations — counted for real via
// sim::alloc_hook and reported as steady_state_allocations.
//
// Output: committed events/sec (queue.run_events over wall time), worms/sec
// (deliveries), and the allocation count; `--json <path>` writes the
// itb.telemetry.v1 report CI gates on (>15% events/sec regression vs the
// committed BENCH_7.json fails the build).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "itb/net/network.hpp"
#include "itb/packet/format.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/topo/topology.hpp"

namespace {

using namespace itb;

struct Options {
  int switches = 8;
  int hosts_per_switch = 4;
  int window = 8;            // packets in flight per flow
  int payload = 64;          // payload bytes per packet
  std::uint64_t warmup = 200'000;   // events before the timed region
  std::uint64_t events = 2'000'000;  // timed region length
  int reps = 3;              // timed repetitions; best rep is reported
};

/// Closed-loop traffic source: every delivery at the mirror host re-injects
/// the same buffer from the original source, keeping `window` packets in
/// flight per flow forever.
class SyntheticHost final : public net::HostHooks {
 public:
  struct Flow {
    std::uint16_t src = 0;
    packet::Bytes route_prefix;  // re-inserted in front of recycled buffers
  };

  SyntheticHost(net::Network& network, std::vector<Flow>& flows,
                std::uint64_t& deliveries)
      : network_(network), flows_(flows), deliveries_(deliveries) {}

  void on_rx_head(sim::Time, net::TxHandle) override {}
  void on_rx_early_header(sim::Time, net::TxHandle,
                          const packet::Bytes&) override {}
  void on_tx_started(sim::Time, net::TxHandle) override {}
  void on_tx_complete(sim::Time, net::TxHandle) override {}

  void on_rx_complete(sim::Time, net::WirePacket pkt) override {
    ++deliveries_;
    // Recycle: the route bytes were consumed en route; splice the flow's
    // route prefix back in front and send the buffer out again. The
    // buffer's capacity already fits the full packet, so the insert is a
    // memmove, not an allocation.
    Flow& flow = flows_[pkt.src_host];
    packet::Bytes buf = std::move(pkt.bytes);
    buf.insert(buf.begin(), flow.route_prefix.begin(),
               flow.route_prefix.end());
    network_.inject(flow.src, std::move(buf));
  }

 private:
  net::Network& network_;
  std::vector<Flow>& flows_;
  std::uint64_t& deliveries_;
};

struct BenchResult {
  double events_per_s = 0;
  double worms_per_s = 0;
  std::uint64_t timed_events = 0;
  std::uint64_t timed_worms = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t head_blocks = 0;
  std::uint64_t live_worms = 0;
  double wall_s = 0;
};

BenchResult run_once(const Options& opt) {
  const int s_count = opt.switches;
  const int per_switch = opt.hosts_per_switch;
  const int n_hosts = s_count * per_switch;

  // Chain topology: switch i port 0 -> switch i-1, port 1 -> switch i+1,
  // ports 2.. host slots. A chain is a tree, so the mirrored all-to-mirror
  // pattern below is deadlock-free under wormhole channel holding.
  topo::Topology topo;
  for (int s = 0; s < s_count; ++s) topo.add_switch(8);
  for (int h = 0; h < n_hosts; ++h) topo.add_host();
  for (int s = 0; s + 1 < s_count; ++s)
    topo.connect_switches(static_cast<std::uint16_t>(s), 1,
                          static_cast<std::uint16_t>(s + 1), 0);
  for (int h = 0; h < n_hosts; ++h)
    topo.attach_host(static_cast<std::uint16_t>(h),
                     static_cast<std::uint16_t>(h / per_switch),
                     static_cast<std::uint8_t>(2 + h % per_switch));

  sim::EventQueue queue;
  net::Network network(topo, net::NetTiming{}, queue);

  std::vector<SyntheticHost::Flow> flows(n_hosts);
  std::uint64_t deliveries = 0;
  std::vector<std::unique_ptr<SyntheticHost>> hosts;
  hosts.reserve(n_hosts);
  for (int h = 0; h < n_hosts; ++h) {
    hosts.push_back(
        std::make_unique<SyntheticHost>(network, flows, deliveries));
    network.attach_host(static_cast<std::uint16_t>(h), hosts.back().get());
  }

  // Flow h -> mirror host (N-1-h): route = |ds| inter-switch bytes plus the
  // final host-port byte.
  const packet::Bytes payload(static_cast<std::size_t>(opt.payload), 0xAB);
  for (int h = 0; h < n_hosts; ++h) {
    const int dst = n_hosts - 1 - h;
    const int sa = h / per_switch, sb = dst / per_switch;
    packet::Route route;
    for (int s = sa; s != sb; s += (sb > sa ? 1 : -1))
      route.push_back(sb > sa ? 1 : 0);
    route.push_back(static_cast<std::uint8_t>(2 + dst % per_switch));
    auto& flow = flows[h];
    flow.src = static_cast<std::uint16_t>(h);
    for (std::uint8_t port : route)
      flow.route_prefix.push_back(packet::encode_route_byte(port));
    for (int w = 0; w < opt.window; ++w)
      network.inject(flow.src,
                     packet::build_packet(route, packet::PacketType::kGm,
                                          payload));
  }

  // Warmup: pools grow, queues stretch, vectors reach steady capacity.
  queue.run_events(opt.warmup);
  sim::mark_steady_state();
  const std::uint64_t allocs_before = sim::total_allocations();
  const std::uint64_t worms_before = network.stats().delivered;
  const std::uint64_t blocks_before = network.stats().head_blocks;

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t fired = queue.run_events(opt.events);
  const auto t1 = std::chrono::steady_clock::now();

  BenchResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.timed_events = fired;
  r.timed_worms = network.stats().delivered - worms_before;
  r.head_blocks = network.stats().head_blocks - blocks_before;
  r.steady_allocs = sim::total_allocations() - allocs_before;
  r.live_worms = network.in_flight();
  r.events_per_s = static_cast<double>(fired) / r.wall_s;
  r.worms_per_s = static_cast<double>(r.timed_worms) / r.wall_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool help = false;
  bench::Harness h("engine_throughput", bench::kJson);
  // A chain of 8-port switches: two trunk ports, at most six host slots.
  h.cli.number("--switches", &opt.switches, 2, 4096);
  h.cli.number("--hosts-per-switch", &opt.hosts_per_switch, 1, 6);
  h.cli.number("--window", &opt.window, 1, 4096);
  h.cli.number("--payload", &opt.payload, 0, 1 << 20);
  h.cli.number("--warmup", &opt.warmup, std::uint64_t{0});
  h.cli.number("--events", &opt.events, std::uint64_t{1});
  h.cli.number("--reps", &opt.reps, 1, 1000);
  h.cli.toggle("--help", &help);
  h.parse(argc, argv);
  if (help) {
    std::fprintf(stderr, "%s\n", h.cli.usage("engine_throughput").c_str());
    return 0;
  }

  std::printf("engine_throughput: %d-switch chain, %d hosts, window %d, "
              "%d B payload, %" PRIu64 " warmup + %" PRIu64
              " timed events x %d reps\n",
              opt.switches, opt.switches * opt.hosts_per_switch, opt.window,
              opt.payload, opt.warmup, opt.events, opt.reps);
  std::printf("allocation counting: %s\n\n",
              sim::alloc_counting_available() ? "on" : "unavailable (sanitizer build)");

  BenchResult best;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const BenchResult r = run_once(opt);
    std::printf("rep %d: %10.0f events/s  %9.0f worms/s  "
                "%8" PRIu64 " steady-state allocs  (%.3f s, %" PRIu64
                " live worms, %" PRIu64 " head blocks)\n",
                rep, r.events_per_s, r.worms_per_s, r.steady_allocs,
                r.wall_s, r.live_worms, r.head_blocks);
    if (r.events_per_s > best.events_per_s) best = r;
  }

  std::printf("\nbest: %.2f M events/s, %.2f M worms/s, %" PRIu64
              " steady-state allocations\n",
              best.events_per_s / 1e6, best.worms_per_s / 1e6,
              best.steady_allocs);

  auto& report = h.report;
  report.set_param("switches", opt.switches);
  report.set_param("hosts_per_switch", opt.hosts_per_switch);
  report.set_param("window", opt.window);
  report.set_param("payload_bytes", opt.payload);
  report.set_param("warmup_events", static_cast<double>(opt.warmup));
  report.set_param("timed_events", static_cast<double>(opt.events));
  report.set_param("reps", opt.reps);
  report.add_scalar("events_per_s", best.events_per_s);
  report.add_scalar("worms_per_s", best.worms_per_s);
  report.add_scalar("steady_state_allocations",
                    static_cast<double>(best.steady_allocs));
  report.add_scalar("alloc_counting_available",
                    sim::alloc_counting_available() ? 1 : 0);
  report.add_scalar("timed_events", static_cast<double>(best.timed_events));
  report.add_scalar("timed_worms", static_cast<double>(best.timed_worms));
  report.add_scalar("head_blocks", static_cast<double>(best.head_blocks));
  report.add_scalar("live_worms", static_cast<double>(best.live_worms));
  return h.finish();
}
