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
// itb.bench.v1 document CI gates on (>15% events/sec regression vs the
// committed BENCH_7.json fails the build).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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
  std::string json_path;
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

bool write_json(const Options& opt, const BenchResult& best) {
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"itb.bench.v1\",\n");
  std::fprintf(f, "  \"bench\": \"engine_throughput\",\n");
  std::fprintf(f, "  \"pr\": 7,\n");
  std::fprintf(f,
               "  \"description\": \"Pure engine microbench: saturating "
               "closed-loop mirror traffic on a %d-switch chain COW, %d "
               "hosts, window %d, %d B payload. Committed events/sec over "
               "the wall clock of the timed region; buffers recycled so a "
               "zero-allocation engine shows 0 steady-state allocs.\",\n",
               opt.switches, opt.switches * opt.hosts_per_switch, opt.window,
               opt.payload);
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"switches\": %d,\n", opt.switches);
  std::fprintf(f, "    \"hosts_per_switch\": %d,\n", opt.hosts_per_switch);
  std::fprintf(f, "    \"window\": %d,\n", opt.window);
  std::fprintf(f, "    \"payload_bytes\": %d,\n", opt.payload);
  std::fprintf(f, "    \"warmup_events\": %" PRIu64 ",\n", opt.warmup);
  std::fprintf(f, "    \"timed_events\": %" PRIu64 ",\n", opt.events);
  std::fprintf(f, "    \"reps\": %d\n", opt.reps);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"headline\": {\n");
  std::fprintf(f, "    \"events_per_s\": %.0f,\n", best.events_per_s);
  std::fprintf(f, "    \"worms_per_s\": %.0f,\n", best.worms_per_s);
  std::fprintf(f, "    \"steady_state_allocations\": %" PRIu64 ",\n",
               best.steady_allocs);
  std::fprintf(f, "    \"alloc_counting_available\": %s,\n",
               sim::alloc_counting_available() ? "true" : "false");
  std::fprintf(f, "    \"timed_events\": %" PRIu64 ",\n", best.timed_events);
  std::fprintf(f, "    \"timed_worms\": %" PRIu64 ",\n", best.timed_worms);
  std::fprintf(f, "    \"head_blocks\": %" PRIu64 ",\n", best.head_blocks);
  std::fprintf(f, "    \"live_worms\": %" PRIu64 "\n", best.live_worms);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json_path = next("--json");
    } else if (arg == "--switches") {
      opt.switches = std::atoi(next("--switches"));
    } else if (arg == "--hosts-per-switch") {
      opt.hosts_per_switch = std::atoi(next("--hosts-per-switch"));
    } else if (arg == "--window") {
      opt.window = std::atoi(next("--window"));
    } else if (arg == "--payload") {
      opt.payload = std::atoi(next("--payload"));
    } else if (arg == "--warmup") {
      opt.warmup = std::strtoull(next("--warmup"), nullptr, 10);
    } else if (arg == "--events") {
      opt.events = std::strtoull(next("--events"), nullptr, 10);
    } else if (arg == "--reps") {
      opt.reps = std::atoi(next("--reps"));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--switches N] [--hosts-per-switch N] "
                   "[--window N] [--payload BYTES] [--warmup EVENTS] "
                   "[--events EVENTS] [--reps N] [--json PATH]\n",
                   argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }
  if (opt.switches < 2 || opt.hosts_per_switch < 1 ||
      opt.hosts_per_switch > 6 || opt.window < 1) {
    std::fprintf(stderr, "bad config (need >=2 switches, 1..6 hosts/switch, "
                         "window >= 1)\n");
    return 2;
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

  if (!opt.json_path.empty()) {
    if (!write_json(opt, best)) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
    std::printf("JSON report written to %s\n", opt.json_path.c_str());
  }
  return 0;
}
