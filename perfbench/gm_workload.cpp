// gm_uniform_itb128: GM messages over the ITB data plane.
//
// The motivation model of the paper (§1-2, refs [2,3]): 32 8-port switches
// with 4 hosts each and irregular trunks (the network motivation_throughput
// draws from seed 2001), routed with in-transit buffers. Every host sends
// 512 B GM messages to uniform destinations as an open-loop Poisson stream
// at 10 k msgs/s, about half of ITB saturation, so nearly all host time goes
// to the event loop (sim/net/nic/gm) and a large share of worms takes the
// eject-and-re-inject path. Setup is small.
#include <memory>

#include "common.hpp"
#include "itb/sim/alloc_hook.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFabricSeed = 2001;
constexpr std::uint16_t kSwitches = 32;
constexpr std::uint8_t kHostsPerSwitch = 4;
constexpr double kRatePerHost = 1e4;  // msgs/s per host, Poisson
constexpr std::size_t kMessageBytes = 512;
constexpr sim::Duration kWarmup = 2 * sim::kMs;
constexpr sim::Duration kTimed = 20 * sim::kMs;
constexpr sim::Duration kSlice = 1 * sim::kMs;  // one "sim" span each
const engine::EngineSpec kEngine{engine::EngineKind::kItb, 1};

struct Arrival {
  sim::Time at = 0;
  std::uint16_t dst = 0;
};

struct Inputs {
  std::vector<std::vector<Arrival>> arrivals;  // per source, in time order
  std::vector<std::uint32_t> first_id;  // global id of each source's first
  std::uint32_t total = 0;
};

topo::Topology make_topology() {
  sim::Rng rng(kFabricSeed);
  topo::IrregularSpec spec;
  spec.switches = kSwitches;
  spec.hosts_per_switch = kHostsPerSwitch;
  return topo::make_random_irregular(spec, rng);
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  const std::size_t hosts = std::size_t{kSwitches} * kHostsPerSwitch;
  in.arrivals.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    sim::Rng rng = sim::Rng::stream(seed, h);
    in.first_id.push_back(in.total);
    sim::Time t = 0;
    for (;;) {
      t += std::max<sim::Duration>(
          static_cast<sim::Duration>(rng.next_exponential(1e9 / kRatePerHost)),
          1);
      if (t >= kWarmup + kTimed) break;
      std::uint16_t dst;
      do {
        dst = static_cast<std::uint16_t>(rng.next_below(hosts));
      } while (dst == h);
      in.arrivals[h].push_back(Arrival{t, dst});
    }
    in.total += static_cast<std::uint32_t>(in.arrivals[h].size());
  }
  return in;
}

// Payload layout: src (2 B), per-source sequence (4 B), send time (8 B),
// little endian, then zero padding.
void put(packet::Bytes& b, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get(const packet::Bytes& b, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= std::uint64_t{b[at + static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

class Rep {
 public:
  Rep(const Inputs& in, SpanLog& spans) : in_(in), spans_(spans) {}

  RepResult run() {
    RepResult r;
    deliveries_.assign(in_.total, 0);
    latency_.assign(in_.total, 0);
    SpanScope rep_span(spans_, "rep");

    // Setup: topology generation to a cluster ready for traffic.
    const auto allocs0 = sim::total_allocations();
    const auto t0 = host_ns();
    auto cfg = data_plane_config(kEngine);
    {
      SpanScope s(spans_, "topo");
      cfg.topology = make_topology();
    }
    {
      SpanScope s(spans_, "core");
      cluster_ = std::make_unique<core::Cluster>(std::move(cfg));
    }
    for (std::uint16_t h = 0; h < cluster_->host_count(); ++h)
      cluster_->port(h).set_receive_handler(
          [this, h](sim::Time t, std::uint16_t src, packet::Bytes msg) {
            on_message(h, t, src, msg);
          });
    r.setup_s = seconds_between(t0, host_ns());
    r.exact["sim.setup_allocs"] =
        static_cast<double>(sim::total_allocations() - allocs0);
    if (spans_.armed()) time_mapper(spans_, *cluster_, kEngine);
    add_setup_metrics(r.exact, *cluster_);

    for (std::uint16_t h = 0; h < cluster_->host_count(); ++h)
      if (!in_.arrivals[h].empty()) arm(h, 0);
    run_timed_region(
        r, *cluster_, spans_, kWarmup, kWarmup + kTimed, kSlice,
        [this] { return delivered_; }, [this] { return own_allocs_; });
    check(r);
    return r;
  }

 private:
  void arm(std::uint16_t host, std::uint32_t seq) {
    cluster_->queue().schedule_at(in_.arrivals[host][seq].at,
                                  [this, host, seq] { fire(host, seq); });
  }

  void fire(std::uint16_t host, std::uint32_t seq) {
    const Arrival& a = in_.arrivals[host][seq];
    const auto allocs0 = sim::total_allocations();
    packet::Bytes msg(kMessageBytes, 0);
    own_allocs_ += sim::total_allocations() - allocs0;
    put(msg, 0, host, 2);
    put(msg, 2, seq, 4);
    put(msg, 6, static_cast<std::uint64_t>(a.at), 8);
    {
      SpanScope s(spans_, "gm", in_.first_id[host] + seq);
      if (!cluster_->port(host).send(a.dst, std::move(msg))) ++refused_;
    }
    if (seq + 1 < in_.arrivals[host].size()) arm(host, seq + 1);
  }

  void on_message(std::uint16_t host, sim::Time t, std::uint16_t src,
                  const packet::Bytes& msg) {
    ++delivered_;
    if (msg.size() != kMessageBytes || get(msg, 0, 2) != src ||
        src >= in_.arrivals.size()) {
      ++corrupt_;
      return;
    }
    const auto seq = static_cast<std::uint32_t>(get(msg, 2, 4));
    if (seq >= in_.arrivals[src].size() ||
        in_.arrivals[src][seq].dst != host ||
        static_cast<sim::Time>(get(msg, 6, 8)) != in_.arrivals[src][seq].at) {
      ++corrupt_;
      return;
    }
    const auto id = in_.first_id[src] + seq;
    if (deliveries_[id] < 255) ++deliveries_[id];
    latency_[id] = t - in_.arrivals[src][seq].at;
  }

  void check(RepResult& r) {
    r.attempted = in_.total;
    std::uint64_t not_once = 0;
    for (auto d : deliveries_) not_once += d != 1;
    if (not_once)
      fail(r,
           std::to_string(not_once) + " messages not delivered exactly once (" +
               std::to_string(refused_) + " refused by GM)",
           not_once);
    if (corrupt_)
      fail(r, std::to_string(corrupt_) + " deliveries with a wrong header",
           corrupt_);
    if (!ledger_holds(*cluster_) || cluster_->network().in_flight() != 0)
      fail(r, "network ledger broken at quiescence");
    const auto end = snapshot(*cluster_);
    if (end.gm_sent != end.gm_delivered)
      fail(r, "GM sent " + std::to_string(end.gm_sent) + " != delivered " +
                  std::to_string(end.gm_delivered));

    Digest d;
    d.add(in_.total);
    for (auto l : latency_) d.add(static_cast<std::uint64_t>(l));
    digest_model_counters(d, end);
    d.add(static_cast<std::uint64_t>(cluster_->queue().now()));
    r.digest = d.value();
  }

  const Inputs& in_;
  SpanLog& spans_;
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<std::uint8_t> deliveries_;  // per global message id
  std::vector<sim::Duration> latency_;    // per global message id
  std::uint64_t delivered_ = 0;           // receive-handler calls
  std::uint64_t refused_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t own_allocs_ = 0;  // payload buffers built for send()
};

}  // namespace

Workload prepare_gm_workload(std::uint64_t seed) {
  auto in = std::make_shared<const Inputs>(generate(seed));
  Workload w;
  w.span_capacity = in->total + 64;
  w.run = [in](SpanLog& spans) { return Rep(*in, spans).run(); };
  return w;
}

}  // namespace perfbench
