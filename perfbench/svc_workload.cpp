// svc_rpc_vc32: RPC calls over GM on the 2-lane VC-escape network.
//
// svc_slo's headline operating point (tokened admission, lognormal
// arrivals, bounded-Pareto service, three priority classes) on its
// 8-switch/32-host COW (seed 6001), but routed by the VC-escape engine
// instead of ITB. It drives gm and sim differently from gm_uniform_itb128
// (request/response pairs, far deadline timers on the spill heap, rejects,
// retries and cancels), is the only workload on the multi-lane network
// path, and never touches the NIC's ITB path — so a change to one engine's
// hot path shows on one data-plane workload and reads flat on the other.
#include <memory>

#include "common.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/svc/rpc.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFabricSeed = 6001;
constexpr std::uint16_t kSwitches = 8;
constexpr std::uint8_t kHostsPerSwitch = 4;
constexpr double kRatePerClient = 1e4;  // calls/s, lognormal gaps
constexpr double kArrivalSigma = 1.5;
constexpr double kMeanService = 300e3;  // ns, bounded Pareto
constexpr double kParetoAlpha = 1.5;
constexpr double kParetoCap = 50.0;
constexpr double kClassMix[svc::kPriorityClasses] = {0.2, 0.5, 0.3};
constexpr std::uint32_t kResponseBytes = 512;
constexpr sim::Duration kWarmup = 2 * sim::kMs;
constexpr sim::Duration kTimed = 40 * sim::kMs;
constexpr sim::Duration kSlice = 1 * sim::kMs;  // one "sim" span each
const engine::EngineSpec kEngine{engine::EngineKind::kVcEscape, 2};

struct Call {
  sim::Time at = 0;
  svc::CallSpec spec;
};

struct Inputs {
  std::vector<std::vector<Call>> calls;  // per client, in time order
  std::vector<std::uint32_t> first_id;   // global id of each client's first
  std::uint32_t total = 0;
};

topo::Topology make_topology() {
  sim::Rng rng(kFabricSeed);
  topo::IrregularSpec spec;
  spec.switches = kSwitches;
  spec.hosts_per_switch = kHostsPerSwitch;
  return topo::make_random_irregular(spec, rng);
}

svc::Priority draw_class(sim::Rng& rng) {
  double u = rng.next_double();
  for (std::size_t c = 0; c + 1 < svc::kPriorityClasses; ++c) {
    u -= kClassMix[c];
    if (u < 0) return static_cast<svc::Priority>(c);
  }
  return static_cast<svc::Priority>(svc::kPriorityClasses - 1);
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  const std::size_t hosts = std::size_t{kSwitches} * kHostsPerSwitch;
  in.calls.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    sim::Rng rng = sim::Rng::stream(seed, h);
    in.first_id.push_back(in.total);
    sim::Time t = 0;
    for (;;) {
      t += std::max<sim::Duration>(
          static_cast<sim::Duration>(
              rng.next_lognormal(1e9 / kRatePerClient, kArrivalSigma)),
          1);
      if (t >= kWarmup + kTimed) break;
      Call c;
      c.at = t;
      c.spec.cls = draw_class(rng);
      c.spec.service = std::max<sim::Duration>(
          static_cast<sim::Duration>(rng.next_bounded_pareto(
              kMeanService, kParetoAlpha, kParetoCap)),
          1);
      c.spec.resp_bytes = kResponseBytes;
      do {
        c.spec.dst = static_cast<std::uint16_t>(rng.next_below(hosts));
      } while (c.spec.dst == h);
      in.calls[h].push_back(c);
    }
    in.total += static_cast<std::uint32_t>(in.calls[h].size());
  }
  return in;
}

svc::EndpointConfig endpoint_config() {
  svc::EndpointConfig ec;
  // Admission: 8 tokens, heavy requests cost up to 4, a 32-deep buffer.
  ec.server.admission.capacity_tokens = 8;
  ec.server.admission.queue_limit = 32;
  ec.server.cost_quantum = 150 * sim::kUs;
  ec.server.max_cost = 4;
  ec.client.max_retries = 1;
  ec.client.deadlines = {2 * sim::kMs, 8 * sim::kMs, 32 * sim::kMs};
  ec.client.request_bytes = 128;
  return ec;  // every call is tracked: the SLO window covers the whole run
}

class Rep {
 public:
  Rep(const Inputs& in, SpanLog& spans) : in_(in), spans_(spans) {}

  RepResult run() {
    RepResult r;
    SpanScope rep_span(spans_, "rep");

    // Setup: topology generation to RPC endpoints ready for traffic.
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
    const auto ec = endpoint_config();
    for (auto* port : cluster_->ports())
      endpoints_.push_back(
          std::make_unique<svc::RpcEndpoint>(cluster_->queue(), *port, ec));
    r.setup_s = seconds_between(t0, host_ns());
    r.exact["sim.setup_allocs"] =
        static_cast<double>(sim::total_allocations() - allocs0);
    if (spans_.armed()) time_mapper(spans_, *cluster_, kEngine);
    add_setup_metrics(r.exact, *cluster_);

    for (std::uint16_t h = 0; h < cluster_->host_count(); ++h)
      if (!in_.calls[h].empty()) arm(h, 0);
    const auto region = run_timed_region(
        r, *cluster_, spans_, kWarmup, kWarmup + kTimed, kSlice,
        [this] { return resolved(); }, [] { return std::uint64_t{0}; });
    r.exact["svc.gm_msgs_per_call"] =
        ratio(region.after.gm_sent - region.before.gm_sent, r.ops_timed);
    check(r);
    return r;
  }

 private:
  void arm(std::uint16_t host, std::uint32_t seq) {
    cluster_->queue().schedule_at(in_.calls[host][seq].at,
                                  [this, host, seq] { fire(host, seq); });
  }

  void fire(std::uint16_t host, std::uint32_t seq) {
    {
      SpanScope s(spans_, "svc", in_.first_id[host] + seq);
      if (!endpoints_[host]->client().call(in_.calls[host][seq].spec))
        ++refused_;
    }
    if (seq + 1 < in_.calls[host].size()) arm(host, seq + 1);
  }

  std::uint64_t resolved() const {
    std::uint64_t n = 0;
    for (const auto& e : endpoints_)
      for (const auto& c : e->client().slo().cls) n += c.completed + c.failed;
    return n;
  }

  void check(RepResult& r) {
    r.attempted = in_.total;
    if (refused_)
      fail(r, std::to_string(refused_) + " calls refused by the client",
           refused_);
    svc::SloStats slo;
    svc::AdmissionStats adm;
    std::uint64_t pending = 0;
    Digest d;
    for (const auto& e : endpoints_) {
      slo.merge(e->client().slo());
      pending += e->client().pending();
      const auto& a = e->server().admission().stats();
      adm.offered += a.offered;
      adm.rejected_full += a.rejected_full;
      adm.evicted += a.evicted;
      for (std::uint64_t v :
           {a.offered, a.admitted_immediate, a.admitted_from_queue, a.queued,
            a.rejected_full, a.evicted, a.departures, a.first_fit_skips})
        d.add(v);
      const auto& s = e->server().stats();
      for (std::uint64_t v : {s.requests, s.responses_sent, s.rejects_sent,
                              s.send_retries, s.dead_peer_drops, s.malformed})
        d.add(v);
    }
    if (pending)
      fail(r, std::to_string(pending) + " calls still pending", pending);
    for (std::size_t c = 0; c < svc::kPriorityClasses; ++c) {
      const auto& s = slo.cls[c];
      const auto settled = s.completed + s.failed;
      if (s.issued != settled)
        fail(r,
             std::string("class ") +
                 svc::to_string(static_cast<svc::Priority>(c)) + ": issued " +
                 std::to_string(s.issued) + " != completed + failed " +
                 std::to_string(settled),
             s.issued > settled ? s.issued - settled : settled - s.issued);
      for (std::uint64_t v :
           {s.issued, s.completed, s.rejected, s.retries, s.deadline_misses,
            s.failed, s.stale_responses, s.client_refused, s.goodput_bytes})
        d.add(v);
      d.add(s.total);
      d.add(s.admit);
      d.add(s.network);
      d.add(s.service);
    }
    if (!ledger_holds(*cluster_) || cluster_->network().in_flight() != 0)
      fail(r, "network ledger broken at quiescence");
    const auto end = snapshot(*cluster_);
    if (end.gm_sent != end.gm_delivered)
      fail(r, "GM sent " + std::to_string(end.gm_sent) + " != delivered " +
                  std::to_string(end.gm_delivered));
    digest_model_counters(d, end);
    d.add(static_cast<std::uint64_t>(cluster_->queue().now()));
    r.digest = d.value();

    const auto all = slo.combined();
    r.exact["svc.completed_share"] =
        ratio(all.completed, all.completed + all.failed);
    r.exact["svc.retry_share"] = ratio(all.retries, all.issued);
    r.exact["svc.blocking_probability"] = adm.blocking_probability();
  }

  const Inputs& in_;
  SpanLog& spans_;
  std::unique_ptr<core::Cluster> cluster_;
  // After cluster_: endpoints hold references into the cluster's ports.
  std::vector<std::unique_ptr<svc::RpcEndpoint>> endpoints_;
  std::uint64_t refused_ = 0;
};

}  // namespace

Workload prepare_svc_workload(std::uint64_t seed) {
  auto in = std::make_shared<const Inputs>(generate(seed));
  Workload w;
  w.span_capacity = in->total + 128;
  w.run = [in](SpanLog& spans) { return Rep(*in, spans).run(); };
  return w;
}

}  // namespace perfbench
