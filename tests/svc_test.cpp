// itb::svc — admission control, RPC endpoints, open-loop load (DESIGN.md
// §6h). Unit tests for the admission controller's BufferEON-style queue
// discipline and the header codec, end-to-end RPC over a real cluster, and
// the open-loop driver's patterns and determinism.
#include <gtest/gtest.h>

#include "itb/core/cluster.hpp"
#include "itb/svc/openloop.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using svc::AdmissionConfig;
using svc::AdmissionController;
using svc::Priority;
using Outcome = svc::AdmissionController::Outcome;

// ------------------------------------------------------------- header --

TEST(RpcHeader, RoundTripsThroughEncode) {
  svc::RpcHeader h;
  h.kind = svc::RpcHeader::kResponse;
  h.cls = Priority::kBulk;
  h.client = 7;
  h.req_id = 0xDEADBEEF;
  h.issued_ns = 123456789;
  h.service_ns = 42 * sim::kUs;
  h.resp_bytes = 4096;
  h.admit_wait_ns = 777;
  h.service_span_ns = 888;
  const auto msg = h.encode(256);
  EXPECT_EQ(msg.size(), 256u);
  const auto d = svc::RpcHeader::decode(msg);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, svc::RpcHeader::kResponse);
  EXPECT_EQ(d->cls, Priority::kBulk);
  EXPECT_EQ(d->client, 7);
  EXPECT_EQ(d->req_id, 0xDEADBEEFu);
  EXPECT_EQ(d->issued_ns, 123456789u);
  EXPECT_EQ(d->service_ns, static_cast<std::uint64_t>(42 * sim::kUs));
  EXPECT_EQ(d->resp_bytes, 4096u);
  EXPECT_EQ(d->admit_wait_ns, 777u);
  EXPECT_EQ(d->service_span_ns, 888u);
}

TEST(RpcHeader, DecodeRejectsShortBuffers) {
  EXPECT_FALSE(svc::RpcHeader::decode(packet::Bytes{}).has_value());
  EXPECT_FALSE(
      svc::RpcHeader::decode(packet::Bytes(svc::RpcHeader::kSize - 1, 0))
          .has_value());
}

// ---------------------------------------------------------- admission --

TEST(Admission, ImmediateAdmitHoldsTokens) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 4;
  AdmissionController ac(q, cfg);
  EXPECT_EQ(ac.offer(Priority::kNormal, 3, nullptr), Outcome::kAdmitted);
  EXPECT_EQ(ac.tokens_free(), 1);
  ac.depart(3);
  EXPECT_EQ(ac.tokens_free(), 4);
  EXPECT_EQ(ac.stats().admitted_immediate, 1u);
  EXPECT_EQ(ac.stats().departures, 1u);
}

TEST(Admission, QueuedRequestAdmitsOnDepartureWithWaitCharged) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 2;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2, nullptr), Outcome::kAdmitted);
  sim::Time admitted_at = -1;
  ASSERT_EQ(ac.offer(Priority::kNormal, 1,
                     [&](sim::Time now, bool admitted) {
                       ASSERT_TRUE(admitted);
                       admitted_at = now;
                     }),
            Outcome::kQueued);
  EXPECT_EQ(ac.queue_depth(), 1u);
  q.schedule_at(500, [&] { ac.depart(2); });
  q.run();
  EXPECT_EQ(admitted_at, 500);
  EXPECT_EQ(ac.queue_depth(), 0u);
  EXPECT_EQ(ac.stats().admitted_from_queue, 1u);
  // Both admits land in the wait distribution: 0 for the immediate one,
  // the full 500 ns for the queued one (max is tracked exactly).
  EXPECT_EQ(ac.wait_hist(Priority::kNormal).count(), 2u);
  EXPECT_EQ(ac.wait_hist(Priority::kNormal).max(), 500u);
}

TEST(Admission, RejectsWhenBufferFull) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 1;
  cfg.queue_limit = 1;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kNormal, 1, nullptr), Outcome::kAdmitted);
  ASSERT_EQ(ac.offer(Priority::kNormal, 1, [](sim::Time, bool) {}),
            Outcome::kQueued);
  EXPECT_EQ(ac.offer(Priority::kNormal, 1, nullptr), Outcome::kRejected);
  EXPECT_EQ(ac.stats().rejected_full, 1u);
  EXPECT_NEAR(ac.stats().blocking_probability(), 1.0 / 3.0, 1e-9);
}

TEST(Admission, FirstFitSkipsOversizedHead) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 4;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2, nullptr), Outcome::kAdmitted);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2, nullptr), Outcome::kAdmitted);
  bool big_admitted = false, small_admitted = false;
  ASSERT_EQ(ac.offer(Priority::kNormal, 3,
                     [&](sim::Time, bool a) { big_admitted = a; }),
            Outcome::kQueued);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2,
                     [&](sim::Time, bool a) { small_admitted = a; }),
            Outcome::kQueued);
  // Two tokens return: the 3-token head does not fit, the 2-token entry
  // behind it does — first-fit admits it past the head.
  ac.depart(2);
  EXPECT_FALSE(big_admitted);
  EXPECT_TRUE(small_admitted);
  EXPECT_GE(ac.stats().first_fit_skips, 1u);
  EXPECT_EQ(ac.queue_depth(), 1u);
}

TEST(Admission, StrictFifoWithoutFirstFit) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 4;
  cfg.first_fit = false;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2, nullptr), Outcome::kAdmitted);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2, nullptr), Outcome::kAdmitted);
  bool small_admitted = false;
  ASSERT_EQ(ac.offer(Priority::kNormal, 3, [](sim::Time, bool) {}),
            Outcome::kQueued);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2,
                     [&](sim::Time, bool a) { small_admitted = a; }),
            Outcome::kQueued);
  ac.depart(2);
  // Head-of-line: the oversized head blocks everything behind it.
  EXPECT_FALSE(small_admitted);
  EXPECT_EQ(ac.queue_depth(), 2u);
  EXPECT_EQ(ac.stats().first_fit_skips, 0u);
}

TEST(Admission, HighPriorityEvictsNewestBulkWhenFull) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 1;
  cfg.queue_limit = 2;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kBulk, 1, nullptr), Outcome::kAdmitted);
  bool old_evicted = false, new_evicted = false;
  ASSERT_EQ(ac.offer(Priority::kBulk, 1,
                     [&](sim::Time, bool a) { old_evicted = !a; }),
            Outcome::kQueued);
  ASSERT_EQ(ac.offer(Priority::kBulk, 1,
                     [&](sim::Time, bool a) { new_evicted = !a; }),
            Outcome::kQueued);
  // Buffer full; a high arrival displaces the NEWEST entry of the lowest
  // queued class rather than being rejected.
  EXPECT_EQ(ac.offer(Priority::kHigh, 1, [](sim::Time, bool) {}),
            Outcome::kQueued);
  EXPECT_FALSE(old_evicted);
  EXPECT_TRUE(new_evicted);
  EXPECT_EQ(ac.stats().evicted, 1u);
  EXPECT_EQ(ac.queue_depth(), 2u);
}

TEST(Admission, NoEvictionWhenPreemptionDisabledOrNothingLower) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 1;
  cfg.queue_limit = 1;
  cfg.preemptive_queue = false;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kBulk, 1, nullptr), Outcome::kAdmitted);
  ASSERT_EQ(ac.offer(Priority::kBulk, 1, [](sim::Time, bool) {}),
            Outcome::kQueued);
  EXPECT_EQ(ac.offer(Priority::kHigh, 1, nullptr), Outcome::kRejected);

  AdmissionConfig cfg2;
  cfg2.capacity_tokens = 1;
  cfg2.queue_limit = 1;
  AdmissionController ac2(q, cfg2);
  ASSERT_EQ(ac2.offer(Priority::kHigh, 1, nullptr), Outcome::kAdmitted);
  ASSERT_EQ(ac2.offer(Priority::kHigh, 1, [](sim::Time, bool) {}),
            Outcome::kQueued);
  // A high arrival cannot evict a queued high entry (same class).
  EXPECT_EQ(ac2.offer(Priority::kHigh, 1, nullptr), Outcome::kRejected);
}

TEST(Admission, ArrivalsDoNotOvertakeQueuedSameClass) {
  sim::EventQueue q;
  AdmissionConfig cfg;
  cfg.capacity_tokens = 4;
  AdmissionController ac(q, cfg);
  ASSERT_EQ(ac.offer(Priority::kNormal, 3, nullptr), Outcome::kAdmitted);
  ASSERT_EQ(ac.offer(Priority::kNormal, 2, [](sim::Time, bool) {}),
            Outcome::kQueued);
  // One token is free and the new request would fit, but a same-class
  // request is already waiting: admitting would reorder the class FIFO.
  EXPECT_EQ(ac.offer(Priority::kNormal, 1, [](sim::Time, bool) {}),
            Outcome::kQueued);
  // A higher class with free tokens and no queued peer goes straight in.
  EXPECT_EQ(ac.offer(Priority::kHigh, 1, nullptr), Outcome::kAdmitted);
}

// -------------------------------------------------- rng + distributions --

TEST(SvcRng, StreamIsAPureFunctionOfItsArguments) {
  sim::Rng a = sim::Rng::stream(42, 3);
  sim::Rng b = sim::Rng::stream(42, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SvcRng, StreamsAreDecorrelated) {
  sim::Rng a = sim::Rng::stream(42, 0);
  sim::Rng b = sim::Rng::stream(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_EQ(equal, 0);
}

TEST(SvcRng, LognormalMatchesRequestedMean) {
  sim::Rng rng(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_lognormal(1000.0, 1.0);
  EXPECT_NEAR(sum / n, 1000.0, 50.0);
}

TEST(SvcRng, BoundedParetoMatchesMeanAndRespectsBound) {
  sim::Rng rng(7);
  double sum = 0, mx = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_bounded_pareto(1000.0, 1.5, 100.0);
    sum += x;
    mx = std::max(mx, x);
    ASSERT_GT(x, 0.0);
  }
  EXPECT_NEAR(sum / n, 1000.0, 100.0);
  // Truncated at cap x scale; the scale is below the mean for alpha > 1.
  EXPECT_LE(mx, 100.0 * 1000.0);
}

// --------------------------------------------------------- end to end --

core::Cluster make_pair_cluster() {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);
  return core::Cluster(std::move(cfg));
}

TEST(Rpc, CallCompletesWithExactLatencySplit) {
  auto c = make_pair_cluster();
  svc::EndpointConfig ec;
  svc::RpcEndpoint e0(c.queue(), c.port(0), ec);
  svc::RpcEndpoint e1(c.queue(), c.port(1), ec);
  svc::CallSpec spec;
  spec.dst = 1;
  spec.cls = Priority::kHigh;
  spec.service = 200 * sim::kUs;  // well inside the 1 ms high deadline
  spec.resp_bytes = 2048;
  ASSERT_TRUE(e0.client().call(spec));
  c.run();
  const auto& s = e0.client().slo().of(Priority::kHigh);
  EXPECT_EQ(s.issued, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.goodput_bytes, 2048u);
  ASSERT_EQ(s.total.count(), 1u);
  // total = admit + service + network, with an uncontended server: no
  // admission wait, the exact service span, a positive network residue.
  EXPECT_GE(s.total.max(), 200000u);
  EXPECT_EQ(s.admit.max(), 0u);
  EXPECT_EQ(s.service.max(), 200000u);
  EXPECT_GT(s.network.max(), 0u);
  EXPECT_EQ(e1.server().stats().requests, 1u);
  EXPECT_EQ(e1.server().stats().responses_sent, 1u);
}

TEST(Rpc, AdmissionRejectNacksAndClientRetries) {
  auto c = make_pair_cluster();
  svc::EndpointConfig ec;
  ec.server.admission.capacity_tokens = 1;
  ec.server.admission.queue_limit = 0;  // no buffer: reject outright
  ec.client.max_retries = 3;
  ec.client.reject_backoff = 500 * sim::kUs;
  svc::RpcEndpoint e0(c.queue(), c.port(0), ec);
  svc::RpcEndpoint e1(c.queue(), c.port(1), ec);
  svc::CallSpec spec;
  spec.dst = 1;
  spec.service = 300 * sim::kUs;
  ASSERT_TRUE(e0.client().call(spec));
  ASSERT_TRUE(e0.client().call(spec));  // concurrent: second gets NACKed
  c.run();
  const auto s = e0.client().slo().combined();
  EXPECT_EQ(s.completed, 2u);  // the retry eventually lands
  EXPECT_GE(s.rejected, 1u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(e1.server().stats().rejects_sent, 1u);
}

TEST(Rpc, DeadlineMissFailsAfterRetriesExhaust) {
  auto c = make_pair_cluster();
  svc::EndpointConfig ec;
  ec.client.deadlines = {200 * sim::kUs, 200 * sim::kUs, 200 * sim::kUs};
  ec.client.max_retries = 1;
  svc::RpcEndpoint e0(c.queue(), c.port(0), ec);
  svc::RpcEndpoint e1(c.queue(), c.port(1), ec);
  svc::CallSpec spec;
  spec.dst = 1;
  spec.service = 5 * sim::kMs;  // cannot meet a 200 us deadline
  ASSERT_TRUE(e0.client().call(spec));
  c.run();
  const auto s = e0.client().slo().combined();
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.deadline_misses, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.goodput_bytes, 0u);
  // Both attempts' responses eventually arrive for a dead request id.
  EXPECT_GE(s.stale_responses, 1u);
  EXPECT_EQ(e0.client().pending(), 0u);
}

TEST(Rpc, PendingLimitRefusesCalls) {
  auto c = make_pair_cluster();
  svc::EndpointConfig ec;
  ec.client.pending_limit = 1;
  svc::RpcEndpoint e0(c.queue(), c.port(0), ec);
  svc::RpcEndpoint e1(c.queue(), c.port(1), ec);
  svc::CallSpec spec;
  spec.dst = 1;
  EXPECT_TRUE(e0.client().call(spec));
  EXPECT_FALSE(e0.client().call(spec));
  EXPECT_EQ(e0.client().slo().combined().client_refused, 1u);
  c.run();
  EXPECT_EQ(e0.client().slo().combined().completed, 1u);
}

// ----------------------------------------------------------- open loop --

struct Rig {
  core::Cluster cluster;
  std::vector<std::unique_ptr<svc::RpcEndpoint>> owned;
  std::vector<svc::RpcEndpoint*> endpoints;

  explicit Rig(const svc::EndpointConfig& ec = {})
      : cluster([] {
          core::ClusterConfig cfg;
          cfg.topology = topo::make_fig1_network();
          return core::Cluster(std::move(cfg));
        }()) {
    for (auto* port : cluster.ports()) {
      owned.push_back(std::make_unique<svc::RpcEndpoint>(cluster.queue(),
                                                         *port, ec));
      endpoints.push_back(owned.back().get());
    }
  }
};

TEST(OpenLoop, GeneratesTrafficAndCompletesCalls) {
  Rig rig;
  svc::OpenLoopConfig lc;
  lc.arrivals.rate_per_s = 2000;
  lc.duration = 5 * sim::kMs;
  svc::OpenLoopDriver d(rig.cluster.queue(), rig.endpoints, lc);
  d.start();
  rig.cluster.run();
  EXPECT_GT(d.stats().arrivals, 10u);
  EXPECT_EQ(d.stats().calls_issued + d.stats().calls_refused,
            d.stats().arrivals);
  const auto slo = d.merged_slo().combined();
  EXPECT_GT(slo.completed, 0u);
  EXPECT_EQ(slo.issued, d.stats().calls_issued);
}

TEST(OpenLoop, IncastTargetOnlyServes) {
  Rig rig;
  svc::OpenLoopConfig lc;
  lc.arrivals.pattern = workload::Pattern::kIncast;
  lc.arrivals.target_host = 0;
  lc.arrivals.rate_per_s = 1000;
  lc.duration = 3 * sim::kMs;
  svc::OpenLoopDriver d(rig.cluster.queue(), rig.endpoints, lc);
  d.start();
  rig.cluster.run();
  // The sink issues nothing; every request lands on it.
  EXPECT_EQ(rig.endpoints[0]->client().slo().combined().issued, 0u);
  std::uint64_t elsewhere = 0;
  for (std::size_t h = 1; h < rig.endpoints.size(); ++h)
    elsewhere += rig.endpoints[h]->server().stats().requests;
  EXPECT_EQ(elsewhere, 0u);
  EXPECT_GT(rig.endpoints[0]->server().stats().requests, 0u);
}

TEST(OpenLoop, AllToAllFansEveryArrivalOut) {
  Rig rig;
  svc::OpenLoopConfig lc;
  lc.arrivals.pattern = workload::Pattern::kAllToAll;
  lc.arrivals.rate_per_s = 200;
  lc.duration = 3 * sim::kMs;
  svc::OpenLoopDriver d(rig.cluster.queue(), rig.endpoints, lc);
  d.start();
  rig.cluster.run();
  ASSERT_GT(d.stats().arrivals, 0u);
  EXPECT_EQ(d.stats().calls_issued + d.stats().calls_refused,
            d.stats().arrivals * (rig.endpoints.size() - 1));
}

TEST(OpenLoop, DeterministicForSeed) {
  auto run_once = [] {
    Rig rig;
    svc::OpenLoopConfig lc;
    lc.arrivals.gaps = workload::GapLaw::kLognormal;
    lc.service = svc::ServiceDist::kBoundedPareto;
    lc.arrivals.rate_per_s = 3000;
    lc.duration = 4 * sim::kMs;
    lc.arrivals.seed = 99;
    svc::OpenLoopDriver d(rig.cluster.queue(), rig.endpoints, lc);
    d.start();
    rig.cluster.run();
    const auto s = d.merged_slo().combined();
    return std::tuple{d.stats().arrivals, s.completed, s.goodput_bytes,
                      s.total.percentile(99)};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(OpenLoop, RequiresTwoEndpoints) {
  sim::EventQueue q;
  EXPECT_THROW(
      svc::OpenLoopDriver(q, std::vector<svc::RpcEndpoint*>{}, {}),
      std::invalid_argument);
}

}  // namespace
