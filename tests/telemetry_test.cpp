// Tests for the telemetry subsystem: histogram accuracy against exact
// percentiles, metric tables (lookup, order, unique keys over a full
// cluster), registry <-> legacy-counter equality after a lossy ITB run,
// sampler integration (rate series integrate back to the underlying
// counters), and the JSON exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/core/experiments.hpp"
#include "itb/sim/rng.hpp"
#include "itb/svc/rpc.hpp"
#include "itb/telemetry/export.hpp"
#include "itb/telemetry/histogram.hpp"
#include "itb/telemetry/metrics.hpp"
#include "itb/telemetry/sampler.hpp"
#include "itb/topo/builders.hpp"
#include "itb/workload/load.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

// ---------------------------------------------------------------------------
// LatencyHistogram

/// Exact nearest-rank percentile of `sorted` (ascending, non-empty), for
/// 0 < p < 100: the smallest sample covering fraction p.
double nearest_rank(const std::vector<double>& sorted, double p) {
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void expect_percentiles_close(const std::vector<double>& samples) {
  telemetry::LatencyHistogram hist;
  std::vector<double> exact;
  for (double v : samples) {
    hist.add(v);
    exact.push_back(std::floor(v));  // histogram truncates to integer ns
  }
  std::sort(exact.begin(), exact.end());
  for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double want = nearest_rank(exact, p);
    const double got = hist.percentile(p);
    // Acceptance target: within 1% of the exact nearest-rank value.
    EXPECT_NEAR(got, want, 0.01 * std::max(want, 1.0))
        << "p" << p << " over " << samples.size() << " samples";
  }
  EXPECT_EQ(hist.count(), samples.size());
}

TEST(LatencyHistogram, UniformWithinOnePercentOfExact) {
  sim::Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(static_cast<double>(rng.next_below(1'000'000) + 500));
  expect_percentiles_close(samples);
}

TEST(LatencyHistogram, ExponentialWithinOnePercentOfExact) {
  sim::Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(rng.next_exponential(50'000.0));
  expect_percentiles_close(samples);
}

TEST(LatencyHistogram, BimodalWithinOnePercentOfExact) {
  // Short fast path + long congested path, the shape loaded ITB runs show.
  sim::Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i)
    samples.push_back(static_cast<double>(9'000 + rng.next_below(2'000)));
  for (int i = 0; i < 10000; ++i)
    samples.push_back(static_cast<double>(750'000 + rng.next_below(100'000)));
  expect_percentiles_close(samples);
}

TEST(LatencyHistogram, EdgeCases) {
  telemetry::LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);

  h.record(1234);
  EXPECT_EQ(h.percentile(0), 1234.0);    // p0 = min
  EXPECT_EQ(h.percentile(100), 1234.0);  // p100 = max
  EXPECT_EQ(h.percentile(50), 1234.0);   // single sample: every percentile
  EXPECT_EQ(h.mean(), 1234.0);

  h.add(-5.0);  // clamps to zero
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(0), 0.0);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LatencyHistogram, P999TrackedAndSummarized) {
  telemetry::LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.record(i);
  // Within the documented 0.4% relative-error bound.
  EXPECT_NEAR(h.percentile(99.9), 9990.0, 0.004 * 9990.0);

  telemetry::LatencyHistogram empty;
  EXPECT_EQ(empty.percentile(99.9), 0.0);
  telemetry::LatencyHistogram one;
  one.record(77);
  EXPECT_EQ(one.percentile(99.9), 77.0);
}

TEST(LatencyHistogram, MergeAndBuckets) {
  telemetry::LatencyHistogram a, b;
  a.record(100, 5);
  b.record(1'000'000, 3);
  a.merge(b);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 1'000'000u);

  std::uint64_t total = 0;
  for (const auto& bucket : a.nonzero_buckets()) {
    EXPECT_LT(bucket.lo, bucket.hi);
    total += bucket.count;
  }
  EXPECT_EQ(total, 8u);

  telemetry::LatencyHistogram coarse(3);
  EXPECT_THROW(a.merge(coarse), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MetricRegistry

/// A component under test: one counter and one gauge.
struct Gadget {
  std::uint64_t events = 0;
  double depth = 0;
};

constexpr telemetry::Field<Gadget> kGadgetFields[] = {
    {"events", telemetry::MetricKind::kCounter,
     [](const Gadget& g) { return static_cast<double>(g.events); }},
    {"depth", telemetry::MetricKind::kGauge,
     [](const Gadget& g) { return g.depth; }},
};

TEST(MetricRegistry, HandlesAndSources) {
  Gadget solo{5, 7.5};
  std::vector<Gadget> hosts(3);
  telemetry::MetricRegistry reg;
  reg.add(telemetry::make_table("core", kGadgetFields, solo));
  std::vector<telemetry::Instance<Gadget>> instances;
  for (int h = 0; h < 3; ++h) {
    hosts[h].events = 40 + h;
    instances.push_back({&hosts[h], {.host = h, .channel = -1}});
  }
  const auto& table =
      reg.add(telemetry::make_table("core", kGadgetFields, instances));
  EXPECT_EQ(table.field("depth"), 1u);
  EXPECT_FALSE(table.field("missing").has_value());
  EXPECT_EQ(reg.size(), 2u + 2u * 3u);

  EXPECT_EQ(reg.value("core", "events"), 5.0);
  EXPECT_EQ(reg.value("core", "depth"), 7.5);
  EXPECT_EQ(reg.value("core", "events", {.host = 1, .channel = -1}), 41.0);
  ++hosts[1].events;  // rows read live state
  EXPECT_EQ(reg.value("core", "events", {.host = 1, .channel = -1}), 42.0);
  EXPECT_FALSE(reg.value("core", "missing").has_value());
  EXPECT_FALSE(reg.value("gm", "events").has_value());
  // Labels must match exactly.
  EXPECT_FALSE(reg.value("core", "depth", {.host = 3, .channel = -1}));
  EXPECT_FALSE(reg.value("core", "depth", {.host = 1, .channel = 0}));

  // Table by table, then instance by instance, then field by field.
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), reg.size());
  EXPECT_EQ(snap[0].component, "core");
  EXPECT_EQ(snap[0].name, "events");
  EXPECT_EQ(snap[1].name, "depth");
  EXPECT_EQ(snap[1].kind, telemetry::MetricKind::kGauge);
  EXPECT_EQ(snap[1].value, 7.5);
  for (int h = 0; h < 3; ++h) {
    const auto& row = snap[2 + 2 * static_cast<std::size_t>(h)];
    EXPECT_EQ(row.name, "events");
    EXPECT_EQ(row.labels.host, h);
    EXPECT_EQ(row.kind, telemetry::MetricKind::kCounter);
  }
  EXPECT_EQ(snap[4].value, 42.0);
}

TEST(Telemetry, ExportsEventEngineStats) {
  sim::EventQueue q;
  telemetry::Telemetry tel(q);
  auto a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.schedule_at(5'000'000, [] {});  // far timer -> spill heap
  q.cancel(a);
  q.run();
  EXPECT_EQ(tel.registry().value("sim", "events_fired"), 2.0);
  EXPECT_EQ(tel.registry().value("sim", "events_cancelled"), 1.0);
  EXPECT_EQ(tel.registry().value("sim", "peak_pending"), 3.0);
  EXPECT_EQ(tel.registry().value("sim", "events_wheel"), 2.0);
  EXPECT_EQ(tel.registry().value("sim", "events_spilled"), 1.0);
}

// ---------------------------------------------------------------------------
// Cluster integration: registry == legacy counters after a lossy ITB run

TEST(Telemetry, RegistryMatchesLegacyCountersAfterLossyItbRun) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  cfg.mcp_options.recv_buffers = 16;
  cfg.mcp_options.drop_when_full = true;
  cfg.fault_schedule.drop_probability = 0.03;  // force GM retransmissions
  cfg.gm_config.retransmit_timeout = 200 * sim::kUs;
  core::Cluster cluster(std::move(cfg));

  workload::LoadConfig lc;
  lc.message_bytes = 256;
  lc.arrivals.rate_per_s = 4e3;
  lc.warmup = 0;
  lc.measure = 3 * sim::kMs;
  lc.arrivals.seed = 7;
  auto r = workload::run_load(cluster.queue(), cluster.ports(), lc);
  ASSERT_GT(r.messages_delivered, 0u);
  ASSERT_GT(r.retransmissions, 0u) << "lossy run produced no retransmissions";

  const auto& reg = cluster.telemetry().registry();
  const auto& net = cluster.network().stats();
  EXPECT_EQ(reg.value("net", "injected"), static_cast<double>(net.injected));
  EXPECT_EQ(reg.value("net", "delivered"), static_cast<double>(net.delivered));
  EXPECT_EQ(reg.value("net", "dropped"), static_cast<double>(net.dropped));
  EXPECT_EQ(reg.value("net", "head_blocks"),
            static_cast<double>(net.head_blocks));
  EXPECT_EQ(reg.value("net", "faults_injected"),
            static_cast<double>(net.faults_injected));
  EXPECT_GT(net.faults_injected, 0u);

  for (std::uint16_t h = 0; h < cluster.host_count(); ++h) {
    const telemetry::Labels labels{.host = h, .channel = -1};
    const auto& nic = cluster.nic(h).stats();
    EXPECT_EQ(reg.value("nic", "sent", labels), static_cast<double>(nic.sent));
    EXPECT_EQ(reg.value("nic", "received", labels),
              static_cast<double>(nic.received));
    EXPECT_EQ(reg.value("nic", "delivered_to_host", labels),
              static_cast<double>(nic.delivered_to_host));
    EXPECT_EQ(reg.value("nic", "itb_forwarded", labels),
              static_cast<double>(nic.itb_forwarded));
    EXPECT_EQ(reg.value("nic", "dropped_no_buffer", labels),
              static_cast<double>(nic.dropped_no_buffer));
    EXPECT_EQ(reg.value("nic", "rx_bad_crc", labels),
              static_cast<double>(nic.rx_bad_crc));

    const auto& gm = cluster.port(h).stats();
    EXPECT_EQ(reg.value("gm", "messages_sent", labels),
              static_cast<double>(gm.messages_sent));
    EXPECT_EQ(reg.value("gm", "messages_delivered", labels),
              static_cast<double>(gm.messages_delivered));
    EXPECT_EQ(reg.value("gm", "packets_data", labels),
              static_cast<double>(gm.packets_data));
    EXPECT_EQ(reg.value("gm", "packets_ack", labels),
              static_cast<double>(gm.packets_ack));
    EXPECT_EQ(reg.value("gm", "retransmissions", labels),
              static_cast<double>(gm.retransmissions));
  }

  // Per-channel busy gauges mirror the network's vector.
  const auto& busy = cluster.network().channel_busy_ns();
  for (std::size_t c = 0; c < busy.size(); ++c)
    EXPECT_EQ(reg.value("net", "channel_busy_ns",
                        {.host = -1, .channel = static_cast<int>(c)}),
              static_cast<double>(busy[c]));
}

// Every row of a fully built cluster (a topology fault with auto-remap, the
// watchdog, the flight recorder, a two-lane engine and svc endpoints) has
// its own {component, name, labels} key, and size() counts exactly the rows
// a snapshot reads. Every default sampler series has its own {name,
// labels} too.
TEST(MetricRegistry, EveryClusterRowKeyIsUnique) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kVcEscape, 2};
  cfg.fault_schedule.host_down(5, 100 * sim::kUs, 300 * sim::kUs);
  cfg.watchdog.enabled = true;
  cfg.flight.enabled = true;
  core::Cluster cluster(std::move(cfg));
  ASSERT_NE(cluster.recovery(), nullptr);
  std::vector<std::unique_ptr<svc::RpcEndpoint>> endpoints;
  for (auto* port : cluster.ports())
    endpoints.push_back(
        std::make_unique<svc::RpcEndpoint>(cluster.queue(), *port));
  auto& reg = cluster.telemetry().registry();
  reg.add(svc::RpcEndpoint::metric_table(endpoints));
  cluster.telemetry().start_sampling();
  cluster.run(400 * sim::kUs);
  cluster.telemetry().stop_sampling();

  const auto rows = reg.snapshot();
  EXPECT_EQ(reg.size(), rows.size());
  std::set<std::tuple<std::string_view, std::string_view, int, int>> keys;
  std::set<std::string_view> components;
  for (const auto& r : rows) {
    EXPECT_TRUE(
        keys.emplace(r.component, r.name, r.labels.host, r.labels.channel)
            .second)
        << r.component << "." << r.name << " host " << r.labels.host
        << " channel " << r.labels.channel;
    components.insert(r.component);
  }
  EXPECT_EQ(components,
            (std::set<std::string_view>{"sim", "net", "nic", "gm", "fault",
                                        "recovery", "health", "flight",
                                        "svc"}));
  EXPECT_TRUE(reg.value("net", "lane_busy_ns", {.host = -1, .channel = 0}));

  std::set<std::tuple<std::string_view, int, int>> series;
  for (const auto& s : cluster.telemetry().sampler().series())
    EXPECT_TRUE(series.emplace(s.name, s.labels.host, s.labels.channel).second)
        << s.name << " host " << s.labels.host << " channel "
        << s.labels.channel;
  EXPECT_GT(series.size(), 0u);
}

// ---------------------------------------------------------------------------
// Sampler

TEST(Sampler, UtilizationSeriesIntegratesToChannelBusy) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  cfg.telemetry_sample_period = 50 * sim::kUs;
  core::Cluster cluster(std::move(cfg));

  cluster.telemetry().start_sampling();
  workload::LoadConfig lc;
  lc.message_bytes = 512;
  lc.arrivals.rate_per_s = 5e3;
  lc.warmup = 0;
  lc.measure = 2 * sim::kMs;
  lc.arrivals.seed = 11;
  workload::run_load(cluster.queue(), cluster.ports(), lc);
  cluster.telemetry().stop_sampling();

  const auto& sampler = cluster.telemetry().sampler();
  ASSERT_GT(sampler.ticks(), 5u);
  const auto& busy = cluster.network().channel_busy_ns();
  std::size_t busy_channels = 0;
  for (std::size_t c = 0; c < busy.size(); ++c) {
    const auto* s = sampler.find(
        "channel_utilization",
        telemetry::Labels{.host = -1, .channel = static_cast<int>(c)});
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->at.size(), s->values.size());
    // sum(v_i * dt_i) must equal the counter's growth over the sampled
    // interval — the kRate definition makes this exact up to FP error.
    double integral = 0;
    sim::Time t_prev = 0;  // sampling started at time 0
    for (std::size_t i = 0; i < s->at.size(); ++i) {
      EXPECT_GE(s->values[i], 0.0);
      EXPECT_LE(s->values[i], 1.0 + 1e-9) << "utilization above 100%";
      integral += s->values[i] * static_cast<double>(s->at[i] - t_prev);
      t_prev = s->at[i];
    }
    EXPECT_NEAR(integral, static_cast<double>(busy[c]),
                1e-6 * std::max<double>(static_cast<double>(busy[c]), 1.0) +
                    1e-3);
    if (busy[c] > 0) ++busy_channels;
  }
  EXPECT_GT(busy_channels, 0u) << "load run never used any channel";
}

TEST(Sampler, ParksOnDrainResumesAndTracesEveryTick) {
  core::Cluster cluster(core::fig8_config(/*itb_path=*/true));
  auto& telemetry = cluster.telemetry();
  telemetry.start_sampling();
  workload::AllsizeConfig cfg;
  cfg.iterations = 5;
  cfg.sizes = {256, 1024};
  cfg.sampler = &telemetry.sampler();
  workload::run_allsize(cluster.queue(), cluster.port(core::kHost1),
                        cluster.port(core::kHost2), cfg);
  // After each drain the sampler parks rather than spinning the queue.
  EXPECT_TRUE(telemetry.sampler().parked());
  telemetry.stop_sampling();
  EXPECT_FALSE(telemetry.sampler().running());

  const auto ticks = telemetry.sampler().ticks();
  EXPECT_GT(ticks, 0u);
  // Every tick (including the stop() flush) samples every probe once.
  bool has_utilization = false;
  for (const auto& s : telemetry.sampler().series()) {
    EXPECT_EQ(s.at.size(), ticks) << s.name;
    EXPECT_EQ(s.values.size(), ticks) << s.name;
    has_utilization |= s.name == "channel_utilization";
  }
  EXPECT_TRUE(has_utilization);
}

TEST(Sampler, RateSeriesScaleAndLevelMode) {
  sim::EventQueue queue;
  telemetry::Sampler sampler(queue, 100);
  using Mode = telemetry::Sampler::Mode;
  Gadget gadget{0, 3};
  const auto& table =
      sampler.own(telemetry::make_table("core", kGadgetFields, gadget));
  sampler.add_series({{"rate", &table, "events", Mode::kRate, 1e9},
                      {"level", &table, "depth", Mode::kLevel}});
  EXPECT_THROW(sampler.add_series({{"bad", &table, "missing", Mode::kLevel}}),
               std::invalid_argument);

  sampler.start();
  EXPECT_THROW(sampler.add_series({{"late", &table, "depth", Mode::kLevel}}),
               std::logic_error);
  // Keep the queue busy so ticks re-arm; bump the counter as time passes
  // (at off-tick times so every increment lands in a well-defined window).
  for (int i = 1; i <= 5; ++i)
    queue.schedule_in(i * 100 - 30, [&gadget, i] {
      gadget.events += 50;
      gadget.depth = 3 + i;
    });
  queue.run();
  sampler.stop();

  const auto* rate = sampler.find("rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_GE(rate->values.size(), 3u);
  // 50 events per 100 ns window, scaled to per-second: 5e8.
  EXPECT_NEAR(rate->values[1], 5e8, 1e-3);
  // The integral of the rate series recovers the counter's total growth.
  double integral = 0;
  sim::Time t_prev = 0;
  for (std::size_t i = 0; i < rate->at.size(); ++i) {
    integral += rate->values[i] * static_cast<double>(rate->at[i] - t_prev);
    t_prev = rate->at[i];
  }
  EXPECT_NEAR(integral / 1e9, static_cast<double>(gadget.events), 1e-9);
  const auto* lvl = sampler.find("level");
  ASSERT_NE(lvl, nullptr);
  EXPECT_EQ(lvl->values.back(), gadget.depth);
}

// ---------------------------------------------------------------------------
// Export

TEST(Export, JsonWriterEscapesAndNests) {
  std::ostringstream out;
  telemetry::JsonWriter w(out);
  w.begin_object();
  w.kv("plain", "a\"b\\c\n\t");
  w.key("arr");
  w.begin_array();
  w.value(std::int64_t{-3});
  w.value(2.5);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\"plain\": \"a\\\"b\\\\c\\n\\t\", \"arr\": [-3, 2.5, true, null]}");
  EXPECT_EQ(telemetry::json_quote("\x01"), "\"\\u0001\"");
}

TEST(Export, ClusterWriteJsonContainsSchemaCountersAndSeries) {
  core::Cluster cluster(core::fig8_config(/*itb_path=*/true));
  cluster.telemetry().start_sampling();
  workload::run_pingpong(cluster.queue(), cluster.port(core::kHost1),
                         cluster.port(core::kHost2), 512, 3);
  cluster.telemetry().stop_sampling();

  std::ostringstream out;
  cluster.telemetry().write_json(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"schema\": \"itb.telemetry.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\": "), std::string::npos);
  EXPECT_NE(doc.find("\"series\": "), std::string::npos);
  EXPECT_NE(doc.find("\"itb_forwarded\""), std::string::npos);
  EXPECT_NE(doc.find("channel_utilization"), std::string::npos);
}

TEST(Export, BenchReportRoundTrip) {
  telemetry::BenchReport report("unit_test_bench");
  report.set_param("seed", 7.0);
  report.set_param("mode", "fast");
  report.add_scalar("speedup", 2.25);
  telemetry::BenchReport::Row row;
  row.num["x"] = 1.0;
  row.text["label"] = "first";
  report.add_row("points", std::move(row));
  telemetry::LatencyHistogram hist;
  hist.record(10, 3);
  hist.record(1000, 1);
  report.add_histogram("latency", "run_a", hist);

  std::ostringstream out;
  report.write(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"schema\": \"itb.telemetry.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"bench\": \"unit_test_bench\""), std::string::npos);
  EXPECT_NE(doc.find("\"mode\": \"fast\""), std::string::npos);
  EXPECT_NE(doc.find("\"speedup\": 2.25"), std::string::npos);
  EXPECT_NE(doc.find("\"label\": \"first\""), std::string::npos);
  EXPECT_NE(doc.find("\"p50\": "), std::string::npos);
  EXPECT_NE(doc.find("\"run\": \"run_a\""), std::string::npos);
}

}  // namespace
