#include "itb/telemetry/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace itb::telemetry {

// ----------------------------------------------------------- JsonWriter --

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ << ", ";
    has_element_.back() = true;
  }
}

void JsonWriter::begin_object() {
  separate();
  out_ << '{';
  has_element_.push_back(false);
}

void JsonWriter::end_object() {
  has_element_.pop_back();
  out_ << '}';
}

void JsonWriter::begin_array() {
  separate();
  out_ << '[';
  has_element_.push_back(false);
}

void JsonWriter::end_array() {
  has_element_.pop_back();
  out_ << ']';
}

void JsonWriter::key(std::string_view k) {
  separate();
  out_ << json_quote(k) << ": ";
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  separate();
  out_ << json_quote(s);
}

void JsonWriter::value(double d) {
  separate();
  if (!std::isfinite(d)) {
    out_ << "null";
    return;
  }
  // Integral doubles print without an exponent or trailing zeros; others
  // round-trip at 17 significant digits.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out_ << buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out_ << buf;
  }
}

void JsonWriter::value(std::int64_t i) {
  separate();
  out_ << i;
}

void JsonWriter::value(std::uint64_t u) {
  separate();
  out_ << u;
}

void JsonWriter::value(bool b) {
  separate();
  out_ << (b ? "true" : "false");
}

void JsonWriter::null() {
  separate();
  out_ << "null";
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// -------------------------------------------------------- shared pieces --

namespace {

void write_counter_json(JsonWriter& w, std::string_view run,
                        const MetricSample& m) {
  w.begin_object();
  if (!run.empty()) w.kv("run", run);
  w.kv("component", m.component);
  w.kv("name", m.name);
  if (m.labels.host >= 0) w.kv("host", m.labels.host);
  if (m.labels.channel >= 0) w.kv("channel", m.labels.channel);
  w.kv("kind", to_string(m.kind));
  w.kv("value", m.value);
  w.end_object();
}

void write_histogram_json(JsonWriter& w, std::string_view name,
                          std::string_view run, const LatencyHistogram& h) {
  w.begin_object();
  w.kv("name", name);
  if (!run.empty()) w.kv("run", run);
  w.kv("count", h.count());
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("mean", h.mean());
  w.kv("p50", h.percentile(50));
  w.kv("p95", h.percentile(95));
  w.kv("p99", h.percentile(99));
  w.kv("p999", h.percentile(99.9));
  w.key("buckets");
  w.begin_array();
  for (const auto& b : h.nonzero_buckets()) {
    w.begin_array();
    w.value(b.lo);
    w.value(b.hi);
    w.value(b.count);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void write_series_json(JsonWriter& w, std::string_view run,
                       const Sampler::Series& s) {
  w.begin_object();
  if (!run.empty()) w.kv("run", run);
  w.kv("name", s.name);
  if (s.labels.host >= 0) w.kv("host", s.labels.host);
  if (s.labels.channel >= 0) w.kv("channel", s.labels.channel);
  w.kv("mode", s.mode == Sampler::Mode::kLevel ? "level" : "rate");
  w.key("t_ns");
  w.begin_array();
  for (auto t : s.at) w.value(static_cast<std::int64_t>(t));
  w.end_array();
  w.key("v");
  w.begin_array();
  for (auto v : s.values) w.value(v);
  w.end_array();
  w.end_object();
}

}  // namespace

// ------------------------------------------------------------ Telemetry --

Telemetry::Telemetry(sim::EventQueue& queue, sim::Duration sample_period)
    : queue_(queue), sampler_(queue, sample_period) {
  // Scheduler self-metrics: how the event engine behaved during the run.
  using enum MetricKind;
  using S = sim::EventQueue::Stats;
  static constexpr Field<sim::EventQueue> kFields[] = {
      {"events_fired", kCounter, stat<sim::EventQueue, &S::fired>},
      {"events_cancelled", kCounter, stat<sim::EventQueue, &S::cancelled>},
      {"peak_pending", kGauge, stat<sim::EventQueue, &S::peak_pending>},
      {"events_wheel", kCounter, stat<sim::EventQueue, &S::wheel_scheduled>},
      {"events_spilled", kCounter, stat<sim::EventQueue, &S::spill_scheduled>},
  };
  registry_.add(make_table("sim", kFields, queue));
}

void Telemetry::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "itb.telemetry.v1");
  w.kv("now_ns", static_cast<std::int64_t>(queue_.now()));
  w.key("counters");
  w.begin_array();
  for (const auto& m : registry_.snapshot()) write_counter_json(w, "", m);
  w.end_array();
  w.key("series");
  w.begin_array();
  for (const auto& s : sampler_.series()) write_series_json(w, "", s);
  w.end_array();
  w.end_object();
  out << '\n';
}

bool Telemetry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return out.good();
}

// ----------------------------------------------------------- BenchReport --

BenchReport::BenchReport(std::string bench_name) : bench_(std::move(bench_name)) {}

void BenchReport::add_row(const std::string& table, Row row) {
  for (auto& [name, rows] : tables_)
    if (name == table) {
      rows.push_back(std::move(row));
      return;
    }
  tables_.emplace_back(table, std::vector<Row>{std::move(row)});
}

void BenchReport::add_histogram(std::string name, std::string run,
                                const LatencyHistogram& hist) {
  histograms_.push_back(NamedHist{std::move(name), std::move(run), hist});
}

void BenchReport::add_counters(std::string run,
                               std::vector<MetricSample> samples) {
  counters_.push_back(TaggedCounters{std::move(run), std::move(samples)});
}

void BenchReport::add_series(std::string run,
                             std::vector<Sampler::Series> series) {
  series_.push_back(TaggedSeries{std::move(run), std::move(series)});
}

void BenchReport::write(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "itb.telemetry.v1");
  w.kv("bench", bench_);
  w.key("params");
  w.begin_object();
  for (const auto& [k, v] : params_num_) w.kv(k, v);
  for (const auto& [k, v] : params_text_) w.kv(k, v);
  w.end_object();
  w.key("scalars");
  w.begin_object();
  for (const auto& [k, v] : scalars_) w.kv(k, v);
  w.end_object();
  w.key("tables");
  w.begin_object();
  for (const auto& [name, rows] : tables_) {
    w.key(name);
    w.begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      for (const auto& [k, v] : row.num) w.kv(k, v);
      for (const auto& [k, v] : row.text) w.kv(k, v);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("histograms");
  w.begin_array();
  for (const auto& h : histograms_)
    write_histogram_json(w, h.name, h.run, h.hist);
  w.end_array();
  w.key("counters");
  w.begin_array();
  for (const auto& tc : counters_)
    for (const auto& m : tc.samples) write_counter_json(w, tc.run, m);
  w.end_array();
  w.key("series");
  w.begin_array();
  for (const auto& ts : series_)
    for (const auto& s : ts.series) write_series_json(w, ts.run, s);
  w.end_array();
  w.end_object();
  out << '\n';
}

bool BenchReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  return out.good();
}

}  // namespace itb::telemetry
