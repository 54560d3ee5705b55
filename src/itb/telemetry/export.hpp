// Machine-readable telemetry export.
//
// Three pieces:
//   * JsonWriter — a tiny streaming JSON emitter (no dependency, correct
//     escaping, finite-number handling) shared by everything below;
//   * Telemetry — the facade core::Cluster owns: one MetricRegistry + one
//     Sampler, with write_json()/write_series_csv() for whole-cluster dumps
//     (`cluster.telemetry().write_json("run.json")`);
//   * BenchReport — what the bench binaries build: named scalars, numeric
//     row tables, latency histograms, plus embedded registry snapshots and
//     sampler series from one or more clusters (tagged per run).
//
// JSON schema (stable; version bumps on breaking change):
//   {
//     "schema": "itb.telemetry.v1",
//     "bench": "...", "params": {...}, "scalars": {...},
//     "tables": {"<table>": [{"col": num | "text", ...}, ...]},
//     "histograms": [{"name", "run", "count", "min", "max", "mean",
//                     "p50", "p95", "p99", "p999",
//                     "buckets": [[lo, hi, n], ...]}],
//     "counters": [{"run", "component", "name", "host"?, "channel"?,
//                   "kind", "value"}],
//     "series": [{"run", "name", "host"?, "channel"?, "mode", "t_ns": [...],
//                 "v": [...]}]
//   }
// Cluster-level Telemetry::write_json emits the same document with only
// "schema", "now_ns", "counters" and "series".
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "itb/telemetry/histogram.hpp"
#include "itb/telemetry/metrics.hpp"
#include "itb/telemetry/sampler.hpp"

namespace itb::telemetry {

/// Minimal streaming JSON writer. The caller provides structure
/// (begin/end object/array, key); the writer handles commas and escaping.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d);
  void value(std::int64_t i);
  void value(std::uint64_t u);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(bool b);
  void null();

  template <typename T>
  void kv(std::string_view k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

 private:
  void separate();

  std::ostream& out_;
  // One entry per open container: whether it already holds an element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// Escape and quote a string for JSON.
std::string json_quote(std::string_view s);

/// The observability bundle a Cluster owns.
class Telemetry {
 public:
  explicit Telemetry(sim::EventQueue& queue,
                     sim::Duration sample_period = 100 * sim::kUs);

  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  Sampler& sampler() { return sampler_; }
  const Sampler& sampler() const { return sampler_; }

  /// Arm / flush-and-disarm the sampler.
  void start_sampling() { sampler_.start(); }
  void stop_sampling() { sampler_.stop(); }

  /// Dump a registry snapshot + every recorded time series.
  void write_json(std::ostream& out) const;
  /// Returns false when the file cannot be opened.
  bool write_json(const std::string& path) const;

  /// Time series as CSV: series,host,channel,t_ns,value.
  void write_series_csv(std::ostream& out) const;

 private:
  sim::EventQueue& queue_;
  MetricRegistry registry_;
  Sampler sampler_;
};

/// Accumulates one bench run for JSON export.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  void set_param(std::string key, double v) { params_num_[std::move(key)] = v; }
  void set_param(std::string key, std::string v) {
    params_text_[std::move(key)] = std::move(v);
  }
  void add_scalar(std::string name, double v) {
    scalars_.emplace_back(std::move(name), v);
  }

  /// One row of a named table; numeric and text cells.
  struct Row {
    std::map<std::string, double> num;
    std::map<std::string, std::string> text;
  };
  void add_row(const std::string& table, Row row);

  void add_histogram(std::string name, std::string run,
                     const LatencyHistogram& hist);

  /// Embed a cluster's registry snapshot / recorded series, tagged `run`
  /// so multiple clusters (original vs modified MCP, UD vs ITB) coexist.
  void add_counters(std::string run, const MetricRegistry& registry);
  void add_series(std::string run, const Sampler& sampler);
  /// By-value variants for parallel sweeps, where the cluster (and its
  /// registry/sampler) is gone by the time results are merged in order.
  void add_counters(std::string run, std::vector<MetricSample> samples);
  void add_series(std::string run, std::vector<Sampler::Series> series);

  void write(std::ostream& out) const;
  /// Returns false when the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  std::map<std::string, double> params_num_;
  std::map<std::string, std::string> params_text_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::vector<Row>>> tables_;
  struct NamedHist {
    std::string name;
    std::string run;
    LatencyHistogram hist;
  };
  std::vector<NamedHist> histograms_;
  struct TaggedCounters {
    std::string run;
    std::vector<MetricSample> samples;
  };
  std::vector<TaggedCounters> counters_;
  struct TaggedSeries {
    std::string run;
    std::vector<Sampler::Series> series;
  };
  std::vector<TaggedSeries> series_;
};

/// Shared helpers for emitting histogram / series objects (used by both
/// Telemetry and BenchReport writers).
void write_histogram_json(JsonWriter& w, std::string_view name,
                          std::string_view run, const LatencyHistogram& hist);
void write_series_json(JsonWriter& w, std::string_view run,
                       const Sampler::Series& s);
void write_counter_json(JsonWriter& w, std::string_view run,
                        const MetricSample& m);

}  // namespace itb::telemetry
