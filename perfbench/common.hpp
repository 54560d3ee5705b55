// Shared pieces of the full-stack benchmark harness: host clocks, the
// in-memory span log of the traced run, the per-repetition result every
// workload returns, and the layer counters read off a core::Cluster.
//
// A workload is prepared once from --seed (traffic, fault schedule, fault
// victims; each workload keeps one fixed fabric) and then run as identical
// repetitions: same seed, same inputs, same simulated results. The loop in
// main.cpp repeats them for --seconds, reports medians of the host-time
// figures, and checks that the simulated-result digest and the exact counts
// repeat bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "itb/core/cluster.hpp"

namespace perfbench {

using namespace itb;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// num / den, 0 when den is 0 (a layer that did no work).
inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Spans recorded by the benchmark around its calls into each layer. Kept in
/// memory and written out once the run ends. Capacity is reserved before a
/// repetition starts, so recording never allocates inside a timed region.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
    std::int64_t op = -1;      // message or call id, -1 when not per op
  };

  void arm(std::size_t capacity) {
    spans_.clear();
    spans_.reserve(capacity);
    open_ = -1;
    armed_ = true;
  }
  void disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  std::int32_t begin(const char* name, std::int64_t op = -1) {
    if (!armed_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, host_ns(), 0, open_, op});
    open_ = id;
    return id;
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = host_ns();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the durations of its direct children.
  std::vector<std::int64_t> self_ns() const;

  /// Chrome trace-event JSON (one complete "X" event per span, parent and
  /// op id in args); opens in Perfetto or chrome://tracing.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  bool armed_ = false;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::int64_t op = -1)
      : log_(log), id_(log.begin(name, op)) {}
  ~SpanScope() { log_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Named values in a fixed order (the JSON output keeps it).
using Metrics = std::map<std::string, double>;

/// Everything one repetition produces.
struct RepResult {
  double setup_s = 0;           // topology generation to cluster ready
  double timed_s = 0;           // host seconds of the timed region
  std::uint64_t ops_timed = 0;  // ops completed inside the timed region
  std::uint64_t attempted = 0;  // ops attempted in the whole repetition
  std::uint64_t failed = 0;     // ops that failed a correctness check
  std::vector<std::string> errors;
  /// FNV-1a over simulated results only (latencies, SLO stats, round times,
  /// table dump, model counters) — never over host-side counts such as
  /// events or allocations, so a host-only change keeps it.
  std::uint64_t digest = 0;
  /// Counts that repeat exactly for a seed (events, allocations, model
  /// ratios).
  Metrics exact;
  /// Host-time figures of this repetition (untraced repetitions only).
  Metrics host;
};

/// A prepared workload: one call runs one repetition. `spans` is armed on
/// traced repetitions only.
struct Workload {
  /// Spans one traced repetition records at most (reserved up front).
  std::size_t span_capacity = 0;
  /// Fewest repetitions whose median is steady, whatever --seconds says.
  std::size_t min_reps = 3;
  std::function<RepResult(SpanLog& spans)> run;
};

Workload prepare_gm_workload(std::uint64_t seed);
Workload prepare_svc_workload(std::uint64_t seed);
Workload prepare_recover_workload(std::uint64_t seed);

/// FNV-1a 64 over simulated results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_bytes(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(p[i]);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const telemetry::LatencyHistogram& h);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Cumulative counters of every data-plane layer of a cluster, summed over
/// hosts. Two snapshots bracket a timed region.
struct LayerSnapshot {
  sim::EventQueue::Stats queue;
  net::NetworkStats net;
  std::uint64_t lane_busy_ns = 0;    // all lanes (multi-lane networks)
  std::uint64_t escape_busy_ns = 0;  // lanes >= 1
  std::uint64_t nic_sent = 0, nic_received = 0, itb_forwarded = 0,
                itb_pending_hits = 0, nic_drops = 0, mcp_jobs = 0,
                mcp_busy_ns = 0;
  std::uint64_t gm_sent = 0, gm_delivered = 0, gm_data = 0, gm_acks = 0,
                gm_retransmits = 0;
};

LayerSnapshot snapshot(core::Cluster& cluster);

/// Adds the model counters of `s` (not the event-engine ones) to `d`.
void digest_model_counters(Digest& d, const LayerSnapshot& s);

/// Per-layer ratios over the region between two snapshots. `ops` is the
/// workload's operation count for the region.
void add_layer_metrics(Metrics& out, const LayerSnapshot& a,
                       const LayerSnapshot& b, std::uint64_t ops);

/// The cluster-wide counters every workload reports from setup.
void add_setup_metrics(Metrics& out, core::Cluster& cluster);

/// Cluster settings of the two data-plane workloads: the loaded-network MCP
/// of the paper's §4 (64-buffer circular receive pool, drop when full, GM
/// retransmits) and deep GM send queues, so the fabric saturates before GM
/// flow control does — the motivation and svc_slo benches' settings.
core::ClusterConfig data_plane_config(const engine::EngineSpec& engine);

/// The timed region of a data-plane workload. Runs the warm-up to `warmup`,
/// marks the steady state, runs (warmup, end] in `slice` steps (each a
/// "sim" span) between two layer snapshots, then drains to quiescence.
/// Fills timed_s, ops_timed and the layer metrics of `r`. `ops` returns the
/// workload's cumulative op count, `own_allocs` the cumulative allocations
/// the benchmark itself made (excluded from sim.allocs_per_op).
struct Region {
  LayerSnapshot before, after;
};
Region run_timed_region(RepResult& r, core::Cluster& cluster, SpanLog& spans,
                        sim::Time warmup, sim::Time end, sim::Duration slice,
                        const std::function<std::uint64_t()>& ops,
                        const std::function<std::uint64_t()>& own_allocs);

/// Network ledger: injected == delivered + dropped + lost + in flight.
bool ledger_holds(core::Cluster& cluster);

/// Records a failed correctness check against `ops` operations.
void fail(RepResult& r, std::string what, std::uint64_t ops = 1);

/// Traced repetitions only: one separate mapper::run with the cluster's
/// arguments, inside a "mapper" span (the constructor runs the same call,
/// so the "core" span minus this one is the rest of the assembly).
void time_mapper(SpanLog& spans, core::Cluster& cluster,
                 const engine::EngineSpec& engine);

}  // namespace perfbench
