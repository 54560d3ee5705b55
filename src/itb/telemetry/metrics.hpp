// Unified metrics registry.
//
// Every layer of the simulator keeps ad-hoc counter structs (net::NetworkStats,
// nic::NicStats, gm::GmStats, ...) that benches read through accessors.
// The MetricRegistry gives them one namespace: a metric is identified by
// {component, name} plus optional {host, channel} labels, and is either
//   * an owned Counter/Gauge handle (cheap pointer-sized handles backed by
//     registry storage, for new instrumentation), or
//   * a source callback that polls an existing ad-hoc counter at snapshot
//     time — the integration style used across the stack, which keeps the
//     legacy accessors as the single source of truth (no double counting).
//
// Naming scheme: components are the module names ("sim", "net", "nic", "gm",
// "fault", "svc", ...); metric names are lower_snake_case and match the
// legacy struct field where one exists (e.g. nic.itb_forwarded).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace itb::telemetry {

/// Optional dimensions of a metric. -1 means "not scoped by this label".
struct Labels {
  int host = -1;
  int channel = -1;

  friend bool operator==(Labels, Labels) = default;
};

enum class MetricKind : std::uint8_t {
  kCounter,  // monotonically increasing
  kGauge,    // instantaneous level
};

const char* to_string(MetricKind k);

/// Handle to a registry-owned counter. Copyable, trivially cheap; a
/// default-constructed handle is inert (all operations no-ops).
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
    if (v_) *v_ += n;
  }
  std::uint64_t value() const { return v_ ? *v_ : 0; }

 private:
  friend class MetricRegistry;
  explicit Counter(std::uint64_t* v) : v_(v) {}
  std::uint64_t* v_ = nullptr;
};

/// Handle to a registry-owned gauge.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) {
    if (v_) *v_ = v;
  }
  void add(double d) {
    if (v_) *v_ += d;
  }
  double value() const { return v_ ? *v_ : 0.0; }

 private:
  friend class MetricRegistry;
  explicit Gauge(double* v) : v_(v) {}
  double* v_ = nullptr;
};

/// Hash of a metric or probe key: {component, name, labels}. Registries
/// index their entries by it (key hash -> position) so a duplicate check
/// or a lookup costs O(1) instead of a scan, without a second copy of the
/// key strings: a candidate is confirmed against the stored entry.
std::uint64_t key_hash(std::string_view component, std::string_view name,
                       Labels labels);
using KeyIndex = std::unordered_multimap<std::uint64_t, std::size_t>;

/// One row of a registry snapshot.
struct MetricSample {
  std::string component;
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

class MetricRegistry {
 public:
  using Source = std::function<double()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Create a registry-owned counter and return its handle.
  /// Throws std::invalid_argument if {component, name, labels} is taken.
  Counter counter(std::string component, std::string name, Labels labels = {});

  /// Create a registry-owned gauge and return its handle.
  Gauge gauge(std::string component, std::string name, Labels labels = {});

  /// Register a callback polled at snapshot time. This is how existing
  /// ad-hoc counters join the registry without being rewritten.
  void register_source(std::string component, std::string name,
                       MetricKind kind, Source source, Labels labels = {});

  /// Poll every metric. Rows appear in registration order.
  std::vector<MetricSample> snapshot() const;

  /// Current value of one metric; nullopt when not registered.
  std::optional<double> value(std::string_view component,
                              std::string_view name, Labels labels = {}) const;

  std::size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    std::string component;
    std::string name;
    Labels labels;
    MetricKind kind;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    Source source;  // set => callback-backed

    double read() const;
  };

  Slot& add_slot(std::string component, std::string name, MetricKind kind,
                 Labels labels);
  const Slot* find(std::uint64_t hash, std::string_view component,
                   std::string_view name, Labels labels) const;

  // deque: handles keep pointers into slots, so addresses must be stable.
  std::deque<Slot> slots_;
  KeyIndex index_;  // {component, name, labels} -> position in slots_
};

}  // namespace itb::telemetry
