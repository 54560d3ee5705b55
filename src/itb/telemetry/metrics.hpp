// Unified metrics registry.
//
// Every layer of the simulator keeps ad-hoc counter structs (net::NetworkStats,
// nic::NicStats, gm::GmStats, ...) that benches read through accessors.
// The MetricRegistry gives them one namespace: a metric is identified by
// {component, name} plus optional {host, channel} labels, and is a source
// callback that polls the layer's own counter at snapshot time, which keeps
// the layer's accessors the single source of truth (no double counting).
//
// Naming scheme: components are the module names ("sim", "net", "nic", "gm",
// "fault", "svc", ...); metric names are lower_snake_case and match the
// legacy struct field where one exists (e.g. nic.itb_forwarded).
#pragma once

#include <cstdint>
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

  /// Register a callback polled at snapshot time. Throws
  /// std::invalid_argument if {component, name, labels} is taken.
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
    Source source;
  };

  const Slot* find(std::uint64_t hash, std::string_view component,
                   std::string_view name, Labels labels) const;

  std::vector<Slot> slots_;
  KeyIndex index_;  // {component, name, labels} -> position in slots_
};

}  // namespace itb::telemetry
