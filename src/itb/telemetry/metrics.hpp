// Unified metrics registry.
//
// Every layer keeps its own counter structs (net::NetworkStats,
// nic::NicStats, gm::GmStats, ...). The MetricRegistry gives them one
// namespace without a second copy: each component family adds one
// MetricTable — its component, its fields (name, kind, one read each) and
// its labelled instances — and a row {component, field, labels} is read
// from the live component when a snapshot asks, so the layer's accessors
// stay the single source of truth. Component and field names are
// lower_snake_case string literals (e.g. nic.itb_forwarded, matching the
// stats struct field); snapshot rows keep views of them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
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

/// One component family: the same fields over a list of labelled
/// instances. Row (f, i) is field f of instance i.
class MetricTable {
 public:
  MetricTable() = default;
  MetricTable(const MetricTable&) = delete;
  MetricTable& operator=(const MetricTable&) = delete;
  virtual ~MetricTable() = default;
  virtual std::string_view component() const = 0;
  virtual std::size_t field_count() const = 0;
  virtual std::string_view field_name(std::size_t f) const = 0;
  virtual MetricKind field_kind(std::size_t f) const = 0;
  virtual std::size_t instance_count() const = 0;
  virtual Labels labels(std::size_t i) const = 0;
  virtual double read(std::size_t f, std::size_t i) const = 0;

  /// Index of the field called `name`; nullopt when the table has none.
  std::optional<std::size_t> field(std::string_view name) const;
};

/// A field of a family whose instances are objects of type T.
template <typename T>
struct Field {
  std::string_view name;
  MetricKind kind;
  double (*read)(const T&);
};

/// One instance of such a family.
template <typename T>
struct Instance {
  const T* object;
  Labels labels;
};

/// The table of a static array of fields over instances of T.
template <typename T>
class TableOf final : public MetricTable {
 public:
  TableOf(std::string_view component, std::span<const Field<T>> fields,
          std::vector<Instance<T>> instances)
      : component_(component), fields_(fields),
        instances_(std::move(instances)) {}

  std::string_view component() const override { return component_; }
  std::size_t field_count() const override { return fields_.size(); }
  std::string_view field_name(std::size_t f) const override {
    return fields_[f].name;
  }
  MetricKind field_kind(std::size_t f) const override {
    return fields_[f].kind;
  }
  std::size_t instance_count() const override { return instances_.size(); }
  Labels labels(std::size_t i) const override { return instances_[i].labels; }
  double read(std::size_t f, std::size_t i) const override {
    return fields_[f].read(*instances_[i].object);
  }

 private:
  std::string_view component_;
  std::span<const Field<T>> fields_;
  std::vector<Instance<T>> instances_;
};

/// Field read of counter `M` of the stats struct that `T::stats()` returns.
template <typename T, auto M>
double stat(const T& object) {
  return static_cast<double>(object.stats().*M);
}

/// One instance per object, labelled with its host().
template <typename T>
std::vector<Instance<T>> by_host(std::span<const std::unique_ptr<T>> objects) {
  std::vector<Instance<T>> out;
  out.reserve(objects.size());
  for (const auto& o : objects)
    out.push_back({o.get(), {.host = o->host(), .channel = -1}});
  return out;
}

template <typename T, std::size_t N>
std::unique_ptr<MetricTable> make_table(std::string_view component,
                                        const Field<T> (&fields)[N],
                                        std::vector<Instance<T>> instances) {
  return std::make_unique<TableOf<T>>(component, fields, std::move(instances));
}
/// A table over one unlabelled object.
template <typename T, std::size_t N>
std::unique_ptr<MetricTable> make_table(std::string_view component,
                                        const Field<T> (&fields)[N],
                                        const T& object) {
  return make_table(component, fields, std::vector<Instance<T>>{{&object, {}}});
}

/// One row of a registry snapshot.
struct MetricSample {
  std::string_view component;
  std::string_view name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

class MetricRegistry {
 public:
  /// Export `table` after every table added before it; the registry keeps
  /// it alive. Returns the table.
  const MetricTable& add(std::unique_ptr<MetricTable> table);

  /// Read every row: table by table, then instance by instance, then field
  /// by field.
  std::vector<MetricSample> snapshot() const;

  /// Current value of one row; nullopt when no table has it.
  std::optional<double> value(std::string_view component,
                              std::string_view name, Labels labels = {}) const;

  /// Rows in a snapshot (fields x instances, summed over the tables).
  std::size_t size() const;

 private:
  std::vector<std::unique_ptr<MetricTable>> tables_;
};

}  // namespace itb::telemetry
