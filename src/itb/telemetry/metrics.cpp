#include "itb/telemetry/metrics.hpp"

namespace itb::telemetry {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
  }
  return "?";
}

std::optional<std::size_t> MetricTable::field(std::string_view name) const {
  for (std::size_t f = 0; f < field_count(); ++f)
    if (field_name(f) == name) return f;
  return std::nullopt;
}

const MetricTable& MetricRegistry::add(std::unique_ptr<MetricTable> table) {
  tables_.push_back(std::move(table));
  return *tables_.back();
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(size());
  for (const auto& t : tables_)
    for (std::size_t i = 0; i < t->instance_count(); ++i)
      for (std::size_t f = 0; f < t->field_count(); ++f)
        out.push_back(MetricSample{t->component(), t->field_name(f),
                                   t->labels(i), t->field_kind(f),
                                   t->read(f, i)});
  return out;
}

std::optional<double> MetricRegistry::value(std::string_view component,
                                            std::string_view name,
                                            Labels labels) const {
  for (const auto& t : tables_) {
    if (t->component() != component) continue;
    const auto f = t->field(name);
    if (!f) continue;
    for (std::size_t i = 0; i < t->instance_count(); ++i)
      if (t->labels(i) == labels) return t->read(*f, i);
  }
  return std::nullopt;
}

std::size_t MetricRegistry::size() const {
  std::size_t rows = 0;
  for (const auto& t : tables_) rows += t->field_count() * t->instance_count();
  return rows;
}

}  // namespace itb::telemetry
