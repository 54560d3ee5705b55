#include "itb/telemetry/metrics.hpp"

#include <stdexcept>

namespace itb::telemetry {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
  }
  return "?";
}

std::uint64_t key_hash(std::string_view component, std::string_view name,
                       Labels labels) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (const char c : component) mix(static_cast<std::uint8_t>(c));
  mix(0);  // separator: "ab"+"c" and "a"+"bc" differ
  for (const char c : name) mix(static_cast<std::uint8_t>(c));
  for (const int v : {labels.host, labels.channel})
    for (int i = 0; i < 4; ++i)
      mix(static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * i)));
  return h;
}

const MetricRegistry::Slot* MetricRegistry::find(std::uint64_t hash,
                                                 std::string_view component,
                                                 std::string_view name,
                                                 Labels labels) const {
  const auto [first, last] = index_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    const Slot& s = slots_[it->second];
    if (s.component == component && s.name == name && s.labels == labels)
      return &s;
  }
  return nullptr;
}

void MetricRegistry::register_source(std::string component, std::string name,
                                     MetricKind kind, Source source,
                                     Labels labels) {
  if (!source) throw std::invalid_argument("metric source must be callable");
  const std::uint64_t hash = key_hash(component, name, labels);
  if (find(hash, component, name, labels))
    throw std::invalid_argument("metric already registered: " + component +
                                "." + name);
  slots_.push_back(Slot{std::move(component), std::move(name), labels, kind,
                        std::move(source)});
  index_.emplace(hash, slots_.size() - 1);
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_)
    out.push_back(
        MetricSample{s.component, s.name, s.labels, s.kind, s.source()});
  return out;
}

std::optional<double> MetricRegistry::value(std::string_view component,
                                            std::string_view name,
                                            Labels labels) const {
  const Slot* s = find(key_hash(component, name, labels), component, name,
                       labels);
  if (!s) return std::nullopt;
  return s->source();
}

}  // namespace itb::telemetry
