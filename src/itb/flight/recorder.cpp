#include "itb/flight/recorder.hpp"

#include <algorithm>

namespace itb::flight {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kInject: return "inject";
    case EventType::kHeadBlock: return "head-block";
    case EventType::kGrant: return "grant";
    case EventType::kHeadSwitch: return "head-switch";
    case EventType::kNicEject: return "nic-eject";
    case EventType::kTail: return "tail";
    case EventType::kEarlyRecv: return "early-recv";
    case EventType::kItbDmaStart: return "itb-dma-start";
    case EventType::kReinject: return "reinject";
    case EventType::kDeliver: return "deliver";
    case EventType::kDrop: return "drop";
    case EventType::kLost: return "lost";
    case EventType::kForceEject: return "force-eject";
    case EventType::kSendPost: return "send-post";
    case EventType::kTxBind: return "tx-bind";
    case EventType::kGmSend: return "gm-send";
    case EventType::kGmDeliver: return "gm-deliver";
  }
  return "?";
}

std::string describe(const FlightEvent& e) {
  return std::to_string(e.t) + "ns " + to_string(e.type) + " tx" +
         std::to_string(e.handle) + " @" + std::to_string(e.node) + " aux=" +
         std::to_string(e.aux) + " detail=" + std::to_string(e.detail);
}

void Recording::append(const Recording& other) {
  events.insert(events.end(), other.events.begin(), other.events.end());
  recorded += other.recorded;
  evicted += other.evicted;
  // Chain, don't xor: point order must matter, exactly as event order does
  // within one recorder.
  fingerprint = fingerprint_mix(fingerprint, other.fingerprint);
  fingerprint = fingerprint_mix(fingerprint, other.recorded);
}

FlightRecorder::FlightRecorder(const RecorderConfig& config)
    : ring_(std::max<std::size_t>(config.capacity, 1)) {}

void FlightRecorder::record(const FlightEvent& e) {
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size())
    ++count_;
  else
    ++evicted_;
  ++recorded_;
  // Canonical field order; the same bytes the serializer writes.
  std::uint64_t h = hash_;
  h = fingerprint_mix(h, static_cast<std::uint64_t>(e.t));
  h = fingerprint_mix(h, e.handle);
  h = fingerprint_mix(h, e.aux);
  h = fingerprint_mix(h, static_cast<std::uint64_t>(e.node) |
                             (static_cast<std::uint64_t>(e.type) << 16) |
                             (static_cast<std::uint64_t>(e.detail) << 24));
  hash_ = h;
}

Recording FlightRecorder::snapshot() const {
  Recording r;
  r.events.reserve(count_);
  const std::size_t oldest = (head_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i)
    r.events.push_back(ring_[(oldest + i) % ring_.size()]);
  r.recorded = recorded_;
  r.evicted = evicted_;
  r.fingerprint = hash_;
  return r;
}

std::unique_ptr<telemetry::MetricTable> FlightRecorder::metric_table() const {
  using enum telemetry::MetricKind;
  using R = FlightRecorder;
  static constexpr telemetry::Field<R> kFields[] = {
      {"events_recorded", kCounter,
       [](const R& r) { return double(r.recorded()); }},
      {"events_evicted", kCounter,
       [](const R& r) { return double(r.evicted()); }},
      {"fingerprint_low32", kGauge,
       [](const R& r) { return double(r.hash_ & 0xffffffffull); }},
  };
  return telemetry::make_table("flight", kFields, *this);
}

}  // namespace itb::flight
