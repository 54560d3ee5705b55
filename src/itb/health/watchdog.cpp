#include "itb/health/watchdog.hpp"

namespace itb::health {

void LivenessVerdict::merge(const LivenessVerdict& o) {
  checks += o.checks;
  stalls_detected += o.stalls_detected;
  buffer_deadlocks += o.buffer_deadlocks;
  channel_deadlocks += o.channel_deadlocks;
  fault_blackholes += o.fault_blackholes;
  congestion_verdicts += o.congestion_verdicts;
  pool_mode_switches += o.pool_mode_switches;
  forced_ejections += o.forced_ejections;
  recoveries += o.recoveries;
  unrecovered += o.unrecovered;
  if (first_cycle.empty()) first_cycle = o.first_cycle;
}

LivenessWatchdog::LivenessWatchdog(sim::EventQueue& queue,
                                   net::Network& network,
                                   std::vector<nic::Nic*> nics,
                                   const WatchdogConfig& config)
    : queue_(queue),
      network_(network),
      nics_(std::move(nics)),
      config_(config),
      diagnoser_(network,
                 std::vector<const nic::Nic*>(nics_.begin(), nics_.end())),
      nic_fps_(nics_.size(), 0),
      nic_epochs_(nics_.size(), 0) {
  last_fp_ = global_fingerprint();
  for (std::size_t h = 0; h < nics_.size(); ++h)
    nic_fps_[h] = nic_fingerprint(h);
  // Parked until traffic exists: an idle cluster's queue stays clean and
  // drain-style run() calls return immediately.
  network_.set_activity_hook([this] { poke(); });
}

LivenessWatchdog::~LivenessWatchdog() {
  if (!parked_) queue_.cancel(tick_event_);
  network_.set_activity_hook(nullptr);
}

void LivenessWatchdog::poke() {
  if (!parked_) return;
  parked_ = false;
  stall_clock_ = queue_.now();
  arm();
}

void LivenessWatchdog::arm() {
  tick_event_ = queue_.schedule_in(config_.check_period, [this] { tick(); });
}

LivenessWatchdog::Fingerprint LivenessWatchdog::global_fingerprint() const {
  // Deliberately excludes net.injected: GM retransmission keeps injecting
  // into a wedged fabric, which must not read as progress.
  const auto& ns = network_.stats();
  std::uint64_t nic_rx = 0;
  for (const nic::Nic* n : nics_) {
    if (!n) continue;
    const auto& s = n->stats();
    nic_rx += s.received + s.delivered_to_host + s.itb_forwarded +
              s.dropped_no_buffer + s.rx_bad_crc + s.rx_unknown_type +
              s.rx_aborted;
  }
  return {ns.delivered, ns.dropped, ns.lost, nic_rx};
}

std::uint64_t LivenessWatchdog::nic_fingerprint(std::size_t h) const {
  const nic::Nic* n = nics_[h];
  if (!n) return 0;
  const auto& s = n->stats();
  return s.received + s.delivered_to_host + s.itb_forwarded +
         s.dropped_no_buffer + s.rx_bad_crc + s.rx_unknown_type +
         s.rx_aborted;
}

bool LivenessWatchdog::update_epochs() {
  const Fingerprint fp = global_fingerprint();
  const bool progress = fp != last_fp_;
  if (progress) {
    last_fp_ = fp;
    ++epoch_;
  }
  for (std::size_t h = 0; h < nics_.size(); ++h) {
    const std::uint64_t nf = nic_fingerprint(h);
    if (nf != nic_fps_[h]) {
      nic_fps_[h] = nf;
      ++nic_epochs_[h];
    }
  }
  return progress;
}

void LivenessWatchdog::tick() {
  ++stats_.checks;
  const sim::Time now = queue_.now();
  if (update_epochs()) {
    stall_clock_ = now;
    if (in_stall_) finish_episode(now);
  }
  if (network_.in_flight() == 0) {
    // Idle: park unconditionally — the next injection pokes us awake. This
    // also keeps the watchdog and the telemetry sampler from re-arming
    // each other forever on an otherwise empty queue.
    parked_ = true;
    return;
  }
  if (now - stall_clock_ >= config_.stall_threshold) {
    stall_clock_ = now;
    // Park (leaving the episode unrecovered) only when nothing can change
    // any more: this verdict took no action and no event is left for
    // anyone else. A blackhole's window-close event keeps the queue busy.
    if (!act_on_stall(now) && queue_.pending() == 0) {
      parked_ = true;
      return;
    }
  }
  arm();
}

bool LivenessWatchdog::act_on_stall(sim::Time now) {
  diagnoses_.push_back(diagnoser_.diagnose(now));
  const Diagnosis& d = diagnoses_.back();
  if (!in_stall_) {
    in_stall_ = true;
    stall_detected_ = now;
    ++stats_.stalls_detected;
    switch (d.kind) {
      case StallKind::kBufferDeadlock: ++stats_.buffer_deadlocks; break;
      case StallKind::kChannelDeadlock: ++stats_.channel_deadlocks; break;
      case StallKind::kFaultBlackhole: ++stats_.fault_blackholes; break;
      case StallKind::kCongestion: ++stats_.congestion_verdicts; break;
    }
  }
  if (d.kind != StallKind::kBufferDeadlock &&
      d.kind != StallKind::kChannelDeadlock)
    return false;  // blackholes heal themselves; congestion needs no cure
  bool switched = false;
  if (config_.switch_to_pool)
    for (const std::uint16_t h : d.wedged_hosts)
      if (h < nics_.size() && nics_[h] && nics_[h]->enable_drop_when_full()) {
        ++stats_.pool_mode_switches;
        switched = true;
      }
  if (switched) return true;
  // No pool left to switch (a channel-only cycle, every wedged host
  // already drops on full, or switching is off): eject the oldest blocked
  // worm.
  const auto victim = network_.oldest_blocked();
  if (!victim || !network_.force_eject(*victim)) return false;
  ++stats_.forced_ejections;
  return true;
}

void LivenessWatchdog::finish_episode(sim::Time now) {
  in_stall_ = false;
  ++stats_.recoveries;
  recovery_latency_.record(
      static_cast<std::uint64_t>(now - stall_detected_));
}

LivenessVerdict LivenessWatchdog::verdict() const {
  LivenessVerdict v;
  static_cast<HealthStats&>(v) = stats_;
  v.unrecovered = in_stall_ && network_.in_flight() > 0 ? 1 : 0;
  for (const auto& d : diagnoses_) {
    if (d.cycle.empty()) continue;
    v.first_cycle = d.description;
    break;
  }
  return v;
}

std::unique_ptr<telemetry::MetricTable> LivenessWatchdog::metric_table()
    const {
  using enum telemetry::MetricKind;
  using telemetry::stat;
  using W = LivenessWatchdog;
  using S = HealthStats;
  static constexpr telemetry::Field<W> kFields[] = {
      {"checks", kCounter, stat<W, &S::checks>},
      {"stalls_detected", kCounter, stat<W, &S::stalls_detected>},
      {"buffer_deadlocks", kCounter, stat<W, &S::buffer_deadlocks>},
      {"channel_deadlocks", kCounter, stat<W, &S::channel_deadlocks>},
      {"fault_blackholes", kCounter, stat<W, &S::fault_blackholes>},
      {"congestion_verdicts", kCounter, stat<W, &S::congestion_verdicts>},
      {"pool_mode_switches", kCounter, stat<W, &S::pool_mode_switches>},
      {"forced_ejections", kCounter, stat<W, &S::forced_ejections>},
      {"recoveries", kCounter, stat<W, &S::recoveries>},
      {"epoch", kGauge, [](const W& w) { return double(w.epoch()); }},
  };
  return telemetry::make_table("health", kFields, *this);
}

std::unique_ptr<telemetry::MetricTable> LivenessWatchdog::nic_table() const {
  static constexpr telemetry::Field<std::uint64_t> kFields[] = {
      {"nic_epoch", telemetry::MetricKind::kGauge,
       [](const std::uint64_t& epoch) { return double(epoch); }}};
  std::vector<telemetry::Instance<std::uint64_t>> instances;
  for (std::size_t h = 0; h < nics_.size(); ++h)
    if (nics_[h])
      instances.push_back(
          {&nic_epochs_[h], {.host = static_cast<int>(h), .channel = -1}});
  return telemetry::make_table("health", kFields, std::move(instances));
}

}  // namespace itb::health
