#include "itb/health/watchdog.hpp"

namespace itb::health {

void LivenessVerdict::merge(const LivenessVerdict& o) {
  checks += o.checks;
  stalls += o.stalls;
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
  last_progress_ = queue_.now();
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

void LivenessWatchdog::update_epochs() {
  const Fingerprint fp = global_fingerprint();
  if (fp != last_fp_) {
    last_fp_ = fp;
    ++epoch_;
    last_progress_ = queue_.now();
  }
  for (std::size_t h = 0; h < nics_.size(); ++h) {
    const std::uint64_t nf = nic_fingerprint(h);
    if (nf != nic_fps_[h]) {
      nic_fps_[h] = nf;
      ++nic_epochs_[h];
    }
  }
}

void LivenessWatchdog::tick() {
  ++stats_.checks;
  const sim::Time now = queue_.now();
  update_epochs();
  if (in_stall_ && last_progress_ == now) finish_episode(now);
  if (network_.in_flight() == 0) {
    // Idle: park unconditionally — the next injection pokes us awake. This
    // also keeps the watchdog and the telemetry sampler from re-arming
    // each other forever on an otherwise empty queue.
    parked_ = true;
    return;
  }
  if (now - last_progress_ >= config_.stall_threshold) {
    handle_stall(now);
    if (parked_) return;
  }
  arm();
}

void LivenessWatchdog::handle_stall(sim::Time now) {
  bool acted = false;
  if (!in_stall_) {
    in_stall_ = true;
    stall_detected_ = now;
    stage_ = 0;
    last_action_ = now;
    ++stats_.stalls_detected;
    Diagnosis d = diagnoser_.diagnose(now);
    switch (d.kind) {
      case StallKind::kBufferDeadlock: ++stats_.buffer_deadlocks; break;
      case StallKind::kChannelDeadlock: ++stats_.channel_deadlocks; break;
      case StallKind::kFaultBlackhole: ++stats_.fault_blackholes; break;
      case StallKind::kCongestion: ++stats_.congestion_verdicts; break;
    }
    current_kind_ = d.kind;
    wedged_hosts_ = d.wedged_hosts;
    diagnoses_.push_back(std::move(d));
    acted = try_escalate(now);
  } else if (now - last_action_ >= config_.escalation_grace) {
    acted = try_escalate(now);
  }
  if (!acted) {
    // Park (leaving the verdict unrecovered) only when nothing can ever
    // change: no escalation left for us, and no event left for anyone
    // else. A blackhole's window-close event keeps the queue non-empty.
    const bool deadlock = current_kind_ == StallKind::kBufferDeadlock ||
                          current_kind_ == StallKind::kChannelDeadlock;
    const bool may_act_later = deadlock && config_.force_eject;
    if (!may_act_later && queue_.pending() == 0) parked_ = true;
  }
}

bool LivenessWatchdog::try_escalate(sim::Time now) {
  if (current_kind_ != StallKind::kBufferDeadlock &&
      current_kind_ != StallKind::kChannelDeadlock)
    return false;  // blackholes heal themselves; congestion needs no cure
  if (stage_ == 0) {
    stage_ = 1;
    last_action_ = now;
    if (config_.switch_to_pool) {
      bool any = false;
      for (const std::uint16_t h : wedged_hosts_) {
        if (h >= nics_.size() || !nics_[h]) continue;
        if (nics_[h]->enable_drop_when_full()) {
          any = true;
          ++stats_.pool_mode_switches;
        }
      }
      if (any) return true;
    }
    // Pool switch off or found no target (channel-only cycle, or the hosts
    // are already in pool mode): fall through to ejection.
  }
  if (!config_.force_eject) return false;
  if (const auto victim = network_.oldest_blocked()) {
    if (network_.force_eject(*victim)) {
      ++stats_.forced_ejections;
      stage_ = 2;
      last_action_ = now;
      return true;
    }
  }
  return false;
}

void LivenessWatchdog::finish_episode(sim::Time now) {
  in_stall_ = false;
  stage_ = 0;
  ++stats_.recoveries;
  recovery_latency_.record(
      static_cast<std::uint64_t>(now - stall_detected_));
}

LivenessVerdict LivenessWatchdog::verdict() const {
  LivenessVerdict v;
  v.checks = stats_.checks;
  v.stalls = stats_.stalls_detected;
  v.buffer_deadlocks = stats_.buffer_deadlocks;
  v.channel_deadlocks = stats_.channel_deadlocks;
  v.fault_blackholes = stats_.fault_blackholes;
  v.congestion_verdicts = stats_.congestion_verdicts;
  v.pool_mode_switches = stats_.pool_mode_switches;
  v.forced_ejections = stats_.forced_ejections;
  v.recoveries = stats_.recoveries;
  v.unrecovered = in_stall_ && network_.in_flight() > 0 ? 1 : 0;
  for (const auto& d : diagnoses_) {
    if (d.cycle.empty()) continue;
    v.first_cycle = d.description;
    break;
  }
  return v;
}

void LivenessWatchdog::register_metrics(
    telemetry::MetricRegistry& registry) const {
  auto counter = [&registry](const char* name, const std::uint64_t& field) {
    registry.register_source("health", name, telemetry::MetricKind::kCounter,
                             [&field] { return static_cast<double>(field); });
  };
  counter("checks", stats_.checks);
  counter("stalls_detected", stats_.stalls_detected);
  counter("buffer_deadlocks", stats_.buffer_deadlocks);
  counter("channel_deadlocks", stats_.channel_deadlocks);
  counter("fault_blackholes", stats_.fault_blackholes);
  counter("congestion_verdicts", stats_.congestion_verdicts);
  counter("pool_mode_switches", stats_.pool_mode_switches);
  counter("forced_ejections", stats_.forced_ejections);
  counter("recoveries", stats_.recoveries);
  registry.register_source("health", "epoch", telemetry::MetricKind::kGauge,
                           [this] { return static_cast<double>(epoch_); });
  for (std::size_t h = 0; h < nics_.size(); ++h) {
    if (!nics_[h]) continue;
    registry.register_source(
        "health", "nic_epoch", telemetry::MetricKind::kGauge,
        [this, h] { return static_cast<double>(nic_epochs_[h]); },
        telemetry::Labels{.host = static_cast<int>(h), .channel = -1});
  }
}

}  // namespace itb::health
