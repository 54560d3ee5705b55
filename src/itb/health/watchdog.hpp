// Liveness watchdog: notice a wedged run and heal it without restarting.
//
// DESIGN.md §8: the faithful 2-buffer stop-when-full MCP wedges on loaded
// ITB networks through a cycle of buffer waits the static CDG checker
// cannot see. The paper proposes the §4 drop-on-full circular pool as the
// cure but never *detects* the wedge at runtime; a production-scale sweep
// must not hang forever instead.
//
// The watchdog is an event-driven progress sentinel. Every check period it
// compares a progress fingerprint — network delivered/dropped/lost plus
// each NIC's receive-side counters, deliberately EXCLUDING injections,
// because GM happily retransmits into a wedged fabric and would mask the
// stall. No change for `stall_threshold` while worms are in flight is a
// stall verdict, handed to the WaitGraphDiagnoser. On a confirmed deadlock
// the escalation policy acts in two stages:
//   1. switch the wedged in-transit NICs (the buffer nodes on the cycle)
//      to §4 drop-on-full pool mode — GM retransmission recovers drops;
//   2. after a grace period still without progress, force-eject the oldest
//      blocked worm, charged to the ledger as health.forced_ejections.
// Fault blackholes (traffic parked behind a NIC-stall window) and plain
// congestion are diagnosed but never acted on: the former heals when the
// window closes, the latter needs no healing.
//
// The watchdog parks itself whenever the network is idle so a drain-style
// EventQueue::run() still returns; Network's activity hook re-arms it on
// the next injection. Progress epochs (global and per NIC) and all verdict
// counters are published as `health.*` telemetry.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "itb/health/diagnosis.hpp"
#include "itb/net/network.hpp"
#include "itb/nic/nic.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/telemetry/histogram.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::health {

struct WatchdogConfig {
  bool enabled = false;
  sim::Duration check_period = 100 * sim::kUs;
  /// No fingerprint change for this long with worms in flight = stall.
  sim::Duration stall_threshold = 500 * sim::kUs;
  /// Escalation stage 1: switch wedged in-transit NICs to drop-on-full.
  bool switch_to_pool = true;
  /// Escalation stage 2: force-eject the oldest blocked worm.
  bool force_eject = true;
  /// Wait between escalation stages (and between repeated ejections).
  sim::Duration escalation_grace = 200 * sim::kUs;
};

/// Counters behind the `health.*` metrics.
struct HealthStats {
  std::uint64_t checks = 0;
  std::uint64_t stalls_detected = 0;
  std::uint64_t buffer_deadlocks = 0;
  std::uint64_t channel_deadlocks = 0;
  std::uint64_t fault_blackholes = 0;
  std::uint64_t congestion_verdicts = 0;
  std::uint64_t pool_mode_switches = 0;  // NICs flipped to drop-on-full
  std::uint64_t forced_ejections = 0;    // worms killed to break a wedge
  std::uint64_t recoveries = 0;          // stall episodes that ended
};

/// One run's liveness outcome, aggregatable across sweep points.
struct LivenessVerdict {
  std::uint64_t checks = 0;
  std::uint64_t stalls = 0;
  std::uint64_t buffer_deadlocks = 0;
  std::uint64_t channel_deadlocks = 0;
  std::uint64_t fault_blackholes = 0;
  std::uint64_t congestion_verdicts = 0;
  std::uint64_t pool_mode_switches = 0;
  std::uint64_t forced_ejections = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t unrecovered = 0;  // runs that ended still stalled
  std::string first_cycle;        // first diagnosed wait cycle, if any

  bool clean() const { return stalls == 0 && unrecovered == 0; }
  void merge(const LivenessVerdict& o);
};

class LivenessWatchdog {
 public:
  /// `nics[h]` serves host h (null entries allowed). Installs itself as the
  /// network's activity hook; starts parked until the first injection.
  LivenessWatchdog(sim::EventQueue& queue, net::Network& network,
                   std::vector<nic::Nic*> nics, const WatchdogConfig& config);
  ~LivenessWatchdog();

  LivenessWatchdog(const LivenessWatchdog&) = delete;
  LivenessWatchdog& operator=(const LivenessWatchdog&) = delete;

  const WatchdogConfig& config() const { return config_; }
  const HealthStats& stats() const { return stats_; }
  const std::vector<Diagnosis>& diagnoses() const { return diagnoses_; }
  /// Detection-to-first-progress latency of every finished stall episode.
  const telemetry::LatencyHistogram& recovery_latency() const {
    return recovery_latency_;
  }

  /// Global progress epoch: bumps whenever the fingerprint advances.
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t nic_epoch(std::uint16_t host) const {
    return nic_epochs_.at(host);
  }

  /// True while a stall episode is open (no progress since detection).
  bool stalled() const { return in_stall_; }

  LivenessVerdict verdict() const;

  /// Activity hook target: re-arm the tick after parking. Called by the
  /// network on every injection; safe to call any time.
  void poke();

  /// Publish HealthStats + progress epochs under component "health".
  void register_metrics(telemetry::MetricRegistry& registry) const;

 private:
  using Fingerprint = std::array<std::uint64_t, 4>;

  void arm();
  void tick();
  void update_epochs();
  void handle_stall(sim::Time now);
  bool try_escalate(sim::Time now);
  void finish_episode(sim::Time now);
  Fingerprint global_fingerprint() const;
  std::uint64_t nic_fingerprint(std::size_t h) const;

  sim::EventQueue& queue_;
  net::Network& network_;
  std::vector<nic::Nic*> nics_;
  WatchdogConfig config_;
  WaitGraphDiagnoser diagnoser_;

  HealthStats stats_;
  std::vector<Diagnosis> diagnoses_;
  telemetry::LatencyHistogram recovery_latency_;

  Fingerprint last_fp_{};
  std::vector<std::uint64_t> nic_fps_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> nic_epochs_;
  sim::Time last_progress_ = 0;

  bool parked_ = true;
  sim::EventId tick_event_;
  bool in_stall_ = false;
  sim::Time stall_detected_ = 0;
  sim::Time last_action_ = 0;
  int stage_ = 0;  // 0 = none, 1 = pool switch done, 2 = ejecting
  StallKind current_kind_ = StallKind::kCongestion;
  std::vector<std::uint16_t> wedged_hosts_;
};

}  // namespace itb::health
