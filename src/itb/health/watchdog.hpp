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
// stall. One rule: `stall_threshold` without progress while worms are in
// flight, counted from the later of the last progress and the last verdict,
// is a stall verdict. Each verdict diagnoses afresh (WaitGraphDiagnoser)
// and acts on that diagnosis alone: a buffer cycle switches its wedged
// hosts still in stop-when-full to §4 drop-on-full (GM retransmission
// recovers the drops); a buffer or channel cycle with no pool left to
// switch force-ejects the oldest blocked worm (health.forced_ejections);
// a fault blackhole or congestion is left alone.
//
// The watchdog parks when the network is idle, so a drain-style
// EventQueue::run() still returns (Network's activity hook re-arms it on
// the next injection), and on a verdict that took no action with no other
// event queued. Progress epochs (global and per NIC) and all verdict
// counters are published as `health.*` telemetry.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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
  /// Cure a buffer cycle by switching its wedged in-transit NICs to
  /// drop-on-full; off, every deadlock verdict force-ejects instead.
  bool switch_to_pool = true;
};

/// Counters behind the `health.*` metrics. An episode (a stall up to the
/// next progress) counts one stall, of the kind its first verdict found.
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
struct LivenessVerdict : HealthStats {
  std::uint64_t unrecovered = 0;  // runs that ended still stalled
  std::string first_cycle;        // first diagnosed wait cycle, if any

  bool clean() const { return stalls_detected == 0 && unrecovered == 0; }
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

  const HealthStats& stats() const { return stats_; }
  /// One diagnosis per stall verdict, in order.
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

  LivenessVerdict verdict() const;

  /// Activity hook target: re-arm the tick after parking. Called by the
  /// network on every injection; safe to call any time.
  void poke();

  /// Metric tables under "health": the HealthStats counters and the global
  /// epoch; nic_epoch per watched NIC, labelled by host.
  std::unique_ptr<telemetry::MetricTable> metric_table() const;
  std::unique_ptr<telemetry::MetricTable> nic_table() const;

 private:
  using Fingerprint = std::array<std::uint64_t, 4>;

  void arm();
  void tick();
  bool update_epochs();
  bool act_on_stall(sim::Time now);
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
  // Later of the last progress (or wake-up) and the last stall verdict.
  sim::Time stall_clock_ = 0;

  bool parked_ = true;
  sim::EventId tick_event_;
  bool in_stall_ = false;
  sim::Time stall_detected_ = 0;
};

}  // namespace itb::health
