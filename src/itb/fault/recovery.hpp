// Incremental remap-and-recover (§3, scaled up).
//
// When GM's mapper detects a topology change it recomputes the up*/down*
// tree over the surviving fabric and downloads fresh route tables; GM's
// go-back-N retransmission masks the outage from applications. PR 3's
// version of this loop re-ran FULL discovery plus an all-pairs route solve
// on every window edge — fine on a 3-host testbed, a stall generator on a
// 1024-host fat-tree where one policy solve costs ~0.4 s. This engine
// repairs incrementally, the way production fabric managers do:
//
//   * stable coordinates — faults become a link-usability mask over the
//     TRUE fabric (no degraded-topology renumbering), so switch/host/link
//     ids, reverse indexes and route dumps stay comparable across epochs;
//   * scoped re-probe — mapper::rediscover_scoped re-scans only the fault
//     boundary and newly exposed subtrees, not the whole fabric;
//   * route-table patching — RouteTable::patch re-solves only sources whose
//     stored routes are provably affected (link reverse index + ITB
//     candidate index + added-link attraction bound); every surviving row
//     is byte-identical to a from-scratch solve;
//   * epoch-safe hot-swap — each install bumps a monotonic epoch; NICs
//     re-source in-flight sends bound to a retired epoch instead of leaning
//     on the dropped_unroutable backstop;
//   * flap quarantine + storm control — per-link flap detection with
//     exponential backoff parks oscillating links, event coalescing folds
//     window edges into one round (leading edge fires remap_delay after the
//     FIRST unabsorbed event), and a bounded pending set degrades to one
//     full re-solve on overflow.
//
// The time from the first unabsorbed topology event to the table install is
// the recovery latency, recorded in a histogram and exported through the
// telemetry registry ("fault" keeps its PR 3 names; the incremental
// machinery reports under "recovery").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "itb/engine/engine.hpp"
#include "itb/fault/injector.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/nic/nic.hpp"
#include "itb/routing/table.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/telemetry/histogram.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::fault {

/// Copy of `full` with every impaired link removed. Hosts and switches all
/// remain (indices must stay stable for routing); hosts whose uplink died
/// are simply unattached. The incremental engine no longer routes over
/// these (it masks instead); kept for tests and offline analysis.
topo::Topology degraded_topology(const topo::Topology& full,
                                 const FaultInjector& injector);

/// Tuning for the incremental recovery engine. Defaults are sized for the
/// microsecond-scale fabrics the benches run; everything is overridable per
/// cluster.
struct RecoveryTuning {
  /// Master switch: false = PR 3 behaviour (full solve every round) while
  /// keeping the new coalescing/quarantine/epoch machinery.
  bool incremental = true;

  /// Re-solve every patched table from scratch too and byte-compare the
  /// dumps; on mismatch fall back to the full table (counted). The safety
  /// net the tests and the bench run with — fallbacks must stay 0.
  bool verify_patches = false;

  /// Modelled cost charged between the coalesced fire and the table
  /// install: probe_cost per probe actually sent plus per_source_cost per
  /// source re-solved. This is what makes scoped recovery FASTER in sim
  /// time, not just in host CPU.
  sim::Duration probe_cost = 1 * sim::kUs;
  sim::Duration per_source_cost = 2 * sim::kUs;

  /// Flap quarantine: >= flap_threshold usability transitions of one link
  /// within flap_window parks it for quarantine_base * backoff^level
  /// (capped at quarantine_max); a link that stays quiet for flap_window
  /// after its last transition resets its backoff level.
  int flap_threshold = 4;
  sim::Duration flap_window = 5 * sim::kMs;
  sim::Duration quarantine_base = 2 * sim::kMs;
  double quarantine_backoff = 2.0;
  sim::Duration quarantine_max = 50 * sim::kMs;

  /// Bounded pending-change set (storm control): more distinct dirty links
  /// than this between rounds degrades the next round to one full
  /// re-solve instead of queueing unbounded patch work.
  std::size_t max_pending_links = 64;
};

class RecoveryManager {
 public:
  struct Config {
    routing::ItbHostSelection selection = routing::ItbHostSelection::kLowestIndex;
    std::uint16_t preferred_root_host = 0;
    /// Detection time between the FIRST unabsorbed topology event and the
    /// recompute firing. Later events inside the delay coalesce into the
    /// same round without postponing it (leading edge, not debounce — a
    /// flap train can no longer starve recovery forever).
    sim::Duration remap_delay = 500 * sim::kUs;
    /// Threads for the per-source route solves of a round (0 = hardware
    /// concurrency). Tables are jobs-invariant.
    unsigned route_jobs = 1;
    RecoveryTuning tuning;
  };

  struct Stats {
    std::uint64_t remaps = 0;
    std::uint64_t failed_remaps = 0;      // no live root host to map from
    std::uint64_t unreachable_hosts = 0;  // at the most recent install

    // Incremental machinery (cumulative over rounds).
    std::uint64_t full_resolves = 0;     // rounds that re-solved all sources
    std::uint64_t patch_rounds = 0;      // rounds served by RouteTable::patch
    std::uint64_t scoped_probes = 0;     // probes actually charged
    std::uint64_t full_probe_equiv = 0;  // what full walks would have cost
    std::uint64_t sources_patched = 0;   // sources re-solved
    std::uint64_t sources_total = 0;     // sources a full solve would touch
    std::uint64_t coalesced_events = 0;  // events folded into an armed round
    std::uint64_t flaps_quarantined = 0;
    std::uint64_t overflow_full_resolves = 0;  // storm-control degradations
    std::uint64_t verify_fallbacks = 0;  // patched table mismatched full
  };

  /// One completed recovery round, for the bench's per-round ratios.
  struct RoundInfo {
    sim::Time fired = 0;
    sim::Time installed = 0;
    bool full = false;
    std::uint64_t probes = 0;
    std::uint64_t full_walk_probes = 0;
    std::uint64_t sources_resolved = 0;
    std::uint64_t sources_total = 0;
  };

  /// Re-solves under `engine`'s routing policy and lane budget, and at each
  /// install re-binds `engine` to the new orientation (TRUE fabric
  /// coordinates) BEFORE the NICs receive the tables, so lane decisions
  /// keep agreeing with the installed routes.
  RecoveryManager(sim::EventQueue& queue, const topo::Topology& fabric,
                  FaultInjector& injector, std::vector<nic::Nic*> nics,
                  engine::DeadlockEngine& engine, Config config);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  const Stats& stats() const { return stats_; }
  const telemetry::LatencyHistogram& recovery_latency() const { return latency_; }
  const std::vector<RoundInfo>& rounds() const { return rounds_; }

  /// Route table installed by the most recent remap; nullptr before any.
  const routing::RouteTable* current_table() const {
    return table_ ? &*table_ : nullptr;
  }

  /// Epoch of the most recently installed table (0 = the boot table).
  std::uint64_t epoch() const { return epoch_; }

  /// True while the flap detector has this link parked.
  bool quarantined(topo::LinkId link) const {
    return link < flap_.size() && flap_[link].quarantined;
  }

  /// Publish remap counters + recovery-latency percentiles under "fault"
  /// (PR 3 names) and the incremental gauges under "recovery".
  void register_metrics(telemetry::MetricRegistry& registry) const;

 private:
  enum class Phase : std::uint8_t { kIdle, kArmed, kComputing };

  struct FlapState {
    sim::Time window_start = 0;
    sim::Time last_transition = 0;
    int transitions = 0;
    int backoff_level = 0;
    bool quarantined = false;
  };

  void on_topology_event(sim::Time t, const FaultWindow& w);
  std::vector<topo::LinkId> affected_links(const FaultWindow& w) const;
  void note_flap(topo::LinkId link, sim::Time t);
  void requalify(topo::LinkId link);
  void note_dirty(topo::LinkId link);
  void arm(sim::Time event_time);
  void fire();
  void install();
  std::vector<char> current_mask() const;
  std::optional<std::uint16_t> elect_root(const std::vector<char>& mask) const;

  sim::EventQueue& queue_;
  const topo::Topology& fabric_;
  FaultInjector& injector_;
  std::vector<nic::Nic*> nics_;
  engine::DeadlockEngine& engine_;
  Config config_;
  Stats stats_;
  telemetry::LatencyHistogram latency_;
  std::vector<RoundInfo> rounds_;

  // Routing state, in TRUE fabric coordinates, alive across rounds.
  std::unique_ptr<routing::UpDown> updown_;
  std::unique_ptr<routing::Router> router_;
  std::optional<routing::RouteTable> table_;
  std::optional<mapper::ReachabilityMap> reach_;
  std::uint16_t last_root_switch_ = 0xFFFF;
  std::uint64_t epoch_ = 0;

  // Pending-change accumulation (events not yet consumed by a fire).
  Phase phase_ = Phase::kIdle;
  std::vector<topo::LinkId> pending_links_;
  std::vector<char> pending_flag_;   // per link: already in pending_links_
  bool pending_overflow_ = false;
  bool pending_fresh_ = false;       // unconsumed events exist
  sim::Time oldest_pending_ = 0;

  // The round currently between fire() and install().
  std::vector<topo::LinkId> round_links_;
  sim::Time round_oldest_ = 0;
  std::uint64_t round_unreachable_ = 0;
  RoundInfo round_info_;

  std::vector<FlapState> flap_;
};

}  // namespace itb::fault
