// Fault model vocabulary.
//
// GM promises "reliable and ordered packet delivery in presence of network
// faults" (§3). The paper's Myrinet recovers from component failures by
// having the mapper recompute the up*/down* tree over whatever survives;
// this module supplies the faults: a deterministic, seeded schedule of
// timed windows during which a link, a switch, a host (e.g. an in-transit
// host mid-path) or a NIC is out, plus per-packet last-hop drop/corrupt
// coin-flips. Everything is driven off the one event queue, so a chaos run
// is reproducible from its seeds alone.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "itb/sim/time.hpp"
#include "itb/topo/topology.hpp"

namespace itb::fault {

/// What a fault window takes out.
enum class FaultKind : std::uint8_t {
  kLinkDown,    // one cable; both directed channels die
  kSwitchDown,  // a switch; every link touching it dies
  kHostDown,    // a host (ITB hosts included); its uplink dies
  kNicStall,    // a NIC stops accepting receptions; lossless backpressure
};

/// One timed outage: `target` is a LinkId for kLinkDown, a switch index for
/// kSwitchDown, and a host index otherwise. Half-open interval
/// [start, end): the component recovers at `end`.
struct FaultWindow {
  FaultKind kind = FaultKind::kLinkDown;
  std::uint32_t target = 0;
  sim::Time start = 0;
  sim::Time end = 0;
};

/// Loss/corruption accounting by cause. Reconciles with the network:
/// net.stats().lost == total_lost(), and none of these ever count as
/// net.delivered.
struct FaultStats {
  std::uint64_t windows_opened = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t lost_drop = 0;         // probabilistic last-hop drops
  std::uint64_t corrupted = 0;         // delivered with a flipped byte
  std::uint64_t lost_link_down = 0;    // killed by a plain link window
  std::uint64_t lost_switch_down = 0;  // killed at a dead switch's link
  std::uint64_t lost_host_down = 0;    // killed at a dead host's uplink

  std::uint64_t total_lost() const {
    return lost_drop + lost_link_down + lost_switch_down + lost_host_down;
  }
};

/// Everything a cluster's fault injector does: an ordered list of fault
/// windows plus per-packet last-hop coin flips. Windows are built by hand
/// (tests) or generated randomly from a seed (chaos soaks); they may
/// overlap freely, and a component is up again only when every window
/// covering it has closed.
class FaultSchedule {
 public:
  /// Per delivered packet: it vanishes at the last hop with this
  /// probability...
  double drop_probability = 0.0;
  /// ...or, if it survives, one payload byte is flipped with this one.
  double corrupt_probability = 0.0;
  /// Seed of the coin-flip stream (independent of any chaos seed).
  std::uint64_t seed = 0x5EED;

  FaultSchedule& add(FaultWindow w) {
    if (w.end <= w.start)
      throw std::invalid_argument("fault window must have end > start");
    windows_.push_back(w);
    return *this;
  }
  FaultSchedule& link_down(topo::LinkId link, sim::Time start, sim::Time end) {
    return add({FaultKind::kLinkDown, link, start, end});
  }
  FaultSchedule& switch_down(std::uint16_t sw, sim::Time start, sim::Time end) {
    return add({FaultKind::kSwitchDown, sw, start, end});
  }
  FaultSchedule& host_down(std::uint16_t host, sim::Time start, sim::Time end) {
    return add({FaultKind::kHostDown, host, start, end});
  }
  FaultSchedule& nic_stall(std::uint16_t host, sim::Time start, sim::Time end) {
    return add({FaultKind::kNicStall, host, start, end});
  }

  const std::vector<FaultWindow>& windows() const { return windows_; }
  /// Neither windows nor coin flips: a faithful wire.
  bool empty() const {
    return windows_.empty() && drop_probability <= 0.0 &&
           corrupt_probability <= 0.0;
  }

  /// Any window that changes the usable topology (everything but NIC
  /// stalls, which are pure backpressure)?
  bool has_topology_faults() const;

  /// Parameters for random chaos generation. Counts are windows per kind;
  /// durations are exponentially distributed around `mean_duration`
  /// (clamped below by `min_duration`), starts uniform in [0, horizon).
  struct ChaosSpec {
    sim::Time horizon = 0;  // required: windows start within [0, horizon)
    int link_windows = 0;
    int switch_windows = 0;
    int host_windows = 0;
    int stall_windows = 0;
    sim::Duration mean_duration = 500 * sim::kUs;
    sim::Duration min_duration = 20 * sim::kUs;
    std::uint64_t seed = 0xC4A05;
    /// Hosts never targeted by host-down / NIC-stall windows (keep the
    /// endpoints a bench measures alive so exactly-once is decidable).
    std::vector<std::uint16_t> protected_hosts;

    /// "Hotspot burst" preset (§8 wedge reproducer): a train of short
    /// NIC-stall windows all aimed at ONE seeded host. While the hotspot
    /// NIC is stalled, every flow routed through it parks under Stop&Go
    /// backpressure; each release floods the 2-buffer pool at once — the
    /// load pattern that wedges the stop-when-full MCP. The host is drawn
    /// from the seed (protected-host-aware) unless `hotspot_host` pins it.
    int hotspot_bursts = 0;                          // stall windows in the train
    sim::Duration hotspot_stall = 200 * sim::kUs;    // each window's length
    sim::Duration hotspot_gap = 100 * sim::kUs;      // open time between windows
    sim::Time hotspot_start = 0;                     // train start
    std::optional<std::uint16_t> hotspot_host;       // pin the target host
  };

  /// Deterministic random schedule over `topo` (same spec -> same windows;
  /// no coin flips).
  static FaultSchedule chaos(const topo::Topology& topo, const ChaosSpec& spec);

 private:
  std::vector<FaultWindow> windows_;
};

}  // namespace itb::fault
