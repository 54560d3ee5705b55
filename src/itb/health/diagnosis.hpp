// Wait-graph diagnosis of a stalled network.
//
// When the LivenessWatchdog declares a stall it needs to know *why* before
// it may act: the §8 buffer-wait wedge is curable (switch the wedged pool
// to §4 drop-on-full), a fault blackhole cures itself when the window
// closes, and plain congestion must simply be left alone. The diagnoser
// answers by rebuilding, from live simulator state, the same buffer-
// augmented dependency graph the static checker uses — but over the
// *actual* waits of this instant rather than all possible routes:
//
//   * every blocked worm contributes edges from each channel it holds to
//     the resource it is parked on — the busy channel ahead of it, or the
//     buffer pool of a host whose gate is closed;
//   * every full receive pool contributes edges from its buffer node to
//     whatever its host's blocked outgoing injection waits on, because the
//     pool only frees once that (re-)injection drains.
//
// A cycle through a buffer node is a confirmed §8 wedge and names exactly
// the in-transit hosts to degrade. A cycle through channels alone is a
// routing bug (the static CDG check was bypassed). No cycle but a worm
// parked behind a fault window is a blackhole; anything else is congestion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "itb/net/network.hpp"
#include "itb/nic/nic.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/time.hpp"

namespace itb::health {

enum class StallKind : std::uint8_t {
  kBufferDeadlock,   // cycle through >= 1 buffer node: the §8 wedge
  kChannelDeadlock,  // cycle through channels only: broken route set
  kFaultBlackhole,   // no cycle; traffic parked behind a NIC-stall window
  kCongestion,       // no cycle, no fault: just slow
};

/// One stall verdict: what wedged, the cycle that proves it, and the hosts
/// whose buffer pools participate (the escalation targets).
struct Diagnosis {
  sim::Time at = 0;
  StallKind kind = StallKind::kCongestion;
  std::vector<routing::DependencyGraph::Node> cycle;  // empty unless deadlock
  std::vector<std::uint16_t> wedged_hosts;  // buffer nodes on the cycle
  std::size_t blocked_worms = 0;
  std::string description;
};

class WaitGraphDiagnoser {
 public:
  /// `nics[h]` serves host h; entries may be null for unattached hosts.
  WaitGraphDiagnoser(const net::Network& network,
                     std::vector<const nic::Nic*> nics)
      : network_(network), nics_(std::move(nics)) {}

  /// Walk the live wait state and classify the current stall.
  Diagnosis diagnose(sim::Time now) const;

 private:
  const net::Network& network_;
  std::vector<const nic::Nic*> nics_;
};

}  // namespace itb::health
