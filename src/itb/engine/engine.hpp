// Deadlock-freedom engines.
//
// The paper's in-transit buffers are ONE way to make minimal routing legal
// on an up*/down*-oriented irregular network. An engine is one value of
// routing::Policy plus a lane budget, so structurally different answers can
// be swapped, compared on identical topology and traffic, and statically
// verified with the same per-lane channel-dependency-graph machinery:
//
//   * up*/down*   — no extra storage, restricted (often non-minimal) routes;
//   * UD+ITB      — the paper: minimal routes split into valid segments by
//                   ejecting/re-injecting at in-transit hosts (host DRAM is
//                   the buffer);
//   * VC-escape   — >= 2 VC lanes per physical channel and minimal
//                   routes, legalised by the lane ladder of net/lanes.hpp;
//                   a route needing more segments than lanes falls back to
//                   the plain up*/down* route on lane 0.
//
// A DeadlockEngine couples the three knobs that must agree for the claim to
// hold: the routing restriction fed to the table solve, the lane ladder the
// wormhole arbitration runs, and the buffer accounting the bench reports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "itb/net/lanes.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/routing/paths.hpp"
#include "itb/routing/table.hpp"
#include "itb/routing/updown.hpp"
#include "itb/topo/topology.hpp"

namespace itb::engine {

/// Serializable engine selection (ClusterConfig carries one). The default
/// is plain up*/down*.
struct EngineSpec {
  routing::Policy policy = routing::Policy::kUpDown;
  /// Virtual lanes per physical channel; only kVcEscape reads it (and
  /// raises it to at least 2). The built engine's lane_count() is the
  /// budget actually in force.
  unsigned lanes = 1;
};

/// Former name of the selector; only the benchmark sources still spell it.
using EngineKind = routing::Policy;

/// One deadlock-freedom mechanism: routing restriction + lane ladder +
/// buffer accounting. Stateless apart from the ladder's bound orientation,
/// so one instance serves a whole cluster; the network and the recovery
/// manager keep references into it, so it is built once, by make_engine.
class DeadlockEngine {
 public:
  /// Routing policy the route table must be solved under.
  routing::Policy policy() const { return policy_; }
  /// Short spelling: "updown", "itb" or "vc-escape".
  const char* name() const { return routing::short_name(policy_); }

  /// Virtual lanes per physical channel: also the flit-buffer lanes per
  /// port the switch hardware must provide (the bench's wire-storage cost).
  unsigned lane_count() const { return ladder_.lane_count(); }

  /// Does the mechanism additionally consume host receive buffers for
  /// forwarding (the ITB pool)? Feeds the bench's buffer-cost row and the
  /// buffered wedge analysis.
  bool uses_host_buffers() const { return policy_ == routing::Policy::kItb; }

  /// The ladder the network arbitrates by (Network::set_ladder).
  const net::LaneLadder& ladder() const { return ladder_; }

  /// Bind the ladder to the orientation the route tables were solved under.
  /// `updown` may be computed over a DISCOVERED topology (the mapper path);
  /// `switch_of` then maps discovered switch indices to `fabric`'s true
  /// indices so lane decisions on live (true-coordinate) channels agree
  /// with the solve. Pass an empty `switch_of` when `updown` was built over
  /// `fabric` itself. Must be re-bound whenever recovery re-orients (the
  /// RecoveryManager does this at every install). A one-lane engine has
  /// nothing to bind.
  void bind(const routing::UpDown& updown, const topo::Topology& fabric,
            const std::vector<std::uint16_t>& switch_of);

 private:
  friend std::unique_ptr<DeadlockEngine> make_engine(const EngineSpec& spec);
  explicit DeadlockEngine(const EngineSpec& spec);

  routing::Policy policy_;
  net::LaneLadder ladder_;
};

std::unique_ptr<DeadlockEngine> make_engine(const EngineSpec& spec);

/// Lane sequence the engine assigns to a route's trunk traversals (one
/// entry per trunk channel, in order): the ladder's next(), as the live
/// network calls it.
std::vector<std::uint8_t> trunk_lanes(const DeadlockEngine& engine,
                                      const routing::RouteView& path);

/// Build the engine's per-lane channel dependency graph over a route table:
/// every chain node is a (channel, lane) pair under the engine's own lane
/// assignment (single-lane engines reduce to the classical CDG). The graph
/// being acyclic IS the engine's deadlock-freedom claim.
routing::DependencyGraph build_dependency_graph(const DeadlockEngine& engine,
                                                const routing::RouteTable& table,
                                                const topo::Topology& topo);

/// Convenience: the per-lane CDG has no cycle.
bool verify_deadlock_free(const DeadlockEngine& engine,
                          const routing::RouteTable& table,
                          const topo::Topology& topo);

}  // namespace itb::engine
