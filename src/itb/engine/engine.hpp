// Pluggable deadlock-freedom engines.
//
// The paper's in-transit buffers are ONE way to make minimal routing legal
// on an up*/down*-oriented irregular network. This subsystem abstracts the
// mechanism behind a policy interface so structurally different answers can
// be swapped, compared on identical topology and traffic, and statically
// verified with the same per-lane channel-dependency-graph machinery:
//
//   * up*/down*   — no extra storage, restricted (often non-minimal) routes;
//   * UD+ITB      — the paper: minimal routes split into valid segments by
//                   ejecting/re-injecting at in-transit hosts (host DRAM is
//                   the buffer);
//   * VC-escape   — multi-lane storage (arXiv:2007.02550 family): >= 2
//                   virtual lanes per physical channel, minimal routing with
//                   a lane ladder. A minimal route decomposes into maximal
//                   up*/down*-valid segments; segment j rides lane j, and
//                   the lane only ever ratchets upward (on a down->up
//                   transition), so cross-lane dependencies go strictly
//                   j -> j+1 while each lane's own dependencies obey
//                   up*/down* — the per-lane CDG is acyclic by construction.
//                   Minimal routes needing more segments than lanes fall
//                   back to the plain up*/down* route on lane 0.
//
// A DeadlockEngine couples the three knobs that must agree for the claim to
// hold: the routing restriction (routing::Policy fed to the table solve),
// the lane count + lane-selection function (net::LanePolicy driving the
// wormhole arbitration), and the buffer accounting the bench reports.
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

enum class EngineKind : std::uint8_t { kUpDown, kItb, kVcEscape };

/// Serializable engine selection (ClusterConfig carries one). The default
/// is plain up*/down*.
struct EngineSpec {
  EngineKind kind = EngineKind::kUpDown;
  /// Virtual lanes per physical channel; only kVcEscape reads it (and
  /// raises it to at least 2). The built engine's lane_count() is the
  /// budget actually in force.
  unsigned lanes = 1;
};

/// One deadlock-freedom mechanism: routing restriction + lane policy +
/// buffer accounting. Engines are stateless apart from the bound up*/down*
/// orientation, so one instance serves a whole cluster.
class DeadlockEngine : public net::LanePolicy {
 public:
  virtual EngineKind kind() const = 0;
  virtual const char* name() const = 0;

  /// Routing policy the route table must be solved under.
  virtual routing::Policy policy() const = 0;

  /// Flit-buffer lanes per physical port the switch hardware must provide
  /// (the bench's wire-storage cost metric). Equals lane_count().
  unsigned buffer_lanes_per_port() const { return lane_count(); }

  /// Does the mechanism additionally consume host receive buffers for
  /// forwarding (the ITB pool)? Feeds the bench's buffer-cost row and the
  /// buffered wedge analysis.
  virtual bool uses_host_buffers() const = 0;

  /// Bind the engine to the orientation its route tables were solved under.
  /// `updown` may be computed over a DISCOVERED topology (the mapper path);
  /// `switch_of` then maps discovered switch indices to `fabric`'s true
  /// indices so lane decisions on live (true-coordinate) channels agree
  /// with the solve. Pass an empty `switch_of` when `updown` was built over
  /// `fabric` itself. Must be re-bound whenever recovery re-orients (the
  /// RecoveryManager does this at every install).
  virtual void bind(const routing::UpDown& updown,
                    const topo::Topology& fabric,
                    const std::vector<std::uint16_t>& switch_of) = 0;
};

/// Factory for the three built-in engines.
std::unique_ptr<DeadlockEngine> make_engine(const EngineSpec& spec);

/// Lane sequence the engine assigns to a route's trunk traversals (one
/// entry per trunk channel, in order). Tests compare this against the
/// static ladder decomposition; it is by construction what the live network
/// executes, since both walk LanePolicy::lane_for in route order.
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

const char* to_string(EngineKind kind);

}  // namespace itb::engine
