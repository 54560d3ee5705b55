// All-pairs route tables.
//
// The Myrinet mapper computes a route from every host to every other host
// and downloads the table into each NIC's SRAM; the MCP stamps the route
// into the header of every outgoing packet (§4). A RouteTable is that
// product for one routing policy, plus aggregate statistics the motivation
// benches report (path length, link utilisation balance).
//
// The table holds one immutable RouteRow per source switch behind a
// shared pointer, which every host on the switch holds. A NIC installs its
// host's row by taking that pointer, so the mapper, the recovery engine and
// the NICs share one copy. Rows are never written once published: patch()
// builds a fresh row for the sources it re-solves and swaps their
// pointers, so a NIC keeps stamping the routes it was given until the next
// install hands it the new row.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "itb/routing/paths.hpp"

namespace itb::routing {

/// Link-state change set handed to RouteTable::patch. Removed/added carry
/// links whose usability went down/up since the table was computed; a link
/// whose up*/down* orientation flipped (the masked BFS tree moved under it)
/// appears in BOTH. Host links classify themselves: the patcher derives ITB
/// candidate-set changes from them.
struct LinkDelta {
  std::vector<topo::LinkId> removed;
  std::vector<topo::LinkId> added;
  /// Degrade to an all-sources re-solve (queue overflow, root change).
  bool force_full = false;
};

/// What one patch round actually recomputed.
struct PatchStats {
  std::size_t sources_resolved = 0;
  std::size_t sources_total = 0;
  bool full = false;  // every source re-solved (forced or no index)
};

class RouteTable {
 public:
  /// Compute routes for every ordered host pair under `policy`. The hosts
  /// on one switch share one multi-destination solve and, outside kSpread,
  /// one row, and one search carries 64 switches
  /// (Router::routes_from_block); `jobs` fans those blocks across that
  /// many threads (0 = hardware concurrency). Every switch writes only its
  /// own hosts' rows, and the row content depends only on (router, policy,
  /// switch), so the table is bit-identical for any job count — CI
  /// byte-compares jobs=1 against jobs=8 dumps to hold that line.
  /// `vc_lanes` parameterises Policy::kVcEscape (ignored otherwise): routes
  /// whose up*/down* segment count exceeds it fall back to plain up*/down*.
  explicit RouteTable(const Router& router, Policy policy, unsigned jobs = 1,
                      unsigned vc_lanes = 2);

  Policy policy() const { return policy_; }
  std::size_t host_count() const { return hosts_; }
  unsigned vc_lanes() const { return vc_lanes_; }

  /// The route from `src` to `dst`, valid while this table (or another
  /// holder of the row) keeps the row alive. Throws std::out_of_range for
  /// the diagonal or a host outside the table.
  RouteView route(std::uint16_t src, std::uint16_t dst) const;

  /// Source `src`'s whole row, shared with its switch-mates (outside
  /// kSpread): what a NIC installs.
  const std::shared_ptr<const RouteRow>& row(std::uint16_t src) const {
    return rows_.at(src);
  }

  /// Mean switch-switch hops over all pairs (src != dst).
  double average_trunk_hops() const;

  /// Fraction of pairs routed minimally. The minimal distances take one
  /// unrestricted search per source switch; `jobs` parallelises them the
  /// same way as the constructor (result is jobs-invariant).
  double minimal_fraction(const Router& router, unsigned jobs = 1) const;

  /// Mean ITBs per route (0 for kUpDown).
  double average_itbs() const;

  /// Per-directed-channel usage count over all routes; index by
  /// 2*link + (forward ? 0 : 1). The motivation benches use the spread of
  /// this vector to show up*/down*'s root congestion.
  std::vector<std::uint32_t> channel_usage(const topo::Topology& topo) const;

  /// Write every route in a stable text form (one line per pair: segments,
  /// in-transit hosts, trunk channels). Deterministic byte-for-byte given
  /// equal tables — the CI jobs-invariance gate compares these dumps.
  void dump(std::ostream& os) const;

  /// Equal exactly when the dumps are: the same policy and host count (and
  /// lane count under kVcEscape), and per pair the same header bytes,
  /// in-transit hosts and trunk channels. Each distinct pair of rows is
  /// compared once.
  friend bool operator==(const RouteTable& a, const RouteTable& b);

  // ---- Incremental patching --------------------------------------------
  // The recovery engine keeps ONE table alive across fault epochs and asks
  // it to repair itself against a re-masked Router instead of re-solving
  // all pairs. Soundness rests on the canonical predecessor rule (see
  // Router::search): a source is re-solved iff (a) any stored route touches
  // a removed link, (b) an ITB candidate set it uses changed, or (c) an
  // added link could attract it (unrestricted-hop lower bound <= stored
  // cost). Everything else is provably byte-identical, which the
  // verify-against-full tests and bench hold as an invariant.

  /// Monotonic epoch stamped by the recovery engine at each install; NICs
  /// compare in-flight sends against it to re-source across hot-swaps.
  std::uint64_t epoch() const { return epoch_; }
  void set_epoch(std::uint64_t e) { epoch_ = e; }

  /// Build the link->sources and itb-switch->sources reverse indexes from
  /// the current rows. Must be called once after a full solve (and is
  /// maintained by patch() for re-solved sources).
  void enable_patching(const Router& router);
  bool patching_enabled() const { return !index_.empty(); }

  /// Re-solve exactly the sources invalidated by `delta` against `router`
  /// (the post-change orientation/adjacency over the SAME topology ids the
  /// table was built with). Returns how much work was done.
  PatchStats patch(const Router& router, const LinkDelta& delta,
                   unsigned jobs = 1);

 private:
  Policy policy_;
  std::size_t hosts_;
  unsigned vc_lanes_;
  std::uint64_t epoch_ = 0;
  std::vector<std::shared_ptr<const RouteRow>> rows_;  // by source

  /// What a published row's routes rest on, built once per row and shared
  /// by its holders.
  struct RowIndex {
    /// Links the routes traverse (trunk channels, src/dst uplinks,
    /// in-transit host uplinks).
    std::vector<char> links_used;
    /// Switches whose ITB candidate list the routes depend on.
    std::vector<char> itb_switch_used;
    /// kVcEscape only: some route is an up*/down* escape fallback.
    /// Fallback routes depend on the GLOBAL orientation (the
    /// ladder-feasibility test runs over minimal paths the table does not
    /// store), so the link reverse index cannot prove them stable — patch()
    /// conservatively re-solves every fallback source on any delta. Minimal
    /// routes stay covered by the usual (a)/(b)/(c) tests: the unrestricted
    /// search is orientation-blind and an orientation flip of a traversed
    /// link always lands in the delta as removed+added.
    bool vc_fallback = false;
  };
  /// Per source: its row's index. Empty until enable_patching().
  std::vector<std::shared_ptr<const RowIndex>> index_;

  /// Solve-generation shortcut: each distinct (usability, orientation)
  /// graph state is interned once; a source records the state it was last
  /// actually re-solved under. A patch whose target state matches a
  /// source's solve state skips it outright — routes_from is a pure
  /// function of that state, so the stored row IS the re-solve result.
  /// This is what makes the close of a clean down->up fault cycle free:
  /// restoring a link returns to the boot state, and every source that was
  /// never re-solved in between still carries the boot generation.
  struct GraphState {
    std::uint64_t id;
    std::vector<std::uint32_t> encoded;
  };
  std::vector<GraphState> gen_states_;  // bounded intern pool
  std::uint64_t next_gen_ = 0;
  std::vector<std::uint64_t> solved_gen_;  // per source; empty until enabled

  std::uint64_t intern_state(const Router& router);
  /// Index a group of sources on one switch (or the cut-off ones). VC's
  /// minimal distances are taken once; the holders of one row share its
  /// index.
  void index_group(const Router& router, std::span<const std::uint16_t> group);
  /// The index of `src`'s row; `min_hops`: minimal distances from src's
  /// switch (kVcEscape only).
  std::shared_ptr<const RowIndex> index_row(
      const Router& router, std::uint16_t src,
      std::span<const std::uint32_t> min_hops) const;

  /// The work list of the current solve, in reusable buffers: the sources
  /// ordered by the switch they hang off (cut-off sources last), and where
  /// each switch's group starts, plus the end.
  std::vector<std::uint16_t> grouped_;
  std::vector<std::uint32_t> group_begins_;
  std::span<const std::uint16_t> switch_group(std::size_t g) const;

  /// Re-solve the grouped work list across `jobs` workers, one block of 64
  /// switch groups per task, each worker with its own search scratch, and
  /// publish each row as its holders' new row. With `index_gen`, also
  /// re-index each source and stamp it with that solve generation.
  void solve_groups(const Router& router, unsigned jobs,
                    std::optional<std::uint64_t> index_gen);
};

}  // namespace itb::routing
