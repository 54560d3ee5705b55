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
// builds a fresh row for the sources it re-solves, or hands back the row a
// source held before its last re-solve, and swaps their pointers, so a NIC
// keeps stamping the routes it was given until the next install hands it
// the new row.
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
  /// Host work inside the re-solved rows: (switch row, destination switch)
  /// pairs walked again. A full solve walks switch_count() squared; a
  /// patch copies every other pair of a re-solved row from the row it
  /// replaces, and walks none for a row it takes back.
  std::size_t pairs_walked = 0;
  bool full = false;  // every source re-solved (forced or not enabled)
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
  // Router::search): a stored route toward a destination switch changes
  // only if (a) it crosses a removed link, (b) it ejects at a switch whose
  // ITB candidate list changed, or (c) an added link or new phase-reset
  // point offers a walk no longer than it (the unrestricted-hop lower
  // bound, ties included). A row is re-solved, and charged, when one of its
  // destinations is so flagged (the row rule). What that costs the host:
  // a source whose replaced row was solved under the target state takes
  // it back (see Replaced below), and a row whose holders all do so is
  // classified only until its verdict is known; any other re-solved row
  // walks only its flagged destinations again and copies the rest in
  // bulk. The patched table
  // equals a fresh solve row for row, which the tests and the bench hold
  // as an invariant.

  /// Monotonic epoch stamped by the recovery engine at each install; NICs
  /// compare in-flight sends against it to re-source across hot-swaps.
  std::uint64_t epoch() const { return epoch_; }
  void set_epoch(std::uint64_t e) { epoch_ = e; }

  /// Stamp every row with the graph state of `router`, which solved the
  /// table. Must be called once after a full solve; patch() keeps the
  /// stamps of the sources it re-solves.
  void enable_patching(const Router& router);
  bool patching_enabled() const { return !solved_gen_.empty(); }

  /// Graph states a patching table remembers (see the solve generations
  /// below). Interning one more drops the one met longest ago: the rows
  /// solved under it lose the shortcut and the take-back, never soundness.
  static constexpr std::size_t kRememberedStates = 64;

  /// Re-solve exactly the sources invalidated by `delta` against `router`
  /// (the post-change orientation/adjacency over the SAME topology ids the
  /// table was built with): each takes back its replaced row when that row
  /// was solved under the state of `router`, and otherwise walks again
  /// only its row's flagged destinations. Returns how much work was done.
  PatchStats patch(const Router& router, const LinkDelta& delta,
                   unsigned jobs = 1);

 private:
  Policy policy_;
  std::size_t hosts_;
  unsigned vc_lanes_;
  std::uint64_t epoch_ = 0;
  std::vector<std::shared_ptr<const RouteRow>> rows_;  // by source

  /// kVcEscape only, per source: its row holds an up*/down* escape
  /// fallback. A fallback route depends on the GLOBAL orientation (the
  /// ladder-feasibility test runs over a minimal path the table does not
  /// store), so its stored route cannot prove it stable: patch() re-solves
  /// every fallback row, whole, on any delta. Minimal routes stay covered
  /// by the (a)/(b)/(c) tests: the unrestricted search is orientation-blind
  /// and an orientation flip of a traversed link lands in the delta as
  /// removed+added.
  std::vector<char> escapes_;
  /// Links of the topology patching was enabled on.
  std::size_t patch_links_ = 0;

  /// Solve generations: each distinct (usability, orientation) graph state
  /// is interned once, and a source records the state its row was solved
  /// under. A state met again by a patch moves to the back of the pool.
  /// routes_from is a pure function of that state, so a row solved under
  /// a patch's target state IS the re-solve result. Two uses:
  ///  - the shortcut: a source whose row was solved under the target state
  ///    is skipped outright, uncharged;
  ///  - the take-back: a source keeps the row its last re-solve replaced
  ///    (below), and a patch whose target is that row's state swaps it
  ///    back instead of solving the source again. So the up-round of a
  ///    down->up fault cycle hands back the rows its down-round replaced.
  ///    The row rule still picks, and charges, the sources it swaps; only
  ///    the host work goes.
  struct GraphState {
    std::uint64_t id;
    std::vector<std::uint32_t> encoded;
  };
  std::vector<GraphState> gen_states_;  // at most kRememberedStates
  std::uint64_t next_gen_ = 0;
  std::vector<std::uint64_t> solved_gen_;  // per source; empty until enabled

  /// Per source: the row its last re-solve replaced, the generation that
  /// row was solved under and its escape flag (see escapes_). A patch
  /// releases every replaced row not solved under its target state before
  /// it allocates anything, so the table holds at most two rows per source
  /// (the installed one and the replaced one), and a patch holds no more
  /// than the rows the NICs still hold plus the rows it builds.
  struct Replaced {
    std::shared_ptr<const RouteRow> row;
    std::uint64_t gen = 0;
    char escape = 0;
  };
  std::vector<Replaced> replaced_;  // per source; empty until enabled

  std::uint64_t intern_state(const Router& router);

  /// The work list of the current solve, in reusable buffers: the sources
  /// ordered by the switch they hang off (cut-off sources last), and where
  /// each switch's group starts, plus the end.
  std::vector<std::uint16_t> grouped_;
  std::vector<std::uint32_t> group_begins_;
  std::span<const std::uint16_t> switch_group(std::size_t g) const;

  /// Re-solve the grouped work list across `jobs` workers, one block of 64
  /// switch groups per task, each worker with its own search scratch, and
  /// publish each row as its holders' new row. `reuse`, when not empty,
  /// holds one Router::Reuse per group. With `gen`, also stamp each source
  /// with that solve generation.
  void solve_groups(const Router& router, unsigned jobs,
                    std::span<const Router::Reuse> reuse,
                    std::optional<std::uint64_t> gen);
};

}  // namespace itb::routing
