// Host-to-host route computation.
//
// Three route families:
//   * up*/down* — shortest path whose switch-switch traversals form the
//     pattern up* down* (no up after a down). What stock Myrinet/GM uses.
//   * minimal  — unrestricted shortest path; may be up*/down*-invalid.
//   * ITB      — minimal path split into valid up*/down* sub-paths by
//     ejecting/re-injecting at in-transit hosts (the paper's mechanism).
//
// Routes are stored one flat RouteRow per source switch, each path once
// per destination switch: the Fig. 3b header the MCP stamps but its final
// route byte, the in-transit hosts and the trunk channels, plus per
// destination host which path leads there and that final byte. A
// RouteView reads one (source, destination) route; the route table, the
// recovery engine and every NIC on the switch share the same immutable
// row.
#pragma once

#include <array>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "itb/packet/format.hpp"
#include "itb/routing/updown.hpp"
#include "itb/topo/topology.hpp"

namespace itb::routing {

/// Which restriction a route table is computed under. Lives here (not in
/// table.hpp) so the per-source solver can take it without a header cycle.
enum class Policy : std::uint8_t {
  kUpDown,    // stock GM routing
  kItb,       // minimal routing legalised with in-transit buffers
  kVcEscape,  // minimal routing legalised with virtual-channel lanes
};

/// Display name: "up*/down*", "UD+ITB" or "VC-escape".
const char* to_string(Policy p);
/// Short spelling for labels and test names: "updown", "itb" or
/// "vc-escape".
const char* short_name(Policy p);

/// Route byte -> output port, applied as a segment is read.
struct PortOf {
  constexpr std::uint8_t operator()(std::uint8_t b) const {
    return static_cast<std::uint8_t>(b & ~packet::kRouteByteFlag);
  }
};
/// The output ports of one route segment, in traversal order.
using SegmentPorts = std::ranges::transform_view<
    std::ranges::subrange<packet::HeaderView::iterator>, PortOf>;

/// One computed route, read in place from the RouteRow that holds it.
/// Cheap to copy; it must not outlive that row.
class RouteView {
 public:
  RouteView() = default;

  std::uint16_t src_host() const { return src_; }
  std::uint16_t dst_host() const { return dst_; }

  /// True for an unreachable pair (and the diagonal): no header at all.
  bool empty() const { return header_.empty(); }

  /// Every byte the MCP stamps ahead of the final Type (Fig. 3b): route
  /// bytes 0x80|port, then per ITB the 2-byte kItb tag, the Length byte
  /// and the next sub-path's route bytes. Read in place, in the row's two
  /// parts: the bytes the destination switch's hosts share, then the
  /// final route byte toward this one.
  packet::HeaderView header() const { return header_; }

  /// Route-byte segments, one per injection (0 for an empty route).
  std::size_t segment_count() const;
  /// Ports of segment `i`: segment 0 is stamped by the source NIC,
  /// segment i > 0 follows the i-th ITB tag. Throws std::out_of_range.
  SegmentPorts segment(std::size_t i) const;
  /// Decoded copy of every segment (the manual-route input format).
  std::vector<packet::Route> segments() const;

  /// In-transit hosts, one per segment boundary (empty for plain routes).
  std::span<const std::uint16_t> in_transit_hosts() const { return hosts_; }

  /// Switch-switch links traversed, in order (ejections do not interrupt
  /// the sequence; used for hop counting and deadlock analysis).
  std::span<const topo::Channel> trunk_channels() const { return channels_; }

  /// Total switch traversals (each ITB revisit counts; equals the sum of
  /// segment lengths).
  std::size_t switch_traversals() const;

  /// Number of switch-switch links used (the paper's path-length metric).
  std::size_t trunk_hops() const { return channels_.size(); }

  std::size_t itb_count() const { return hosts_.size(); }

 private:
  friend class RouteRow;
  std::uint16_t src_ = 0;
  std::uint16_t dst_ = 0;
  packet::HeaderView header_;
  std::span<const std::uint16_t> hosts_;
  std::span<const topo::Channel> channels_;
};

/// The routes out of one source switch to a run of destinations. Each path
/// is stored once, as an entry of three flat arrays: the header bytes but
/// the final route byte, the in-transit hosts and the trunk channels. Per
/// destination host the row keeps only which entry leads there and that
/// host's final route byte. A table row covers every destination and
/// serves every host on the switch; the per-pair Router helpers return
/// one-destination rows. The solver writes one entry per reached
/// destination switch, in switch order, shared by the hosts on it, except
/// that under ItbHostSelection::kSpread each host an in-transit route
/// leads to gets an entry of its own; add() writes one entry per
/// destination host. An unreachable destination has no entry.
class RouteRow {
 public:
  RouteRow() = default;

  /// Start over as the row whose first destination is `first_dst`. Keeps
  /// the arrays' capacity, so a warm row refills without allocating.
  void reset(std::uint16_t first_dst = 0);

  /// Destinations entered so far.
  std::size_t size() const { return dests_.size(); }
  /// Paths stored: each one serves every destination that leads to it.
  std::size_t entry_count() const {
    return marks_.empty() ? 0 : marks_.size() - 1;
  }

  /// The route from `src`, a host the row serves, to `dst`: empty for the
  /// diagonal. Throws std::out_of_range when `dst` is outside the row.
  RouteView route(std::uint16_t src, std::uint16_t dst) const;
  /// True when a route leads to `dst`, which the diagonal's does for the
  /// switch-mates the row serves; false for an unreachable destination.
  /// Throws std::out_of_range like route().
  bool has_route(std::uint16_t dst) const;

  /// Append the next destination, its header encoded from `segments` by
  /// packet::HeaderEncoder into an entry of its own (no segments =
  /// unreachable: no entry, the side arrays ignored). The side arrays are
  /// optional: a NIC reads only the header. Throws std::invalid_argument
  /// on a port >= 128 or a Length overflow.
  void add(const std::vector<packet::Route>& segments,
           std::span<const std::uint16_t> in_transit_hosts = {},
           std::span<const topo::Channel> trunk_channels = {});
  /// Append the next destination as a copy of another row's route.
  void add(const RouteView& route);

  /// Every entry's trunk channels, in entry order.
  std::span<const topo::Channel> stored_channels() const { return channels_; }
  /// Every entry's in-transit hosts, in entry order.
  std::span<const std::uint16_t> stored_hosts() const { return hosts_; }

  /// Field by field: entry marks, header, hosts, channels and destinations.
  friend bool operator==(const RouteRow&, const RouteRow&) = default;

 private:
  friend class Router;
  friend class RouteTable;  // the patcher reads stored entries in place
  /// Where entries end in the three arrays, all cumulative: entry e spans
  /// marks_[e] to marks_[e + 1] in each.
  struct Mark {
    std::uint32_t header = 0;
    std::uint32_t hosts = 0;
    std::uint32_t channels = 0;
    friend bool operator==(const Mark&, const Mark&) = default;
  };
  /// One destination: the entry leading there and the final route byte
  /// toward it (0: unreachable, see packet::HeaderView).
  struct Dest {
    std::uint16_t entry = 0;
    std::uint8_t last = 0;
    friend bool operator==(const Dest&, const Dest&) = default;
  };
  /// Close the entry written since the last mark; returns its index.
  std::uint16_t close_entry();
  /// Drop whatever the open entry has written.
  void truncate_open();
  /// Trunk channels the open entry has written.
  std::span<const topo::Channel> open_channels() const;
  /// Append copies of entries [first, last) of `from`: their marks moved to
  /// this row's offsets, and each array's bytes in one piece.
  void append_entries(const RouteRow& from, std::uint32_t first,
                      std::uint32_t last);

  std::uint16_t first_ = 0;
  std::vector<Mark> marks_;
  packet::Bytes header_;
  std::vector<std::uint16_t> hosts_;
  std::vector<topo::Channel> channels_;
  std::vector<Dest> dests_;
};

/// Which host on a switch serves as the in-transit host when several are
/// available. kLowestIndex mirrors the simplest mapper; kSpread hashes the
/// (src, dst) pair over the candidates so the forwarding load (and the NIC
/// CPU cost it carries) is distributed across the switch's hosts.
enum class ItbHostSelection : std::uint8_t { kLowestIndex, kSpread };

/// Route computation over one topology + one up*/down* orientation.
class Router {
 public:
  /// Reusable buffers for routes_from(): one block's search results, the
  /// search's active lists and the switch's row. The caller owns one per
  /// thread (never the const
  /// Router, so one Router serves concurrent solves); once warm, a re-solve
  /// allocates nothing. Defined below the class.
  class Scratch;

  /// Source switches one search carries: one bit of a word each.
  static constexpr std::size_t kBlockWidth = 64;

  /// What a re-solve keeps of the row it replaces (RouteTable::patch): the
  /// entries of every destination switch that `redo` leaves unset are
  /// copied from `row` instead of walked. The caller vouches that those
  /// routes are what a walk would find.
  struct Reuse {
    const RouteRow* row = nullptr;  // nullptr: walk every destination
    std::span<const char> redo;     // per destination switch
  };

  explicit Router(const UpDown& updown,
                  ItbHostSelection selection = ItbHostSelection::kLowestIndex);

  /// Shortest valid up*/down* route, as a one-destination row. Always
  /// exists in a connected network. Like every per-pair helper below it
  /// throws std::logic_error when either host is cut off (not usable) or
  /// the pair is disconnected.
  RouteRow updown_route(std::uint16_t src_host, std::uint16_t dst_host) const;

  /// Unrestricted shortest route (may be invalid under up*/down*); useful
  /// for analysis and as the skeleton for ITB routes.
  RouteRow minimal_route(std::uint16_t src_host, std::uint16_t dst_host) const;

  /// Minimal route split into valid up*/down* segments with ITBs. The
  /// phase-reset search only legalises paths at switches with hosts, so it
  /// can come out longer than the unrestricted minimum when a bare switch
  /// sits on every minimal path; it is never longer than updown_route,
  /// which is in its search space.
  RouteRow itb_route(std::uint16_t src_host, std::uint16_t dst_host) const;

  /// All routes out of each host in `sources` under `policy`. The usable
  /// sources must all hang off one switch (std::invalid_argument
  /// otherwise). ONE multi-destination search from that switch and one
  /// walk per destination switch build the switch's row: every usable host
  /// is an ordinary destination, so the entry of the source's own switch
  /// is empty and a switch-mate's route is the one route byte to it, and
  /// every host on a walked switch reads its entry with its own final
  /// byte. A source never reads its own route (RouteRow::route masks the
  /// diagonal), so the row serves every usable source alike — except
  /// under ItbHostSelection::kSpread, where the pick hashes (src, dst):
  /// each host an in-transit route leads to gets an entry of its own, and
  /// each source a copy with those entries walked again. The cut-off
  /// sources share an all-empty row.
  ///
  /// Row by row, the row lands in `row` and goes to `publish(RouteRow&,
  /// std::span<const std::uint16_t> holders)` with the sources it serves;
  /// publish may move it out to keep it: the next row is then allocated
  /// exactly sized. With a warm `row` and `scratch` a re-solve allocates
  /// nothing.
  ///
  /// `vc_lanes` only matters under Policy::kVcEscape: a minimal route is
  /// kept when its up*/down* segment count fits the lane ladder
  /// (updown_segments() <= vc_lanes); otherwise the pair falls back to the
  /// plain up*/down* route, which rides lane 0 end to end.
  template <class Publish>
  void routes_from(std::span<const std::uint16_t> sources, Policy policy,
                   unsigned vc_lanes, RouteRow& row, Scratch& scratch,
                   Publish&& publish) const;

  /// routes_from() for up to kBlockWidth groups at once (more throw
  /// std::invalid_argument): each group is a `sources` as above, and ONE
  /// search carries the switches of all of them, a bit each. The rows go
  /// to `publish` group by group, in order, exactly as routes_from() on
  /// each group alone would publish them. `reuse`, when given, holds one
  /// Reuse per group: the row built for it is the same, entry for entry and
  /// layout for layout, with the kept entries copied in bulk.
  template <class Publish>
  void routes_from_block(std::span<const std::span<const std::uint16_t>> groups,
                         Policy policy, unsigned vc_lanes, RouteRow& row,
                         Scratch& scratch, Publish&& publish,
                         std::span<const Reuse> reuse = {}) const;

  /// True if the switch-link traversal sequence obeys up* down*.
  bool is_valid_updown(std::span<const topo::Channel> trunks) const;

  /// Number of maximal up*/down*-valid segments in the traversal sequence:
  /// 1 + the number of down->up transitions (1 for an empty or fully valid
  /// sequence). The VC-escape engine assigns segment j to lane j, so a
  /// minimal route is ladder-feasible iff updown_segments() <= lane count.
  std::size_t updown_segments(std::span<const topo::Channel> trunks) const;

  /// True when `host` can source/sink traffic under the orientation's link
  /// mask: attached, and its uplink usable.
  bool host_usable(std::uint16_t host) const {
    return host < uplinks_.size() && uplinks_[host].usable;
  }

  /// Switch and link a usable host hangs off (host_usable(host) holds).
  std::uint16_t host_switch(std::uint16_t host) const {
    return uplinks_[host].sw;
  }
  topo::LinkId host_link(std::uint16_t host) const {
    return uplinks_[host].link;
  }

  /// True when the switch has at least one usable attached host (an ITB
  /// candidate / phase-reset point).
  bool has_itb_host(std::uint16_t sw) const {
    return offsets_[sw].itbs != offsets_[sw + 1].itbs;
  }

  /// Unrestricted BFS hop distances from one switch over the usable trunk
  /// graph (0xFFFFFFFF = unreachable): the minimal distance of every route
  /// out of that switch. Since hops are the primary key of the lex search
  /// cost, these lower-bound every restricted route.
  std::vector<std::uint32_t> min_hops_from_switch(std::uint16_t sw) const;

  /// min_hops_from_switch() from each switch of `sources` (at most
  /// kBlockWidth, more throw std::invalid_argument) over the walks that
  /// cross a trunk link marked in `via_link` or pass a switch marked in
  /// `via_switch`: source i's distance to switch s lands in
  /// dist[i * switch_count() + s] (0xFFFFFFFF = no such walk). They
  /// lower-bound every route out of a source that an added link or a new
  /// phase-reset point could offer — the incremental patcher's attraction
  /// test. One level search carries the block, a bit per source, in the
  /// buffers of `scratch`.
  void min_hops_via(std::span<const std::uint16_t> sources,
                    std::span<const char> via_link,
                    std::span<const char> via_switch,
                    std::span<std::uint32_t> dist, Scratch& scratch) const;

  const UpDown& updown() const { return *updown_; }
  const topo::Topology& topology() const { return updown_->topology(); }

 private:
  const UpDown* updown_;
  ItbHostSelection selection_;

  /// One usable trunk traversal out of the switch whose run holds it.
  struct Hop {
    topo::LinkId link;
    std::uint16_t to;
    std::uint8_t out_port;  // port on the switch it leaves
    bool up;
    bool forward;  // the trunk channel runs link a -> b
  };
  /// The same traversal as the switch it enters sees it: everything the
  /// search's settle step and the extraction read, in one record.
  struct InHop {
    topo::Channel channel;
    std::uint32_t tail;     // the state it leaves in phase 0: from << 1
    std::uint8_t out_port;  // port on `from`, encoded by the extraction
    bool up;
  };
  struct ItbCandidate {
    std::uint16_t host;
    std::uint8_t port;  // switch port leading to it
  };
  /// Where each switch's runs start in the three flat arrays below; the
  /// entry after the last switch closes its runs.
  struct Offsets {
    std::uint32_t hops = 0;
    std::uint32_t in = 0;
    std::uint32_t itbs = 0;
  };
  std::vector<Offsets> offsets_;
  /// Every usable trunk traversal, by the switch it leaves and, within
  /// one, in link order. A hop's id is its index here.
  std::vector<Hop> hops_;
  /// Per switch, the hops into it in hop id order: by the switch they
  /// leave, then in link order.
  std::vector<InHop> inbound_;
  /// Per switch, its attached hosts usable as in-transit hosts, sorted by
  /// host index.
  std::vector<ItbCandidate> itb_hosts_;
  /// Per host: its uplink link, switch and the switch port leading to it,
  /// valid when the uplink is usable.
  struct Uplink {
    topo::LinkId link = 0;
    std::uint16_t sw = 0;
    std::uint8_t port = 0;
    bool usable = false;
  };
  std::vector<Uplink> uplinks_;

  std::size_t switch_count() const { return offsets_.size() - 1; }
  std::span<const Hop> hops_out(std::uint16_t sw) const;
  /// The usable hosts on `sw`, sorted, with the ports leading to them.
  std::span<const ItbCandidate> hosts_on(std::uint16_t sw) const;

  /// Pick the in-transit host on `sw` for the (src, dst) pair.
  const ItbCandidate& pick_itb(std::uint16_t sw, std::uint16_t src,
                               std::uint16_t dst) const;

  // ---- Block search ---------------------------------------------------
  // The search over (switch, up*/down* phase) states is destination-blind:
  // it covers the whole fabric and only the extraction step looks at dst.
  // It is source-blind too beyond the source's switch, so one search
  // serves every host on a switch, and one level search carries up to 64
  // switches as the bits of a word. A state is switch << 1 | phase; phase 1
  // means a down traversal happened (only down is legal until an ITB
  // resets the phase). The search cost (hops, itbs) is ordered
  // lexicographically; a hop adds (1, 0) and an ITB reset (0, 1).

  /// The ONE mapping from a policy to its primary search restriction. Every
  /// route-solve entry point derives its flags here, so a policy with no
  /// routing restriction (kVcEscape's minimal lanes) is just another row of
  /// this table — no caller special-cases it, and minimal_fraction reports
  /// 100% for it without a policy branch.
  struct SolveFlags {
    bool restrict_updown;
    bool allow_itb;
  };
  static SolveFlags solve_flags(Policy policy);

  /// A predecessor: the state it leaves << 8 | the index of the hop taken
  /// among the in-hops of the state's switch, or kResetIndex for an ITB
  /// reset (same switch, phase 1 -> 0): a switch has at most 255 ports,
  /// one in-hop each, so an index stays below it. The walk back to the
  /// source then reads one word per step.
  static constexpr std::uint32_t kSourcePred = 0xFFFFFFFFu;
  static constexpr std::uint32_t kResetIndex = 0xFFu;

  /// One block's search result. Bit b of `reached[state]` says source b
  /// reached the state; then `pred[b * states + state]` is its
  /// predecessor. `reached` ends with the sink's word, all ones (see
  /// search()). Bit b of `down_first[sw]` says source b reached the
  /// switch more cheaply in phase 1 than in phase 0 (a tie goes to phase
  /// 0): its routes to the switch's hosts end in phase 1.
  struct Search {
    std::size_t states = 0;
    std::vector<std::uint64_t> reached;
    std::vector<std::uint64_t> down_first;
    std::vector<std::uint32_t> pred;
    bool reaches(std::size_t bit, std::uint16_t sw) const {
      return ((reached[2u * sw] | reached[2u * sw + 1]) >> bit & 1) != 0;
    }
  };
  /// Search from each switch of `sources` (at most kBlockWidth), source b
  /// as bit b.
  void search(std::span<const std::uint16_t> sources, SolveFlags flags,
              Search& out, Scratch& sc) const;
  /// Append source `bit`'s route to `dst_host` to the open entry of `row`:
  /// every header byte but the final route byte, the port to `dst_host`.
  void extract(const Search& s, std::size_t bit, std::uint16_t src_host,
               std::uint16_t dst_host, RouteRow& row) const;
  /// routes_from_block()'s shared half: sorts each group's sources into
  /// `sc.held`, the usable ones first, and searches from their switches.
  void search_block(std::span<const std::span<const std::uint16_t>> groups,
                    Policy policy, Scratch& sc) const;
  /// Build group `g`'s switch row into `sc.switch_row`, keeping what
  /// `reuse` allows; returns its usable source count (no row without one).
  std::size_t switch_row(std::size_t g, Policy policy, unsigned vc_lanes,
                         const Reuse& reuse, Scratch& sc) const;
  /// kSpread: `src`'s row, group `g`'s switch row with its in-transit hosts
  /// picked for `src`.
  void spread_row(std::size_t g, std::uint16_t src, RouteRow& row,
                  Scratch& sc) const;
  /// The all-empty row of a cut-off source.
  void empty_row(RouteRow& row) const;

  RouteRow pair_row(std::uint16_t src_host, std::uint16_t dst_host,
                    SolveFlags flags) const;
};

class Router::Scratch {
 public:
  /// Whether group `g` of the last block solved holds a route that fell
  /// back to the escape lane (Policy::kVcEscape).
  bool escaped(std::size_t g) const { return escaped_[g] != 0; }

 private:
  friend class Router;
  Search primary;  // the block's search
  Search escape;   // kVcEscape's restricted fallback, a block of one
  /// One hop level's active list: the states that gained bits at that
  /// level and the bits they gained, one run per itbs count (sub-level),
  /// empty runs included. The search keeps the previous level and the one
  /// it builds, so its storage is bounded by the frontier.
  struct Frontier {
    struct Entry {
      std::uint32_t state;
      std::uint64_t bits;
    };
    std::vector<Entry> entries;
    std::vector<std::uint32_t> subs;  // where each run starts
    std::size_t runs() const { return subs.size(); }
    std::span<const Entry> run(std::size_t i) const {
      const std::size_t end = i + 1 < subs.size() ? subs[i + 1] : entries.size();
      return std::span(entries).subspan(subs[i], end - subs[i]);
    }
  };
  std::array<Frontier, 2> frontiers;
  /// Per state and the sink: the bits it gains in the sub-level being
  /// settled.
  std::vector<std::uint64_t> fresh;
  /// Per state: its bits in the previous level's run of the same itbs
  /// count, the hop predecessors of that sub-level.
  std::vector<std::uint64_t> tails;
  /// A bit per state and the sink: the states with fresh bits, settled
  /// in state order.
  std::vector<std::uint64_t> dirty;
  /// Per (tail phase, hop id), phase-major: the state the hop leads to, or
  /// the sink where the search forbids it. Built per search.
  std::vector<std::uint32_t> lands;
  /// Per group of the block: whether its row holds an escape route.
  std::vector<char> escaped_;
  /// The block's groups: each one's sources in `held`, its usable ones
  /// first, and its bit in the search.
  struct Group {
    std::uint32_t begin;
    std::uint32_t usable;
    std::uint32_t end;
    std::uint32_t bit;
  };
  std::vector<Group> groups;
  std::vector<std::uint16_t> held;
  /// The switch each bit searches from.
  std::vector<std::uint16_t> sources;
  /// The switch's row: every usable source's row, or under kSpread the
  /// one each source's copy starts from.
  RouteRow switch_row;
  /// kSpread: one route walked again for one source.
  RouteRow pair;
};

template <class Publish>
void Router::routes_from(std::span<const std::uint16_t> sources,
                         Policy policy, unsigned vc_lanes, RouteRow& row,
                         Scratch& scratch, Publish&& publish) const {
  routes_from_block(std::span(&sources, 1), policy, vc_lanes, row, scratch,
                    std::forward<Publish>(publish));
}

template <class Publish>
void Router::routes_from_block(
    std::span<const std::span<const std::uint16_t>> groups, Policy policy,
    unsigned vc_lanes, RouteRow& row, Scratch& scratch, Publish&& publish,
    std::span<const Reuse> reuse) const {
  search_block(groups, policy, scratch);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t usable = switch_row(
        g, policy, vc_lanes, reuse.empty() ? Reuse{} : reuse[g], scratch);
    const Scratch::Group& group = scratch.groups[g];
    const auto held = std::span<const std::uint16_t>(scratch.held).subspan(
        group.begin, group.end - group.begin);
    if (selection_ == ItbHostSelection::kSpread && usable > 0 &&
        !scratch.switch_row.stored_hosts().empty()) {
      for (std::size_t i = 0; i < usable; ++i) {
        spread_row(g, held[i], row, scratch);
        publish(row, held.subspan(i, 1));
      }
    } else if (usable > 0) {
      row = scratch.switch_row;
      publish(row, held.first(usable));
    }
    if (usable < held.size()) {
      empty_row(row);
      publish(row, held.subspan(usable));
    }
  }
}

/// Render a path like "h0 -> s0 -> s1 =ITB(h3)=> s1 -> s2 -> h5".
std::string describe(const RouteView& path, const topo::Topology& topo);

}  // namespace itb::routing
