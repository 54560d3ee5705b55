// Host-to-host route computation.
//
// Three route families:
//   * up*/down* — shortest path whose switch-switch traversals form the
//     pattern up* down* (no up after a down). What stock Myrinet/GM uses.
//   * minimal  — unrestricted shortest path; may be up*/down*-invalid.
//   * ITB      — minimal path split into valid up*/down* sub-paths by
//     ejecting/re-injecting at in-transit hosts (the paper's mechanism).
//
// Routes are stored one flat RouteRow per source switch: for each
// destination the exact Fig. 3b header the MCP stamps, plus the in-transit
// hosts and the trunk channels in two side arrays. A RouteView reads one
// (source, destination) entry; the route table, the recovery engine and
// every NIC on the switch share the same immutable row.
#pragma once

#include <array>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
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

const char* to_string(Policy p);

/// Route byte -> output port, applied as a segment is read.
struct PortOf {
  constexpr std::uint8_t operator()(std::uint8_t b) const {
    return static_cast<std::uint8_t>(b & ~packet::kRouteByteFlag);
  }
};
/// The output ports of one route segment, in traversal order.
using SegmentPorts =
    std::ranges::transform_view<std::span<const std::uint8_t>, PortOf>;

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
  /// and the next sub-path's route bytes.
  std::span<const std::uint8_t> header() const { return header_; }

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
  std::span<const std::uint8_t> header_;
  std::span<const std::uint16_t> hosts_;
  std::span<const topo::Channel> channels_;
};

/// The routes out of one source switch to a run of destinations, in three
/// flat arrays: the header bytes, the in-transit hosts and the trunk
/// channels, each addressed by per-destination offsets. A table row covers
/// every destination and serves every host on the switch; the per-pair
/// Router helpers return one-destination rows. Entries are appended in
/// destination order; an empty entry means unreachable. Hosts on one switch
/// share the trunk channels of the path to it, so an entry names its
/// channel range explicitly and several entries may name the same one.
class RouteRow {
 public:
  RouteRow() = default;

  /// Start over as the row whose first entry is `first_dst`. Keeps the
  /// arrays' capacity, so a warm row refills without allocating.
  void reset(std::uint16_t first_dst = 0);

  /// Destinations entered so far.
  std::size_t size() const { return marks_.empty() ? 0 : marks_.size() - 1; }

  /// The route from `src`, a host the row serves, to `dst`: empty for the
  /// diagonal. Throws std::out_of_range when `dst` is outside the row.
  RouteView route(std::uint16_t src, std::uint16_t dst) const;

  /// Append the next destination's entry, its header encoded from
  /// `segments` by packet::HeaderEncoder (no segments = unreachable). The
  /// side arrays are optional: a NIC reads only the header. Throws
  /// std::invalid_argument on a port >= 128 or a Length overflow.
  void add(const std::vector<packet::Route>& segments,
           std::span<const std::uint16_t> in_transit_hosts = {},
           std::span<const topo::Channel> trunk_channels = {});
  /// Append a copy of another row's entry.
  void add(const RouteView& route);

  /// Every trunk channel the row stores, each shared range once. Each one
  /// belongs to at least one entry.
  std::span<const topo::Channel> stored_channels() const { return channels_; }
  /// Every entry's in-transit hosts, in destination order.
  std::span<const std::uint16_t> stored_hosts() const { return hosts_; }

  /// Field by field: entry offsets, header, hosts and channels.
  friend bool operator==(const RouteRow&, const RouteRow&) = default;

 private:
  friend class Router;
  /// Entry i's header and in-transit hosts span marks_[i] to marks_[i + 1]
  /// (both arrays are cumulative); its trunk channels are the range its
  /// close mark marks_[i + 1] names, which later entries may share.
  struct Mark {
    std::uint32_t header = 0;
    std::uint32_t hosts = 0;
    std::uint32_t channels_begin = 0;
    std::uint32_t channels_end = 0;
    friend bool operator==(const Mark&, const Mark&) = default;
  };
  /// Close the entry written since the last mark.
  void close_entry();
  /// Append and close a copy of entry `entry` whose final route byte leads
  /// to `last_port` instead: its header (the Length fields count bytes, so
  /// they still hold) and in-transit hosts copied, its channel range shared.
  void add_sibling(std::size_t entry, std::uint8_t last_port);
  /// Drop whatever the open entry has written.
  void truncate_open();
  /// In-transit hosts and trunk channels the open entry has written.
  std::span<const std::uint16_t> open_hosts() const;
  std::span<const topo::Channel> open_channels() const;

  std::uint16_t first_ = 0;
  /// Where the open entry's own trunk channels start.
  std::uint32_t open_channels_ = 0;
  std::vector<Mark> marks_;
  packet::Bytes header_;
  std::vector<std::uint16_t> hosts_;
  std::vector<topo::Channel> channels_;
};

/// Which host on a switch serves as the in-transit host when several are
/// available. kLowestIndex mirrors the simplest mapper; kSpread hashes the
/// (src, dst) pair over the candidates so the forwarding load (and the NIC
/// CPU cost it carries) is distributed across the switch's hosts.
enum class ItbHostSelection : std::uint8_t { kLowestIndex, kSpread };

/// Route computation over one topology + one up*/down* orientation.
class Router {
 public:
  /// Reusable search buffers for routes_from(): the Dijkstra arrays, its
  /// bucket queue, the path step stack, the switch's row and the
  /// per-switch entry map. The caller owns one per thread (never the const
  /// Router, so one Router serves concurrent solves); once warm, a re-solve
  /// allocates nothing. Defined below the class.
  class Scratch;

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
  /// is an ordinary destination, so a switch-mate's entry (the source's own
  /// included) is the one route byte to it, and the later hosts on a
  /// walked switch copy the first one's header with their own last port
  /// and share its trunk channels. A source never reads its own entry
  /// (RouteRow::route masks the diagonal), so the row serves every usable
  /// source alike — except under ItbHostSelection::kSpread, where the pick
  /// hashes (src, dst): each source then gets a copy with its in-transit
  /// entries walked again. The cut-off sources share an all-empty row.
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

  /// Trunk-hop distance of the unrestricted shortest path.
  std::size_t minimal_distance(std::uint16_t src_host,
                               std::uint16_t dst_host) const;

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
  bool has_itb_host(std::uint16_t sw) const { return !itb_hosts_[sw].empty(); }

  /// Unrestricted BFS hop distances from one switch over the usable trunk
  /// graph (0xFFFFFFFF = unreachable): the minimal distance of every route
  /// out of that switch. Since hops are the primary key of the lex search
  /// cost, these lower-bound every restricted route — the incremental
  /// patcher's attraction test builds on that.
  std::vector<std::uint32_t> min_hops_from_switch(std::uint16_t sw) const;

  const UpDown& updown() const { return *updown_; }
  const topo::Topology& topology() const { return updown_->topology(); }

 private:
  const UpDown* updown_;

  struct Hop {
    topo::LinkId link;
    std::uint16_t to_switch;
    std::uint8_t out_port;  // port on the *from* switch
    bool up;
    bool forward;  // the trunk channel runs link a -> b
  };
  /// Adjacency: for each switch, its usable outgoing trunk hops.
  std::vector<std::vector<Hop>> adj_;
  ItbHostSelection selection_;
  struct ItbCandidate {
    std::uint16_t host;
    std::uint8_t port;  // switch port leading to it
  };
  /// For each switch, its attached hosts usable as in-transit hosts,
  /// sorted by host index.
  std::vector<std::vector<ItbCandidate>> itb_hosts_;
  /// Per host: its uplink link, switch and the switch port leading to it,
  /// valid when the uplink is usable.
  struct Uplink {
    topo::LinkId link = 0;
    std::uint16_t sw = 0;
    std::uint8_t port = 0;
    bool usable = false;
  };
  std::vector<Uplink> uplinks_;

  /// Pick the in-transit host on `sw` for the (src, dst) pair.
  const ItbCandidate& pick_itb(std::uint16_t sw, std::uint16_t src,
                               std::uint16_t dst) const;

  // ---- Per-switch search machinery -------------------------------------
  // The Dijkstra over (switch, up*/down* phase) states is destination-blind:
  // it relaxes the whole fabric and only the extraction step looks at dst.
  // It is source-blind too beyond the source's switch. Splitting the two
  // lets routes_from() pay one search for every row out of a switch where
  // a per-pair search pays H of them per row. The search cost (hops, itbs)
  // is ordered lexicographically; a hop adds (1, 0) and an ITB reset
  // (0, 1).

  struct SearchCost {
    std::uint32_t hops = 0xFFFFFFFFu;
    std::uint32_t itbs = 0xFFFFFFFFu;
    friend auto operator<=>(const SearchCost&, const SearchCost&) = default;
  };
  struct SearchPred {
    std::uint16_t sw = 0xFFFF;
    std::uint8_t phase = 0;
    /// Index into adj_[pred.sw] of the hop taken, or -1 for an ITB reset
    /// (same switch, phase 1 -> 0).
    int hop = -2;  // -2 = unset / source
  };
  /// Full relaxation result from one source switch.
  struct Search {
    std::uint16_t src_switch = 0;
    std::vector<std::array<SearchCost, 2>> dist;  // [switch][phase]
    std::vector<std::array<SearchPred, 2>> pred;
  };
  /// One step of a reconstructed path: the hop taken out of `sw` (an adj_
  /// index), or -1 for an ITB reset at `sw`.
  struct Step {
    std::uint16_t sw;
    int hop;
  };

  void relax(std::uint16_t src_switch, bool restrict_updown, bool allow_itb,
             Search& out, Scratch& sc) const;
  /// Append the route to `dst_host` to the open entry of `row`.
  void extract(const Search& s, std::uint16_t src_host,
               std::uint16_t dst_host, RouteRow& row, Scratch& sc) const;
  /// routes_from()'s shared half: sorts `sources` into `sc.held`, the
  /// usable ones first, and builds their switch's row into `sc.switch_row`.
  /// Returns the usable count.
  std::size_t solve_switch(std::span<const std::uint16_t> sources,
                           Policy policy, unsigned vc_lanes,
                           Scratch& sc) const;
  /// kSpread: `src`'s row, the switch's with its in-transit hosts picked
  /// for `src`.
  void spread_row(std::uint16_t src, RouteRow& row, Scratch& sc) const;
  /// The all-empty row of a cut-off source.
  void empty_row(RouteRow& row) const;

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

  RouteRow search(std::uint16_t src_host, std::uint16_t dst_host,
                  bool restrict_updown, bool allow_itb) const;
};

class Router::Scratch {
 private:
  friend class Router;
  Search primary;
  Search escape;  // kVcEscape's restricted fallback search
  /// One hop level of the bucket queue: the states (switch << 1 | phase)
  /// queued at each itbs count. Only levels h and h + 1 are ever non-empty,
  /// so relax() keeps two, swaps them and leaves both drained; drained
  /// buckets keep their capacity.
  struct Level {
    std::vector<std::vector<std::uint32_t>> by_itbs;
    std::uint32_t used = 0;  // by_itbs[0, used) may be non-empty
    void push(std::uint32_t itbs, std::uint32_t state) {
      if (itbs >= by_itbs.size()) by_itbs.resize(itbs + 1);
      by_itbs[itbs].push_back(state);
      if (itbs >= used) used = itbs + 1;
    }
  };
  std::array<Level, 2> levels;
  std::vector<Step> steps;
  /// The sources of the current group, the usable ones first.
  std::vector<std::uint16_t> held;
  /// The switch's row: every usable source's row, or under kSpread the
  /// one each source's copy starts from.
  RouteRow switch_row;
  /// kSpread: one route walked again for one source.
  RouteRow pair;
  /// Per destination switch: the entry of the switch's row the other hosts
  /// on it copy, or kNoEntry.
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  std::vector<std::uint32_t> walked;
};

template <class Publish>
void Router::routes_from(std::span<const std::uint16_t> sources,
                         Policy policy, unsigned vc_lanes, RouteRow& row,
                         Scratch& scratch, Publish&& publish) const {
  const std::size_t usable = solve_switch(sources, policy, vc_lanes, scratch);
  const std::span<const std::uint16_t> held(scratch.held);
  if (selection_ == ItbHostSelection::kSpread &&
      !scratch.switch_row.stored_hosts().empty()) {
    for (std::size_t i = 0; i < usable; ++i) {
      spread_row(held[i], row, scratch);
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

/// Render a path like "h0 -> s0 -> s1 =ITB(h3)=> s1 -> s2 -> h5".
std::string describe(const RouteView& path, const topo::Topology& topo);

}  // namespace itb::routing
