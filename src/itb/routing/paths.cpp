#include "itb/routing/paths.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace itb::routing {

// ------------------------------------------------------------- RouteView --

namespace {

/// End of the route bytes of the segment starting at `pos`.
std::size_t segment_end(std::span<const std::uint8_t> header, std::size_t pos) {
  while (pos < header.size() && packet::is_route_byte(header[pos])) ++pos;
  return pos;
}

}  // namespace

std::size_t RouteView::segment_count() const {
  std::size_t n = 0;
  // Each segment after the first sits behind a 3-byte ITB tag + Length.
  for (std::size_t pos = 0; pos < header_.size();
       pos = segment_end(header_, pos) + 3)
    ++n;
  return n;
}

SegmentPorts RouteView::segment(std::size_t i) const {
  std::size_t pos = 0;
  for (; i > 0 && pos < header_.size(); --i) pos = segment_end(header_, pos) + 3;
  if (pos >= header_.size()) throw std::out_of_range("no such route segment");
  return SegmentPorts(header_.subspan(pos, segment_end(header_, pos) - pos),
                      PortOf{});
}

std::vector<packet::Route> RouteView::segments() const {
  std::vector<packet::Route> out(segment_count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto ports = segment(i);
    out[i].assign(ports.begin(), ports.end());
  }
  return out;
}

std::size_t RouteView::switch_traversals() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < segment_count(); ++i) n += segment(i).size();
  return n;
}

// -------------------------------------------------------------- RouteRow --

void RouteRow::reset(std::uint16_t first_dst) {
  first_ = first_dst;
  open_channels_ = 0;
  marks_.assign(1, Mark{});
  header_.clear();
  hosts_.clear();
  channels_.clear();
}

RouteView RouteRow::route(std::uint16_t src, std::uint16_t dst) const {
  const std::size_t i = static_cast<std::size_t>(dst) - first_;
  if (dst < first_ || i >= size())
    throw std::out_of_range("destination outside the route row");
  RouteView v;
  v.src_ = src;
  v.dst_ = dst;
  if (dst == src) return v;  // the entry serves the host's switch-mates
  const Mark& a = marks_[i];
  const Mark& b = marks_[i + 1];
  v.header_ = std::span(header_).subspan(a.header, b.header - a.header);
  v.hosts_ = std::span(hosts_).subspan(a.hosts, b.hosts - a.hosts);
  v.channels_ = std::span(channels_).subspan(
      b.channels_begin, b.channels_end - b.channels_begin);
  return v;
}

void RouteRow::add(const std::vector<packet::Route>& segments,
                   std::span<const std::uint16_t> in_transit_hosts,
                   std::span<const topo::Channel> trunk_channels) {
  if (!segments.empty()) {
    const std::size_t start = header_.size();
    try {
      packet::append_header(header_, segments);
    } catch (...) {
      header_.resize(start);  // leave the row as it was
      throw;
    }
  }
  hosts_.insert(hosts_.end(), in_transit_hosts.begin(), in_transit_hosts.end());
  channels_.insert(channels_.end(), trunk_channels.begin(),
                   trunk_channels.end());
  close_entry();
}

void RouteRow::add(const RouteView& route) {
  header_.insert(header_.end(), route.header().begin(), route.header().end());
  hosts_.insert(hosts_.end(), route.in_transit_hosts().begin(),
                route.in_transit_hosts().end());
  channels_.insert(channels_.end(), route.trunk_channels().begin(),
                   route.trunk_channels().end());
  close_entry();
}

void RouteRow::close_entry() {
  if (marks_.empty()) marks_.push_back(Mark{});
  const auto end = static_cast<std::uint32_t>(channels_.size());
  marks_.push_back(Mark{static_cast<std::uint32_t>(header_.size()),
                        static_cast<std::uint32_t>(hosts_.size()),
                        open_channels_, end});
  open_channels_ = end;
}

void RouteRow::add_sibling(std::size_t entry, std::uint8_t last_port) {
  const Mark a = marks_[entry];  // by value: the push below may reallocate
  const Mark b = marks_[entry + 1];
  // Copy by index: the source bytes live in the arrays being grown.
  const std::size_t bytes = b.header - a.header;
  header_.resize(header_.size() + bytes);
  std::copy_n(header_.begin() + a.header, bytes, header_.end() - bytes);
  header_.back() = packet::encode_route_byte(last_port);
  const std::size_t hosts = b.hosts - a.hosts;
  hosts_.resize(hosts_.size() + hosts);
  std::copy_n(hosts_.begin() + a.hosts, hosts, hosts_.end() - hosts);
  marks_.push_back(Mark{static_cast<std::uint32_t>(header_.size()),
                        static_cast<std::uint32_t>(hosts_.size()),
                        b.channels_begin, b.channels_end});
}

void RouteRow::truncate_open() {
  const Mark& m = marks_.back();
  header_.resize(m.header);
  hosts_.resize(m.hosts);
  // Only the open entry's own channels: the last mark's range may be one
  // an earlier entry owns.
  channels_.resize(open_channels_);
}

std::span<const std::uint16_t> RouteRow::open_hosts() const {
  return std::span(hosts_).subspan(marks_.back().hosts);
}

std::span<const topo::Channel> RouteRow::open_channels() const {
  return std::span(channels_).subspan(open_channels_);
}

// ---------------------------------------------------------------- Router --

Router::Router(const UpDown& updown, ItbHostSelection selection)
    : updown_(&updown), selection_(selection) {
  const auto& topo = updown.topology();
  adj_.resize(topo.switch_count());
  itb_hosts_.resize(topo.switch_count());
  uplinks_.resize(topo.host_count());

  for (topo::LinkId lid = 0; lid < topo.link_count(); ++lid) {
    // Masked-down, self-cable, and cut-off links never enter the search
    // graph (link_usable covers all three; without a mask it reduces to the
    // old self-cable check).
    if (!updown.link_usable(lid)) continue;
    const auto& l = topo.link(lid);
    const bool a_sw = l.a.node.kind == topo::NodeKind::kSwitch;
    const bool b_sw = l.b.node.kind == topo::NodeKind::kSwitch;
    if (a_sw && b_sw) {
      const auto sa = l.a.node.index;
      const auto sb = l.b.node.index;
      adj_[sa].push_back(
          Hop{lid, sb, l.a.port, updown.is_up_traversal(lid, sa), true});
      adj_[sb].push_back(
          Hop{lid, sa, l.b.port, updown.is_up_traversal(lid, sb), false});
      continue;
    }
    // Usable host link: every reachable attached host is an ITB candidate.
    const auto sw_end = a_sw ? l.a : l.b;
    const auto host_end = a_sw ? l.b : l.a;
    itb_hosts_[sw_end.node.index].push_back(
        ItbCandidate{host_end.node.index, sw_end.port});
    uplinks_[host_end.node.index] =
        Uplink{lid, sw_end.node.index, sw_end.port, true};
  }
  for (auto& hosts : itb_hosts_)
    std::sort(hosts.begin(), hosts.end(),
              [](const ItbCandidate& a, const ItbCandidate& b) {
                return a.host < b.host;
              });
}

const Router::ItbCandidate& Router::pick_itb(std::uint16_t sw,
                                             std::uint16_t src,
                                             std::uint16_t dst) const {
  const auto& hosts = itb_hosts_[sw];
  if (hosts.empty()) throw std::logic_error("no ITB host on switch");
  if (selection_ == ItbHostSelection::kLowestIndex) return hosts.front();
  // Deterministic spread: hash the pair over the candidates.
  const std::size_t idx =
      (static_cast<std::size_t>(src) * 31 + dst) % hosts.size();
  return hosts[idx];
}

namespace {

/// A Dijkstra state is a switch plus the up*/down* phase. Phase 0: no down
/// traversal yet (up and down both legal). Phase 1: a down traversal
/// happened (only down legal until an ITB resets the phase). A state's key
/// packs (hops, itbs, switch, phase) into one word whose integer order is
/// the canonical order, each field wider than any value it can take (hops
/// and itbs stay below the 2 * 65535 states).
constexpr std::uint64_t pack(std::uint32_t hops, std::uint32_t itbs,
                             std::uint16_t sw, std::uint8_t phase) {
  return (std::uint64_t{hops} << 41) | (std::uint64_t{itbs} << 17) |
         (std::uint64_t{sw} << 1) | phase;
}

}  // namespace

void Router::relax(std::uint16_t src_switch, bool restrict_updown,
                   bool allow_itb, Search& out, Scratch& sc) const {
  const auto n = adj_.size();
  out.src_switch = src_switch;
  // dist[sw][phase]; with restrictions off everything stays in phase 0.
  out.dist.assign(n, {});
  out.pred.assign(n, {});
  auto& dist = out.dist;
  auto& pred = out.pred;

  // Canonical predecessors: among the states that reach a state at its
  // final cost, the one with the smallest packed key wins (and of its
  // parallel hops, the first). Every pred assignment is then a pure
  // function of the search graph, whatever order a bucket holds its
  // states in, which the incremental patcher relies on — a source whose
  // stored routes avoid all changed links provably re-solves to the
  // byte-identical row, so it can be skipped.
  const auto key_of = [&dist](const SearchPred& p) {
    const SearchCost& c = dist[p.sw][p.phase];
    return pack(c.hops, c.itbs, p.sw, p.phase);
  };
  // Returns true when `to` improved and must be queued.
  const auto reach = [&](SearchCost cost, std::uint16_t to, std::uint8_t phase,
                         SearchPred by, std::uint64_t by_key) {
    SearchCost& d = dist[to][phase];
    if (cost < d) {
      d = cost;
      pred[to][phase] = by;
      return true;
    }
    if (cost == d && by_key < key_of(pred[to][phase])) pred[to][phase] = by;
    return false;
  };

  // Two-level bucket queue over (hops, itbs), drained in lexicographic
  // order. A hop queues at (hops + 1, itbs), the next level; an ITB reset
  // at (hops, itbs + 1), a later bucket of the level being drained. Both
  // costs exceed the state's own, so a state's cost is final when its
  // bucket comes up and it expands exactly once; entries whose state has
  // since improved are stale and skipped.
  Scratch::Level* level = &sc.levels[0];
  Scratch::Level* next = &sc.levels[1];
  dist[src_switch][0] = SearchCost{0, 0};
  pred[src_switch][0] = SearchPred{0xFFFF, 0, -2};
  level->push(0, std::uint32_t{src_switch} << 1);

  for (std::uint32_t hops = 0; level->used > 0; ++hops) {
    // By index throughout: an ITB reset grows this level's bucket list.
    for (std::uint32_t itbs = 0; itbs < level->used; ++itbs) {
      for (std::size_t k = 0; k < level->by_itbs[itbs].size(); ++k) {
        const std::uint32_t state = level->by_itbs[itbs][k];
        const auto sw = static_cast<std::uint16_t>(state >> 1);
        const auto phase = static_cast<std::uint8_t>(state & 1);
        const SearchCost cost{hops, itbs};
        if (cost != dist[sw][phase]) continue;  // stale entry
        const std::uint64_t key = pack(hops, itbs, sw, phase);

        const SearchCost hop_cost{hops + 1, itbs};
        for (std::size_t hi = 0; hi < adj_[sw].size(); ++hi) {
          const Hop& h = adj_[sw][hi];
          std::uint8_t next_phase = 0;
          if (restrict_updown) {
            if (h.up && phase == 1) continue;  // down -> up forbidden
            if (!h.up) next_phase = 1;
          }
          if (reach(hop_cost, h.to_switch, next_phase,
                    SearchPred{sw, phase, static_cast<int>(hi)}, key))
            next->push(itbs, (std::uint32_t{h.to_switch} << 1) | next_phase);
        }

        // ITB reset: eject at a host on this switch, re-inject in phase 0.
        if (allow_itb && restrict_updown && phase == 1 &&
            !itb_hosts_[sw].empty() &&
            reach(SearchCost{hops, itbs + 1}, sw, 0, SearchPred{sw, 1, -1},
                  key))
          level->push(itbs + 1, std::uint32_t{sw} << 1);
      }
      level->by_itbs[itbs].clear();
    }
    level->used = 0;
    std::swap(level, next);
  }
}

void Router::extract(const Search& s, std::uint16_t src_host,
                     std::uint16_t dst_host, RouteRow& row,
                     Scratch& sc) const {
  const Uplink& dst_up = uplinks_[dst_host];
  const auto ss = s.src_switch;
  const auto sd = dst_up.sw;
  const auto& dist = s.dist;
  const auto& pred = s.pred;

  const std::uint8_t best_phase = dist[sd][0] <= dist[sd][1] ? 0 : 1;
  if (dist[sd][best_phase].hops == std::numeric_limits<std::uint32_t>::max())
    throw std::logic_error("no route between hosts (disconnected?)");

  // Reconstruct the (switch, action) chain back to front.
  auto& steps = sc.steps;
  steps.clear();
  std::uint16_t sw = sd;
  std::uint8_t phase = best_phase;
  while (!(sw == ss && phase == 0 && pred[sw][phase].hop == -2)) {
    const SearchPred& p = pred[sw][phase];
    if (p.hop == -2) throw std::logic_error("route reconstruction failed");
    steps.push_back(Step{p.sw, p.hop});
    sw = p.sw;
    phase = p.phase;
  }

  // Emit the header, in-transit hosts and channels front to back.
  packet::HeaderEncoder header(row.header_);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    if (it->hop == -1) {
      // Ejection: the segment ends with the port to the in-transit host;
      // the next segment resumes at the same switch behind an ITB tag.
      const ItbCandidate& itb = pick_itb(it->sw, src_host, dst_host);
      header.port(itb.port);
      row.hosts_.push_back(itb.host);
      header.itb();
      continue;
    }
    const Hop& h = adj_[it->sw][static_cast<std::size_t>(it->hop)];
    header.port(h.out_port);
    row.channels_.push_back(topo::Channel{h.link, h.forward});
  }
  header.port(dst_up.port);
  header.finish();
}

RouteRow Router::search(std::uint16_t src_host, std::uint16_t dst_host,
                        bool restrict_updown, bool allow_itb) const {
  if (!host_usable(src_host))
    throw std::logic_error("no route between hosts (source cut off)");
  if (!host_usable(dst_host))
    throw std::logic_error("no route between hosts (destination cut off)");
  Scratch sc;
  relax(uplinks_[src_host].sw, restrict_updown, allow_itb, sc.primary, sc);
  RouteRow row;
  row.reset(dst_host);
  extract(sc.primary, src_host, dst_host, row, sc);
  row.close_entry();
  return row;
}

std::vector<std::uint32_t> Router::min_hops_from_switch(std::uint16_t sw) const {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(adj_.size(), kInf);
  std::vector<std::uint16_t> frontier;
  frontier.reserve(adj_.size());
  dist[sw] = 0;
  frontier.push_back(sw);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto cur = frontier[head];
    for (const Hop& h : adj_[cur]) {
      if (dist[h.to_switch] != kInf) continue;
      dist[h.to_switch] = dist[cur] + 1;
      frontier.push_back(h.to_switch);
    }
  }
  return dist;
}

Router::SolveFlags Router::solve_flags(Policy policy) {
  switch (policy) {
    case Policy::kUpDown:
      return {/*restrict_updown=*/true, /*allow_itb=*/false};
    case Policy::kItb:
      return {/*restrict_updown=*/true, /*allow_itb=*/true};
    case Policy::kVcEscape:
      // Minimal lanes carry the primary search; the escape lane's
      // restricted routes are solved lazily per source when the ladder
      // cannot absorb a minimal path.
      return {/*restrict_updown=*/false, /*allow_itb=*/false};
  }
  return {/*restrict_updown=*/true, /*allow_itb=*/false};  // unreachable
}

std::size_t Router::solve_switch(std::span<const std::uint16_t> sources,
                                 Policy policy, unsigned vc_lanes,
                                 Scratch& sc) const {
  auto& held = sc.held;
  held.clear();
  for (const auto s : sources) {
    if (!host_usable(s)) continue;
    if (!held.empty() && uplinks_[s].sw != uplinks_[held.front()].sw)
      throw std::invalid_argument("routes_from: sources on several switches");
    held.push_back(s);
  }
  const std::size_t usable = held.size();
  for (const auto s : sources)
    if (!host_usable(s)) held.push_back(s);
  if (usable == 0) return 0;  // every row is empty
  // The in-transit host picks are the first source's; only kSpread's
  // depend on it, and spread_row() picks again per source.
  const auto lead = held.front();
  const auto ss = uplinks_[lead].sw;
  const SolveFlags flags = solve_flags(policy);
  relax(ss, flags.restrict_updown, flags.allow_itb, sc.primary, sc);
  // One walk per destination switch: the path, and so the header up to its
  // last port, depends only on that switch — unless the in-transit host
  // pick hashes the pair (kSpread), which only an entry without ITBs
  // escapes. The VC-escape fallback test reads only the trunk channels, so
  // a fallback entry is shared whole.
  constexpr auto kInfHops = std::numeric_limits<std::uint32_t>::max();
  const auto hosts = static_cast<std::uint16_t>(uplinks_.size());
  RouteRow& row = sc.switch_row;
  row.marks_.reserve(hosts + 1u);  // one mark per host in every row
  row.reset();
  auto& walked = sc.walked;
  walked.assign(adj_.size(), Scratch::kNoEntry);
  // Restricted fallback for VC-escape routes whose minimal path needs more
  // lanes than the ladder has; solved at most once per switch.
  bool escape_solved = false;
  for (std::uint16_t d = 0; d < hosts; ++d) {
    // Destinations cut off by the mask keep an empty entry rather than
    // throwing in extract(); the NIC backstop (and the recovery engine's
    // unreachable accounting) handles them.
    if (host_usable(d)) {
      const auto sd = uplinks_[d].sw;
      if (walked[sd] != Scratch::kNoEntry) {
        row.add_sibling(walked[sd], uplinks_[d].port);  // closes the entry
        continue;
      }
      if (sc.primary.dist[sd][0].hops != kInfHops ||
          sc.primary.dist[sd][1].hops != kInfHops) {
        extract(sc.primary, lead, d, row, sc);
        if (policy == Policy::kVcEscape &&
            updown_segments(row.open_channels()) > vc_lanes) {
          if (!escape_solved) {
            relax(ss, /*restrict_updown=*/true, /*allow_itb=*/false,
                  sc.escape, sc);
            escape_solved = true;
          }
          // Overwrite this destination's entry, never append a second.
          row.truncate_open();
          extract(sc.escape, lead, d, row, sc);
        }
        if (selection_ == ItbHostSelection::kLowestIndex ||
            row.open_hosts().empty())
          walked[sd] = d;
      }
    }
    row.close_entry();
  }
  return usable;
}

void Router::spread_row(std::uint16_t src, RouteRow& row, Scratch& sc) const {
  row = sc.switch_row;
  // The path, and so every length, stays the switch row's.
  for (std::uint16_t d = 0; d < row.size(); ++d) {
    if (row.route(src, d).itb_count() == 0) continue;
    sc.pair.reset(d);
    extract(sc.primary, src, d, sc.pair, sc);
    sc.pair.close_entry();
    const RouteView picked = sc.pair.route(src, d);
    std::ranges::copy(picked.header(),
                      row.header_.begin() + row.marks_[d].header);
    std::ranges::copy(picked.in_transit_hosts(),
                      row.hosts_.begin() + row.marks_[d].hosts);
  }
}

void Router::empty_row(RouteRow& row) const {
  row.marks_.reserve(uplinks_.size() + 1);  // a row moved out comes back empty
  row.reset();
  for (std::size_t d = 0; d < uplinks_.size(); ++d) row.close_entry();
}

RouteRow Router::updown_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/true, /*allow_itb=*/false);
}

RouteRow Router::minimal_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/false, /*allow_itb=*/false);
}

RouteRow Router::itb_route(std::uint16_t src, std::uint16_t dst) const {
  return search(src, dst, /*restrict=*/true, /*allow_itb=*/true);
}

std::size_t Router::minimal_distance(std::uint16_t src, std::uint16_t dst) const {
  return minimal_route(src, dst).route(src, dst).trunk_hops();
}

bool Router::is_valid_updown(std::span<const topo::Channel> trunks) const {
  bool went_down = false;
  for (const auto& c : trunks) {
    const auto from = updown_->topology().channel_source(c).node.index;
    const bool up = updown_->is_up_traversal(c.link, from);
    if (up && went_down) return false;
    if (!up) went_down = true;
  }
  return true;
}

std::size_t Router::updown_segments(
    std::span<const topo::Channel> trunks) const {
  std::size_t segments = 1;
  bool went_down = false;
  for (const auto& c : trunks) {
    const auto from = updown_->topology().channel_source(c).node.index;
    const bool up = updown_->is_up_traversal(c.link, from);
    if (up && went_down) {
      ++segments;
      went_down = false;
    }
    if (!up) went_down = true;
  }
  return segments;
}

std::string describe(const RouteView& path, const topo::Topology& topo) {
  std::string out = "h" + std::to_string(path.src_host());
  // Re-derive the switch sequence by walking the route bytes from the
  // source uplink switch.
  auto cur = topo.host_uplink(path.src_host());
  const auto hosts = path.in_transit_hosts();
  for (std::size_t seg = 0; seg < path.segment_count(); ++seg) {
    if (seg > 0) {
      out += " =ITB(h" + std::to_string(hosts[seg - 1]) + ")=>";
      cur = topo.host_uplink(hosts[seg - 1]);
    }
    for (auto port : path.segment(seg)) {
      out += " -> s" + std::to_string(cur.node.index);
      auto peer = topo.peer(cur.node, port);
      if (!peer) {
        out += " -> <dangling p" + std::to_string(port) + ">";
        return out;
      }
      cur = *peer;
    }
  }
  out += " -> " + topo::to_string(cur.node);
  return out;
}

}  // namespace itb::routing
