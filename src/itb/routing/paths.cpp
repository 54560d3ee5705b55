#include "itb/routing/paths.hpp"

#include <algorithm>
#include <bit>
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

bool RouteRow::has_route(std::uint16_t dst) const {
  const std::size_t i = static_cast<std::size_t>(dst) - first_;
  if (dst < first_ || i >= size())
    throw std::out_of_range("destination outside the route row");
  return marks_[i].header != marks_[i + 1].header;
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
  const std::size_t switches = topo.switch_count();
  offsets_.assign(switches + 1, Offsets{});
  uplinks_.assign(topo.host_count(), Uplink{});

  // Masked-down, self-cable, and cut-off links never enter the search
  // graph (link_usable covers all three; without a mask it reduces to the
  // old self-cable check). Two passes: count each switch's runs one slot
  // ahead, so the prefix sums leave offsets_[sw] at their start, then fill.
  const auto for_each_usable = [&](auto&& trunk, auto&& host) {
    for (topo::LinkId lid = 0; lid < topo.link_count(); ++lid) {
      if (!updown.link_usable(lid)) continue;
      const auto& l = topo.link(lid);
      const bool a_sw = l.a.node.kind == topo::NodeKind::kSwitch;
      const bool b_sw = l.b.node.kind == topo::NodeKind::kSwitch;
      if (a_sw && b_sw)
        trunk(lid, l);
      else
        host(lid, a_sw ? l.a : l.b, a_sw ? l.b : l.a);
    }
  };
  for_each_usable(
      [&](topo::LinkId, const topo::Link& l) {
        for (const auto sw : {l.a.node.index, l.b.node.index}) {
          ++offsets_[sw + 1].hops;
          ++offsets_[sw + 1].in;
        }
      },
      [&](topo::LinkId lid, const topo::Endpoint& sw_end,
          const topo::Endpoint& host_end) {
        // Every reachable attached host is an ITB candidate.
        ++offsets_[sw_end.node.index + 1].itbs;
        uplinks_[host_end.node.index] =
            Uplink{lid, sw_end.node.index, sw_end.port, true};
      });
  for (std::size_t sw = 0; sw < switches; ++sw) {
    offsets_[sw + 1].hops += offsets_[sw].hops;
    offsets_[sw + 1].in += offsets_[sw].in;
    offsets_[sw + 1].itbs += offsets_[sw].itbs;
  }
  hops_.resize(offsets_[switches].hops);
  in_hops_.resize(offsets_[switches].in);
  itb_hosts_.resize(offsets_[switches].itbs);

  std::vector<Offsets> next(offsets_.begin(), offsets_.end() - 1);
  for_each_usable(
      [&](topo::LinkId lid, const topo::Link& l) {
        const auto sa = l.a.node.index;
        const auto sb = l.b.node.index;
        hops_[next[sa].hops++] = Hop{lid, sa, sb, l.a.port,
                                     updown.is_up_traversal(lid, sa), true};
        hops_[next[sb].hops++] = Hop{lid, sb, sa, l.b.port,
                                     updown.is_up_traversal(lid, sb), false};
      },
      [&](topo::LinkId, const topo::Endpoint& sw_end,
          const topo::Endpoint& host_end) {
        itb_hosts_[next[sw_end.node.index].itbs++] =
            ItbCandidate{host_end.node.index, sw_end.port};
      });
  for (std::uint32_t k = 0; k < hops_.size(); ++k)
    in_hops_[next[hops_[k].to].in++] = k;
  for (std::size_t sw = 0; sw < switches; ++sw)
    std::sort(itb_hosts_.begin() + offsets_[sw].itbs,
              itb_hosts_.begin() + offsets_[sw + 1].itbs,
              [](const ItbCandidate& a, const ItbCandidate& b) {
                return a.host < b.host;
              });
}

std::span<const Router::Hop> Router::hops_out(std::uint16_t sw) const {
  return std::span(hops_).subspan(offsets_[sw].hops,
                                  offsets_[sw + 1].hops - offsets_[sw].hops);
}

const Router::ItbCandidate& Router::pick_itb(std::uint16_t sw,
                                             std::uint16_t src,
                                             std::uint16_t dst) const {
  if (!has_itb_host(sw)) throw std::logic_error("no ITB host on switch");
  const std::size_t first = offsets_[sw].itbs;
  if (selection_ == ItbHostSelection::kLowestIndex) return itb_hosts_[first];
  // Deterministic spread: hash the pair over the candidates.
  const std::size_t idx = (static_cast<std::size_t>(src) * 31 + dst) %
                          (offsets_[sw + 1].itbs - first);
  return itb_hosts_[first + idx];
}

void Router::search(std::span<const std::uint16_t> sources, SolveFlags flags,
                    Search& out, Scratch& sc) const {
  // A level search: (source, state)'s cost is the (hops, itbs) level at
  // which its bit first reaches the state. Sub-level (h, i) gains the bits
  // that sub-level (h - 1, i) carries one hop further and, when phase
  // resets are allowed, the bits sub-level (h, i - 1) brought to a phase-1
  // state on a switch with an ITB host; `reached` clears whatever an
  // earlier level already brought. Levels run in lexicographic order, so
  // the first arrival is the cheapest.
  const std::size_t states = 2 * switch_count();
  out.states = states;
  out.reached.assign(states, 0);
  out.down_first.assign(switch_count(), 0);
  out.pred.resize(sources.size() * states);
  sc.fresh.assign(states, 0);
  sc.tails.assign(states, 0);
  auto& touched = sc.touched;
  touched.clear();
  // A sub-level touches a state at most once, and a path visits a state at
  // most once: sized once here, these grow only past a level holding a
  // state in several sub-levels.
  touched.reserve(states);
  sc.steps.reserve(states);
  for (auto& f : sc.frontiers) f.entries.reserve(states);
  Scratch::Frontier* prev = &sc.frontiers[0];
  Scratch::Frontier* cur = &sc.frontiers[1];

  const auto set_pred = [&](std::uint64_t bits, std::uint32_t state,
                            std::uint32_t pred) {
    for (; bits != 0; bits &= bits - 1)
      out.pred[static_cast<std::size_t>(std::countr_zero(bits)) * states +
               state] = pred;
  };
  const auto gain = [&](std::uint32_t state, std::uint64_t bits) {
    bits &= ~out.reached[state];
    if (bits == 0) return;
    if (sc.fresh[state] == 0) touched.push_back(state);
    sc.fresh[state] |= bits;
  };

  // Level 0: each source at its switch, phase 0.
  for (std::size_t b = 0; b < sources.size(); ++b)
    gain(std::uint32_t{sources[b]} << 1, std::uint64_t{1} << b);
  prev->entries.clear();
  prev->subs.assign(1, 0);
  for (const auto state : touched) {
    const std::uint64_t bits = std::exchange(sc.fresh[state], 0);
    out.reached[state] = bits;
    prev->entries.push_back({state, bits});
    set_pred(bits, state, kSourcePred);
  }
  touched.clear();

  const bool resets = flags.restrict_updown && flags.allow_itb;
  while (!prev->entries.empty()) {
    cur->entries.clear();
    cur->subs.clear();
    for (std::size_t i = 0;
         i < prev->runs() || (resets && i > 0 && !cur->run(i - 1).empty());
         ++i) {
      const bool hops_in = i < prev->runs();
      if (hops_in) {
        for (const auto& e : prev->run(i)) {
          sc.tails[e.state] = e.bits;
          const unsigned phase = e.state & 1;
          for (const Hop& h : hops_out(static_cast<std::uint16_t>(e.state >> 1))) {
            std::uint32_t to = std::uint32_t{h.to} << 1;
            if (flags.restrict_updown) {
              if (!h.up)
                to |= 1;
              else if (phase == 1)
                continue;  // down -> up forbidden
            }
            gain(to, e.bits);
          }
        }
      }
      if (resets && i > 0)
        for (const auto& e : cur->run(i - 1))
          if ((e.state & 1) != 0 &&
              has_itb_host(static_cast<std::uint16_t>(e.state >> 1)))
            gain(e.state & ~1u, e.bits);

      // Settle the sub-level. A gained bit's predecessor is the first
      // in-hop, in (tail switch, tail phase, hop index) order, whose tail
      // held the bit in the previous level's run: the tail with the
      // smallest (hops, itbs, switch, phase) key among those reaching the
      // state at its cost, and of its parallel hops the first. Trying each
      // in-hop's tail phases in turn picks the same hop: for a given tail
      // switch and state, every hop qualifies from both phases or from
      // phase 0 only. A bit no in-hop carried came by an ITB reset.
      const std::size_t settled = cur->entries.size();
      cur->subs.push_back(static_cast<std::uint32_t>(settled));
      for (const auto state : touched) {
        const std::uint64_t bits = std::exchange(sc.fresh[state], 0);
        out.reached[state] |= bits;
        cur->entries.push_back({state, bits});
        const auto sw = state >> 1;
        const unsigned phase = state & 1;
        std::uint64_t rest = bits;
        const std::uint32_t first = offsets_[sw].in;
        for (std::uint32_t j = first; j < offsets_[sw + 1].in && rest; ++j) {
          const Hop& h = hops_[in_hops_[j]];
          // The tail phases this hop leaves into `phase`, as a bit set.
          unsigned tail_phases = 1;
          if (flags.restrict_updown)
            tail_phases = h.up ? (phase == 0 ? 1 : 0) : (phase == 1 ? 3 : 0);
          for (unsigned q = 0; q < 2; ++q) {
            if ((tail_phases >> q & 1) == 0) continue;
            const std::uint32_t tail = (std::uint32_t{h.from} << 1) | q;
            const std::uint64_t got = rest & sc.tails[tail];
            rest &= ~got;
            set_pred(got, state, tail << 8 | (j - first));
          }
        }
        set_pred(rest, state, (state | 1) << 8 | kResetIndex);
      }
      touched.clear();
      // A phase-1 arrival the phase-0 twin has not matched by now, its own
      // sub-level included, is strictly cheaper: ties go to phase 0.
      for (std::size_t k = settled; k < cur->entries.size(); ++k) {
        const auto& e = cur->entries[k];
        if ((e.state & 1) != 0)
          out.down_first[e.state >> 1] |= e.bits & ~out.reached[e.state & ~1u];
      }
      if (hops_in)
        for (const auto& e : prev->run(i)) sc.tails[e.state] = 0;
    }
    // Trailing empty runs carry nothing to the next level.
    while (!cur->subs.empty() && cur->subs.back() == cur->entries.size())
      cur->subs.pop_back();
    std::swap(prev, cur);
  }
}

void Router::extract(const Search& s, std::size_t bit, std::uint16_t src_host,
                     std::uint16_t dst_host, RouteRow& row,
                     Scratch& sc) const {
  const Uplink& dst_up = uplinks_[dst_host];
  if (!s.reaches(bit, dst_up.sw))
    throw std::logic_error("no route between hosts (disconnected?)");
  const std::uint32_t* pred = s.pred.data() + bit * s.states;
  // The cheaper phase at the destination switch.
  std::uint32_t state = (std::uint32_t{dst_up.sw} << 1) |
                        static_cast<std::uint32_t>(s.down_first[dst_up.sw] >> bit & 1);

  // Reconstruct the (switch, action) chain back to front. Each predecessor
  // sits at a lower level, so the walk ends at the source.
  auto& steps = sc.steps;
  steps.clear();
  for (std::uint32_t p = pred[state]; p != kSourcePred; p = pred[state]) {
    const auto sw = static_cast<std::uint16_t>(state >> 1);
    const std::uint32_t index = p & 0xFFu;
    steps.push_back(Step{sw, index == kResetIndex
                                 ? kNoHop
                                 : in_hops_[offsets_[sw].in + index]});
    state = p >> 8;
  }

  // Emit the header, in-transit hosts and channels front to back.
  packet::HeaderEncoder header(row.header_);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    if (it->hop == kNoHop) {
      // Ejection: the segment ends with the port to the in-transit host;
      // the next segment resumes at the same switch behind an ITB tag.
      const ItbCandidate& itb = pick_itb(it->sw, src_host, dst_host);
      header.port(itb.port);
      row.hosts_.push_back(itb.host);
      header.itb();
      continue;
    }
    const Hop& h = hops_[it->hop];
    header.port(h.out_port);
    row.channels_.push_back(topo::Channel{h.link, h.forward});
  }
  header.port(dst_up.port);
  header.finish();
}

RouteRow Router::pair_row(std::uint16_t src_host, std::uint16_t dst_host,
                          SolveFlags flags) const {
  if (!host_usable(src_host))
    throw std::logic_error("no route between hosts (source cut off)");
  if (!host_usable(dst_host))
    throw std::logic_error("no route between hosts (destination cut off)");
  Scratch sc;
  const std::uint16_t source = uplinks_[src_host].sw;
  search(std::span(&source, 1), flags, sc.primary, sc);
  RouteRow row;
  row.reset(dst_host);
  extract(sc.primary, 0, src_host, dst_host, row, sc);
  row.close_entry();
  return row;
}

std::vector<std::uint32_t> Router::min_hops_from_switch(std::uint16_t sw) const {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(switch_count(), kInf);
  std::vector<std::uint16_t> frontier;
  frontier.reserve(switch_count());
  dist[sw] = 0;
  frontier.push_back(sw);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const auto cur = frontier[head];
    for (const Hop& h : hops_out(cur)) {
      if (dist[h.to] != kInf) continue;
      dist[h.to] = dist[cur] + 1;
      frontier.push_back(h.to);
    }
  }
  return dist;
}

void Router::min_hops_via(std::span<const std::uint16_t> sources,
                          std::span<const char> via_link,
                          std::span<const char> via_switch,
                          std::span<std::uint32_t> dist, Scratch& sc) const {
  if (sources.size() > kBlockWidth)
    throw std::invalid_argument("min_hops_via: more sources than bits");
  // A level search over (switch, layer) states, state = switch << 1 |
  // layer, source b as bit b: layer 1 has crossed a marked link or passed a
  // marked switch. A hop costs one level; passing a marked switch lifts a
  // walk to layer 1 within its level. A bit first reaches a state at its
  // distance. The block search's buffers serve: `tails` holds the bits
  // each state has, `fresh` the bits it gains in the level being built.
  const std::size_t n = switch_count();
  std::ranges::fill(dist, std::numeric_limits<std::uint32_t>::max());
  auto& reached = sc.tails;
  auto& gained = sc.fresh;
  reached.assign(2 * n, 0);
  gained.assign(2 * n, 0);
  auto& touched = sc.touched;
  touched.clear();
  auto* cur = &sc.frontiers[0].entries;
  auto* next = &sc.frontiers[1].entries;
  next->clear();
  std::uint32_t level = 0;
  const auto settle = [&](std::uint32_t state, std::uint64_t bits) {
    for (;;) {
      bits &= ~reached[state];
      if (bits == 0) return;
      reached[state] |= bits;
      next->push_back({state, bits});
      if ((state & 1) != 0) {
        for (; bits != 0; bits &= bits - 1)
          dist[static_cast<std::size_t>(std::countr_zero(bits)) * n +
               (state >> 1)] = level;
        return;
      }
      if (via_switch[state >> 1] == 0) return;
      state |= 1;
    }
  };
  const auto gain = [&](std::uint32_t state, std::uint64_t bits) {
    bits &= ~reached[state];
    if (bits == 0) return;
    if (gained[state] == 0) touched.push_back(state);
    gained[state] |= bits;
  };
  for (std::size_t b = 0; b < sources.size(); ++b)
    settle(std::uint32_t{sources[b]} << 1, std::uint64_t{1} << b);
  while (!next->empty()) {
    std::swap(cur, next);
    next->clear();
    ++level;
    for (const auto& e : *cur) {
      const bool lifted = (e.state & 1) != 0;
      for (const Hop& h : hops_out(static_cast<std::uint16_t>(e.state >> 1))) {
        const std::uint32_t to = std::uint32_t{h.to} << 1;
        if (!lifted) gain(to, e.bits);
        if (lifted || via_link[h.link] != 0) gain(to | 1, e.bits);
      }
    }
    for (const auto state : touched)
      settle(state, std::exchange(gained[state], 0));
    touched.clear();
  }
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

void Router::search_block(
    std::span<const std::span<const std::uint16_t>> groups, Policy policy,
    Scratch& sc) const {
  if (groups.size() > kBlockWidth)
    throw std::invalid_argument("routes_from_block: more groups than bits");
  auto& held = sc.held;
  held.clear();
  sc.groups.clear();
  sc.sources.clear();
  std::size_t total = 0;
  for (const auto group : groups) total += group.size();
  held.reserve(total);
  sc.escaped_.assign(groups.size(), 0);
  sc.groups.reserve(groups.size());
  sc.sources.reserve(groups.size());
  for (const auto sources : groups) {
    Scratch::Group group{};
    group.begin = static_cast<std::uint32_t>(held.size());
    for (const auto s : sources) {
      if (!host_usable(s)) continue;
      if (held.size() > group.begin &&
          uplinks_[s].sw != uplinks_[held[group.begin]].sw)
        throw std::invalid_argument("routes_from: sources on several switches");
      held.push_back(s);
    }
    group.usable = static_cast<std::uint32_t>(held.size()) - group.begin;
    for (const auto s : sources)
      if (!host_usable(s)) held.push_back(s);
    group.end = static_cast<std::uint32_t>(held.size());
    // A group with no usable source gets no bit: every row is empty.
    group.bit = static_cast<std::uint32_t>(sc.sources.size());
    if (group.usable > 0) sc.sources.push_back(uplinks_[held[group.begin]].sw);
    sc.groups.push_back(group);
  }
  if (!sc.sources.empty())
    search(sc.sources, solve_flags(policy), sc.primary, sc);
}

std::size_t Router::switch_row(std::size_t g, Policy policy,
                               unsigned vc_lanes, const Reuse& reuse,
                               Scratch& sc) const {
  const Scratch::Group& group = sc.groups[g];
  if (group.usable == 0) return 0;
  // The in-transit host picks are the first source's; only kSpread's
  // depend on it, and spread_row() picks again per source.
  const auto lead = sc.held[group.begin];
  const auto ss = uplinks_[lead].sw;
  // One walk per destination switch: the path, and so the header up to its
  // last port, depends only on that switch — unless the in-transit host
  // pick hashes the pair (kSpread), which only an entry without ITBs
  // escapes. The VC-escape fallback test reads only the trunk channels, so
  // a fallback entry is shared whole.
  const auto hosts = static_cast<std::uint16_t>(uplinks_.size());
  RouteRow& row = sc.switch_row;
  row.marks_.reserve(hosts + 1u);  // one mark per host in every row
  row.reset();
  auto& walked = sc.walked;
  walked.assign(switch_count(), Scratch::kNoEntry);
  // Restricted fallback for VC-escape routes whose minimal path needs more
  // lanes than the ladder has; solved at most once per switch.
  bool escape_solved = false;
  // Kept entries come in runs, each copied whole; `cursor` follows the
  // replaced row's channel array past the entries walked instead.
  const auto keeps = [&](std::uint16_t d) {
    return reuse.row != nullptr && host_usable(d) &&
           reuse.redo[uplinks_[d].sw] == 0;
  };
  std::uint32_t cursor = 0;
  for (std::uint16_t d = 0; d < hosts; ++d) {
    if (keeps(d)) {
      auto last = static_cast<std::uint16_t>(d + 1);
      while (last < hosts && keeps(last)) ++last;
      copy_entries(*reuse.row, d, last, cursor, row, sc);
      d = static_cast<std::uint16_t>(last - 1);
      continue;
    }
    if (reuse.row != nullptr)
      cursor = std::max(cursor, reuse.row->marks_[d + 1u].channels_end);
    // Destinations cut off by the mask keep an empty entry rather than
    // throwing in extract(); the NIC backstop (and the recovery engine's
    // unreachable accounting) handles them.
    if (host_usable(d)) {
      const auto sd = uplinks_[d].sw;
      if (walked[sd] != Scratch::kNoEntry) {
        row.add_sibling(walked[sd], uplinks_[d].port);  // closes the entry
        continue;
      }
      if (sc.primary.reaches(group.bit, sd)) {
        extract(sc.primary, group.bit, lead, d, row, sc);
        if (policy == Policy::kVcEscape &&
            updown_segments(row.open_channels()) > vc_lanes) {
          if (!escape_solved) {
            search(std::span(&ss, 1),
                   {/*restrict_updown=*/true, /*allow_itb=*/false}, sc.escape,
                   sc);
            escape_solved = true;
          }
          // Overwrite this destination's entry, never append a second.
          row.truncate_open();
          extract(sc.escape, 0, lead, d, row, sc);
        }
        if (selection_ == ItbHostSelection::kLowestIndex ||
            row.open_hosts().empty())
          walked[sd] = d;
      }
    }
    row.close_entry();
  }
  sc.escaped_[g] = escape_solved;
  return group.usable;
}

void Router::copy_entries(const RouteRow& from, std::uint16_t first,
                          std::uint16_t last, std::uint32_t& cursor,
                          RouteRow& row, Scratch& sc) const {
  const RouteRow::Mark& a = from.marks_[first];
  const RouteRow::Mark& b = from.marks_[last];
  // Each array's offsets move by one amount; the unsigned sums wrap back
  // into range.
  const auto header_by =
      static_cast<std::uint32_t>(row.header_.size()) - a.header;
  const auto hosts_by =
      static_cast<std::uint32_t>(row.hosts_.size()) - a.hosts;
  const std::uint32_t owned = cursor;
  const auto channels_by =
      static_cast<std::uint32_t>(row.channels_.size()) - owned;
  for (std::uint16_t d = first; d < last; ++d) {
    RouteRow::Mark m = from.marks_[d + 1u];
    cursor = std::max(cursor, m.channels_end);
    m.header += header_by;
    m.hosts += hosts_by;
    const auto sd = uplinks_[d].sw;
    if (sc.walked[sd] != Scratch::kNoEntry) {
      const RouteRow::Mark& w = row.marks_[sc.walked[sd] + 1u];
      m.channels_begin = w.channels_begin;
      m.channels_end = w.channels_end;
    } else {
      m.channels_begin += channels_by;
      m.channels_end += channels_by;
      const RouteRow::Mark& open = row.marks_.back();
      if (m.header != open.header &&
          (selection_ == ItbHostSelection::kLowestIndex ||
           m.hosts == open.hosts))
        sc.walked[sd] = d;
    }
    row.marks_.push_back(m);
  }
  row.header_.insert(row.header_.end(), from.header_.begin() + a.header,
                     from.header_.begin() + b.header);
  row.hosts_.insert(row.hosts_.end(), from.hosts_.begin() + a.hosts,
                    from.hosts_.begin() + b.hosts);
  row.channels_.insert(row.channels_.end(), from.channels_.begin() + owned,
                       from.channels_.begin() + cursor);
  row.open_channels_ = static_cast<std::uint32_t>(row.channels_.size());
}

void Router::spread_row(std::size_t g, std::uint16_t src, RouteRow& row,
                        Scratch& sc) const {
  row = sc.switch_row;
  // The path, and so every length, stays the switch row's.
  for (std::uint16_t d = 0; d < row.size(); ++d) {
    if (row.route(src, d).itb_count() == 0) continue;
    sc.pair.reset(d);
    extract(sc.primary, sc.groups[g].bit, src, d, sc.pair, sc);
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
  return pair_row(src, dst, solve_flags(Policy::kUpDown));
}

RouteRow Router::minimal_route(std::uint16_t src, std::uint16_t dst) const {
  return pair_row(src, dst, {/*restrict_updown=*/false, /*allow_itb=*/false});
}

RouteRow Router::itb_route(std::uint16_t src, std::uint16_t dst) const {
  return pair_row(src, dst, solve_flags(Policy::kItb));
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
  std::string out = "h";
  out += std::to_string(path.src_host());
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
