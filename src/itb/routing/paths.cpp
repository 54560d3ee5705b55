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
std::size_t segment_end(const packet::HeaderView& header, std::size_t pos) {
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
  const auto at = [this](std::size_t i) {
    return header_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  return SegmentPorts(
      std::ranges::subrange(at(pos), at(segment_end(header_, pos))), PortOf{});
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
  marks_.assign(1, Mark{});
  header_.clear();
  hosts_.clear();
  channels_.clear();
  dests_.clear();
}

RouteView RouteRow::route(std::uint16_t src, std::uint16_t dst) const {
  const std::size_t i = static_cast<std::size_t>(dst) - first_;
  if (dst < first_ || i >= size())
    throw std::out_of_range("destination outside the route row");
  RouteView v;
  v.src_ = src;
  v.dst_ = dst;
  const Dest t = dests_[i];
  // The diagonal's route serves the host's switch-mates.
  if (dst == src || t.last == 0) return v;
  const Mark& a = marks_[t.entry];
  const Mark& b = marks_[t.entry + 1u];
  v.header_ = packet::HeaderView(
      std::span(header_).subspan(a.header, b.header - a.header), t.last);
  v.hosts_ = std::span(hosts_).subspan(a.hosts, b.hosts - a.hosts);
  v.channels_ =
      std::span(channels_).subspan(a.channels, b.channels - a.channels);
  return v;
}

bool RouteRow::has_route(std::uint16_t dst) const {
  const std::size_t i = static_cast<std::size_t>(dst) - first_;
  if (dst < first_ || i >= size())
    throw std::out_of_range("destination outside the route row");
  return dests_[i].last != 0;
}

void RouteRow::add(const std::vector<packet::Route>& segments,
                   std::span<const std::uint16_t> in_transit_hosts,
                   std::span<const topo::Channel> trunk_channels) {
  Dest t;
  const std::size_t start = header_.size();
  if (!segments.empty()) {
    try {
      packet::append_header(header_, segments);
    } catch (...) {
      header_.resize(start);  // leave the row as it was
      throw;
    }
  }
  if (header_.size() > start) {
    t.last = header_.back();
    header_.pop_back();
    hosts_.insert(hosts_.end(), in_transit_hosts.begin(),
                  in_transit_hosts.end());
    channels_.insert(channels_.end(), trunk_channels.begin(),
                     trunk_channels.end());
    t.entry = close_entry();
  }
  dests_.push_back(t);
}

void RouteRow::add(const RouteView& route) {
  Dest t;
  if (!route.empty()) {
    const packet::HeaderView header = route.header();
    header_.insert(header_.end(), header.body().begin(), header.body().end());
    hosts_.insert(hosts_.end(), route.in_transit_hosts().begin(),
                  route.in_transit_hosts().end());
    channels_.insert(channels_.end(), route.trunk_channels().begin(),
                     route.trunk_channels().end());
    t = Dest{close_entry(), header.last()};
  }
  dests_.push_back(t);
}

std::uint16_t RouteRow::close_entry() {
  if (marks_.empty()) marks_.push_back(Mark{});
  marks_.push_back(Mark{static_cast<std::uint32_t>(header_.size()),
                        static_cast<std::uint32_t>(hosts_.size()),
                        static_cast<std::uint32_t>(channels_.size())});
  return static_cast<std::uint16_t>(marks_.size() - 2);
}

void RouteRow::truncate_open() {
  const Mark& m = marks_.back();
  header_.resize(m.header);
  hosts_.resize(m.hosts);
  channels_.resize(m.channels);
}

std::span<const topo::Channel> RouteRow::open_channels() const {
  return std::span(channels_).subspan(marks_.back().channels);
}

void RouteRow::append_entries(const RouteRow& from, std::uint32_t first,
                              std::uint32_t last) {
  const Mark& a = from.marks_[first];
  const Mark& b = from.marks_[last];
  // Each array's offsets move by one amount; the unsigned sums wrap back
  // into range. By value: the pushes below may reallocate.
  const Mark open = marks_.back();
  for (std::uint32_t e = first + 1; e <= last; ++e) {
    const Mark& m = from.marks_[e];
    marks_.push_back(Mark{m.header - a.header + open.header,
                          m.hosts - a.hosts + open.hosts,
                          m.channels - a.channels + open.channels});
  }
  header_.insert(header_.end(), from.header_.begin() + a.header,
                 from.header_.begin() + b.header);
  hosts_.insert(hosts_.end(), from.hosts_.begin() + a.hosts,
                from.hosts_.begin() + b.hosts);
  channels_.insert(channels_.end(), from.channels_.begin() + a.channels,
                   from.channels_.begin() + b.channels);
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

std::span<const Router::ItbCandidate> Router::hosts_on(std::uint16_t sw) const {
  return std::span(itb_hosts_).subspan(
      offsets_[sw].itbs, offsets_[sw + 1].itbs - offsets_[sw].itbs);
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
  // A sub-level touches a state at most once: sized once here, these grow
  // only past a level holding a state in several sub-levels.
  touched.reserve(states);
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
                     std::uint16_t dst_host, RouteRow& row) const {
  const Uplink& dst_up = uplinks_[dst_host];
  if (!s.reaches(bit, dst_up.sw))
    throw std::logic_error("no route between hosts (disconnected?)");
  const std::uint32_t* pred = s.pred.data() + bit * s.states;
  // The cheaper phase at the destination switch.
  std::uint32_t state = (std::uint32_t{dst_up.sw} << 1) |
                        static_cast<std::uint32_t>(s.down_first[dst_up.sw] >> bit & 1);

  // Walk the (switch, action) chain from the destination back to the
  // source, writing the header, in-transit hosts and channels back to
  // front as it goes. Each predecessor sits at a lower level, so the walk
  // ends at the source.
  const std::size_t hosts_at = row.hosts_.size();
  const std::size_t channels_at = row.channels_.size();
  packet::HeaderEncoder header(row.header_);
  header.port(dst_up.port);
  for (std::uint32_t p = pred[state]; p != kSourcePred; p = pred[state]) {
    const auto sw = static_cast<std::uint16_t>(state >> 1);
    const std::uint32_t index = p & 0xFFu;
    if (index == kResetIndex) {
      // Ejection: the segment ends with the port to the in-transit host;
      // the next segment resumes at the same switch behind an ITB tag.
      const ItbCandidate& itb = pick_itb(sw, src_host, dst_host);
      header.itb();
      header.port(itb.port);
      row.hosts_.push_back(itb.host);
    } else {
      const Hop& h = hops_[in_hops_[offsets_[sw].in + index]];
      header.port(h.out_port);
      row.channels_.push_back(topo::Channel{h.link, h.forward});
    }
    state = p >> 8;
  }
  header.finish();
  // The Length fields count the final route byte, which the row keeps
  // per destination host instead.
  row.header_.pop_back();
  std::reverse(row.hosts_.begin() + static_cast<std::ptrdiff_t>(hosts_at),
               row.hosts_.end());
  std::reverse(
      row.channels_.begin() + static_cast<std::ptrdiff_t>(channels_at),
      row.channels_.end());
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
  extract(sc.primary, 0, src_host, dst_host, row);
  row.dests_.push_back(RouteRow::Dest{
      row.close_entry(), packet::encode_route_byte(uplinks_[dst_host].port)});
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
  RouteRow& row = sc.switch_row;
  row.reset();
  // Destinations cut off by the mask, or on a switch the search did not
  // reach, keep no entry rather than throwing in extract(); the NIC
  // backstop (and the recovery engine's unreachable accounting) handles
  // them.
  row.dests_.assign(uplinks_.size(), RouteRow::Dest{});
  // Restricted fallback for VC-escape routes whose minimal path needs more
  // lanes than the ladder has; solved at most once per switch.
  bool escape_solved = false;
  // One destination host's route as a new entry; returns its index. The
  // VC-escape fallback test reads only the trunk channels.
  const auto walk = [&](std::uint16_t d) {
    extract(sc.primary, group.bit, lead, d, row);
    if (policy == Policy::kVcEscape &&
        updown_segments(row.open_channels()) > vc_lanes) {
      if (!escape_solved) {
        search(std::span(&ss, 1),
               {/*restrict_updown=*/true, /*allow_itb=*/false}, sc.escape, sc);
        escape_solved = true;
      }
      // Overwrite this destination's entry, never append a second.
      row.truncate_open();
      extract(sc.escape, 0, lead, d, row);
    }
    return row.close_entry();
  };
  // Kept switches come in runs, each run's entries of the replaced row
  // copied whole: [begin, end) of them, landing `shift` entries later.
  const RouteRow* const from = reuse.row;
  std::uint32_t begin = 0, end = 0;
  std::uint16_t shift = 0;
  const auto copy_run = [&] {
    if (end > begin) row.append_entries(*from, begin, end);
    begin = end = 0;
  };
  for (std::uint16_t w = 0; w < switch_count(); ++w) {
    const auto hosts = hosts_on(w);
    if (from != nullptr && reuse.redo[w] == 0) {
      for (const ItbCandidate& h : hosts) {
        RouteRow::Dest t = from->dests_[h.host];
        if (t.last == 0) continue;
        if (end == begin) {
          begin = t.entry;
          shift = static_cast<std::uint16_t>(row.entry_count() - t.entry);
        }
        end = t.entry + 1u;
        t.entry = static_cast<std::uint16_t>(t.entry + shift);
        row.dests_[h.host] = t;
      }
      continue;
    }
    copy_run();
    if (hosts.empty() || !sc.primary.reaches(group.bit, w)) continue;
    // One walk per destination switch: the path, and so every header byte
    // but the last, depends only on the switch — unless the in-transit
    // host pick hashes the pair (kSpread), which only a route without
    // ITBs escapes.
    const std::uint16_t e = walk(hosts.front().host);
    const bool shared = selection_ == ItbHostSelection::kLowestIndex ||
                        row.marks_[e].hosts == row.marks_[e + 1u].hosts;
    for (const ItbCandidate& h : hosts)
      row.dests_[h.host] = RouteRow::Dest{
          shared || h.host == hosts.front().host ? e : walk(h.host),
          packet::encode_route_byte(h.port)};
  }
  copy_run();
  sc.escaped_[g] = escape_solved;
  return group.usable;
}

void Router::spread_row(std::size_t g, std::uint16_t src, RouteRow& row,
                        Scratch& sc) const {
  row = sc.switch_row;
  // Each in-transit route has an entry of its own; its path, and so every
  // length, stays the switch row's.
  for (std::uint16_t d = 0; d < row.size(); ++d) {
    const RouteRow::Dest t = row.dests_[d];
    if (t.last == 0) continue;
    const RouteRow::Mark& m = row.marks_[t.entry];
    if (m.hosts == row.marks_[t.entry + 1u].hosts) continue;
    sc.pair.reset(d);
    extract(sc.primary, sc.groups[g].bit, src, d, sc.pair);
    std::ranges::copy(sc.pair.header_, row.header_.begin() + m.header);
    std::ranges::copy(sc.pair.hosts_, row.hosts_.begin() + m.hosts);
  }
}

void Router::empty_row(RouteRow& row) const {
  row.reset();
  row.dests_.assign(uplinks_.size(), RouteRow::Dest{});
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
