#include "itb/routing/table.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <ostream>
#include <ranges>
#include <stdexcept>
#include <string>
#include <utility>

#include "itb/sim/parallel.hpp"

namespace itb::routing {

namespace {

/// Counting sort of `sources` into `order` by the switch each hangs off,
/// the cut-off hosts last as a group of their own; `begins` receives where
/// each group starts, plus the end. Returns the group count. Both buffers
/// keep their capacity.
template <std::ranges::forward_range Sources>
std::size_t group_by_switch(const Router& router, Sources&& sources,
                            std::vector<std::uint16_t>& order,
                            std::vector<std::uint32_t>& begins) {
  const std::size_t cut_off = router.topology().switch_count();
  const auto key = [&](std::uint16_t s) -> std::size_t {
    return router.host_usable(s) ? router.host_switch(s) : cut_off;
  };
  begins.assign(cut_off + 3, 0);
  for (const std::uint16_t s : sources) ++begins[key(s) + 2];
  std::partial_sum(begins.begin(), begins.end(), begins.begin());
  order.resize(begins.back());
  for (const std::uint16_t s : sources) order[begins[key(s) + 1]++] = s;
  // begins[k] is now where key k's group starts: keep each boundary once.
  begins.erase(std::unique(begins.begin(), begins.end()), begins.end());
  return begins.size() - 1;
}

auto every_host(std::size_t hosts) {
  return std::views::iota(std::uint16_t{0}, static_cast<std::uint16_t>(hosts));
}

}  // namespace

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kUpDown:
      return "up*/down*";
    case Policy::kItb:
      return "UD+ITB";
    case Policy::kVcEscape:
      return "VC-escape";
  }
  return "?";
}

const char* short_name(Policy p) {
  switch (p) {
    case Policy::kUpDown:
      return "updown";
    case Policy::kItb:
      return "itb";
    case Policy::kVcEscape:
      return "vc-escape";
  }
  return "?";
}

RouteTable::RouteTable(const Router& router, Policy policy, unsigned jobs,
                       unsigned vc_lanes)
    : policy_(policy),
      hosts_(router.topology().host_count()),
      vc_lanes_(vc_lanes),
      rows_(hosts_),
      escapes_(policy == Policy::kVcEscape ? hosts_ : 0) {
  // Unattached hosts appear in degraded topologies (fault windows that cut
  // a host off); routes_from leaves their pairs as empty entries.
  group_by_switch(router, every_host(hosts_), grouped_, group_begins_);
  solve_groups(router, jobs, {}, std::nullopt);
}

void RouteTable::solve_groups(const Router& router, unsigned jobs,
                              std::span<const Router::Reuse> reuse,
                              std::optional<std::uint64_t> gen) {
  // One task per block of consecutive switch groups, one search per block.
  // The blocks do not depend on `jobs`, and a row depends only on (router,
  // policy, switch), so neither does the table.
  constexpr std::size_t kWidth = Router::kBlockWidth;
  const std::size_t groups = group_begins_.size() - 1;
  const std::size_t blocks = (groups + kWidth - 1) / kWidth;
  const sim::ParallelRunner runner(jobs);
  struct Buffers {
    RouteRow row;
    Router::Scratch search;
  };
  std::vector<Buffers> workers(std::min<std::size_t>(runner.jobs(), blocks));
  runner.run_indexed(blocks, [&](std::size_t k, unsigned w) {
    Buffers& b = workers[w];
    const std::size_t first = k * kWidth;
    std::array<std::span<const std::uint16_t>, kWidth> spans;
    const auto block = std::span(spans).first(std::min(kWidth, groups - first));
    for (std::size_t i = 0; i < block.size(); ++i)
      block[i] = switch_group(first + i);
    router.routes_from_block(
        block, policy_, vc_lanes_, b.row, b.search,
        [this](RouteRow& row, std::span<const std::uint16_t> holders) {
          const auto shared = std::make_shared<const RouteRow>(std::move(row));
          for (const auto h : holders) rows_[h] = shared;
        },
        reuse.empty() ? reuse : reuse.subspan(first, block.size()));
    // Each worker touches only its groups' sources.
    for (std::size_t i = 0; i < block.size(); ++i)
      for (const auto s : block[i]) {
        if (!escapes_.empty())
          escapes_[s] = b.search.escaped(i) && router.host_usable(s);
        if (gen) solved_gen_[s] = *gen;
      }
  });
}

std::span<const std::uint16_t> RouteTable::switch_group(std::size_t g) const {
  return std::span(grouped_).subspan(group_begins_[g],
                                     group_begins_[g + 1] - group_begins_[g]);
}

RouteView RouteTable::route(std::uint16_t src, std::uint16_t dst) const {
  if (src >= hosts_ || dst >= hosts_ || src == dst)
    throw std::out_of_range("bad host pair");
  return rows_[src]->route(src, dst);
}

double RouteTable::average_trunk_hops() const {
  std::size_t total = 0, pairs = 0;
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      const RouteView r = rows_[s]->route(s, d);
      if (r.empty()) continue;  // the diagonal, or unreachable (degraded)
      total += r.trunk_hops();
      ++pairs;
    }
  return pairs ? static_cast<double>(total) / static_cast<double>(pairs) : 0.0;
}

double RouteTable::minimal_fraction(const Router& router, unsigned jobs) const {
  // One unrestricted search per source switch serves all its hosts.
  std::vector<std::uint16_t> order;
  std::vector<std::uint32_t> begins;
  const std::size_t groups =
      group_by_switch(router, every_host(hosts_), order, begins);
  std::vector<std::size_t> minimal_per_group(groups, 0);
  std::vector<std::size_t> pairs_per_group(groups, 0);
  sim::ParallelRunner(jobs).run_indexed(groups, [&](std::size_t g) {
    const auto lead = order[begins[g]];
    if (!router.host_usable(lead)) return;  // the cut-off hosts' empty rows
    const auto dist = router.min_hops_from_switch(router.host_switch(lead));
    for (std::size_t i = begins[g]; i < begins[g + 1]; ++i) {
      const auto s = order[i];
      for (std::uint16_t d = 0; d < hosts_; ++d) {
        const RouteView r = rows_[s]->route(s, d);
        if (r.empty()) continue;  // the diagonal, or unreachable (degraded)
        if (r.trunk_hops() == dist[router.host_switch(d)])
          ++minimal_per_group[g];
        ++pairs_per_group[g];
      }
    }
  });
  const std::size_t minimal = std::reduce(minimal_per_group.begin(),
                                          minimal_per_group.end());
  const std::size_t pairs =
      std::reduce(pairs_per_group.begin(), pairs_per_group.end());
  return pairs ? static_cast<double>(minimal) / static_cast<double>(pairs) : 1.0;
}

double RouteTable::average_itbs() const {
  std::size_t total = 0, pairs = 0;
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      const RouteView r = rows_[s]->route(s, d);
      if (r.empty()) continue;  // the diagonal, or unreachable (degraded)
      total += r.itb_count();
      ++pairs;
    }
  return pairs ? static_cast<double>(total) / static_cast<double>(pairs) : 0.0;
}

std::vector<std::uint32_t> RouteTable::channel_usage(
    const topo::Topology& topo) const {
  std::vector<std::uint32_t> usage(topo.link_count() * 2, 0);
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d)
      for (const auto& c : rows_[s]->route(s, d).trunk_channels())
        ++usage[2 * c.link + (c.forward ? 0 : 1)];
  return usage;
}

std::uint64_t RouteTable::intern_state(const Router& router) {
  const auto& topo = router.topology();
  const auto& ud = router.updown();
  std::vector<std::uint32_t> encoded(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!ud.link_usable(l))
      encoded[l] = 0xFFFFFFFFu;
    else if (const auto up = ud.up_end(l))
      encoded[l] = *up;
    else
      encoded[l] = 0xFFFFFFFEu;  // usable host link (never oriented)
  }
  // A state met again moves to the back, so the pool drops the one met
  // longest ago: a state a fault cycle returns to every other round stays.
  for (auto it = gen_states_.begin(); it != gen_states_.end(); ++it)
    if (it->encoded == encoded) {
      std::rotate(it, it + 1, gen_states_.end());
      return gen_states_.back().id;
    }
  // Bounded pool: evicting a state only loses the shortcut and the
  // take-back for rows still stamped with it (ids are never reused), never
  // soundness.
  if (gen_states_.size() >= kRememberedStates)
    gen_states_.erase(gen_states_.begin());
  gen_states_.push_back(GraphState{++next_gen_, std::move(encoded)});
  return gen_states_.back().id;
}

void RouteTable::enable_patching(const Router& router) {
  const auto& topo = router.topology();
  if (topo.host_count() != hosts_)
    throw std::invalid_argument("patching needs stable topology coordinates");
  patch_links_ = topo.link_count();
  solved_gen_.assign(hosts_, intern_state(router));
  replaced_.assign(hosts_, Replaced{});
}

PatchStats RouteTable::patch(const Router& router, const LinkDelta& delta,
                             unsigned jobs) {
  const auto& topo = router.topology();
  const std::size_t switches = topo.switch_count();
  PatchStats st;
  st.sources_total = hosts_;

  const bool enabled = patching_enabled() && patch_links_ == topo.link_count();
  const std::uint64_t target_gen = enabled ? intern_state(router) : 0;
  // Only a replaced row solved under the target state can be taken back
  // (below). Every other one goes first, so what this patch allocates can
  // reuse its memory.
  for (Replaced& r : replaced_)
    if (!enabled || r.gen != target_gen) r = {};
  std::vector<char> invalid(hosts_, 0);
  // Each routed row a re-solve may replace gets a slot: one flag per
  // destination switch, set where the row's routes must be walked again.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot_of(hosts_, kNone);
  std::vector<char> redo;

  if (delta.force_full || !enabled) {
    std::fill(invalid.begin(), invalid.end(), 1);
    st.full = true;
  } else {
    // What the delta touches. Trunk additions (including the "added" half
    // of an orientation flip) can attract routes; host-link churn changes
    // the switch's ITB candidate list, a removed host link cuts its host
    // off, and an added one restores a host (which gains a whole row) and
    // makes its switch a (potential) new phase-reset point.
    std::vector<char> removed(topo.link_count(), 0);
    std::vector<char> added(topo.link_count(), 0);
    std::vector<char> itb_dirty(switches, 0), resets(switches, 0);
    std::vector<std::uint32_t> cut_from(hosts_, kNone);  // its old switch
    std::vector<char> was_restored(hosts_, 0);
    std::vector<std::uint16_t> cut, restored;
    bool any_added = false;
    for (const bool add : {false, true})
      for (const auto lid : add ? delta.added : delta.removed) {
        const auto& l = topo.link(lid);
        const bool a_sw = l.a.node.kind == topo::NodeKind::kSwitch;
        const bool b_sw = l.b.node.kind == topo::NodeKind::kSwitch;
        if (a_sw && b_sw) {
          if (!add)
            removed[lid] = 1;
          else if (!(l.a.node == l.b.node))
            added[lid] = any_added = true;
          continue;
        }
        const auto sw = a_sw ? l.a.node.index : l.b.node.index;
        const auto host = a_sw ? l.b.node.index : l.a.node.index;
        itb_dirty[sw] = 1;
        if (add) {
          resets[sw] = was_restored[host] = any_added = true;
          restored.push_back(host);
        } else {
          cut_from[host] = sw;
          cut.push_back(host);
        }
      }
    const bool escapes_at_risk =
        !escapes_.empty() && (!delta.removed.empty() || !delta.added.empty());

    // (c)'s bound from every switch to every switch, one search per block
    // of 64 source switches, run the first time a row out of the block
    // needs it.
    constexpr std::size_t kWidth = Router::kBlockWidth;
    std::vector<std::uint32_t> via(any_added ? switches * switches : 0);
    std::vector<char> via_ready((switches + kWidth - 1) / kWidth, 0);
    Router::Scratch via_scratch;
    const auto bound_from = [&](std::uint32_t from) {
      const std::size_t first = from / kWidth * kWidth;
      if (via_ready[first / kWidth] == 0) {
        std::array<std::uint16_t, kWidth> block;
        const auto width = std::min(block.size(), switches - first);
        std::iota(block.begin(), block.begin() + width,
                  static_cast<std::uint16_t>(first));
        router.min_hops_via(std::span(block).first(width), added, resets,
                            std::span(via).subspan(first * switches,
                                                   width * switches),
                            via_scratch);
        via_ready[first / kWidth] = 1;
      }
      return std::span<const std::uint32_t>(via).subspan(from * switches,
                                                          switches);
    };

    // The hosts a stored route may lead to, by switch: those usable before
    // the delta (a cut-off host under its old switch).
    std::vector<std::uint32_t> begins(switches + 2, 0);
    std::vector<std::uint16_t> on_switch;
    const auto old_switch = [&](std::uint16_t h) {
      if (cut_from[h] != kNone) return cut_from[h];
      return router.host_usable(h) && !was_restored[h]
                 ? std::uint32_t{router.host_switch(h)}
                 : kNone;
    };
    for (std::uint16_t h = 0; h < hosts_; ++h)
      if (const auto w = old_switch(h); w != kNone) ++begins[w + 2];
    std::partial_sum(begins.begin(), begins.end(), begins.begin());
    on_switch.resize(begins.back());
    for (std::uint16_t h = 0; h < hosts_; ++h)
      if (const auto w = old_switch(h); w != kNone)
        on_switch[begins[w + 1]++] = h;

    // Flag the destination switches of `row`, the routed row out of switch
    // `from`, whose stored routes the delta can change; returns which tests
    // fired. The first host on a switch the row routes to stands for the
    // rest: they share its entry, or under kSpread its path, and so eject
    // at the same switches. With `verdict_only` it stops as soon as every
    // holder's verdict is known. A stale route decides it for all of them,
    // so every switch is tested for staleness before any for attraction,
    // and the attraction bound is searched only when none is stale.
    enum : char { kStale = 1, kAttract = 2 };
    const bool any_itb_dirty =
        std::ranges::find(itb_dirty, 1) != itb_dirty.end();
    // Per stored channel of a row: the removed links among those before.
    std::vector<std::uint32_t> crossed;
    const auto flag_row = [&](const RouteRow& row, std::uint32_t from,
                              std::span<char> flags, bool verdict_only) {
      const auto routes_to = [&row](std::uint16_t d) {
        return row.dests_[d].last != 0;
      };
      char fired = 0;
      const auto flag = [&](std::uint32_t w, char test) {
        flags[w] = 1;
        fired |= test;
      };
      // (a) a route to a cut-off host crosses its uplink; (c) an empty
      // entry toward a restored host: the addition connects it.
      for (const auto d : cut)
        if (routes_to(d)) flag(cut_from[d], kStale);
      for (const auto d : restored)
        if (!routes_to(d)) flag(router.host_switch(d), kAttract);
      if (verdict_only && (fired & kStale) != 0) return fired;
      crossed.resize(row.channels_.size() + 1);
      for (std::size_t i = 0; i < row.channels_.size(); ++i)
        crossed[i + 1] = crossed[i] + removed[row.channels_[i].link];
      // The entry of the first host on `w` the row routes to, if any.
      const auto entry_to = [&](std::uint32_t w) -> const RouteRow::Mark* {
        const auto there = std::span(on_switch).subspan(
            begins[w], begins[w + 1] - begins[w]);
        const auto d = std::ranges::find_if(there, routes_to);
        return d == there.end() ? nullptr
                                : row.marks_.data() + row.dests_[*d].entry;
      };
      // (a) the route crosses a removed trunk link or an in-transit host's
      // removed uplink; (b) it ejects at a switch whose ITB candidate list
      // changed (a cut-off in-transit host's included).
      const auto stale = [&](const RouteRow::Mark* m) {
        bool stale = crossed[m[1].channels] != crossed[m[0].channels];
        for (auto i = m[0].hosts; any_itb_dirty && i < m[1].hosts && !stale;
             ++i) {
          const auto h = row.hosts_[i];
          stale = cut_from[h] != kNone || itb_dirty[router.host_switch(h)];
        }
        return stale;
      };
      // (c) an added link or new reset point offers a walk no longer than
      // the route: hops are the primary lex key, so a tie may still win.
      const auto attracted = [&](std::span<const std::uint32_t> bound,
                                 std::uint32_t w, const RouteRow::Mark* m) {
        return bound[w] <= m[1].channels - m[0].channels;
      };
      if (!verdict_only) {
        const auto bound = any_added ? bound_from(from)
                                     : std::span<const std::uint32_t>{};
        for (std::uint32_t w = 0; w < switches; ++w) {
          const RouteRow::Mark* m = entry_to(w);
          if (m == nullptr) continue;
          if (stale(m)) flag(w, kStale);
          if (any_added && attracted(bound, w, m)) flag(w, kAttract);
        }
        return fired;
      }
      for (std::uint32_t w = 0; w < switches; ++w)
        if (const RouteRow::Mark* m = entry_to(w); m != nullptr && stale(m)) {
          flag(w, kStale);
          return fired;
        }
      if (fired != 0 || !any_added) return fired;
      const auto bound = bound_from(from);
      for (std::uint32_t w = 0; w < switches; ++w)
        if (const RouteRow::Mark* m = entry_to(w);
            m != nullptr && attracted(bound, w, m)) {
          flag(w, kAttract);
          return fired;
        }
      return fired;
    };

    // Each routed row once, at its first holder that is not skipped: the
    // holders of a row hang off one switch and share its verdict, except
    // that only a usable source can be attracted. A slot notes whether
    // every holder takes back its replaced row (below).
    struct Slot {
      const RouteRow* row;
      std::uint32_t from;
      bool all_back = true;
      char fired = 0;
    };
    std::vector<Slot> slots;
    std::vector<std::uint32_t> last_slot(switches, kNone);  // per switch
    for (std::uint16_t s = 0; s < hosts_; ++s) {
      // Generation shortcut: a source whose last re-solve ran against this
      // exact graph state needs nothing — its row IS routes_from's output
      // for the patch target, whatever the delta looks like.
      if (solved_gen_[s] == target_gen) continue;
      const RouteRow& row = *rows_[s];
      // A cut-off source's row routes nothing; only its restore touches it.
      if (!row.has_route(s)) {
        invalid[s] = was_restored[s];
        continue;
      }
      const std::uint32_t from =
          cut_from[s] != kNone ? cut_from[s] : router.host_switch(s);
      std::uint32_t slot = last_slot[from];
      if (slot == kNone || slots[slot].row != &row) {
        slot = last_slot[from] = static_cast<std::uint32_t>(slots.size());
        slots.push_back(Slot{&row, from});
      }
      slot_of[s] = slot;
      slots[slot].all_back &= replaced_[s].row != nullptr;
    }
    // A row whose holders all take back their replaced rows is walked by
    // no one, so only its verdict counts.
    redo.assign(slots.size() * switches, 0);
    for (std::size_t k = 0; k < slots.size(); ++k)
      slots[k].fired = flag_row(
          *slots[k].row, slots[k].from,
          std::span(redo).subspan(k * switches, switches), slots[k].all_back);
    for (std::uint16_t s = 0; s < hosts_; ++s) {
      if (slot_of[s] == kNone) continue;
      const char fired = slots[slot_of[s]].fired;
      invalid[s] = (escapes_at_risk && escapes_[s]) || (fired & kStale) != 0 ||
                   (router.host_usable(s) && (fired & kAttract) != 0);
    }
  }

  st.sources_resolved =
      static_cast<std::size_t>(std::count(invalid.begin(), invalid.end(), 1));

  // Take-back: a replaced row solved under the target state is what a
  // re-solve would build, so an invalidated source swaps it back in.
  for (std::uint16_t s = 0; s < replaced_.size(); ++s) {
    Replaced& r = replaced_[s];
    if (!r.row || !invalid[s]) continue;
    std::swap(rows_[s], r.row);
    std::swap(solved_gen_[s], r.gen);
    if (!escapes_.empty()) std::swap(escapes_[s], r.escape);
    invalid[s] = 0;
  }

  // Copy on write: the other re-solved sources get fresh rows. The row one
  // replaces may be installed in a NIC, which keeps it until the next
  // install — so it is never written in place.
  const std::size_t groups = group_by_switch(
      router, every_host(hosts_) | std::views::filter([&](std::uint16_t s) {
                return invalid[s] != 0;
              }),
      grouped_, group_begins_);
  // A switch group whose sources all held one routed row without an escape
  // route (a restored host held an empty one) keeps that row's unflagged
  // destinations. The row stays alive until the group's own publish: only
  // the group's holders hold it, and only their worker writes their rows.
  std::vector<Router::Reuse> reuse(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto group = switch_group(g);
    const auto lead = group.front();
    if (!router.host_usable(lead)) continue;  // the cut-off sources
    const RouteRow* replaced = rows_[lead].get();
    const bool keep =
        slot_of[lead] != kNone && (escapes_.empty() || !escapes_[lead]) &&
        std::ranges::all_of(group, [&](std::uint16_t s) {
          return rows_[s].get() == replaced;
        });
    if (!keep) {
      st.pairs_walked += switches;
      continue;
    }
    const auto redo_row =
        std::span(redo).subspan(slot_of[lead] * switches, switches);
    reuse[g] = {replaced, redo_row};
    st.pairs_walked +=
        static_cast<std::size_t>(std::ranges::count(redo_row, 1));
  }
  if (enabled)
    for (const auto s : grouped_)
      replaced_[s] = {rows_[s], solved_gen_[s],
                      escapes_.empty() ? char{0} : escapes_[s]};
  solve_groups(router, jobs, reuse,
               enabled ? std::optional(target_gen) : std::nullopt);
  return st;
}

bool operator==(const RouteTable& a, const RouteTable& b) {
  if (a.policy_ != b.policy_ || a.hosts_ != b.hosts_ ||
      (a.policy_ == Policy::kVcEscape && a.vc_lanes_ != b.vc_lanes_))
    return false;
  // Holders share rows, so each distinct pair of rows is compared once,
  // entry by entry, as stored. A holder never reads its own entry: a pair
  // that differs in that one entry alone still matches for it.
  constexpr std::size_t kNone = ~std::size_t{0}, kMany = kNone - 1;
  std::map<std::pair<const RouteRow*, const RouteRow*>, std::size_t> differs;
  for (std::uint16_t s = 0; s < a.hosts_; ++s) {
    const RouteRow& x = *a.rows_[s];
    const RouteRow& y = *b.rows_[s];
    const auto [it, fresh] = differs.try_emplace(std::pair(&x, &y), kNone);
    // One solver lays equal rows out alike.
    if (fresh && &x != &y && !(x == y)) {
      // Read from a source outside the table, which masks no entry.
      const auto outside = static_cast<std::uint16_t>(a.hosts_);
      for (std::uint16_t d = 0; d < a.hosts_ && it->second != kMany; ++d) {
        const RouteView u = x.route(outside, d);
        const RouteView v = y.route(outside, d);
        if (!std::ranges::equal(u.header(), v.header()) ||
            !std::ranges::equal(u.in_transit_hosts(), v.in_transit_hosts()) ||
            !std::ranges::equal(u.trunk_channels(), v.trunk_channels()))
          it->second = it->second == kNone ? d : kMany;
      }
    }
    if (it->second != kNone && it->second != s) return false;
  }
  return true;
}

void RouteTable::dump(std::ostream& os) const {
  os << "policy=" << to_string(policy_);
  // Lane count is part of a VC table's identity (it decides which pairs
  // fall back); keep UD/ITB headers byte-identical to the pre-engine dumps.
  if (policy_ == Policy::kVcEscape) os << " lanes=" << vc_lanes_;
  os << " hosts=" << hosts_ << "\n";
  // A 1024-host table has a million lines: format them into a buffer and
  // hand the stream whole blocks.
  std::string buf;
  const auto put = [&buf](std::uint32_t v) {
    char digits[10];
    buf.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
  };
  for (std::uint16_t s = 0; s < hosts_; ++s)
    for (std::uint16_t d = 0; d < hosts_; ++d) {
      if (s == d) continue;
      const RouteView r = rows_[s]->route(s, d);
      put(s);
      buf += '>';
      put(d);
      buf += " seg";
      for (std::size_t i = 0; i < r.segment_count(); ++i) {
        buf += ':';
        for (auto port : r.segment(i)) {
          buf += ' ';
          put(port);
        }
      }
      buf += " itb";
      for (auto h : r.in_transit_hosts()) {
        buf += ' ';
        put(h);
      }
      buf += " ch";
      for (const auto& c : r.trunk_channels()) {
        buf += ' ';
        put(c.link);
        buf += c.forward ? '+' : '-';
      }
      buf += '\n';
      if (buf.size() >= 64 * 1024) {
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace itb::routing
