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
      rows_(hosts_) {
  // Unattached hosts appear in degraded topologies (fault windows that cut
  // a host off); routes_from leaves their pairs as empty entries.
  group_by_switch(router, every_host(hosts_), grouped_, group_begins_);
  solve_groups(router, jobs, std::nullopt);
}

void RouteTable::solve_groups(const Router& router, unsigned jobs,
                              std::optional<std::uint64_t> index_gen) {
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
        });
    if (index_gen)
      for (const auto group : block) {
        index_group(router, group);  // each worker touches only its groups
        for (const auto s : group) solved_gen_[s] = *index_gen;
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

void RouteTable::index_group(const Router& router,
                             std::span<const std::uint16_t> group) {
  // VC-escape's fallback mark compares against minimal distances, which
  // depend only on the switch.
  const auto lead = group.front();
  const auto min_hops = policy_ == Policy::kVcEscape && router.host_usable(lead)
                            ? router.min_hops_from_switch(router.host_switch(lead))
                            : std::vector<std::uint32_t>{};
  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto s = group[i];
    const auto earlier = group.first(i);
    const auto holder =
        std::ranges::find(earlier, rows_[s].get(),
                          [this](std::uint16_t h) { return rows_[h].get(); });
    index_[s] = holder != earlier.end() ? index_[*holder]
                                        : index_row(router, s, min_hops);
  }
}

std::shared_ptr<const RouteTable::RowIndex> RouteTable::index_row(
    const Router& router, std::uint16_t src,
    std::span<const std::uint32_t> min_hops) const {
  auto index = std::make_shared<RowIndex>();
  auto& lu = index->links_used;
  auto& iu = index->itb_switch_used;
  lu.assign(router.topology().link_count(), 0);
  iu.assign(router.topology().switch_count(), 0);
  // Every host a stored route touches was usable under `router`, which
  // solved the row: its uplink is known there.
  const RouteRow& row = *rows_[src];
  // Each shared trunk-channel range once, rather than once per entry, and
  // every entry's in-transit hosts: the diagonal entry, a route to a
  // switch-mate, has none.
  for (const auto& c : row.stored_channels()) lu[c.link] = 1;
  for (const auto h : row.stored_hosts()) {
    lu[router.host_link(h)] = 1;
    iu[router.host_switch(h)] = 1;
  }
  // Read as `src` reads it. Any other holder reads the same routes: its
  // entry toward `src` and src's toward it reach the two uplinks.
  bool any = false;
  for (std::uint16_t d = 0; d < hosts_; ++d) {
    if (d == src || !row.has_route(d)) continue;
    any = true;
    lu[router.host_link(d)] = 1;
    // A VC route longer than its minimal distance is an escape fallback
    // (see RowIndex::vc_fallback).
    if (policy_ == Policy::kVcEscape &&
        row.route(src, d).trunk_hops() > min_hops[router.host_switch(d)])
      index->vc_fallback = true;
  }
  // The source's own uplink carries every nonempty route.
  if (any) lu[router.host_link(src)] = 1;
  return index;
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
  for (const auto& gs : gen_states_)
    if (gs.encoded == encoded) return gs.id;
  // Bounded pool: evicting an old state only loses the shortcut for
  // sources still stamped with it (ids are never reused), never soundness.
  if (gen_states_.size() >= 64) gen_states_.erase(gen_states_.begin());
  gen_states_.push_back(GraphState{++next_gen_, std::move(encoded)});
  return gen_states_.back().id;
}

void RouteTable::enable_patching(const Router& router) {
  const auto& topo = router.topology();
  if (topo.host_count() != hosts_)
    throw std::invalid_argument("patching needs stable topology coordinates");
  index_.assign(hosts_, nullptr);
  const std::size_t groups =
      group_by_switch(router, every_host(hosts_), grouped_, group_begins_);
  for (std::size_t g = 0; g < groups; ++g) index_group(router, switch_group(g));
  solved_gen_.assign(hosts_, intern_state(router));
}

PatchStats RouteTable::patch(const Router& router, const LinkDelta& delta,
                             unsigned jobs) {
  const auto& topo = router.topology();
  PatchStats st;
  st.sources_total = hosts_;

  const bool indexed =
      index_.size() == hosts_ &&
      (hosts_ == 0 || index_[0]->links_used.size() == topo.link_count());
  std::vector<char> invalid(hosts_, 0);
  const std::uint64_t target_gen = indexed ? intern_state(router) : 0;

  if (delta.force_full || !indexed) {
    std::fill(invalid.begin(), invalid.end(), 1);
    st.full = true;
  } else {
    // Classify the delta. Trunk additions (including the "added" half of an
    // orientation flip) become attraction tests; host-link churn marks the
    // switch's ITB candidate list dirty, and an added host link additionally
    // makes its switch a (potential) new phase-reset point.
    struct Attract {
      std::vector<std::uint32_t> da, db;  // db empty = reuse da (ITB point)
      std::uint32_t extra;                // hop cost of crossing the link
    };
    std::vector<Attract> attracts;
    std::vector<char> itb_dirty(topo.switch_count(), 0);
    bool any_itb_dirty = false;

    const auto classify = [&](topo::LinkId lid, bool added) {
      const auto& l = topo.link(lid);
      const bool a_sw = l.a.node.kind == topo::NodeKind::kSwitch;
      const bool b_sw = l.b.node.kind == topo::NodeKind::kSwitch;
      if (a_sw && b_sw) {
        if (added && !(l.a.node == l.b.node))
          attracts.push_back(
              Attract{router.min_hops_from_switch(l.a.node.index),
                      router.min_hops_from_switch(l.b.node.index), 1});
        return;
      }
      const auto sw = a_sw ? l.a.node.index : l.b.node.index;
      const auto host = a_sw ? l.b.node.index : l.a.node.index;
      itb_dirty[sw] = 1;
      any_itb_dirty = true;
      if (added) {
        invalid[host] = 1;  // the restored host gains a whole row
        attracts.push_back(
            Attract{router.min_hops_from_switch(sw), {}, 0});
      }
    };
    for (auto l : delta.removed) classify(l, /*added=*/false);
    for (auto l : delta.added) classify(l, /*added=*/true);

    // Generation shortcut: a source whose last re-solve ran against this
    // exact graph state needs nothing — its row IS routes_from's output
    // for the patch target, whatever the delta looks like.
    for (std::uint16_t s = 0; s < hosts_; ++s)
      if (solved_gen_[s] == target_gen) invalid[s] = 0;

    // VC-escape fallback rows depend on the whole orientation, not just the
    // links they traverse — conservatively re-solve their sources on any
    // non-empty delta (unless the generation shortcut already proved them).
    if (policy_ == Policy::kVcEscape &&
        (!delta.removed.empty() || !delta.added.empty()))
      for (std::uint16_t s = 0; s < hosts_; ++s)
        if (index_[s]->vc_fallback && solved_gen_[s] != target_gen)
          invalid[s] = 1;

    // (a) a stored route traverses a removed link; (b) an ITB candidate
    // list the source depends on changed.
    for (std::uint16_t s = 0; s < hosts_; ++s) {
      if (invalid[s] || solved_gen_[s] == target_gen) continue;
      const RowIndex& index = *index_[s];
      for (auto l : delta.removed)
        if (index.links_used[l]) {
          invalid[s] = 1;
          break;
        }
      if (invalid[s] || !any_itb_dirty) continue;
      for (std::uint16_t sw = 0; sw < itb_dirty.size(); ++sw)
        if (itb_dirty[sw] && index.itb_switch_used[sw]) {
          invalid[s] = 1;
          break;
        }
    }

    // (c) an added link (or new reset point) could attract the source: the
    // unrestricted hop distance through it lower-bounds any restricted
    // route, and hops are the primary lex key — so bound > stored hops
    // proves the stored row survives; bound <= means a shorter OR
    // equal-cost canonical winner may exist, re-solve. Empty entries toward
    // usable destinations are conservatively re-solved too (the addition
    // may have connected them).
    if (!attracts.empty()) {
      constexpr std::uint64_t kInf = std::numeric_limits<std::uint32_t>::max();
      for (std::uint16_t s = 0; s < hosts_; ++s) {
        if (invalid[s] || solved_gen_[s] == target_gen ||
            !router.host_usable(s))
          continue;
        const auto ss = router.host_switch(s);
        for (std::uint16_t d = 0; d < hosts_ && !invalid[s]; ++d) {
          if (d == s || !router.host_usable(d)) continue;
          const RouteView r = rows_[s]->route(s, d);
          if (r.empty()) {
            invalid[s] = 1;
            break;
          }
          const auto sd = router.host_switch(d);
          const std::uint64_t stored = r.trunk_hops();
          for (const auto& a : attracts) {
            const auto& db = a.db.empty() ? a.da : a.db;
            const std::uint64_t fwd =
                std::min(kInf, static_cast<std::uint64_t>(a.da[ss]) +
                                   a.extra + db[sd]);
            const std::uint64_t rev =
                std::min(kInf, static_cast<std::uint64_t>(db[ss]) + a.extra +
                                   a.da[sd]);
            if (std::min(fwd, rev) <= stored) {
              invalid[s] = 1;
              break;
            }
          }
        }
      }
    }
  }

  st.sources_resolved =
      static_cast<std::size_t>(std::count(invalid.begin(), invalid.end(), 1));

  // Copy on write: the re-solved sources get fresh rows. The row one
  // replaces may be installed in a NIC, which keeps it until the next
  // install — so it is never written in place.
  group_by_switch(router,
                  every_host(hosts_) | std::views::filter([&](std::uint16_t s) {
                    return invalid[s] != 0;
                  }),
                  grouped_, group_begins_);
  solve_groups(router, jobs,
               indexed ? std::optional(target_gen) : std::nullopt);
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
