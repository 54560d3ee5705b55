#include "itb/fault/recovery.hpp"

#include <algorithm>
#include <cmath>

namespace itb::fault {
namespace {

// The modelled cost charged between the coalesced fire and the table
// install: kProbeCost per probe actually sent plus kPerSourceCost per
// source re-solved. This is what makes scoped recovery FASTER in sim time,
// not just in host CPU.
constexpr sim::Duration kProbeCost = 1 * sim::kUs;
constexpr sim::Duration kPerSourceCost = 2 * sim::kUs;

// Flap quarantine: >= kFlapThreshold usability transitions of one link
// within kFlapWindow park it for kQuarantineBase * kQuarantineBackoff^level
// (capped at kQuarantineMax); a link that stays quiet for kFlapWindow after
// its last transition resets its backoff level.
constexpr int kFlapThreshold = 4;
constexpr sim::Duration kFlapWindow = 5 * sim::kMs;
constexpr sim::Duration kQuarantineBase = 2 * sim::kMs;
constexpr double kQuarantineBackoff = 2.0;
constexpr sim::Duration kQuarantineMax = 50 * sim::kMs;

}  // namespace

RecoveryManager::RecoveryManager(sim::EventQueue& queue,
                                 const topo::Topology& fabric,
                                 FaultInjector& injector,
                                 std::vector<nic::Nic*> nics,
                                 engine::DeadlockEngine& engine, Config config)
    : queue_(queue),
      fabric_(fabric),
      injector_(injector),
      nics_(std::move(nics)),
      engine_(engine),
      config_(config),
      pending_flag_(fabric.link_count(), 0),
      flap_(fabric.link_count()) {
  pending_links_.reserve(config_.tuning.max_pending_links);
  injector_.add_topology_listener(
      [this](sim::Time t, const FaultWindow& w) { on_topology_event(t, w); });
}

std::vector<topo::LinkId> RecoveryManager::affected_links(
    const FaultWindow& w) const {
  switch (w.kind) {
    case FaultKind::kLinkDown:
      return {static_cast<topo::LinkId>(w.target)};
    case FaultKind::kHostDown: {
      const auto l = fabric_.link_at(
          topo::host_id(static_cast<std::uint16_t>(w.target)), 0);
      if (l) return {*l};
      return {};
    }
    case FaultKind::kSwitchDown:
      return fabric_.links_of(
          topo::switch_id(static_cast<std::uint16_t>(w.target)));
    default:
      return {};
  }
}

void RecoveryManager::on_topology_event(sim::Time t, const FaultWindow& w) {
  bool any = false;
  for (auto l : affected_links(w)) {
    note_flap(l, t);
    note_dirty(l);
    any = true;
  }
  if (any) arm(t);
}

void RecoveryManager::note_flap(topo::LinkId link, sim::Time t) {
  auto& f = flap_[link];
  if (t - f.window_start > kFlapWindow) {
    f.window_start = t;
    f.transitions = 0;
  }
  ++f.transitions;
  f.last_transition = t;
  if (f.quarantined || f.transitions < kFlapThreshold) return;

  // Quarantine: park the link (masked down for routing regardless of its
  // real state) with exponential backoff on repeat offenders.
  f.quarantined = true;
  ++stats_.flaps_quarantined;
  const double scale =
      std::pow(kQuarantineBackoff, f.backoff_level);
  ++f.backoff_level;
  const auto dur = static_cast<sim::Duration>(std::min(
      static_cast<double>(kQuarantineMax),
      static_cast<double>(kQuarantineBase) * scale));
  queue_.schedule_in(dur, [this, link] { requalify(link); });
}

void RecoveryManager::requalify(topo::LinkId link) {
  auto& f = flap_[link];
  f.quarantined = false;
  // Quiet through the whole quarantine -> first offence pricing again.
  if (queue_.now() - f.last_transition >= kFlapWindow)
    f.backoff_level = 0;
  note_dirty(link);
  arm(queue_.now());
}

void RecoveryManager::note_dirty(topo::LinkId link) {
  if (pending_flag_[link]) return;
  pending_flag_[link] = 1;
  if (pending_links_.size() >= config_.tuning.max_pending_links)
    pending_overflow_ = true;  // storm: degrade the next round to full
  else
    pending_links_.push_back(link);
}

void RecoveryManager::arm(sim::Time event_time) {
  if (!pending_fresh_) {
    pending_fresh_ = true;
    oldest_pending_ = event_time;
  }
  switch (phase_) {
    case Phase::kIdle:
      phase_ = Phase::kArmed;
      queue_.schedule_in(config_.remap_delay, [this] { fire(); });
      break;
    case Phase::kArmed:
      ++stats_.coalesced_events;  // leading edge: folded, not postponed
      break;
    case Phase::kComputing:
      break;  // buffered; install() re-arms
  }
}

std::vector<char> RecoveryManager::current_mask() const {
  std::vector<char> mask(fabric_.link_count(), 1);
  for (topo::LinkId l = 0; l < fabric_.link_count(); ++l)
    mask[l] = !injector_.link_impaired(l) && !flap_[l].quarantined;
  return mask;
}

std::optional<std::uint16_t> RecoveryManager::elect_root(
    const std::vector<char>& mask) const {
  const auto live = [&](std::uint16_t h) {
    if (!fabric_.host_attached(h) || injector_.host_down(h)) return false;
    return mask[*fabric_.link_at(topo::host_id(h), 0)] != 0;
  };
  if (live(config_.preferred_root_host)) return config_.preferred_root_host;
  for (std::uint16_t h = 0; h < fabric_.host_count(); ++h)
    if (live(h)) return h;
  return std::nullopt;
}

void RecoveryManager::fire() {
  phase_ = Phase::kComputing;
  round_links_ = std::move(pending_links_);
  pending_links_.clear();
  for (auto l : round_links_) pending_flag_[l] = 0;
  const bool overflow = pending_overflow_;
  pending_overflow_ = false;
  round_oldest_ = oldest_pending_;
  pending_fresh_ = false;

  const auto mask = current_mask();
  const auto root = elect_root(mask);
  if (!root) {
    ++stats_.failed_remaps;
    // Keep the changes pending: the next window edge re-arms a round that
    // will still see them (the delta diffs against the last computed mask).
    phase_ = Phase::kIdle;
    for (auto l : round_links_) note_dirty(l);
    pending_overflow_ |= overflow;
    pending_fresh_ = true;
    oldest_pending_ = round_oldest_;
    return;
  }
  const auto root_sw = fabric_.host_uplink(*root).node.index;

  // Scoped re-probe when the previous walk is reusable; a root move or a
  // storm-control overflow falls back to a cold walk.
  const bool can_scope = config_.tuning.incremental && reach_.has_value() &&
                         !overflow && root_sw == last_root_switch_;
  auto reach = can_scope ? mapper::rediscover_scoped(fabric_, *root, mask,
                                                     *reach_, round_links_)
                         : mapper::discover_reachability(fabric_, *root, mask);

  auto new_ud = std::make_unique<routing::UpDown>(fabric_, root_sw, mask);
  auto new_router =
      std::make_unique<routing::Router>(*new_ud, config_.selection);

  const auto hosts = fabric_.host_count();
  const bool full = !config_.tuning.incremental || !table_ || overflow ||
                    root_sw != last_root_switch_ || !table_->patching_enabled();
  std::uint64_t sources_resolved = 0;
  std::uint64_t pairs_walked = 0;
  if (full) {
    table_.emplace(*new_router, engine_.policy(), config_.route_jobs,
                   engine_.lane_count());
    if (config_.tuning.incremental) table_->enable_patching(*new_router);
    sources_resolved = hosts;
    ++stats_.full_resolves;
    if (overflow) ++stats_.overflow_full_resolves;
  } else {
    // Diff usability + orientation over EVERY link between the last
    // computed orientation and the new one: this subsumes the dirty set
    // (quarantine, reachability cut-offs and BFS-tree moves included). An
    // orientation flip is a removal plus an addition.
    routing::LinkDelta delta;
    for (topo::LinkId l = 0; l < fabric_.link_count(); ++l) {
      const bool was = updown_->link_usable(l);
      const bool now_u = new_ud->link_usable(l);
      if (was && !now_u)
        delta.removed.push_back(l);
      else if (!was && now_u)
        delta.added.push_back(l);
      else if (was && now_u && updown_->up_end(l) != new_ud->up_end(l)) {
        delta.removed.push_back(l);
        delta.added.push_back(l);
      }
    }
    const auto ps = table_->patch(*new_router, delta, config_.route_jobs);
    sources_resolved = ps.sources_resolved;
    pairs_walked = ps.pairs_walked;
    ++stats_.patch_rounds;
    if (config_.tuning.verify_patches) {
      routing::RouteTable fresh(*new_router, engine_.policy(),
                                config_.route_jobs, engine_.lane_count());
      if (*table_ != fresh) {
        ++stats_.verify_fallbacks;
        table_.emplace(std::move(fresh));
        table_->enable_patching(*new_router);
        sources_resolved = hosts;
      }
    }
  }

  updown_ = std::move(new_ud);
  router_ = std::move(new_router);
  last_root_switch_ = root_sw;

  round_info_ = RoundInfo{};
  round_info_.fired = queue_.now();
  round_info_.full = full;
  round_info_.probes = reach.probes_sent;
  round_info_.full_walk_probes = reach.full_walk_probes;
  round_info_.sources_resolved = sources_resolved;
  round_info_.sources_total = hosts;
  round_info_.pairs_walked = pairs_walked;
  round_unreachable_ = 0;
  for (std::uint16_t h = 0; h < hosts; ++h)
    if (!reach.host_up[h]) ++round_unreachable_;
  reach_ = std::move(reach);

  // The modelled recompute/download time: scoped rounds install sooner.
  const auto cost = static_cast<sim::Duration>(
      kProbeCost * round_info_.probes +
      kPerSourceCost * sources_resolved);
  queue_.schedule_in(cost, [this] { install(); });
}

void RecoveryManager::install() {
  // Solved over the TRUE fabric (usability-masked): no switch translation.
  engine_.bind(*updown_, fabric_, {});
  table_->set_epoch(++epoch_);
  for (nic::Nic* nic : nics_) nic->load_routes(*table_);

  ++stats_.remaps;
  stats_.unreachable_hosts = round_unreachable_;
  stats_.scoped_probes += round_info_.probes;
  stats_.full_probe_equiv += round_info_.full_walk_probes;
  stats_.sources_patched += round_info_.sources_resolved;
  stats_.sources_total += round_info_.sources_total;

  round_info_.installed = queue_.now();
  rounds_.push_back(round_info_);
  latency_.add(static_cast<double>(queue_.now() - round_oldest_));

  phase_ = Phase::kIdle;
  if (pending_fresh_) {
    // Events landed while we were computing: their leading edge may already
    // be past, so fire as soon as the delay (measured from THEIR oldest
    // event) allows.
    phase_ = Phase::kArmed;
    const auto due = oldest_pending_ + config_.remap_delay;
    const auto now = queue_.now();
    queue_.schedule_in(due > now ? due - now : 0, [this] { fire(); });
  }
}

std::unique_ptr<telemetry::MetricTable> RecoveryManager::fault_table() const {
  using enum telemetry::MetricKind;
  using telemetry::stat;
  using R = RecoveryManager;
  static constexpr telemetry::Field<R> kFields[] = {
      {"remaps", kCounter, stat<R, &Stats::remaps>},
      {"failed_remaps", kCounter, stat<R, &Stats::failed_remaps>},
      {"recovery_latency_p50_ns", kGauge,
       [](const R& r) {
         return r.latency_.empty() ? 0.0 : r.latency_.percentile(50);
       }},
      {"recovery_latency_p99_ns", kGauge,
       [](const R& r) {
         return r.latency_.empty() ? 0.0 : r.latency_.percentile(99);
       }},
      {"recovery_latency_max_ns", kGauge,
       [](const R& r) { return double(r.latency_.max()); }},
      {"unreachable_hosts", kGauge, stat<R, &Stats::unreachable_hosts>},
  };
  return telemetry::make_table("fault", kFields, *this);
}

std::unique_ptr<telemetry::MetricTable> RecoveryManager::metric_table() const {
  using enum telemetry::MetricKind;
  using telemetry::stat;
  using R = RecoveryManager;
  static constexpr telemetry::Field<R> kFields[] = {
      {"scoped_probes", kCounter, stat<R, &Stats::scoped_probes>},
      {"full_probe_equiv", kCounter, stat<R, &Stats::full_probe_equiv>},
      {"sources_patched", kCounter, stat<R, &Stats::sources_patched>},
      {"sources_total", kCounter, stat<R, &Stats::sources_total>},
      {"flaps_quarantined", kCounter, stat<R, &Stats::flaps_quarantined>},
      {"coalesced_events", kCounter, stat<R, &Stats::coalesced_events>},
      {"full_resolves", kCounter, stat<R, &Stats::full_resolves>},
      {"patch_rounds", kCounter, stat<R, &Stats::patch_rounds>},
      {"overflow_full_resolves", kCounter,
       stat<R, &Stats::overflow_full_resolves>},
      {"verify_fallbacks", kCounter, stat<R, &Stats::verify_fallbacks>},
      {"epoch", kGauge, [](const R& r) { return double(r.epoch()); }},
  };
  return telemetry::make_table("recovery", kFields, *this);
}

}  // namespace itb::fault
