#include "itb/fault/recovery.hpp"

#include <algorithm>
#include <cmath>

namespace itb::fault {

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
  if (t - f.window_start > config_.tuning.flap_window) {
    f.window_start = t;
    f.transitions = 0;
  }
  ++f.transitions;
  f.last_transition = t;
  if (f.quarantined || f.transitions < config_.tuning.flap_threshold) return;

  // Quarantine: park the link (masked down for routing regardless of its
  // real state) with exponential backoff on repeat offenders.
  f.quarantined = true;
  ++stats_.flaps_quarantined;
  const double scale =
      std::pow(config_.tuning.quarantine_backoff, f.backoff_level);
  ++f.backoff_level;
  const auto dur = static_cast<sim::Duration>(std::min(
      static_cast<double>(config_.tuning.quarantine_max),
      static_cast<double>(config_.tuning.quarantine_base) * scale));
  queue_.schedule_in(dur, [this, link] { requalify(link); });
}

void RecoveryManager::requalify(topo::LinkId link) {
  auto& f = flap_[link];
  f.quarantined = false;
  // Quiet through the whole quarantine -> first offence pricing again.
  if (queue_.now() - f.last_transition >= config_.tuning.flap_window)
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
  round_unreachable_ = 0;
  for (std::uint16_t h = 0; h < hosts; ++h)
    if (!reach.host_up[h]) ++round_unreachable_;
  reach_ = std::move(reach);

  // The modelled recompute/download time: scoped rounds install sooner.
  const auto cost = static_cast<sim::Duration>(
      config_.tuning.probe_cost * round_info_.probes +
      config_.tuning.per_source_cost * sources_resolved);
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

void RecoveryManager::register_metrics(
    telemetry::MetricRegistry& registry) const {
  auto counter = [&registry](const char* name, const std::uint64_t& field) {
    registry.register_source("fault", name, telemetry::MetricKind::kCounter,
                             [&field] { return static_cast<double>(field); });
  };
  counter("remaps", stats_.remaps);
  counter("failed_remaps", stats_.failed_remaps);
  auto gauge = [&registry, this](const char* name, auto fn) {
    registry.register_source("fault", name, telemetry::MetricKind::kGauge,
                             std::move(fn));
  };
  gauge("recovery_latency_p50_ns",
        [this] { return latency_.empty() ? 0.0 : latency_.percentile(50); });
  gauge("recovery_latency_p99_ns",
        [this] { return latency_.empty() ? 0.0 : latency_.percentile(99); });
  gauge("recovery_latency_max_ns",
        [this] { return static_cast<double>(latency_.max()); });
  gauge("unreachable_hosts",
        [this] { return static_cast<double>(stats_.unreachable_hosts); });

  // The incremental machinery reports under its own component.
  auto rcounter = [&registry](const char* name, const std::uint64_t& field) {
    registry.register_source("recovery", name, telemetry::MetricKind::kCounter,
                             [&field] { return static_cast<double>(field); });
  };
  rcounter("scoped_probes", stats_.scoped_probes);
  rcounter("full_probe_equiv", stats_.full_probe_equiv);
  rcounter("sources_patched", stats_.sources_patched);
  rcounter("sources_total", stats_.sources_total);
  rcounter("flaps_quarantined", stats_.flaps_quarantined);
  rcounter("coalesced_events", stats_.coalesced_events);
  rcounter("full_resolves", stats_.full_resolves);
  rcounter("patch_rounds", stats_.patch_rounds);
  rcounter("overflow_full_resolves", stats_.overflow_full_resolves);
  rcounter("verify_fallbacks", stats_.verify_fallbacks);
  registry.register_source("recovery", "epoch", telemetry::MetricKind::kGauge,
                           [this] { return static_cast<double>(epoch_); });
}

}  // namespace itb::fault
