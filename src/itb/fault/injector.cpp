#include "itb/fault/injector.hpp"

#include <stdexcept>

namespace itb::fault {

FaultInjector::FaultInjector(sim::EventQueue& queue, net::Network& network,
                             const FaultSchedule& schedule)
    : queue_(queue),
      network_(network),
      topo_(network.topology()),
      drop_probability_(schedule.drop_probability),
      corrupt_probability_(schedule.corrupt_probability),
      rng_(schedule.seed),
      effective_down_(topo_.link_count(), 0),
      link_down_(topo_.link_count(), 0),
      switch_down_(topo_.switch_count(), 0),
      host_down_(topo_.host_count(), 0),
      nic_stall_(topo_.host_count(), 0) {
  for (const FaultWindow& w : schedule.windows()) {
    switch (w.kind) {
      case FaultKind::kLinkDown:
        if (w.target >= topo_.link_count())
          throw std::invalid_argument("fault window names a bad link");
        break;
      case FaultKind::kSwitchDown:
        if (w.target >= topo_.switch_count())
          throw std::invalid_argument("fault window names a bad switch");
        break;
      case FaultKind::kHostDown:
      case FaultKind::kNicStall:
        if (w.target >= topo_.host_count())
          throw std::invalid_argument("fault window names a bad host");
        break;
    }
    queue_.schedule_at(w.start, [this, w] { open_window(w); });
    queue_.schedule_at(w.end, [this, w] { close_window(w); });
  }
  network_.set_fault_hook(this);
}

FaultInjector::~FaultInjector() { network_.set_fault_hook(nullptr); }

net::FaultHook::Fate FaultInjector::delivery_fate(std::uint16_t /*host*/,
                                                  packet::Bytes& bytes) {
  // Exactly the draw order of the old in-network last-hop fault code, so
  // seeded loss sweeps keep their historical results.
  if (drop_probability_ > 0 && rng_.next_bool(drop_probability_)) {
    ++stats_.lost_drop;
    return Fate::kDrop;
  }
  if (corrupt_probability_ > 0 && rng_.next_bool(corrupt_probability_) &&
      bytes.size() > 3) {
    const auto victim = 3 + rng_.next_below(bytes.size() - 3);
    bytes[victim] ^= 0x40;
    ++stats_.corrupted;
    return Fate::kCorrupt;
  }
  return Fate::kDeliver;
}

void FaultInjector::note_kill(topo::Channel at) {
  // Attribute the kill to the most specific cause covering the link.
  const auto& l = topo_.link(at.link);
  for (const auto& end : {l.a, l.b}) {
    if (end.node.kind == topo::NodeKind::kHost && host_down_[end.node.index] > 0) {
      ++stats_.lost_host_down;
      return;
    }
  }
  for (const auto& end : {l.a, l.b}) {
    if (end.node.kind == topo::NodeKind::kSwitch &&
        switch_down_[end.node.index] > 0) {
      ++stats_.lost_switch_down;
      return;
    }
  }
  ++stats_.lost_link_down;
}

std::vector<topo::LinkId> FaultInjector::links_of_target(
    const FaultWindow& w) const {
  switch (w.kind) {
    case FaultKind::kLinkDown:
      return {static_cast<topo::LinkId>(w.target)};
    case FaultKind::kSwitchDown:
      return topo_.links_of(topo::switch_id(static_cast<std::uint16_t>(w.target)));
    case FaultKind::kHostDown:
      return topo_.links_of(topo::host_id(static_cast<std::uint16_t>(w.target)));
    case FaultKind::kNicStall:
      return {};
  }
  return {};
}

void FaultInjector::open_window(const FaultWindow& w) {
  ++stats_.windows_opened;
  ++active_windows_;
  switch (w.kind) {
    case FaultKind::kLinkDown:
      ++link_down_[w.target];
      break;
    case FaultKind::kSwitchDown:
      ++switch_down_[w.target];
      break;
    case FaultKind::kHostDown:
      ++host_down_[w.target];
      break;
    case FaultKind::kNicStall:
      ++nic_stall_[w.target];
      break;
  }
  // Impair covered links only after the down counters are set so kills
  // occurring during the transition attribute to the right cause.
  for (auto link : links_of_target(w)) down_link(link);
  announce(w);
}

void FaultInjector::close_window(const FaultWindow& w) {
  ++stats_.windows_closed;
  --active_windows_;
  switch (w.kind) {
    case FaultKind::kLinkDown:
      --link_down_[w.target];
      break;
    case FaultKind::kSwitchDown:
      --switch_down_[w.target];
      break;
    case FaultKind::kHostDown:
      --host_down_[w.target];
      break;
    case FaultKind::kNicStall:
      --nic_stall_[w.target];
      if (nic_stall_[w.target] == 0)
        network_.rearbitrate_host(static_cast<std::uint16_t>(w.target));
      break;
  }
  for (auto link : links_of_target(w)) up_link(link);
  announce(w);
}

void FaultInjector::down_link(topo::LinkId link) {
  if (effective_down_[link]++ == 0) network_.on_link_state(link, false);
}

void FaultInjector::up_link(topo::LinkId link) {
  if (--effective_down_[link] == 0) network_.on_link_state(link, true);
}

void FaultInjector::announce(const FaultWindow& w) {
  if (w.kind == FaultKind::kNicStall) return;
  for (const auto& fn : listeners_) fn(queue_.now(), w);
}

void FaultInjector::register_metrics(telemetry::MetricRegistry& registry) const {
  auto counter = [&registry](const char* name, const std::uint64_t& field) {
    registry.register_source("fault", name, telemetry::MetricKind::kCounter,
                             [&field] { return static_cast<double>(field); });
  };
  counter("windows_opened", stats_.windows_opened);
  counter("windows_closed", stats_.windows_closed);
  counter("lost_drop", stats_.lost_drop);
  counter("corrupted", stats_.corrupted);
  counter("lost_link_down", stats_.lost_link_down);
  counter("lost_switch_down", stats_.lost_switch_down);
  counter("lost_host_down", stats_.lost_host_down);
  registry.register_source(
      "fault", "active_windows", telemetry::MetricKind::kGauge,
      [this] { return static_cast<double>(active_windows_); });
}

}  // namespace itb::fault
