#include "itb/fault/fault.hpp"

#include <algorithm>
#include <optional>

#include "itb/sim/rng.hpp"

namespace itb::fault {

bool FaultSchedule::has_topology_faults() const {
  return std::any_of(windows_.begin(), windows_.end(), [](const FaultWindow& w) {
    return w.kind != FaultKind::kNicStall;
  });
}

FaultSchedule FaultSchedule::chaos(const topo::Topology& topo,
                                   const ChaosSpec& spec) {
  if (spec.horizon <= 0)
    throw std::invalid_argument("chaos spec needs a positive horizon");
  sim::Rng rng(spec.seed);
  FaultSchedule out;

  auto duration = [&] {
    const auto d = static_cast<sim::Duration>(
        rng.next_exponential(static_cast<double>(spec.mean_duration)));
    return std::max(spec.min_duration, d);
  };
  auto start = [&] {
    return static_cast<sim::Time>(
        rng.next_below(static_cast<std::uint64_t>(spec.horizon)));
  };
  auto protected_host = [&](std::uint16_t h) {
    return std::find(spec.protected_hosts.begin(), spec.protected_hosts.end(),
                     h) != spec.protected_hosts.end();
  };

  for (int i = 0; i < spec.link_windows && topo.link_count() > 0; ++i) {
    const auto link = static_cast<topo::LinkId>(rng.next_below(topo.link_count()));
    const auto s = start();
    out.link_down(link, s, s + duration());
  }
  for (int i = 0; i < spec.switch_windows && topo.switch_count() > 0; ++i) {
    const auto sw = static_cast<std::uint16_t>(rng.next_below(topo.switch_count()));
    const auto s = start();
    out.switch_down(sw, s, s + duration());
  }
  // Host-targeting windows re-draw (bounded) around protected hosts; the
  // draws still come off the one stream so the schedule stays seed-stable.
  auto pick_host = [&]() -> std::optional<std::uint16_t> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto h = static_cast<std::uint16_t>(rng.next_below(topo.host_count()));
      if (!protected_host(h)) return h;
    }
    return std::nullopt;
  };
  for (int i = 0; i < spec.host_windows && topo.host_count() > 0; ++i) {
    if (auto h = pick_host()) {
      const auto s = start();
      out.host_down(*h, s, s + duration());
    }
  }
  for (int i = 0; i < spec.stall_windows && topo.host_count() > 0; ++i) {
    if (auto h = pick_host()) {
      const auto s = start();
      out.nic_stall(*h, s, s + duration());
    }
  }
  // Hotspot burst: a fixed-cadence stall train on one host. Drawn last so
  // enabling it never perturbs the windows generated above.
  if (spec.hotspot_bursts > 0 && topo.host_count() > 0) {
    std::optional<std::uint16_t> target = spec.hotspot_host;
    if (target && protected_host(*target))
      throw std::invalid_argument("hotspot_host is protected");
    if (!target) target = pick_host();
    if (target) {
      sim::Time s = spec.hotspot_start;
      for (int i = 0; i < spec.hotspot_bursts; ++i) {
        out.nic_stall(*target, s, s + spec.hotspot_stall);
        s += spec.hotspot_stall + spec.hotspot_gap;
      }
    }
  }
  return out;
}

}  // namespace itb::fault
