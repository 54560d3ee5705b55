// Extension experiment: GM reliability under injected faults.
//
// A chaos soak over the two paper fabrics — the Fig. 6 testbed and the
// Fig. 1 irregular network — sweeping probabilistic last-hop drop rates
// against scheduled fault windows (link/switch/host down, NIC stalls)
// generated deterministically from a seed. Every run streams a fixed batch
// of tagged messages across one protected host pair and reports
// delivered-exactly-once counts (unique deliveries, duplicates, failed
// messages), the network's loss ledger by cause, mapper remaps and the
// recovery-latency percentiles.
//
// `--json <path>` writes an itb.telemetry.v1 report with the sweep table
// plus the full metric registry of every run.
//
// `--jobs N` fans the independent sweep points across N threads (default:
// hardware concurrency); results are bit-identical to `--jobs 1` because
// every run owns its cluster.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/cluster.hpp"

namespace {

using namespace itb;
using packet::Bytes;

constexpr int kMessages = 150;
constexpr std::size_t kMessageBytes = 1024;
constexpr sim::Time kChaosHorizon = 20 * sim::kMs;

struct Scenario {
  const char* name;
  topo::Topology (*make)();
  routing::Policy policy;
  std::uint16_t src, dst;
};

topo::Topology make_testbed() { return topo::make_paper_testbed(); }

const Scenario kScenarios[] = {
    // Fig. 6 testbed: h0 -> h2 crosses one of the two trunks; a trunk
    // window forces the remap onto the other.
    {"fig6_testbed", make_testbed, routing::Policy::kUpDown, 0, 2},
    // Fig. 1 network under ITB routing: the 4 -> 1 route relies on the
    // in-transit host on switch 6, which chaos may take down mid-path.
    {"fig1_network", topo::make_fig1_network, routing::Policy::kItb, 4, 1},
};

struct ChaosLevel {
  const char* name;
  int link_windows, switch_windows, host_windows, stall_windows;
  int hotspot_bursts = 0;  // §8 hotspot preset: a stall train on one host
};

const ChaosLevel kChaosLevels[] = {
    {"calm", 0, 0, 0, 0},
    {"light", 2, 0, 0, 1},
    {"heavy", 8, 2, 2, 1},
    // Deterministic hotspot-burst train: each release floods the target
    // NIC's pool at once — the §8 wedge-shaped load, under lossless
    // backpressure. The liveness watchdog (--watchdog) must see any stall
    // this provokes and report it in the verdict.
    {"hotspot", 0, 0, 0, 0, 6},
};

const double kDropRates[] = {0.0, 0.02, 0.1};

struct PointResult {
  int accepted = 0;
  int delivered_unique = 0;
  int duplicates = 0;  // message-level duplicate deliveries (must stay 0)
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;
  std::uint64_t lost_windows = 0;  // link/switch/host-down kills
  std::uint64_t remaps = 0;
  std::uint64_t retransmissions = 0;
  double recovery_p50_ns = 0, recovery_p99_ns = 0;
  std::uint64_t recovery_epoch = 0;
  std::uint64_t recovery_scoped_probes = 0;
  std::uint64_t recovery_sources_patched = 0;
  std::uint64_t recovery_flaps_quarantined = 0;
  sim::Time end = 0;
  bool reconciled = false;
  // The point's liveness verdict, --watchdog only.
  std::uint64_t stalls = 0, recoveries = 0, forced_ejections = 0,
                unrecovered = 0;
};

PointResult run_point(const Scenario& sc, double drop, const ChaosLevel& lvl,
                      bench::Point& p) {
  core::ClusterConfig cfg;
  cfg.topology = sc.make();
  cfg.engine = {sc.policy, 1};
  cfg.gm_config.retransmit_timeout = 300 * sim::kUs;
  cfg.gm_config.max_retries = 12;
  cfg.remap_delay = 300 * sim::kUs;
  if (lvl.link_windows + lvl.switch_windows + lvl.host_windows +
      lvl.stall_windows + lvl.hotspot_bursts) {
    fault::FaultSchedule::ChaosSpec spec;
    spec.horizon = kChaosHorizon;
    spec.link_windows = lvl.link_windows;
    spec.switch_windows = lvl.switch_windows;
    spec.host_windows = lvl.host_windows;
    spec.stall_windows = lvl.stall_windows;
    spec.mean_duration = 1 * sim::kMs;
    spec.protected_hosts = {sc.src, sc.dst};
    spec.hotspot_bursts = lvl.hotspot_bursts;
    spec.hotspot_stall = 400 * sim::kUs;
    spec.hotspot_gap = 200 * sim::kUs;
    cfg.fault_schedule = fault::FaultSchedule::chaos(cfg.topology, spec);
  }
  cfg.fault_schedule.drop_probability = drop;
  core::Cluster c(p.arm(std::move(cfg)));

  std::vector<int> delivered(kMessages, 0);
  c.port(sc.dst).set_receive_handler(
      [&delivered](sim::Time, std::uint16_t, Bytes m) {
        ++delivered[static_cast<std::size_t>(m[0]) |
                    (static_cast<std::size_t>(m[1]) << 8)];
      });
  // Pace one message every horizon/kMessages so the stream spans every
  // chaos window instead of draining before the first one opens; when a
  // send is refused (no token / mid-outage), retry until it is accepted.
  // The feeder lives in this frame: c.run() drains every scheduled retry.
  constexpr sim::Duration kGap = kChaosHorizon / kMessages;
  int accepted = 0;
  std::function<void()> feed = [&] {
    if (c.port(sc.src).peer_failed(sc.dst)) return;
    Bytes m(kMessageBytes, 0);
    m[0] = static_cast<std::uint8_t>(accepted & 0xFF);
    m[1] = static_cast<std::uint8_t>(accepted >> 8);
    const bool sent = c.port(sc.src).send(sc.dst, std::move(m));
    if (sent && ++accepted >= kMessages) return;
    c.queue().schedule_in(sent ? kGap : 50 * sim::kUs, [&feed] { feed(); });
  };
  feed();
  c.run();

  PointResult r;
  const health::LivenessVerdict v = p.capture(
      c, std::string(sc.name) + "_" + lvl.name + "_d" +
             std::to_string(static_cast<int>(drop * 100)));
  r.stalls = v.stalls;
  r.recoveries = v.recoveries;
  r.forced_ejections = v.forced_ejections;
  r.unrecovered = v.unrecovered;
  r.accepted = accepted;
  for (int n : delivered) {
    if (n > 0) ++r.delivered_unique;
    if (n > 1) r.duplicates += n - 1;
  }
  r.failed = c.port(sc.src).stats().messages_failed;
  const auto& ns = c.network().stats();
  r.lost = ns.lost;
  // Forced ejections are watchdog-attributed losses: net.lost but not on
  // the fault injector's ledger, so the reconciliation admits exactly that
  // many extra.
  if (auto* f = c.faults()) {
    const auto& fs = f->stats();
    r.lost_windows = fs.lost_link_down + fs.lost_switch_down + fs.lost_host_down;
    r.reconciled = ns.lost == fs.total_lost() + r.forced_ejections &&
                   ns.injected == ns.delivered + ns.dropped + ns.lost;
  } else {
    r.reconciled = ns.lost == r.forced_ejections &&
                   ns.injected == ns.delivered + ns.dropped + ns.lost;
  }
  if (auto* rec = c.recovery()) {
    r.remaps = rec->stats().remaps;
    if (!rec->recovery_latency().empty()) {
      r.recovery_p50_ns = rec->recovery_latency().percentile(50);
      r.recovery_p99_ns = rec->recovery_latency().percentile(99);
    }
    r.recovery_epoch = rec->epoch();
    r.recovery_scoped_probes = rec->stats().scoped_probes;
    r.recovery_sources_patched = rec->stats().sources_patched;
    r.recovery_flaps_quarantined = rec->stats().flaps_quarantined;
  }
  r.retransmissions = c.port(sc.src).stats().retransmissions;
  r.end = c.queue().now();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("ext_reliability", bench::kSweep);
  h.parse(argc, argv);
  telemetry::BenchReport& report = h.report;
  report.set_param("messages", kMessages);
  report.set_param("message_bytes", kMessageBytes);
  report.set_param("chaos_horizon_ns", static_cast<double>(kChaosHorizon));

  std::printf("Extension: GM reliability chaos soak (%d x %zu B messages "
              "per run)\n", kMessages, kMessageBytes);
  std::printf("exactly-once holds when dup = 0 and deliv + failed >= sent\n\n");
  std::printf("%-13s %-6s %-6s | %5s %5s %4s %6s | %6s %7s %6s %7s | %9s\n",
              "scenario", "chaos", "drop", "sent", "deliv", "dup", "failed",
              "lost", "windows", "remaps", "rexmit", "rec_p50");

  struct Point {
    const Scenario* sc;
    const ChaosLevel* lvl;
    double drop;
  };
  std::vector<Point> points;
  for (const auto& sc : kScenarios)
    for (const auto& lvl : kChaosLevels)
      for (double drop : kDropRates) points.push_back({&sc, &lvl, drop});

  auto results = h.sweep(points.size(), [&](std::size_t i, bench::Point& bp) {
    return run_point(*points[i].sc, points[i].drop, *points[i].lvl, bp);
  });

  bool all_exactly_once = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const PointResult& r = results[i];
    std::printf("%-13s %-6s %-6.2f | %5d %5d %4d %6llu | %6llu %7llu %6llu "
                "%7llu | %7.1fus\n",
                p.sc->name, p.lvl->name, p.drop, r.accepted,
                r.delivered_unique, r.duplicates,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.lost_windows),
                static_cast<unsigned long long>(r.remaps),
                static_cast<unsigned long long>(r.retransmissions),
                r.recovery_p50_ns / 1000.0);
    const bool ok = r.duplicates == 0 &&
                    r.delivered_unique + static_cast<int>(r.failed) >=
                        r.accepted &&
                    r.reconciled;
    if (!ok) {
      all_exactly_once = false;
      std::printf("  ^^ VIOLATION: duplicates, vanished messages or "
                  "unreconciled loss ledger\n");
    }
    if (h.json) {
      telemetry::BenchReport::Row row;
      row.text["scenario"] = p.sc->name;
      row.text["chaos"] = p.lvl->name;
      row.num["drop"] = p.drop;
      row.num["sent"] = r.accepted;
      row.num["delivered_unique"] = r.delivered_unique;
      row.num["duplicates"] = r.duplicates;
      row.num["failed"] = static_cast<double>(r.failed);
      row.num["lost"] = static_cast<double>(r.lost);
      row.num["lost_windows"] = static_cast<double>(r.lost_windows);
      row.num["remaps"] = static_cast<double>(r.remaps);
      row.num["retransmissions"] = static_cast<double>(r.retransmissions);
      row.num["recovery_p50_ns"] = r.recovery_p50_ns;
      row.num["recovery_p99_ns"] = r.recovery_p99_ns;
      row.num["recovery_epoch"] = static_cast<double>(r.recovery_epoch);
      row.num["recovery_scoped_probes"] =
          static_cast<double>(r.recovery_scoped_probes);
      row.num["recovery_sources_patched"] =
          static_cast<double>(r.recovery_sources_patched);
      row.num["recovery_flaps_quarantined"] =
          static_cast<double>(r.recovery_flaps_quarantined);
      row.num["sim_end_ns"] = static_cast<double>(r.end);
      row.num["exactly_once"] = ok ? 1.0 : 0.0;
      if (h.watchdog) {
        row.num["health_stalls"] = static_cast<double>(r.stalls);
        row.num["health_recoveries"] = static_cast<double>(r.recoveries);
        row.num["health_forced_ejections"] =
            static_cast<double>(r.forced_ejections);
        row.num["health_unrecovered"] = static_cast<double>(r.unrecovered);
      }
      report.add_row("chaos_soak", std::move(row));
    }
  }

  std::printf("\n%s\n", all_exactly_once
                            ? "All runs delivered exactly once with a "
                              "reconciled loss ledger."
                            : "EXACTLY-ONCE VIOLATION: see rows above.");
  const int rc = h.finish();
  return all_exactly_once ? rc : 1;
}
