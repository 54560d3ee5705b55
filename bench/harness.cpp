#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "itb/flight/chrome_trace.hpp"
#include "itb/flight/replay.hpp"
#include "itb/flight/timeline.hpp"

namespace itb::bench {
namespace {

[[noreturn]] void bad(std::string what) {
  throw std::invalid_argument(std::move(what));
}

/// The whole of `v` as one finite number in [lo, hi].
template <typename T>
T parse_number(std::string_view v, T lo, T hi) {
  T n{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  const bool overflow = ec == std::errc::result_out_of_range;
  if (end != v.data() + v.size() || (ec != std::errc() && !overflow) ||
      !std::isfinite(static_cast<double>(n)))
    bad(std::string("'").append(v) + "' is not a number");
  if (overflow || n < lo || n > hi) {
    std::ostringstream range;
    range << v << " is out of range [" << lo << ", " << hi << "]";
    bad(range.str());
  }
  return n;
}

void print_liveness_summary(const health::LivenessVerdict& v) {
  if (v.clean()) {
    std::printf("liveness: clean (%llu checks, no stalls)\n",
                static_cast<unsigned long long>(v.checks));
    return;
  }
  std::printf(
      "liveness: stalls=%llu (buffer=%llu channel=%llu blackhole=%llu "
      "congestion=%llu) pool_switches=%llu forced_ejections=%llu "
      "recovered=%llu unrecovered=%llu\n",
      static_cast<unsigned long long>(v.stalls),
      static_cast<unsigned long long>(v.buffer_deadlocks),
      static_cast<unsigned long long>(v.channel_deadlocks),
      static_cast<unsigned long long>(v.fault_blackholes),
      static_cast<unsigned long long>(v.congestion_verdicts),
      static_cast<unsigned long long>(v.pool_mode_switches),
      static_cast<unsigned long long>(v.forced_ejections),
      static_cast<unsigned long long>(v.recoveries),
      static_cast<unsigned long long>(v.unrecovered));
  if (!v.first_cycle.empty())
    std::printf("liveness: first diagnosed cycle: %s\n",
                v.first_cycle.c_str());
}

void add_liveness_scalars(telemetry::BenchReport& report,
                          const health::LivenessVerdict& v) {
  report.add_scalar("health_checks", static_cast<double>(v.checks));
  report.add_scalar("health_stalls", static_cast<double>(v.stalls));
  report.add_scalar("health_buffer_deadlocks",
                    static_cast<double>(v.buffer_deadlocks));
  report.add_scalar("health_pool_mode_switches",
                    static_cast<double>(v.pool_mode_switches));
  report.add_scalar("health_forced_ejections",
                    static_cast<double>(v.forced_ejections));
  report.add_scalar("health_recoveries", static_cast<double>(v.recoveries));
  report.add_scalar("health_unrecovered", static_cast<double>(v.unrecovered));
}

}  // namespace

// ------------------------------------------------------------------ Cli --

void Cli::add(std::string name, const char* metavar,
              std::function<void(std::string_view)> set) {
  flags_.push_back(Spec{std::move(name), metavar, std::move(set)});
}

void Cli::toggle(std::string name, bool* out, bool value) {
  add(std::move(name), nullptr, [out, value](std::string_view) { *out = value; });
}

void Cli::text(std::string name, std::optional<std::string>* out) {
  add(std::move(name), "PATH",
      [out](std::string_view v) { *out = std::string(v); });
}

void Cli::positional(std::string name, double* out, double lo, double hi) {
  positionals_.push_back(
      Spec{std::move(name), "", [out, lo, hi](std::string_view v) {
        *out = parse_number(v, lo, hi);
      }});
}

void Cli::positional(std::string name, std::string* out,
                     std::vector<std::string> choices) {
  positionals_.push_back(Spec{
      std::move(name), "", [out, choices = std::move(choices)](std::string_view v) {
        if (std::find(choices.begin(), choices.end(), v) == choices.end())
          bad("'" + std::string(v) + "' is not a choice");
        *out = std::string(v);
      }});
}

std::uint64_t Cli::parse_integer(std::string_view v, std::uint64_t lo,
                                 std::uint64_t hi) {
  return parse_number(v, lo, hi);
}

void Cli::parse(int argc, const char* const* argv) const {
  std::size_t positionals_seen = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (positionals_seen == positionals_.size())
        bad("unexpected argument '" + std::string(arg) + "'");
      positionals_[positionals_seen++].set(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto spec = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const Spec& s) { return s.name == name; });
    if (spec == flags_.end()) bad("unknown flag " + std::string(name));
    if (!spec->metavar) {
      if (eq != std::string_view::npos)
        bad(std::string(name) + " takes no value");
      spec->set({});
      continue;
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    }
    if (value.empty()) bad(std::string(name) + " needs a value");
    try {
      spec->set(value);
    } catch (const std::invalid_argument& e) {
      bad(std::string(name) + ": " + e.what());
    }
  }
}

std::string Cli::usage(std::string_view program) const {
  std::string u = "usage: " + std::string(program);
  for (const auto& s : flags_) {
    u += " [" + s.name;
    if (s.metavar) u += std::string(" ") + s.metavar;
    u += "]";
  }
  for (const auto& p : positionals_) u += " [" + p.name + "]";
  return u;
}

// ---------------------------------------------------------------- Point --

core::ClusterConfig Point::arm(core::ClusterConfig cfg) const {
  cfg.watchdog.enabled = h_->watchdog;
  cfg.flight.enabled = h_->flight;
  return cfg;
}

health::LivenessVerdict Point::capture(core::Cluster& cluster,
                                       std::string run) {
  auto& t = cluster.telemetry();
  t.stop_sampling();
  if (h_->json && !run.empty())
    runs_.push_back(Run{std::move(run), t.registry().snapshot(),
                        t.sampler().series()});
  if (cluster.flight()) recordings_.push_back(cluster.flight()->snapshot());
  if (!cluster.health()) return {};
  const health::LivenessVerdict v = cluster.health()->verdict();
  liveness_.merge(v);
  return v;
}

// -------------------------------------------------------------- Harness --

Harness::Harness(std::string bench, unsigned flags)
    : report(bench), bench_(std::move(bench)) {
  if (flags & kJson) cli.text("--json", &json);
  if (flags & kJobs) cli.number("--jobs", &jobs, 0u, 1024u);
  if (flags & kWatchdog) cli.toggle("--watchdog", &watchdog);
  if (flags & kFlight) {
    cli.toggle("--flight", &flight);
    cli.text("--flight-out", &flight_out);
    cli.text("--flight-trace", &flight_trace);
  }
  if (flags & kMaxHosts)
    cli.number("--max-hosts", &max_hosts, std::size_t{1});
  if (flags & kRoutesOut) cli.text("--routes-out", &routes_out);
  if (flags & kNoVerify) cli.toggle("--no-verify", &verify, false);
}

void Harness::parse(int argc, const char* const* argv) {
  try {
    cli.parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s; %s\n", bench_.c_str(), e.what(),
                 cli.usage(bench_).c_str());
    std::exit(2);
  }
  if (flight_out || flight_trace) flight = true;
}

void Harness::merge(Point& p) {
  liveness_.merge(p.liveness_);
  for (auto& r : p.recordings_) recordings_.push_back(std::move(r));
  for (auto& r : p.runs_) {
    report.add_counters(r.name, std::move(r.counters));
    report.add_series(std::move(r.name), std::move(r.series));
  }
}

int Harness::finish() {
  if (watchdog) print_liveness_summary(liveness_);
  if (flight && !finish_flight()) return 1;
  if (watchdog) add_liveness_scalars(report, liveness_);
  if (!json) return 0;
  if (!report.write(*json)) {
    std::fprintf(stderr, "cannot write %s\n", json->c_str());
    return 1;
  }
  std::fprintf(stderr, "JSON report written to %s\n", json->c_str());
  return 0;
}

// Prints the critical-path table and fingerprint, checks the stage-sum
// invariant, writes the requested files and adds the flight.* scalars.
// False when the invariant fails (a complete journey whose critical-path
// sum is off by >= 1 ns from its end-to-end latency) or a file cannot be
// written.
bool Harness::finish_flight() {
  flight::Recording m;
  m.fingerprint = flight::kFingerprintSeed;
  for (const auto& r : recordings_) m.append(r);

  // Stitch one timeline per simulation point: transmission handles, GM
  // tokens and timestamps are only unique within a point's cluster, so a
  // single timeline over the concatenated stream would cross-link packets
  // from different points. Stats sum; the fingerprint chains over `m`.
  flight::StageBreakdown totals;
  std::size_t journey_count = 0, complete = 0;
  sim::Duration max_residual = 0;
  flight::WormTimeline::ItbHopSplit split;
  std::vector<flight::Journey> journeys;
  for (const auto& r : recordings_) {
    const flight::WormTimeline tl(r);
    totals.add(tl.totals());
    journey_count += tl.journeys().size();
    complete += tl.complete_count();
    max_residual = std::max(max_residual, tl.max_stage_residual());
    const auto s = tl.itb_hop_split();
    // Re-weight the per-point means into one global mean.
    split.detect_ns += s.detect_ns * static_cast<double>(s.hops);
    split.wait_ns += s.wait_ns * static_cast<double>(s.hops);
    split.dma_ns += s.dma_ns * static_cast<double>(s.hops);
    split.hops += s.hops;
    journeys.insert(journeys.end(), tl.journeys().begin(),
                    tl.journeys().end());
  }
  if (split.hops > 0) {
    split.detect_ns /= static_cast<double>(split.hops);
    split.wait_ns /= static_cast<double>(split.hops);
    split.dma_ns /= static_cast<double>(split.hops);
  }

  const std::string fingerprint =
      flight::ReplayChecker::fingerprint_hex(m.fingerprint);
  std::printf("\nflight recorder: %llu events (%llu evicted), "
              "%zu journeys (%zu complete), fingerprint %s\n",
              static_cast<unsigned long long>(m.recorded),
              static_cast<unsigned long long>(m.evicted), journey_count,
              complete, fingerprint.c_str());
  if (complete > 0) {
    const double n = static_cast<double>(complete);
    std::printf("critical path per delivered packet (mean over %zu):\n",
                complete);
    for (const auto& view : flight::stage_views()) {
      const auto d = totals.*(view.field);
      if (d == 0) continue;
      std::printf("  %-12s %10.3f us\n", view.name,
                  static_cast<double>(d) / n / 1000.0);
    }
    std::printf("  %-12s %10.3f us\n", "total",
                static_cast<double>(totals.total()) / n / 1000.0);
  }
  if (split.hops > 0)
    std::printf("per-ITB hop (mean over %zu): detect %.3f us + wait %.3f us "
                "+ dma %.3f us = %.3f us\n",
                split.hops, split.detect_ns / 1000.0, split.wait_ns / 1000.0,
                split.dma_ns / 1000.0, split.total_ns() / 1000.0);

  bool ok = true;
  if (max_residual >= 1) {
    std::fprintf(stderr,
                 "flight: critical-path sum diverges from measured journey "
                 "latency by %lld ns\n",
                 static_cast<long long>(max_residual));
    ok = false;
  }
  if (flight_out) {
    if (flight::ReplayChecker::save(m, *flight_out)) {
      std::printf("flight recording written to %s\n", flight_out->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flight_out->c_str());
      ok = false;
    }
  }
  if (flight_trace) {
    if (flight::write_chrome_trace(*flight_trace, bench_, journeys)) {
      std::printf("Chrome trace written to %s (load in ui.perfetto.dev)\n",
                  flight_trace->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flight_trace->c_str());
      ok = false;
    }
  }

  for (const auto& view : flight::stage_views())
    report.add_scalar(std::string("flight.path.") + view.name + "_ns",
                      static_cast<double>(totals.*(view.field)));
  report.add_scalar("flight.path.total_ns",
                    static_cast<double>(totals.total()));
  report.add_scalar("flight.journeys", static_cast<double>(journey_count));
  report.add_scalar("flight.complete_journeys", static_cast<double>(complete));
  report.add_scalar("flight.events", static_cast<double>(m.recorded));
  report.add_scalar("flight.itb_hop_mean_ns", split.total_ns());
  report.set_param("flight.fingerprint", fingerprint);
  return ok;
}

}  // namespace itb::bench
