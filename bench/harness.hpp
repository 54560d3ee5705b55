// One command line and one epilogue for every bench binary.
//
// A bench names the shared flags it honours (a Flag mask) plus any of its
// own, then calls Harness::parse. Parsing is strict: an unknown flag, a
// missing or empty value, a value that is not a number or is out of range,
// or a shared flag this bench does not honour prints one usage line on
// stderr and exits 2 before any work starts. Values come as `--flag V` or
// `--flag=V`.
//
// Harness::sweep is the one point driver: it fans a bench's simulation
// points across --jobs threads and hands each a Point, which arms the
// point's cluster configs with --watchdog and --flight and captures each
// finished cluster (liveness verdict, flight recording, and under --json
// its registry rows and sampler series). After the fan-out it merges every
// point's captures in point order into the verdict, the recording and the
// report, so all three are the same for any --jobs.
//
// Harness::finish is the shared epilogue, in this order: the liveness
// summary (--watchdog), the merged flight recording (stage-sum check,
// .flt and Chrome-trace files, flight.* scalars), the health_* scalars,
// the --json report, and `JSON report written to ...` on stderr, so stdout
// never depends on the report path. It returns the exit code.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/sim/parallel.hpp"

namespace itb::bench {

/// Shared flags; a bench ORs together the ones it honours.
enum Flag : unsigned {
  kJson = 1u << 0,       // --json PATH         itb.telemetry.v1 report
  kJobs = 1u << 1,       // --jobs N            threads (0 = hw concurrency)
  kWatchdog = 1u << 2,   // --watchdog          arm the liveness watchdog
  kFlight = 1u << 3,     // --flight, --flight-out PATH, --flight-trace PATH
  kMaxHosts = 1u << 4,   // --max-hosts N       skip larger sweep points
  kRoutesOut = 1u << 5,  // --routes-out PATH   route-table dump
  kNoVerify = 1u << 6,   // --no-verify         skip patch verification
  // What every simulation sweep honours.
  kSweep = kJson | kJobs | kWatchdog | kFlight,
};

/// Strict argv parser over a declared set of flags. parse() throws
/// std::invalid_argument naming the first bad argument.
class Cli {
 public:
  /// `--name`, no value: sets *out to `value`.
  void toggle(std::string name, bool* out, bool value = true);
  /// `--name PATH`: a non-empty string.
  void text(std::string name, std::optional<std::string>* out);
  /// `--name N`: a decimal integer in [lo, hi], lo >= 0.
  template <std::integral T>
  void number(std::string name, T* out, T lo,
              T hi = std::numeric_limits<T>::max()) {
    add(std::move(name), "N", integer(out, lo, hi));
  }
  /// Optional positional arguments, filled in the order they are declared:
  /// a number in [lo, hi], or a decimal integer in [lo, hi] with lo >= 0.
  void positional(std::string name, double* out, double lo, double hi);
  template <std::integral T>
  void positional(std::string name, T* out, T lo,
                  T hi = std::numeric_limits<T>::max()) {
    positionals_.push_back(Spec{std::move(name), "", integer(out, lo, hi)});
  }
  /// An optional positional word, one of `choices`.
  void positional(std::string name, std::string* out,
                  std::vector<std::string> choices);

  void parse(int argc, const char* const* argv) const;

  /// "usage: <program> [--flag V] ..." (no newline).
  std::string usage(std::string_view program) const;

  /// Strict decimal integer in [lo, hi]; throws std::invalid_argument.
  static std::uint64_t parse_integer(std::string_view v, std::uint64_t lo,
                                     std::uint64_t hi);

 private:
  struct Spec {
    std::string name;
    const char* metavar;  // nullptr: a toggle
    std::function<void(std::string_view)> set;
  };
  void add(std::string name, const char* metavar,
           std::function<void(std::string_view)> set);
  template <std::integral T>
  static auto integer(T* out, T lo, T hi) {
    return [out, lo, hi](std::string_view v) {
      *out = static_cast<T>(parse_integer(v, static_cast<std::uint64_t>(lo),
                                          static_cast<std::uint64_t>(hi)));
    };
  }

  std::vector<Spec> flags_;
  std::vector<Spec> positionals_;
};

class Harness;

/// One simulation point's share of the harness: it arms the point's
/// clusters and keeps what the epilogue and the report need of each before
/// the cluster dies on its worker thread.
class Point {
 public:
  /// `cfg` with --watchdog and --flight armed.
  core::ClusterConfig arm(core::ClusterConfig cfg) const;

  /// Stop a finished cluster's sampling and keep its liveness verdict and
  /// flight recording (when armed) and, under --json with a non-empty
  /// `run`, its registry rows and sampler series tagged `run`. Returns the
  /// cluster's verdict, empty without --watchdog.
  health::LivenessVerdict capture(core::Cluster& cluster,
                                  std::string run = {});

 private:
  friend class Harness;
  explicit Point(const Harness& h) : h_(&h) {}

  struct Run {
    std::string name;
    std::vector<telemetry::MetricSample> counters;
    std::vector<telemetry::Sampler::Series> series;
  };
  const Harness* h_;
  health::LivenessVerdict liveness_;
  std::vector<flight::Recording> recordings_;
  std::vector<Run> runs_;
};

/// The shared flags, the report, the point driver and the epilogue that
/// turns the merged points into output. Holds pointers to its own members,
/// so it is neither copied nor moved.
class Harness {
 public:
  Harness(std::string bench, unsigned flags);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Parse argv against the shared and bench flags; on a bad argument,
  /// print the usage line on stderr and exit 2.
  void parse(int argc, const char* const* argv);

  /// Bench-specific flags; declare them before parse().
  Cli cli;

  // Parsed shared flags. A bench changes a default before parse().
  std::optional<std::string> json;
  unsigned jobs = 0;
  bool watchdog = false;
  bool flight = false;  // also set by --flight-out / --flight-trace
  std::optional<std::string> flight_out;
  std::optional<std::string> flight_trace;
  std::size_t max_hosts = std::numeric_limits<std::size_t>::max();
  std::optional<std::string> routes_out;
  bool verify = true;

  telemetry::BenchReport report;

  /// The report under --json, else nullptr (benches skip report-only work).
  telemetry::BenchReport* json_report() { return json ? &report : nullptr; }

  /// Run `point(i, Point&)` for every i in [0, count) on --jobs threads,
  /// merge each point's captures in point order, and return the points'
  /// results in point order. A point builds everything it touches from its
  /// index, so the results are the same for any --jobs.
  template <typename Fn>
  auto sweep(std::size_t count, Fn&& point) {
    std::vector<Point> points(count, Point(*this));
    auto results = sim::run_sweep_parallel(
        count, [&](std::size_t i) { return point(i, points[i]); }, jobs);
    for (auto& p : points) merge(p);
    return results;
  }

  /// The shared epilogue; returns the exit code (0, or 1 on a failed
  /// stage-sum check or an unwritable file).
  int finish();

 private:
  void merge(Point& p);
  bool finish_flight();

  std::string bench_;
  health::LivenessVerdict liveness_;
  std::vector<flight::Recording> recordings_;
};

}  // namespace itb::bench
