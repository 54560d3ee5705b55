// One command line and one epilogue for every bench binary.
//
// A bench names the shared flags it honours (a Flag mask) plus any of its
// own, then calls Harness::parse. Parsing is strict: an unknown flag, a
// missing or empty value, a value that is not a number or is out of range,
// or a shared flag this bench does not honour prints one usage line on
// stderr and exits 2 before any work starts. Values come as `--flag V` or
// `--flag=V`.
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

#include "itb/flight/recorder.hpp"
#include "itb/health/watchdog.hpp"
#include "itb/telemetry/export.hpp"

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
    add(std::move(name), "N", [out, lo, hi](std::string_view v) {
      *out = static_cast<T>(parse_integer(v, static_cast<std::uint64_t>(lo),
                                          static_cast<std::uint64_t>(hi)));
    });
  }
  /// One optional positional number in [lo, hi].
  void positional(std::string name, double* out, double lo, double hi);

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

  std::vector<Spec> flags_;
  std::optional<Spec> positional_;
};

/// The shared flags, the report and the per-point results a bench merges,
/// with the epilogue that turns them into output. Holds pointers to its own
/// members, so it is neither copied nor moved.
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
  health::LivenessVerdict liveness;  // benches merge per-point verdicts

  /// The report under --json, else nullptr (benches skip report-only work).
  telemetry::BenchReport* json_report() { return json ? &report : nullptr; }

  flight::RecorderConfig recorder() const;
  /// Append one point's recording, in point order; a no-op without
  /// --flight. Merging in point order keeps the fingerprint independent of
  /// --jobs.
  void add_recording(flight::Recording r);

  /// The shared epilogue; returns the exit code (0, or 1 on a failed
  /// stage-sum check or an unwritable file).
  int finish();

 private:
  bool finish_flight();

  std::string bench_;
  std::vector<flight::Recording> recordings_;
};

}  // namespace itb::bench
