// Tests for the bench harness (bench/harness.hpp): the one strict flag
// parser every bench binary uses, and the shared epilogue's flight export.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "itb/core/experiments.hpp"
#include "itb/flight/timeline.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;
using bench::Harness;

/// The masks the bench binaries declare.
constexpr unsigned kFig7 = bench::kJson | bench::kFlight;
constexpr unsigned kFig8 = bench::kJson | bench::kJobs | bench::kFlight;
constexpr unsigned kScale = bench::kJson | bench::kJobs | bench::kMaxHosts |
                            bench::kRoutesOut;
constexpr unsigned kFault = kScale | bench::kNoVerify;

/// Harness::parse over {"bench", args...}; exits 2 on a bad argument.
void parse(Harness& h, std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  h.parse(static_cast<int>(args.size()), args.data());
}

/// Cli::parse over {"bench", args...}; throws on a bad argument.
void cli_parse(const Harness& h, std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  h.cli.parse(static_cast<int>(args.size()), args.data());
}

/// Death-test matcher: exit status exactly 2, the usage line on stderr.
#define EXPECT_USAGE_EXIT(statement, regex) \
  EXPECT_EXIT(statement, testing::ExitedWithCode(2), regex)

// ------------------------------------------------------- shared flags --

TEST(JobsFlag, ParsesBothSpellings) {
  {
    Harness h("fig8_itb_overhead", kFig8);
    parse(h, {"--jobs", "3"});
    EXPECT_EQ(h.jobs, 3u);
  }
  {
    Harness h("fig8_itb_overhead", kFig8);
    parse(h, {"--jobs=12"});
    EXPECT_EQ(h.jobs, 12u);
  }
  {
    Harness h("fig8_itb_overhead", kFig8);
    parse(h, {"--json", "out.json"});
    EXPECT_EQ(h.jobs, 0u);  // absent: hardware concurrency
  }
  {
    Harness h("engine_compare", bench::kJson | bench::kJobs);
    h.jobs = 1;  // a bench's own default survives an absent flag
    parse(h, {});
    EXPECT_EQ(h.jobs, 1u);
  }
}

TEST(JobsFlag, RejectsMissingOrMalformedValues) {
  const Harness h("fig8_itb_overhead", kFig8);
  EXPECT_THROW(cli_parse(h, {"--jobs"}), std::invalid_argument);
  EXPECT_THROW(cli_parse(h, {"--jobs", "fast"}), std::invalid_argument);
  EXPECT_THROW(cli_parse(h, {"--jobs="}), std::invalid_argument);
  EXPECT_THROW(cli_parse(h, {"--jobs", "-1"}), std::invalid_argument);
  EXPECT_THROW(cli_parse(h, {"--jobs", "4x"}), std::invalid_argument);
  EXPECT_THROW(cli_parse(h, {"--jobs", "--flight"}), std::invalid_argument);
}

TEST(Export, JsonFlagParsing) {
  {
    Harness h("fig7_code_overhead", kFig7);
    parse(h, {"--json", "out.json"});
    ASSERT_TRUE(h.json.has_value());
    EXPECT_EQ(*h.json, "out.json");
    EXPECT_EQ(h.json_report(), &h.report);
  }
  {
    Harness h("fig7_code_overhead", kFig7);
    parse(h, {"--json=other.json"});
    ASSERT_TRUE(h.json.has_value());
    EXPECT_EQ(*h.json, "other.json");
  }
  {
    Harness h("telemetry_demo", bench::kJson);
    double rate = 8e3;
    h.cli.positional("rate_msgs_per_s", &rate, 1, 1e6);
    parse(h, {"20000"});
    EXPECT_FALSE(h.json.has_value());
    EXPECT_EQ(h.json_report(), nullptr);
    EXPECT_EQ(rate, 20000.0);
  }
  {
    const Harness h("fig7_code_overhead", kFig7);
    EXPECT_THROW(cli_parse(h, {"--json"}), std::invalid_argument);
    EXPECT_THROW(cli_parse(h, {"positional"}), std::invalid_argument);
  }
}

TEST(WatchdogFlag, ParsesFromArgv) {
  {
    Harness h("svc_slo", bench::kSweep);
    parse(h, {"--watchdog", "--jobs", "4"});
    EXPECT_TRUE(h.watchdog);
    EXPECT_EQ(h.jobs, 4u);
  }
  {
    Harness h("svc_slo", bench::kSweep);
    parse(h, {"--jobs", "4"});
    EXPECT_FALSE(h.watchdog);
  }
  const Harness h("svc_slo", bench::kSweep);
  EXPECT_THROW(cli_parse(h, {"--watchdog=1"}), std::invalid_argument);
}

/// Whether a point of `h` arms the flight recorder on its clusters.
bool armed_flight(Harness& h) {
  return h.sweep(1, [](std::size_t, bench::Point& p) {
            return p.arm({}).flight.enabled;
          }).front();
}

TEST(BenchCli, FlightPathsImplyFlight) {
  {
    Harness h("fig8_itb_overhead", kFig8);
    parse(h, {"--flight-out=a.flt"});
    EXPECT_TRUE(h.flight);
    EXPECT_EQ(h.flight_out, "a.flt");
    EXPECT_FALSE(h.flight_trace.has_value());
    EXPECT_TRUE(armed_flight(h));
  }
  {
    Harness h("fig8_itb_overhead", kFig8);
    parse(h, {"--flight-trace", "t.json"});
    EXPECT_TRUE(h.flight);
    EXPECT_EQ(h.flight_trace, "t.json");
  }
  {
    Harness h("fig8_itb_overhead", kFig8);
    parse(h, {});
    EXPECT_FALSE(h.flight);
    EXPECT_FALSE(armed_flight(h));
  }
}

TEST(BenchCli, SweepFilterFlags) {
  Harness h("fault_recovery", kFault);
  parse(h, {"--max-hosts", "256", "--routes-out=r.txt", "--no-verify"});
  EXPECT_EQ(h.max_hosts, 256u);
  EXPECT_EQ(h.routes_out, "r.txt");
  EXPECT_FALSE(h.verify);
}

TEST(BenchCli, UsageListsDeclaredFlags) {
  const Harness fig7("fig7_code_overhead", kFig7);
  EXPECT_EQ(fig7.cli.usage("fig7_code_overhead"),
            "usage: fig7_code_overhead [--json PATH] [--flight] "
            "[--flight-out PATH] [--flight-trace PATH]");
  Harness demo("telemetry_demo", bench::kJson);
  double rate = 0;
  demo.cli.positional("rate_msgs_per_s", &rate, 1, 1e6);
  EXPECT_EQ(demo.cli.usage("telemetry_demo"),
            "usage: telemetry_demo [--json PATH] [rate_msgs_per_s]");
}

TEST(BenchCli, NumbersAreStrictAndRanged) {
  EXPECT_EQ(bench::Cli::parse_integer("0", 0, 10), 0u);
  EXPECT_EQ(bench::Cli::parse_integer("10", 0, 10), 10u);
  for (const char* bad : {"", "x", "1x", " 1", "+1", "-1", "1.5", "0x10"})
    EXPECT_THROW(bench::Cli::parse_integer(bad, 0, 10), std::invalid_argument)
        << bad;
  for (const char* out : {"11", "18446744073709551616"})
    EXPECT_THROW(bench::Cli::parse_integer(out, 0, 10), std::invalid_argument)
        << out;
  EXPECT_THROW(bench::Cli::parse_integer("0", 1, 10), std::invalid_argument);

  Harness h("telemetry_demo", bench::kJson);
  double rate = 8e3;
  h.cli.positional("rate_msgs_per_s", &rate, 1, 1e6);
  for (const char* bad : {"abc", "0", "2e6", "nan", "inf", "1e4x"})
    EXPECT_THROW(cli_parse(h, {bad}), std::invalid_argument) << bad;
  EXPECT_EQ(rate, 8e3);
  EXPECT_THROW(cli_parse(h, {"100", "200"}), std::invalid_argument);
}

TEST(BenchCli, PositionalsFillInDeclarationOrder) {
  Harness demo("fault_injection_demo", 0);
  double drop = 15, corrupt = 5;
  demo.cli.positional("drop%", &drop, 0, 100);
  demo.cli.positional("corrupt%", &corrupt, 0, 100);
  EXPECT_EQ(demo.cli.usage("fault_injection_demo"),
            "usage: fault_injection_demo [drop%] [corrupt%]");
  parse(demo, {"20"});
  EXPECT_EQ(drop, 20.0);
  EXPECT_EQ(corrupt, 5.0);
  parse(demo, {"0", "2.5"});
  EXPECT_EQ(drop, 0.0);
  EXPECT_EQ(corrupt, 2.5);
  for (const auto& bad : std::vector<std::vector<const char*>>{
           {"abc", "xyz"}, {"10", "xyz"}, {"101"}, {"1", "2", "3"}})
    EXPECT_THROW(cli_parse(demo, bad), std::invalid_argument) << bad[0];

  Harness sizes("latency_breakdown", 0);
  std::size_t payload = 256;
  sizes.cli.positional("payload_bytes", &payload, std::size_t{1},
                       std::size_t{1} << 20);
  for (const char* bad : {"-5", "0", "1.5", "1048577", "abc", ""})
    EXPECT_THROW(cli_parse(sizes, {bad}), std::invalid_argument) << bad;
  EXPECT_EQ(payload, 256u);
  parse(sizes, {"4096"});
  EXPECT_EQ(payload, 4096u);

  Harness words("cow_tool", 0);
  std::string policy = "itb";
  words.cli.positional("ud|itb", &policy, {"ud", "itb"});
  EXPECT_EQ(words.cli.usage("cow_tool"), "usage: cow_tool [ud|itb]");
  for (const char* bad : {"bogus", "UD", "", "ud "})
    EXPECT_THROW(cli_parse(words, {bad}), std::invalid_argument) << bad;
  EXPECT_EQ(policy, "itb");
  parse(words, {"ud"});
  EXPECT_EQ(policy, "ud");
}

// ------------------------------------------ hostile command lines exit 2 --

TEST(BenchCli, MisspelledFlagExitsTwo) {
  Harness h("fig8_itb_overhead", kFig8);
  EXPECT_USAGE_EXIT(parse(h, {"--jsno", "x.json"}),
                    "fig8_itb_overhead: unknown flag --jsno; usage: "
                    "fig8_itb_overhead");
}

TEST(BenchCli, MaxHostsWithoutANumberExitsTwo) {
  Harness h("scale_topology", kScale);
  EXPECT_USAGE_EXIT(parse(h, {"--max-hosts"}), "--max-hosts needs a value");
  EXPECT_USAGE_EXIT(parse(h, {"--max-hosts", "abc"}),
                    "--max-hosts: 'abc' is not a number");
  EXPECT_USAGE_EXIT(parse(h, {"--max-hosts", "0"}), "out of range");
}

TEST(BenchCli, MisspelledNoVerifyExitsTwo) {
  Harness h("fault_recovery", kFault);
  EXPECT_USAGE_EXIT(parse(h, {"--no-verfy"}), "unknown flag --no-verfy");
}

TEST(BenchCli, NonNumericRepsExitsTwo) {
  Harness h("fig7_code_overhead", kFig7);
  int reps = 3;
  h.cli.number("--reps", &reps, 1, 1000);
  EXPECT_USAGE_EXIT(parse(h, {"--reps", "x"}), "--reps: 'x' is not a number");
  EXPECT_USAGE_EXIT(parse(h, {"--reps", "0"}), "--reps: 0 is out of range");
}

TEST(BenchCli, OverflowingJobsExitsTwo) {
  Harness h("fig8_itb_overhead", kFig8);
  EXPECT_USAGE_EXIT(parse(h, {"--jobs", "4294967297"}),
                    "--jobs: 4294967297 is out of range");
}

TEST(BenchCli, EmptyOrMalformedInlineValuesExitTwo) {
  Harness h("fig8_itb_overhead", kFig8);
  EXPECT_USAGE_EXIT(parse(h, {"--jobs=x"}), "--jobs: 'x' is not a number");
  EXPECT_USAGE_EXIT(parse(h, {"--json="}), "--json needs a value");
  EXPECT_USAGE_EXIT(parse(h, {"--flight-out="}), "--flight-out needs a value");
}

TEST(BenchCli, SharedFlagTheBenchDoesNotHonourExitsTwo) {
  Harness h("fig7_code_overhead", kFig7);
  EXPECT_USAGE_EXIT(parse(h, {"--jobs", "4"}), "unknown flag --jobs");
}

// ---------------------------------------------------- shared epilogue --

TEST(BenchHarness, FinishExportsStageTotals) {
  const std::string path = testing::TempDir() + "bench_cli_finish.json";
  Harness h("fig8_itb_overhead", kFig8);
  parse(h, {"--flight", "--json", path.c_str()});
  const flight::Recording rec =
      h.sweep(1, [](std::size_t, bench::Point& p) {
         core::Cluster cluster(p.arm(core::fig8_config(/*itb_path=*/true)));
         workload::run_pingpong(cluster.queue(), cluster.port(core::kHost1),
                                cluster.port(core::kHost2), 256, 5);
         p.capture(cluster);
         return cluster.flight()->snapshot();
       }).front();
  ASSERT_EQ(h.finish(), 0);

  std::ifstream in(path);
  std::stringstream doc;
  doc << in.rdbuf();
  const std::string key = "\"flight.path.host_tx_ns\": ";
  const auto at = doc.str().find(key);
  ASSERT_NE(at, std::string::npos);
  const double host_tx = std::strtod(doc.str().c_str() + at + key.size(),
                                     nullptr);
  EXPECT_EQ(host_tx,
            static_cast<double>(flight::WormTimeline(rec).totals().host_tx));
  EXPECT_GT(host_tx, 0.0);
  std::remove(path.c_str());
}

/// Stdout and --json report of a three-point sweep of Fig. 8 ping-pongs,
/// every capture armed, on `jobs` threads. Point 1 has no run tag.
std::string armed_sweep_output(const char* jobs) {
  const std::string path =
      testing::TempDir() + "bench_cli_sweep_" + jobs + ".json";
  Harness h("ablation_early_recv", bench::kSweep);
  parse(h, {"--jobs", jobs, "--watchdog", "--flight", "--json", path.c_str()});
  testing::internal::CaptureStdout();
  h.sweep(3, [](std::size_t i, bench::Point& p) {
    core::Cluster cluster(p.arm(core::fig8_config(/*itb_path=*/i != 1)));
    cluster.telemetry().start_sampling();
    workload::run_pingpong(cluster.queue(), cluster.port(core::kHost1),
                           cluster.port(core::kHost2), 64u << i, 3);
    return p.capture(cluster, i == 1 ? "" : "p" + std::to_string(i)).checks;
  });
  EXPECT_EQ(h.finish(), 0);
  std::string out = testing::internal::GetCapturedStdout();
  std::ifstream in(path);
  std::stringstream doc;
  doc << in.rdbuf();
  std::remove(path.c_str());
  return out + doc.str();
}

TEST(BenchHarness, SweepMergesCapturesInPointOrderForAnyJobs) {
  const std::string serial = armed_sweep_output("1");
  EXPECT_EQ(armed_sweep_output("3"), serial);
  EXPECT_NE(serial.find("liveness: clean"), std::string::npos);
  EXPECT_NE(serial.find("fingerprint 0x"), std::string::npos);
  const auto p0 = serial.find("\"run\": \"p0\"");
  const auto p2 = serial.find("\"run\": \"p2\"");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p0, p2);
  EXPECT_EQ(serial.find("\"p1\""), std::string::npos);
}

}  // namespace
