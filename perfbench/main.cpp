// perfbench_harness: runs one workload of the full-stack benchmark in this
// process and prints one JSON object on stdout.
//
//   perfbench_harness --workload <name> [--seed N] [--seconds S]
//                     [--trace 0|1] [--spans <path>]
//
// The workload is prepared from the seed (inputs generated before any
// timing), then repeated until --seconds of host time have passed and at
// least the workload's minimum number of repetitions ran. End-to-end
// figures are medians over the untraced repetitions. With --trace 1 every
// second repetition records spans; the per-layer figures come from those,
// and the gap between traced and untraced timed regions is the tracing
// overhead. --spans writes the last traced repetition's spans as Chrome
// trace-event JSON.
//
// Exit status: 0 when the JSON was printed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "itb/sim/alloc_hook.hpp"

namespace perfbench {
namespace {

// No repetition starts when it would likely end past this wall time, so one
// run stays well inside three minutes whatever --seconds says.
constexpr double kMaxWallS = 140.0;

// Every per-layer name the harness reports, on every workload; a layer that
// does no work on a workload reports 0.
const char* const kLayerNames[] = {
    "sim.events_per_op",      "sim.ns_per_event",
    "sim.allocs_per_op",      "sim.setup_allocs",
    "sim.spill_share",        "sim.cancel_share",
    "sim.peak_pending",       "sim.self_share",
    "net.packets_per_msg",    "net.head_blocks_per_packet",
    "net.delivered_share",    "engine.escape_lane_share",
    "nic.itb_forward_share",  "nic.itb_pending_share",
    "nic.mcp_jobs_per_packet", "nic.mcp_busy_ns_per_packet",
    "nic.drop_share",         "gm.packets_per_msg",
    "gm.retransmit_share",    "gm.send_ns_p50",
    "gm.send_ns_p99",         "gm.send_n",
    "gm.send_share",          "svc.call_ns_p50",
    "svc.call_ns_p99",        "svc.call_n",
    "svc.call_share",         "svc.gm_msgs_per_call",
    "svc.completed_share",    "svc.retry_share",
    "svc.blocking_probability", "mapper.run_s",
    "mapper.probes",          "routing.itbs_per_route",
    "core.assembly_s",        "topo.gen_s",
    "telemetry.metrics",      "fault.windows",
    "recovery.round1_s",      "recovery.round2_s",
    "recovery.round3_s",      "recovery.round4_s",
    "recovery.sources_resolved", "recovery.probes",
    "recovery.full_resolves", "trace.overhead_share",
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<gm_uniform_itb128|svc_rpc_vc32|map_recover_itb1024> "
               "[--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    usage(flag + " wants a non-negative integer, got '" + v + "'");
  errno = 0;
  const auto n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE) usage(flag + " out of range: " + v);
  return n;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1, got '" + v + "'");
      o.trace = v == "1";
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Per-layer figures of one traced repetition, from its spans.
Metrics span_metrics(const SpanLog& log) {
  const auto self = log.self_ns();
  std::map<std::string, double> dur_s, self_s;
  std::vector<double> gm_ns, svc_ns, rounds_s;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const auto& s = log.spans()[i];
    const auto ns = static_cast<double>(s.end_ns - s.start_ns);
    dur_s[s.name] += ns / 1e9;
    self_s[s.name] += static_cast<double>(self[i]) / 1e9;
    const std::string name = s.name;
    if (name == "gm") gm_ns.push_back(ns);
    if (name == "svc") svc_ns.push_back(ns);
    if (name == "recovery") rounds_s.push_back(ns / 1e9);
  }
  std::sort(gm_ns.begin(), gm_ns.end());
  std::sort(svc_ns.begin(), svc_ns.end());
  const double sim = dur_s["sim"];
  const auto share = [sim](double v) { return sim > 0 ? v / sim : 0.0; };
  Metrics m;
  m["topo.gen_s"] = dur_s["topo"];
  m["mapper.run_s"] = dur_s["mapper"];
  m["core.assembly_s"] = dur_s["core"] - dur_s["mapper"];
  m["sim.self_share"] = share(self_s["sim"]);
  m["gm.send_ns_p50"] = percentile(gm_ns, 50);
  m["gm.send_ns_p99"] = percentile(gm_ns, 99);
  m["gm.send_n"] = static_cast<double>(gm_ns.size());
  m["gm.send_share"] = share(dur_s["gm"]);
  m["svc.call_ns_p50"] = percentile(svc_ns, 50);
  m["svc.call_ns_p99"] = percentile(svc_ns, 99);
  m["svc.call_n"] = static_cast<double>(svc_ns.size());
  m["svc.call_share"] = share(dur_s["svc"]);
  for (std::size_t k = 0; k < rounds_s.size(); ++k)
    m["recovery.round" + std::to_string(k + 1) + "_s"] = rounds_s[k];
  return m;
}

/// Element-wise median of several metric sets.
Metrics median_of(const std::vector<Metrics>& sets) {
  std::map<std::string, std::vector<double>> cols;
  for (const auto& s : sets)
    for (const auto& [k, v] : s) cols[k].push_back(v);
  Metrics out;
  for (auto& [k, v] : cols) out[k] = median(std::move(v));
  return out;
}

void print_metrics(const char* key, const Metrics& m, bool last) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}%s", last ? "" : ",");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(const Options& o) {
  Workload w;
  if (o.workload == "gm_uniform_itb128")
    w = prepare_gm_workload(o.seed);
  else if (o.workload == "svc_rpc_vc32")
    w = prepare_svc_workload(o.seed);
  else if (o.workload == "map_recover_itb1024")
    w = prepare_recover_workload(o.seed);
  else
    usage("unknown workload " + o.workload);

  std::vector<RepResult> reps;
  std::vector<bool> traced;
  std::vector<Metrics> span_sets;
  SpanLog spans, last_traced;
  const auto start = host_ns();
  for (;;) {
    const bool tr = o.trace && reps.size() % 2 == 1;
    if (tr)
      spans.arm(w.span_capacity);
    else
      spans.disarm();
    const auto rep_start = host_ns();
    reps.push_back(w.run(spans));
    traced.push_back(tr);
    if (tr) {
      span_sets.push_back(span_metrics(spans));
      std::swap(spans, last_traced);
    }
    const double elapsed = seconds_between(start, host_ns());
    const double last = seconds_between(rep_start, host_ns());
    const auto& r = reps.back();
    std::fprintf(stderr,
                 "rep %zu%s: setup %.4f s, timed %.4f s, %llu ops, %llu "
                 "failed, wall %.3f s\n",
                 reps.size(), tr ? " (traced)" : "", r.setup_s, r.timed_s,
                 static_cast<unsigned long long>(r.ops_timed),
                 static_cast<unsigned long long>(r.failed), last);
    if (reps.size() < w.min_reps) continue;
    if (elapsed >= o.seconds || elapsed + last > kMaxWallS) break;
  }

  // Exact figures and the digest must repeat in every repetition.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].attempted;
    failed += reps[i].failed;
    for (const auto& e : reps[i].errors)
      errors.push_back("rep " + std::to_string(i + 1) + ": " + e);
    if (reps[i].digest != reps[0].digest)
      errors.push_back("rep " + std::to_string(i + 1) +
                       ": simulated-result digest differs from rep 1");
    if (reps[i].exact != reps.back().exact)
      errors.push_back("rep " + std::to_string(i + 1) +
                       ": exact counts differ from the last repetition");
  }

  std::vector<double> rate, setup, timed_u, timed_t;
  std::vector<Metrics> host_sets;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    if (traced[i]) {
      timed_t.push_back(r.timed_s);
      continue;
    }
    rate.push_back(r.timed_s > 0 ? static_cast<double>(r.ops_timed) / r.timed_s
                                 : 0.0);
    setup.push_back(r.setup_s);
    timed_u.push_back(r.timed_s);
    host_sets.push_back(r.host);
  }

  Metrics e2e;
  e2e["ops_per_s"] = median(rate);
  e2e["setup_s"] = median(setup);
  e2e["peak_rss_mb"] = peak_rss_mb();

  // The workload's own name for its headline figure.
  Metrics named;
  if (o.workload == "gm_uniform_itb128")
    named["gm_msgs_per_s"] = e2e["ops_per_s"];
  else if (o.workload == "svc_rpc_vc32")
    named["rpc_calls_per_s"] = e2e["ops_per_s"];
  else
    named["recovery_s"] = median(timed_u);

  Metrics layer;
  for (const char* name : kLayerNames) layer[name] = 0.0;
  for (const auto& [k, v] : reps.back().exact) layer[k] = v;
  for (const auto& [k, v] : median_of(host_sets)) layer[k] = v;
  if (o.trace) {
    for (const auto& [k, v] : median_of(span_sets)) layer[k] = v;
    const double untraced = median(timed_u);
    layer["trace.overhead_share"] =
        untraced > 0 ? median(timed_t) / untraced - 1.0 : 0.0;
    if (!o.spans_path.empty() && !last_traced.write_chrome_json(o.spans_path))
      errors.push_back("cannot write spans to " + o.spans_path);
  }
  for (const auto& [k, v] : layer)
    if (std::find_if(std::begin(kLayerNames), std::end(kLayerNames),
                     [&k = k](const char* n) { return k == n; }) ==
        std::end(kLayerNames))
      errors.push_back("unlisted per-layer metric " + k);
  if (!sim::alloc_counting_available()) {
    layer.erase("sim.allocs_per_op");
    layer.erase("sim.setup_allocs");
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"reps\":%zu,"
              "\"traced_reps\":%zu,\"attempted\":%llu,\"failed\":%llu,"
              "\"digest\":\"%016llx\",\"errors\":[",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              reps.size(), span_sets.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(reps[0].digest));
  for (std::size_t i = 0; i < errors.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(errors[i]).c_str());
  std::printf("],");
  print_metrics("e2e", e2e, false);
  print_metrics("named", named, false);
  print_metrics("per_layer", layer, true);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
