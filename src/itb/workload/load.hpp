// GM message load for the motivation experiments (§1-2): every host sends
// fixed-size GM messages from the open-loop arrival generator
// (arrivals.hpp); accepted throughput and latency are measured over a
// window after a warm-up.
#pragma once

#include <cstdint>
#include <vector>

#include "itb/gm/port.hpp"
#include "itb/telemetry/histogram.hpp"
#include "itb/workload/arrivals.hpp"

namespace itb::workload {

struct LoadConfig {
  /// `arrivals.rate_per_s` is the offered load per host in messages/s.
  Arrivals arrivals;
  std::size_t message_bytes = 512;
  /// Messages arrive from the call for warmup + measure; those sent in the
  /// measure window are counted, and a cool-down of length warmup drains
  /// the stragglers.
  sim::Duration warmup = 2 * sim::kMs;
  sim::Duration measure = 10 * sim::kMs;
};

struct LoadResult {
  /// Messages delivered per second per host during the window.
  double accepted_msgs_per_s_per_host = 0;
  /// Accepted bytes/s summed over hosts.
  double accepted_bytes_per_s = 0;
  /// Message latency stats (ns), send-call to delivery.
  double latency_mean_ns = 0;
  double latency_p50_ns = 0;
  double latency_p95_ns = 0;
  double latency_p99_ns = 0;
  double latency_p999_ns = 0;
  /// Full latency distribution over the measurement window.
  telemetry::LatencyHistogram latency_hist;
  std::uint64_t arrivals = 0;  // generator firings, over all hosts
  std::uint64_t messages_delivered = 0;
  std::uint64_t sends_refused = 0;  // token exhaustion (backpressure signal)
  std::uint64_t retransmissions = 0;
};

/// Drive all `ports` with the configured load on a shared queue. The caller
/// owns the ports and the network underneath. On return no arrival is
/// pending and the ports' receive handlers are cleared.
LoadResult run_load(sim::EventQueue& queue, std::vector<gm::GmPort*> ports,
                    const LoadConfig& config);

}  // namespace itb::workload
