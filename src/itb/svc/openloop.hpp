// Open-loop RPC load: the one arrival generator (workload/arrivals.hpp)
// decides when each client calls and whom; this driver adds what a call
// needs on top — a priority class from a configurable mix, a service
// demand, and the call itself — and merges the SLO and admission picture
// over every endpoint. Per arrival a client's stream is read as: gap,
// class, service, destination.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "itb/svc/rpc.hpp"
#include "itb/workload/arrivals.hpp"

namespace itb::svc {

enum class ServiceDist : std::uint8_t {
  kFixed,
  kBoundedPareto,
};

struct OpenLoopConfig {
  /// `arrivals.rate_per_s` is the offered calls/s per generating client;
  /// an all-to-all arrival fans out to one call per other host.
  workload::Arrivals arrivals;
  ServiceDist service = ServiceDist::kFixed;
  sim::Duration mean_service = 20 * sim::kUs;
  /// Bounded-Pareto tail index and truncation multiple.
  double pareto_alpha = 1.5;
  double pareto_cap = 100.0;
  std::uint32_t resp_bytes = 512;
  /// Priority mix, normalized internally.
  std::array<double, kPriorityClasses> class_mix = {0.2, 0.5, 0.3};
  /// Calls arrive from start() for this long.
  sim::Duration duration = 10 * sim::kMs;
};

struct OpenLoopStats {
  std::uint64_t arrivals = 0;       // generator firings
  std::uint64_t calls_issued = 0;   // accepted by RpcClient::call
  std::uint64_t calls_refused = 0;  // client pending_limit hit
};

class OpenLoopDriver {
 public:
  /// `endpoints[h]` serves host h; all hosts generate except an incast
  /// target. The driver holds pointers only — endpoints outlive it.
  /// Throws std::invalid_argument for fewer than two endpoints.
  OpenLoopDriver(sim::EventQueue& queue, std::vector<RpcEndpoint*> endpoints,
                 const OpenLoopConfig& config);

  /// Arm the generators. Call once, then run the queue.
  void start();

  OpenLoopStats stats() const;

  /// SLO stats merged over every endpoint's client.
  SloStats merged_slo() const;
  /// Admission stats summed over every endpoint's server.
  AdmissionStats merged_admission() const;

 private:
  void call(std::size_t src, std::uint16_t dst);

  sim::EventQueue& queue_;
  std::vector<RpcEndpoint*> endpoints_;
  OpenLoopConfig config_;
  CallSpec spec_;  // this arrival's class and service, drawn before its dst
  std::uint64_t calls_issued_ = 0;
  std::uint64_t calls_refused_ = 0;
  workload::ArrivalGenerator generator_;
};

}  // namespace itb::svc
