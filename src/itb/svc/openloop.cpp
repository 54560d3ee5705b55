#include "itb/svc/openloop.hpp"

#include <algorithm>

namespace itb::svc {

namespace {

Priority next_class(const OpenLoopConfig& config, sim::Rng& rng) {
  double total = 0;
  for (double w : config.class_mix) total += w;
  if (total <= 0) return Priority::kNormal;
  double u = rng.next_double() * total;
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    u -= config.class_mix[c];
    if (u < 0) return static_cast<Priority>(c);
  }
  return static_cast<Priority>(kPriorityClasses - 1);
}

sim::Duration next_service(const OpenLoopConfig& config, sim::Rng& rng) {
  auto s = static_cast<double>(config.mean_service);
  if (config.service == ServiceDist::kBoundedPareto)
    s = rng.next_bounded_pareto(s, config.pareto_alpha, config.pareto_cap);
  return std::max<sim::Duration>(static_cast<sim::Duration>(s), 1);
}

}  // namespace

OpenLoopDriver::OpenLoopDriver(sim::EventQueue& queue,
                               std::vector<RpcEndpoint*> endpoints,
                               const OpenLoopConfig& config)
    : queue_(queue), endpoints_(std::move(endpoints)), config_(config),
      generator_(
          queue, endpoints_.size(), config.arrivals,
          [this](std::size_t src, std::uint16_t dst) { call(src, dst); },
          [this](sim::Rng& rng) {
            spec_.cls = next_class(config_, rng);
            spec_.service = next_service(config_, rng);
          }) {
  spec_.resp_bytes = config_.resp_bytes;
}

void OpenLoopDriver::start() {
  generator_.start(queue_.now() + config_.duration);
}

OpenLoopStats OpenLoopDriver::stats() const {
  return {generator_.arrivals(), calls_issued_, calls_refused_};
}

void OpenLoopDriver::call(std::size_t src, std::uint16_t dst) {
  spec_.dst = dst;
  if (endpoints_[src]->client().call(spec_))
    ++calls_issued_;
  else
    ++calls_refused_;
}

SloStats OpenLoopDriver::merged_slo() const {
  SloStats out;
  for (const RpcEndpoint* e : endpoints_) out.merge(e->client().slo());
  return out;
}

AdmissionStats OpenLoopDriver::merged_admission() const {
  AdmissionStats out;
  for (const RpcEndpoint* e : endpoints_) {
    const AdmissionStats& s = e->server().admission().stats();
    out.offered += s.offered;
    out.admitted_immediate += s.admitted_immediate;
    out.admitted_from_queue += s.admitted_from_queue;
    out.queued += s.queued;
    out.rejected_full += s.rejected_full;
    out.evicted += s.evicted;
    out.departures += s.departures;
    out.first_fit_skips += s.first_fit_skips;
  }
  return out;
}

}  // namespace itb::svc
