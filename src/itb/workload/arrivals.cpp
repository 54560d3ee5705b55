#include "itb/workload/arrivals.hpp"

#include <algorithm>
#include <stdexcept>

namespace itb::workload {

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kUniform: return "uniform";
    case Pattern::kIncast: return "incast";
    case Pattern::kHotspot: return "hotspot";
    case Pattern::kAllToAll: return "all-to-all";
  }
  return "?";
}

ArrivalGenerator::ArrivalGenerator(sim::EventQueue& queue, std::size_t hosts,
                                   const Arrivals& arrivals, Issue issue,
                                   Draw draw)
    : queue_(queue), cfg_(arrivals), issue_(std::move(issue)),
      draw_(std::move(draw)) {
  if (hosts < 2)
    throw std::invalid_argument("open-loop traffic needs at least two hosts");
  rngs_.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h)
    rngs_.push_back(sim::Rng::stream(cfg_.seed, h));
}

void ArrivalGenerator::start(sim::Time until) {
  until_ = until;
  for (std::size_t h = 0; h < rngs_.size(); ++h)
    if (cfg_.pattern != Pattern::kIncast || h != cfg_.target_host) arm(h);
}

void ArrivalGenerator::arm(std::size_t src) {
  sim::Rng& rng = rngs_[src];
  const double mean = 1e9 / cfg_.rate_per_s;
  const double gap_ns = cfg_.gaps == GapLaw::kLognormal
                            ? rng.next_lognormal(mean, cfg_.gap_sigma)
                            : rng.next_exponential(mean);
  const auto gap =
      std::max<sim::Duration>(static_cast<sim::Duration>(gap_ns), 1);
  const sim::Time at = queue_.now() + gap;
  if (at <= until_) queue_.schedule_at(at, [this, src] { fire(src); });
}

void ArrivalGenerator::fire(std::size_t src) {
  ++arrivals_;
  sim::Rng& rng = rngs_[src];
  if (draw_) draw_(rng);
  const std::size_t n = rngs_.size();
  switch (cfg_.pattern) {
    case Pattern::kAllToAll:
      for (std::size_t d = 0; d < n; ++d)
        if (d != src) issue_(src, static_cast<std::uint16_t>(d));
      break;
    case Pattern::kIncast:
      issue_(src, cfg_.target_host);
      break;
    case Pattern::kHotspot:
      if (src != cfg_.target_host && rng.next_bool(cfg_.hotspot_fraction)) {
        issue_(src, cfg_.target_host);
        break;
      }
      [[fallthrough]];
    case Pattern::kUniform: {
      std::uint16_t dst = 0;
      do {
        dst = static_cast<std::uint16_t>(rng.next_below(n));
      } while (dst == src);
      issue_(src, dst);
      break;
    }
  }
  arm(src);  // the next gap, drawn after this arrival's issue
}

}  // namespace itb::workload
