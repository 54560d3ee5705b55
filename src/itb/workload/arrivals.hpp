// The one open-loop traffic source: when each host's arrivals come and
// where they go, for GM message load (run_load) and RPC load
// (svc::OpenLoopDriver) alike.
//
// The prior-work claims this paper builds on (throughput doubled or tripled
// by ITB routing) came from uniform random traffic on irregular networks,
// and §6 names application traffic as the next step. Both are open loop:
// arrivals follow the clock alone, so a slow system cannot slow the offered
// load down and hide its tail (coordinated omission). A request that finds
// its host buried queues behind it, and its full wait is measured.
//
// Determinism: every host draws from its own counter-style stream, a pure
// function of (seed, host). A host's arrivals do not depend on the host
// count, construction order or which sweep worker runs the point, so
// sweeps are --jobs-invariant. Per arrival the stream is read in a fixed
// order: the gap to this arrival, the source's own draws (the `draw`
// hook), then the destination.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "itb/sim/event_queue.hpp"
#include "itb/sim/rng.hpp"

namespace itb::workload {

enum class Pattern : std::uint8_t {
  kUniform,   // destination uniform over the other hosts
  kIncast,    // every host sends to target_host; the target only receives
  kHotspot,   // hotspot_fraction to target_host, the rest uniform
  kAllToAll,  // each arrival fans out to every other host
};

enum class GapLaw : std::uint8_t {
  kExponential,  // Poisson arrivals
  kLognormal,    // bursty, heavy-tailed gaps of shape gap_sigma
};

const char* to_string(Pattern p);

struct Arrivals {
  GapLaw gaps = GapLaw::kExponential;
  /// Arrivals per second per generating host.
  double rate_per_s = 1e4;
  double gap_sigma = 1.5;  // kLognormal only
  Pattern pattern = Pattern::kUniform;
  std::uint16_t target_host = 0;  // kIncast and kHotspot
  double hotspot_fraction = 0.3;  // kHotspot only
  std::uint64_t seed = 1;
};

class ArrivalGenerator {
 public:
  /// Called once per arrival with the host's stream, before the
  /// destination draw.
  using Draw = std::function<void(sim::Rng& rng)>;
  /// Called once per destination of an arrival.
  using Issue = std::function<void(std::size_t src, std::uint16_t dst)>;

  /// Throws std::invalid_argument for fewer than two hosts. Scheduled
  /// arrivals point at the generator: it must outlive its window.
  ArrivalGenerator(sim::EventQueue& queue, std::size_t hosts,
                   const Arrivals& arrivals, Issue issue, Draw draw = {});
  ArrivalGenerator(const ArrivalGenerator&) = delete;
  ArrivalGenerator& operator=(const ArrivalGenerator&) = delete;

  /// Arm every generating host (all but an incast target) in index order.
  /// Arrivals fall in (now, until]: none is scheduled past `until`.
  void start(sim::Time until);

  std::uint64_t arrivals() const { return arrivals_; }

 private:
  void arm(std::size_t src);
  void fire(std::size_t src);

  sim::EventQueue& queue_;
  Arrivals cfg_;
  Issue issue_;
  Draw draw_;
  std::vector<sim::Rng> rngs_;
  sim::Time until_ = 0;
  std::uint64_t arrivals_ = 0;
};

}  // namespace itb::workload
