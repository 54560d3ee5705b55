// Tokened admission control with a bounded blocked-request buffer.
//
// The service layer's front door (DESIGN.md §6h). A server owns a fixed
// pool of service tokens; a request costs one or more tokens (scaled by its
// service demand). Requests that do not fit wait in a bounded buffer of
// blocked requests, ordered by priority class (preemptive: a high-priority
// arrival is served before every queued lower-priority one, and when the
// buffer is full it may evict the newest lowest-priority entry). On every
// departure the controller re-scans the buffer **first-fit** in priority
// order — BufferEON-style reallocation-on-departure: a large blocked
// request at the head does not stop a smaller one behind it from taking
// the freed tokens, which keeps utilization high under heavy-tailed
// service-size mixes at the cost of potentially delaying the large one.
//
// Everything is synchronous with the event queue's clock; the controller
// never schedules events itself (service completion timing belongs to the
// RpcServer). Blocking probability = rejections / offered, the quantity the
// SLO report tracks per class.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "itb/sim/event_queue.hpp"
#include "itb/telemetry/histogram.hpp"

namespace itb::svc {

/// Priority classes, highest first. kHigh preempts kNormal preempts kBulk
/// in the admission queue (ordering only — running requests are never
/// preempted; the wormhole fabric below owns in-flight packets).
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kBulk = 2 };
inline constexpr std::size_t kPriorityClasses = 3;

const char* to_string(Priority p);

struct AdmissionConfig {
  /// Concurrent service capacity in tokens.
  int capacity_tokens = 16;
  /// Bound of the blocked-request buffer (all classes pooled).
  std::size_t queue_limit = 64;
  /// On departure, scan past blocked requests that do not fit for one that
  /// does (first-fit). false = strict head-of-line within priority order.
  bool first_fit = true;
  /// When the buffer is full, a strictly higher-priority arrival evicts
  /// the newest entry of the lowest queued class instead of being rejected.
  bool preemptive_queue = true;
};

struct AdmissionStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted_immediate = 0;
  std::uint64_t admitted_from_queue = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected_full = 0;  // buffer full, nothing evictable
  std::uint64_t evicted = 0;        // queued entries displaced by priority
  std::uint64_t departures = 0;
  std::uint64_t first_fit_skips = 0;  // blocked heads passed over by a fit

  std::uint64_t rejected() const { return rejected_full + evicted; }
  /// Fraction of offered requests turned away (BufferEON's headline
  /// metric under load).
  double blocking_probability() const {
    return offered ? static_cast<double>(rejected()) /
                         static_cast<double>(offered)
                   : 0.0;
  }
};

class AdmissionController {
 public:
  /// Admission verdict for the queued case arrives later via the callback:
  /// admitted (with the wait charged) or evicted by a higher-priority
  /// arrival. Immediate outcomes are returned from offer() directly.
  enum class Outcome : std::uint8_t { kAdmitted, kQueued, kRejected };
  using QueueCallback = std::function<void(sim::Time now, bool admitted)>;

  AdmissionController(sim::EventQueue& queue, const AdmissionConfig& config);

  /// Offer a request needing `cost` tokens (clamped into [1, capacity]).
  /// kAdmitted: tokens are held; call depart(cost) when service completes.
  /// kQueued: `on_resolved` fires on admission (tokens held) or eviction.
  /// kRejected: buffer full; nothing held, callback never fires.
  Outcome offer(Priority cls, int cost, QueueCallback on_resolved);

  /// Return `cost` tokens and re-scan the blocked buffer first-fit.
  void depart(int cost);

  int tokens_free() const { return tokens_free_; }
  int capacity() const { return config_.capacity_tokens; }
  std::size_t queue_depth() const;
  const AdmissionStats& stats() const { return stats_; }
  /// Admission-wait (offer to admit) distribution per class, ns.
  const telemetry::LatencyHistogram& wait_hist(Priority cls) const {
    return wait_hist_[static_cast<std::size_t>(cls)];
  }

 private:
  struct Blocked {
    Priority cls = Priority::kNormal;
    int cost = 0;
    sim::Time offered_at = 0;
    QueueCallback on_resolved;
  };

  void admit_from_queue();

  sim::EventQueue& queue_;
  AdmissionConfig config_;
  AdmissionStats stats_;
  int tokens_free_ = 0;
  /// One FIFO per class; service order is class-major (preemptive).
  std::array<std::deque<Blocked>, kPriorityClasses> blocked_;
  std::array<telemetry::LatencyHistogram, kPriorityClasses> wait_hist_;
};

}  // namespace itb::svc
