#include "itb/svc/admission.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace itb::svc {

const char* to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kBulk: return "bulk";
  }
  return "?";
}

AdmissionController::AdmissionController(sim::EventQueue& queue,
                                         const AdmissionConfig& config)
    : queue_(queue), config_(config), tokens_free_(config.capacity_tokens) {
  if (config.capacity_tokens <= 0)
    throw std::invalid_argument("admission capacity must be positive");
}

std::size_t AdmissionController::queue_depth() const {
  std::size_t n = 0;
  for (const auto& q : blocked_) n += q.size();
  return n;
}

AdmissionController::Outcome AdmissionController::offer(
    Priority cls, int cost, QueueCallback on_resolved) {
  ++stats_.offered;
  cost = std::clamp(cost, 1, config_.capacity_tokens);
  const auto c = static_cast<std::size_t>(cls);

  // Admit on the spot only when no same-or-higher-priority request is
  // already blocked — otherwise a small newcomer would overtake the queue
  // without going through the first-fit scan, starving queued peers.
  bool queue_ahead = false;
  for (std::size_t k = 0; k <= c; ++k)
    if (!blocked_[k].empty()) queue_ahead = true;
  if (!queue_ahead && cost <= tokens_free_) {
    tokens_free_ -= cost;
    ++stats_.admitted_immediate;
    wait_hist_[c].record(0);
    return Outcome::kAdmitted;
  }

  if (queue_depth() >= config_.queue_limit) {
    // Preemptive ordering at the buffer: displace the newest entry of the
    // lowest queued class, provided it is strictly lower-priority than the
    // arrival.
    std::size_t victim = kPriorityClasses;
    for (std::size_t k = kPriorityClasses; k-- > c + 1;)
      if (!blocked_[k].empty()) {
        victim = k;
        break;
      }
    if (!config_.preemptive_queue || victim == kPriorityClasses) {
      ++stats_.rejected_full;
      return Outcome::kRejected;
    }
    Blocked out = std::move(blocked_[victim].back());
    blocked_[victim].pop_back();
    ++stats_.evicted;
    if (out.on_resolved) out.on_resolved(queue_.now(), false);
  }

  blocked_[c].push_back(
      Blocked{cls, cost, queue_.now(), std::move(on_resolved)});
  ++stats_.queued;
  return Outcome::kQueued;
}

void AdmissionController::depart(int cost) {
  ++stats_.departures;
  tokens_free_ = std::min(tokens_free_ + cost, config_.capacity_tokens);
  admit_from_queue();
}

void AdmissionController::admit_from_queue() {
  // First-fit in priority order: walk classes high to low, and within a
  // class front to back, admitting everything that fits the free tokens.
  // Without first_fit the scan stops at the first entry that does not fit
  // (head-of-line blocking, the control arm of the ablation).
  std::vector<Blocked> admitted;
  for (auto& q : blocked_) {
    for (auto it = q.begin(); it != q.end();) {
      if (it->cost <= tokens_free_) {
        tokens_free_ -= it->cost;
        admitted.push_back(std::move(*it));
        it = q.erase(it);
      } else if (config_.first_fit) {
        ++stats_.first_fit_skips;
        ++it;
      } else {
        break;
      }
    }
    if (!config_.first_fit && !q.empty()) break;
  }
  // Callbacks fire after the scan so a re-entrant offer()/depart() from
  // inside one sees a consistent queue.
  const sim::Time now = queue_.now();
  for (auto& b : admitted) {
    ++stats_.admitted_from_queue;
    wait_hist_[static_cast<std::size_t>(b.cls)].record(
        static_cast<std::uint64_t>(now - b.offered_at));
    if (b.on_resolved) b.on_resolved(now, true);
  }
}

}  // namespace itb::svc
