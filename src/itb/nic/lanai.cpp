#include "itb/nic/lanai.hpp"

namespace itb::nic {

void McpCpu::post(McpPriority priority, int cycles, Job fn,
                  bool skip_dispatch) {
  if (!busy_) {
    // An idle CPU has nothing queued (pump() goes idle only on an empty
    // queue), so this job is the one pump() would pop: start it directly.
    running_ = std::move(fn);
    start(cycles, skip_dispatch);
    return;
  }
  jobs_.push(Queued{static_cast<int>(priority), next_seq_++, cycles,
                    skip_dispatch, std::move(fn)});
}

void McpCpu::pump() {
  if (jobs_.empty()) {
    busy_ = false;
    return;
  }
  Queued& next = const_cast<Queued&>(jobs_.top());
  running_ = std::move(next.fn);
  start(next.cycles, next.skip_dispatch);
  jobs_.pop();
}

void McpCpu::start(int cycles, bool skip_dispatch) {
  busy_ = true;
  const sim::Duration cost =
      timing_.cycles(cycles + (skip_dispatch ? 0 : timing_.dispatch));
  busy_ns_ += cost;
  ++jobs_executed_;
  queue_.schedule_in(cost, [this] {
    running_();
    running_.reset();  // release what the job captured
    pump();
  });
}

}  // namespace itb::nic
