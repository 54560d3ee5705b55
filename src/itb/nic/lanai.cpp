#include "itb/nic/lanai.hpp"

namespace itb::nic {

void McpCpu::post(McpPriority priority, int cycles, Job fn,
                  bool skip_dispatch) {
  jobs_.push(Queued{static_cast<int>(priority), next_seq_++, cycles,
                    skip_dispatch, std::move(fn)});
  if (!busy_) pump();
}

void McpCpu::pump() {
  if (jobs_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Queued& next = const_cast<Queued&>(jobs_.top());
  const int total = next.cycles + (next.skip_dispatch ? 0 : timing_.dispatch);
  running_ = std::move(next.fn);
  jobs_.pop();
  const sim::Duration cost = timing_.cycles(total);
  busy_ns_ += cost;
  ++jobs_executed_;
  queue_.schedule_in(cost, [this] {
    running_();
    running_.reset();  // release what the job captured
    pump();
  });
}

}  // namespace itb::nic
