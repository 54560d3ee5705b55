#include "itb/host/pci.hpp"

namespace itb::host {

void PciBus::dma(std::int64_t bytes, Done done) {
  pending_.push_back(Pending{bytes, std::move(done)});
  if (!busy_) start_next();
}

void PciBus::start_next() {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending& job = pending_.front();
  const sim::Duration cost = timing_.transfer_time(job.bytes);
  running_ = std::move(job.done);
  pending_.pop_front();
  queue_.schedule_in(cost, [this] {
    ++completed_;
    running_();
    running_.reset();  // release what the callback captured
    start_next();
  });
}

}  // namespace itb::host
