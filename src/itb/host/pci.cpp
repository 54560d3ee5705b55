#include "itb/host/pci.hpp"

namespace itb::host {

void PciBus::dma(std::int64_t bytes, Done done) {
  if (!busy_) {
    // An idle bus has nothing queued (start_next() goes idle only on an
    // empty queue), so this transfer is the one it would pop: start it.
    running_ = std::move(done);
    start(bytes);
    return;
  }
  pending_.push_back(Pending{bytes, std::move(done)});
}

void PciBus::start_next() {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  Pending& job = pending_.front();
  running_ = std::move(job.done);
  start(job.bytes);
  pending_.pop_front();
}

void PciBus::start(std::int64_t bytes) {
  busy_ = true;
  queue_.schedule_in(timing_.transfer_time(bytes), [this] {
    ++completed_;
    running_();
    running_.reset();  // release what the callback captured
    start_next();
  });
}

}  // namespace itb::host
