#include "itb/sim/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace itb::sim {

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs) {
  if (jobs_ == 0) jobs_ = std::max(1u, std::thread::hardware_concurrency());
}

void ParallelRunner::run_indexed(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  run_indexed(count, [&body](std::size_t i, unsigned) { body(i); });
}

void ParallelRunner::run_indexed(
    std::size_t count,
    const std::function<void(std::size_t, unsigned)>& body) const {
  if (count == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  if (workers <= 1) {
    // Inline serial path: byte-for-byte the behaviour of the pre-pool
    // benches (same thread, same order, no synchronization).
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&](unsigned w) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i, w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(count, std::memory_order_relaxed);  // stop claiming
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace itb::sim
