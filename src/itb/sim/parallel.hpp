// Parallel index runner.
//
// ParallelRunner fans N independent, deterministic work items across a
// small thread pool. Two layers use it:
//   * sim::run_sweep_parallel — one Cluster per sweep point in the bench
//     binaries;
//   * routing::RouteTable — per-source route solves, so an all-pairs table
//     over a thousand-host fabric is computed one source row per task.
// It lives in sim/ (the dependency root) so both layers can reach it.
//
// Determinism contract: a work item must build everything it touches from
// its own index/seed and write only state owned by that index (its sweep
// point's slot, its table row). Under that contract results are
// bit-identical for any job count — threads change only wall-clock, never
// numbers — and jobs == 1 (which runs inline on the calling thread, no
// pool at all) reproduces the serial program exactly. The determinism test
// suite asserts this.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace itb::sim {

class ParallelRunner {
 public:
  /// `jobs` = 0 picks std::thread::hardware_concurrency().
  explicit ParallelRunner(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Run body(0) .. body(count - 1), each exactly once, across up to
  /// jobs() threads; returns when all have finished. jobs() == 1 (or
  /// count == 1) runs inline on the calling thread — no threads are
  /// created, so a serial run is reproduced exactly. If any body throws,
  /// the first exception (in completion order) is rethrown after every
  /// started body has finished; remaining unstarted indices are skipped.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& body) const;

  /// The same, also passing each body the worker running it, in
  /// [0, min(jobs(), count)): a caller keeps one scratch buffer per worker
  /// and no two concurrent bodies share one.
  void run_indexed(
      std::size_t count,
      const std::function<void(std::size_t index, unsigned worker)>& body)
      const;

 private:
  unsigned jobs_;
};

/// Map `point` over [0, count) with `jobs` threads (0 = hardware
/// concurrency) and return the results in point order.
template <typename Fn>
auto run_sweep_parallel(std::size_t count, Fn&& point, unsigned jobs = 0)
    -> std::vector<decltype(point(std::size_t{}))> {
  using Result = decltype(point(std::size_t{}));
  std::vector<std::optional<Result>> slots(count);
  ParallelRunner(jobs).run_indexed(
      count, [&](std::size_t i) { slots[i].emplace(point(i)); });
  std::vector<Result> out;
  out.reserve(count);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace itb::sim
