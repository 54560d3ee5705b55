// Log-bucketed latency histogram (HDR-histogram style).
//
// The simulator's one distribution type. Keeping every sample would make
// percentiles exact, but a long loaded run records millions of latencies and
// the sample vector would grow without bound. LatencyHistogram trades a
// bounded relative error for O(buckets) memory: values below 2^(sub_bits+1)
// land in exact unit-width buckets; above that, every power-of-two range is
// split into 2^sub_bits linear sub-buckets, so the bucket width is always
// <= value / 2^sub_bits. With the default sub_bits = 7 (128 sub-buckets per
// octave) the worst-case relative error of a reported percentile is
// 1/256 < 0.4%, comfortably inside the 1% target the test suite enforces.
//
// Values are non-negative integers — nanoseconds everywhere in this repo.
// Histograms with equal sub_bits can be merge()d, so per-host distributions
// aggregate into per-run ones.
#pragma once

#include <cstdint>
#include <vector>

namespace itb::telemetry {

class LatencyHistogram {
 public:
  explicit LatencyHistogram(unsigned sub_bits = 7);

  /// Record one value. Negative doubles clamp to zero; fractions truncate
  /// (the simulator clock is integral anyway).
  void add(double v);
  void record(std::uint64_t v, std::uint64_t times = 1);

  /// Merge another histogram recorded with the same sub_bits.
  /// Throws std::invalid_argument on a resolution mismatch.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return total_; }
  bool empty() const { return total_ == 0; }
  /// Exact extremes and mean (tracked outside the buckets).
  std::uint64_t min() const { return total_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }
  double sum() const { return sum_; }

  /// Nearest-rank percentile, p in [0, 100] (clamped). Returns the
  /// representative (midpoint) value of the bucket holding the rank,
  /// clamped into [min(), max()]; p = 0 returns min(), p = 100 max().
  double percentile(double p) const;

  unsigned sub_bits() const { return sub_bits_; }

  /// Non-empty buckets as [lo, hi) ranges, for export.
  struct Bucket {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  // exclusive
    std::uint64_t count = 0;
  };
  std::vector<Bucket> nonzero_buckets() const;

 private:
  std::size_t index_of(std::uint64_t v) const;
  std::uint64_t bucket_lo(std::size_t i) const;
  std::uint64_t bucket_hi(std::size_t i) const;

  unsigned sub_bits_;
  std::vector<std::uint64_t> counts_;  // grows lazily with the max index seen
  std::uint64_t total_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace itb::telemetry
