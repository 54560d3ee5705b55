#include "itb/telemetry/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace itb::telemetry {

LatencyHistogram::LatencyHistogram(unsigned sub_bits) : sub_bits_(sub_bits) {
  if (sub_bits_ < 1 || sub_bits_ > 16)
    throw std::invalid_argument("sub_bits must be in [1, 16]");
}

// Index layout (s = sub_bits):
//   v < 2^(s+1)            -> index v (unit-width, exact)
//   otherwise, with shift = bit_width(v) - 1 - s >= 1 and sub = v >> shift
//   (sub in [2^s, 2^(s+1))) -> index shift * 2^s + sub.
// The two regions meet seamlessly: v = 2^(s+1) gives shift 1, sub 2^s,
// index 2^(s+1).
std::size_t LatencyHistogram::index_of(std::uint64_t v) const {
  const std::uint64_t exact_limit = 1ull << (sub_bits_ + 1);
  if (v < exact_limit) return static_cast<std::size_t>(v);
  const unsigned shift =
      static_cast<unsigned>(std::bit_width(v)) - 1 - sub_bits_;
  const std::uint64_t sub = v >> shift;
  return static_cast<std::size_t>((static_cast<std::uint64_t>(shift)
                                   << sub_bits_) + sub);
}

std::uint64_t LatencyHistogram::bucket_lo(std::size_t i) const {
  const std::size_t exact_limit = std::size_t{1} << (sub_bits_ + 1);
  if (i < exact_limit) return i;
  const std::uint64_t shift = (i >> sub_bits_) - 1;
  const std::uint64_t sub = i - (shift << sub_bits_);
  return sub << shift;
}

std::uint64_t LatencyHistogram::bucket_hi(std::size_t i) const {
  const std::size_t exact_limit = std::size_t{1} << (sub_bits_ + 1);
  if (i < exact_limit) return i + 1;
  const std::uint64_t shift = (i >> sub_bits_) - 1;
  const std::uint64_t sub = i - (shift << sub_bits_);
  return (sub + 1) << shift;
}

void LatencyHistogram::add(double v) {
  if (std::isnan(v)) return;
  record(v <= 0.0 ? 0 : static_cast<std::uint64_t>(v));
}

void LatencyHistogram::record(std::uint64_t v, std::uint64_t times) {
  if (times == 0) return;
  const std::size_t idx = index_of(v);
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  counts_[idx] += times;
  total_ += times;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  sum_ += static_cast<double>(v) * static_cast<double>(times);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.sub_bits_ != sub_bits_)
    throw std::invalid_argument("cannot merge histograms of different sub_bits");
  if (other.counts_.size() > counts_.size())
    counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  total_ += other.total_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

double LatencyHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  if (p == 0.0) return static_cast<double>(min());
  if (p == 100.0) return static_cast<double>(max_);
  // Nearest rank: the smallest rank covering fraction p of the population.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      const double mid = static_cast<double>(bucket_lo(i)) +
                         static_cast<double>(bucket_hi(i) - bucket_lo(i) - 1) /
                             2.0;
      return std::clamp(mid, static_cast<double>(min()),
                        static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

std::vector<LatencyHistogram::Bucket> LatencyHistogram::nonzero_buckets()
    const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    if (counts_[i] > 0)
      out.push_back(Bucket{bucket_lo(i), bucket_hi(i), counts_[i]});
  return out;
}

}  // namespace itb::telemetry
