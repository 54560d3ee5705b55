#include "itb/workload/pingpong.hpp"

#include <stdexcept>

namespace itb::workload {

namespace {

AllsizeRow run_one(sim::EventQueue& queue, gm::GmPort& a, gm::GmPort& b,
                   std::size_t size, int iterations,
                   telemetry::Sampler* sampler) {
  sim::RunningStats stats;
  AllsizeRow row;
  row.size = size;

  // B echoes every message back to its source.
  b.set_receive_handler([&b](sim::Time, std::uint16_t src,
                             packet::Bytes message) {
    if (!b.send(src, std::move(message)))
      throw std::logic_error("pingpong: echo side out of send tokens");
  });

  for (int it = 0; it < iterations; ++it) {
    bool done = false;
    sim::Time reply_at = 0;
    a.set_receive_handler(
        [&](sim::Time t, std::uint16_t, packet::Bytes) {
          reply_at = t;
          done = true;
        });
    if (sampler) sampler->start();  // draining the queue parks it
    const sim::Time start = queue.now();
    if (!a.send(b.host(), packet::Bytes(size, 0xA5)))
      throw std::logic_error("pingpong: out of send tokens");
    queue.run();  // drain: unloaded network between iterations
    if (!done) throw std::logic_error("pingpong: reply never arrived");
    const double half_rtt = static_cast<double>(reply_at - start) / 2.0;
    stats.add(half_rtt);
    row.hist.add(half_rtt);
  }

  row.half_rtt_ns = stats.mean();
  row.min_ns = stats.min();
  row.max_ns = stats.max();
  row.stddev_ns = stats.stddev();
  row.p50_ns = row.hist.percentile(50);
  row.p95_ns = row.hist.percentile(95);
  row.p99_ns = row.hist.percentile(99);
  return row;
}

}  // namespace

AllsizeRow run_pingpong(sim::EventQueue& queue, gm::GmPort& a, gm::GmPort& b,
                        std::size_t size, int iterations) {
  return run_one(queue, a, b, size, iterations, nullptr);
}

std::vector<AllsizeRow> run_allsize(sim::EventQueue& queue, gm::GmPort& a,
                                    gm::GmPort& b, const AllsizeConfig& config) {
  std::vector<AllsizeRow> rows;
  rows.reserve(config.sizes.size());
  for (auto size : config.sizes)
    rows.push_back(
        run_one(queue, a, b, size, config.iterations, config.sampler));
  return rows;
}

}  // namespace itb::workload
