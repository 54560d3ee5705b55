#include "itb/workload/load.hpp"

#include <stdexcept>

#include "itb/sim/stats.hpp"

namespace itb::workload {

LoadResult run_load(sim::EventQueue& queue, std::vector<gm::GmPort*> ports,
                    const LoadConfig& config) {
  // Delivery timestamps: the message payload carries its send time in the
  // first 8 bytes.
  if (config.message_bytes < 8)
    throw std::invalid_argument("message_bytes must be >= 8");
  const auto n = ports.size();
  const sim::Time measure_start = queue.now() + config.warmup;
  const sim::Time measure_end = measure_start + config.measure;

  LoadResult result;
  sim::RunningStats latency;
  std::uint64_t base_retransmissions = 0;
  for (auto* p : ports) base_retransmissions += p->stats().retransmissions;

  ArrivalGenerator generator(
      queue, n, config.arrivals, [&](std::size_t src, std::uint16_t dst) {
        packet::Bytes msg(config.message_bytes, 0);
        const sim::Time now = queue.now();
        for (int b = 0; b < 8; ++b)
          msg[static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(now >> (8 * (7 - b)));
        if (!ports[src]->send(dst, std::move(msg))) ++result.sends_refused;
      });
  for (auto* p : ports) {
    p->set_receive_handler(
        [&](sim::Time t, std::uint16_t, packet::Bytes msg) {
          sim::Time sent = 0;
          for (int b = 0; b < 8; ++b)
            sent = (sent << 8) | msg[static_cast<std::size_t>(b)];
          if (sent >= measure_start && t <= measure_end) {
            ++result.messages_delivered;
            latency.add(static_cast<double>(t - sent));
            result.latency_hist.add(static_cast<double>(t - sent));
          }
        });
  }

  generator.start(measure_end);
  queue.run(measure_end + config.warmup);  // cool-down drains stragglers
  // Later deliveries must not reach this frame.
  for (auto* p : ports) p->set_receive_handler({});

  const double window_s = static_cast<double>(config.measure) / 1e9;
  result.accepted_msgs_per_s_per_host =
      static_cast<double>(result.messages_delivered) / window_s /
      static_cast<double>(n);
  result.accepted_bytes_per_s =
      static_cast<double>(result.messages_delivered) *
      static_cast<double>(config.message_bytes) / window_s;
  result.latency_mean_ns = latency.mean();
  result.latency_p50_ns = result.latency_hist.percentile(50);
  result.latency_p95_ns = result.latency_hist.percentile(95);
  result.latency_p99_ns = result.latency_hist.percentile(99);
  result.latency_p999_ns = result.latency_hist.percentile(99.9);
  result.arrivals = generator.arrivals();
  for (auto* p : ports) result.retransmissions += p->stats().retransmissions;
  result.retransmissions -= base_retransmissions;
  return result;
}

}  // namespace itb::workload
