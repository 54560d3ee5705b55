// GM's reliability machinery under an unfaithful wire: drop and corrupt
// packets (including across an in-transit buffer) and watch sequence
// numbers, acks and retransmissions put the message stream back together.
//
//   $ ./fault_injection_demo [drop%] [corrupt%]
#include <cstdio>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/topo/builders.hpp"

int main(int argc, char** argv) {
  using namespace itb;
  bench::Harness h("fault_injection_demo", 0);
  double drop_percent = 15.0, corrupt_percent = 5.0;
  h.cli.positional("drop%", &drop_percent, 0, 100);
  h.cli.positional("corrupt%", &corrupt_percent, 0, 100);
  h.parse(argc, argv);
  const double drop = drop_percent / 100.0;
  const double corrupt = corrupt_percent / 100.0;

  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};  // src 4 -> dst 1 crosses one ITB
  cfg.fault_schedule.drop_probability = drop;
  cfg.fault_schedule.corrupt_probability = corrupt;
  cfg.fault_schedule.seed = 42;
  cfg.gm_config.retransmit_timeout = 200 * sim::kUs;
  core::Cluster c(std::move(cfg));

  std::printf("fabric: Fig. 1 network; route h4 -> h1 uses %zu ITB(s)\n",
              c.route_table()->route(4, 1).itb_count());
  std::printf("faults: %.0f%% drop, %.0f%% corrupt\n\n", drop * 100,
              corrupt * 100);

  constexpr int kMessages = 40;
  int received = 0;
  bool in_order = true;
  c.port(1).set_receive_handler(
      [&](sim::Time t, std::uint16_t, packet::Bytes m) {
        if (m[0] != received) in_order = false;
        ++received;
        if (received % 10 == 0)
          std::printf("  %2d/%d delivered by t=%.1f ms\n", received, kMessages,
                      static_cast<double>(t) / 1e6);
      });
  int next = 0;
  std::function<void()> feed = [&] {
    while (next < kMessages &&
           c.port(4).send(1, packet::Bytes(1500, static_cast<std::uint8_t>(next))))
      ++next;
    // Once GM declares the connection dead every send fails: stop feeding.
    if (next < kMessages && c.port(4).stats().send_failures == 0)
      c.queue().schedule_in(100 * sim::kUs, feed);
  };
  feed();
  c.run();

  const auto& tx = c.port(4).stats();
  std::printf("\nresult: %d/%d messages, order %s\n", received, kMessages,
              in_order ? "preserved" : "VIOLATED");
  std::printf("wire faults injected: %llu\n",
              static_cast<unsigned long long>(
                  c.network().stats().faults_injected));
  std::printf("data packets posted:  %llu (retransmissions: %llu)\n",
              static_cast<unsigned long long>(tx.packets_data),
              static_cast<unsigned long long>(tx.retransmissions));
  std::printf("duplicates discarded: %llu, bad CRC discarded: %llu\n",
              static_cast<unsigned long long>(c.port(1).stats().duplicates),
              static_cast<unsigned long long>(c.nic(1).stats().rx_bad_crc));
  return received == kMessages && in_order ? 0 : 1;
}
