// Quickstart: build a small Myrinet COW, let the mapper compute ITB routes,
// and exchange GM messages between two hosts.
//
//   $ ./quickstart
#include <cstdio>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/workload/pingpong.hpp"

int main(int argc, char** argv) {
  using namespace itb;
  bench::Harness h("quickstart", 0);
  h.parse(argc, argv);  // it takes no argument: any one exits 2

  // 1. Describe the fabric: two 8-port switches, two hosts each.
  topo::Topology fabric;
  fabric.add_switch(8, "left");
  fabric.add_switch(8, "right");
  fabric.connect_switches(0, 0, 1, 0);            // one SAN trunk
  for (std::uint16_t h = 0; h < 4; ++h) {
    fabric.add_host("node" + std::to_string(h));
    fabric.attach_host(h, h < 2 ? 0 : 1, static_cast<std::uint8_t>(1 + h % 2),
                       topo::PortKind::kLan);
  }

  // 2. Assemble the cluster. The mapper discovers the fabric with probe
  //    packets, computes routes (UD+ITB policy here) and downloads them
  //    into every NIC. Timing models default to the paper's testbed.
  core::ClusterConfig cfg;
  cfg.topology = std::move(fabric);
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster cluster(std::move(cfg));

  std::printf("mapper: %zu switches, %zu hosts discovered with %llu probes\n",
              cluster.mapper_report()->switches_found(),
              cluster.mapper_report()->hosts_found(),
              static_cast<unsigned long long>(
                  cluster.mapper_report()->probes_sent));
  std::printf("route table deadlock-free: %s\n\n",
              cluster.routes_deadlock_free() ? "yes" : "NO");

  // 3. Send one message and watch it arrive.
  cluster.port(3).set_receive_handler(
      [](sim::Time t, std::uint16_t src, packet::Bytes msg) {
        std::printf("node3 received %zu bytes from node%u at t=%.2f us\n",
                    msg.size(), src, static_cast<double>(t) / 1000.0);
      });
  cluster.port(0).send(3, packet::Bytes(2048, 0x42),
                       [](sim::Time t) {
                         std::printf("node0 send token returned at t=%.2f us "
                                     "(acknowledged)\n",
                                     static_cast<double>(t) / 1000.0);
                       });
  cluster.run();

  // 4. Measure: a gm_allsize-style ping-pong.
  auto row = workload::run_pingpong(cluster.queue(), cluster.port(0),
                                    cluster.port(3), 64, 100);
  std::printf("\n64 B half-round-trip: %.2f us (100 iterations)\n",
              row.half_rtt_ns / 1000.0);
  return 0;
}
