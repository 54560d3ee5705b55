// The paper's Figure 1, executable: a minimal path that up*/down* routing
// forbids, made legal by one in-transit buffer — with the deadlock-freedom
// argument and the §8 buffer-wait wedge prediction checked on the spot.
//
//   $ ./itb_routing_demo
#include <cstdio>
#include <string>

#include "itb/routing/deadlock.hpp"
#include "itb/routing/paths.hpp"
#include "itb/routing/table.hpp"
#include "itb/topo/builders.hpp"

int main() {
  using namespace itb;

  auto fabric = topo::make_fig1_network();
  routing::UpDown updown(fabric);
  routing::Router router(updown);

  std::printf("Fig. 1 network: 8 switches, one host each; BFS tree rooted "
              "at switch %u\n\n", updown.root());
  std::printf("switch depths:");
  for (std::uint16_t s = 0; s < 8; ++s)
    std::printf(" s%u=%u", s, updown.depth(s));
  std::printf("\n\n");

  // The minimal path host4 -> host1 (switches 4 -> 6 -> 1).
  const auto minimal_row = router.minimal_route(4, 1);
  auto minimal = routing::describe(minimal_row.route(4, 1), fabric);
  auto valid = router.is_valid_updown(minimal_row.route(4, 1).trunk_channels());
  std::printf("minimal path:   %s\n", minimal.c_str());
  std::printf("                %s under up*/down* (down->up turn at s6)\n\n",
              valid ? "LEGAL" : "FORBIDDEN");

  const auto ud_row = router.updown_route(4, 1);
  const auto ud = ud_row.route(4, 1);
  std::printf("up*/down* path: %s\n", routing::describe(ud, fabric).c_str());
  std::printf("                %zu trunk hops (one more than minimal)\n\n",
              ud.trunk_hops());

  const auto itb_row = router.itb_route(4, 1);
  const auto itb = itb_row.route(4, 1);
  std::printf("UD+ITB path:    %s\n", routing::describe(itb, fabric).c_str());
  std::printf("                %zu trunk hops, %zu ITB — the invalid path is "
              "split into two\n                valid up*/down* sub-paths at "
              "the host on switch 6\n\n",
              itb.trunk_hops(), itb.itb_count());

  // Deadlock freedom of the full route tables, and the §8 prediction: the
  // same routes threaded through each in-transit host's receive pool. A
  // cycle through a pool is a buffer-wait wedge the CDG cannot see.
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    routing::RouteTable table(router, policy);
    routing::DependencyGraph graph(fabric);
    graph.add_table(table, fabric);
    std::printf("%-10s all-pairs table: avg hops %.3f, minimal fraction "
                "%.2f, CDG %s\n",
                to_string(policy), table.average_trunk_hops(),
                table.minimal_fraction(router),
                graph.has_cycle() ? "CYCLIC (deadlock!)" : "acyclic");
    routing::DependencyGraph buffered(fabric);
    buffered.add_table_buffered(table, fabric);
    const std::string wedge =
        buffered.cycle_through_buffer()
            ? "wedge-capable (cycle through a pool): " +
                  routing::DependencyGraph::describe(
                      buffered.find_cycle_nodes())
            : "wedge-free (no cycle through a pool)";
    std::printf("%-10s buffer-augmented graph: %s\n", "", wedge.c_str());
  }

  // And the contrast: raw minimal routing without ITBs is NOT safe.
  routing::DependencyGraph raw(fabric);
  for (std::uint16_t s = 0; s < fabric.host_count(); ++s)
    for (std::uint16_t d = 0; d < fabric.host_count(); ++d) {
      if (s == d) continue;
      raw.add_route(router.minimal_route(s, d).route(s, d), fabric);
    }
  std::printf("raw minimal (no ITBs):              CDG %s\n",
              raw.has_cycle() ? "CYCLIC (deadlock!)" : "acyclic");
  return 0;
}
