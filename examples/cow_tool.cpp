// cow_tool — drive the library from a topology description file.
//
//   cow_tool routes   <file> [ud|itb]          print the route table
//   cow_tool check    <file>                   validate + deadlock analysis
//   cow_tool pingpong <file> <src> <dst> [sz]  measure half-RTT
//   cow_tool serialize <file>                  parse + re-emit (round trip)
//
// The file format is documented in itb/topo/parse.hpp. Example:
//
//   switch sw0 8
//   switch sw1 8
//   host a
//   host b
//   link sw0:0 sw1:0 san
//   link a:0 sw0:1 lan
//   link b:0 sw1:1 lan
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "itb/core/cluster.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/topo/parse.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_routes(const topo::Topology& topo, routing::Policy policy) {
  routing::UpDown ud(topo);
  routing::Router router(ud);
  routing::RouteTable table(router, policy);
  std::printf("%s routes, %zu hosts:\n", to_string(policy), topo.host_count());
  for (std::uint16_t s = 0; s < topo.host_count(); ++s)
    for (std::uint16_t d = 0; d < topo.host_count(); ++d) {
      if (s == d) continue;
      std::printf("  %s\n", routing::describe(table.route(s, d), topo).c_str());
    }
  std::printf("avg trunk hops %.3f, minimal fraction %.3f, avg ITBs %.3f\n",
              table.average_trunk_hops(), table.minimal_fraction(router),
              table.average_itbs());
  return 0;
}

int cmd_check(const topo::Topology& topo) {
  topo.validate();
  std::printf("topology OK: %zu switches, %zu hosts, %zu cables\n",
              topo.switch_count(), topo.host_count(), topo.link_count());
  routing::UpDown ud(topo);
  routing::Router router(ud);
  std::printf("best up*/down* root: switch %u (current: 0)\n",
              routing::select_best_root(topo));
  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    routing::RouteTable table(router, policy);
    routing::DependencyGraph graph(topo);
    graph.add_table(table, topo);
    std::printf("%-10s table: %s\n", to_string(policy),
                graph.has_cycle() ? "CYCLIC (deadlock!)" : "deadlock-free");
  }
  return 0;
}

int cmd_pingpong(topo::Topology topo, std::uint16_t src, std::uint16_t dst,
                 std::size_t size) {
  core::ClusterConfig cfg;
  cfg.topology = std::move(topo);
  cfg.engine = {engine::EngineKind::kItb, 1};
  core::Cluster cluster(std::move(cfg));
  auto row = workload::run_pingpong(cluster.queue(), cluster.port(src),
                                    cluster.port(dst), size, 100);
  std::printf("h%u <-> h%u, %zu B: half-RTT %.3f us (min %.3f, max %.3f)\n",
              src, dst, size, row.half_rtt_ns / 1000.0, row.min_ns / 1000.0,
              row.max_ns / 1000.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s routes|check|pingpong|serialize <file> [args]\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  topo::Topology topo;
  try {
    topo = topo::parse_topology(read_file(argv[2]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }

  try {
    if (cmd == "routes") {
      const auto policy = (argc > 3 && std::string(argv[3]) == "ud")
                              ? routing::Policy::kUpDown
                              : routing::Policy::kItb;
      return cmd_routes(topo, policy);
    }
    if (cmd == "check") return cmd_check(topo);
    if (cmd == "pingpong") {
      if (argc < 5) {
        std::fprintf(stderr, "pingpong needs <src> <dst>\n");
        return 2;
      }
      const auto src = static_cast<std::uint16_t>(std::atoi(argv[3]));
      const auto dst = static_cast<std::uint16_t>(std::atoi(argv[4]));
      const std::size_t size = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 64;
      return cmd_pingpong(std::move(topo), src, dst, size);
    }
    if (cmd == "serialize") {
      std::fputs(topo::serialize_topology(topo).c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
