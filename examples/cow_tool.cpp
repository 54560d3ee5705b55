// cow_tool — drive the library from a topology description file.
//
//   cow_tool routes   <file> [ud|itb]          print the route table
//   cow_tool check    <file>                   validate + deadlock analysis
//   cow_tool pingpong <file> <src> <dst> [sz]  measure half-RTT (hosts below
//                                              the host count, 1 B-1 MiB)
//   cow_tool serialize <file>                  parse + re-emit (round trip)
//   cow_tool trace    <file.flt>               print a flight recording,
//                                              one event per line
//
// The topology file format is documented in itb/topo/parse.hpp; .flt files
// are the itb.flight.v1 recordings benches write with --flight-out.
// Example topology:
//
//   switch sw0 8
//   switch sw1 8
//   host a
//   host b
//   link sw0:0 sw1:0 san
//   link a:0 sw0:1 lan
//   link b:0 sw1:1 lan
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "itb/core/cluster.hpp"
#include "itb/flight/replay.hpp"
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
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster cluster(std::move(cfg));
  auto row = workload::run_pingpong(cluster.queue(), cluster.port(src),
                                    cluster.port(dst), size, 100);
  std::printf("h%u <-> h%u, %zu B: half-RTT %.3f us (min %.3f, max %.3f)\n",
              src, dst, size, row.half_rtt_ns / 1000.0, row.min_ns / 1000.0,
              row.max_ns / 1000.0);
  return 0;
}

int cmd_trace(const char* path) {
  const auto recording = flight::ReplayChecker::load(path);
  if (!recording) {
    std::fprintf(stderr, "cannot load itb.flight.v1 recording %s\n", path);
    return 1;
  }
  for (const auto& e : recording->events)
    std::printf("%s\n", flight::describe(e).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Everything after `<command> <file>` goes through the benches' strict
  // parser: a bad argument prints one usage line on stderr and exits 2.
  const std::string cmd = argc > 1 ? argv[1] : "";
  const auto parse_args = [&](const bench::Cli& cli, const char* needs) {
    const std::string program = "cow_tool " + cmd + " <file>";
    try {
      if (argc < 3) throw std::invalid_argument("missing <file>");
      if (needs && argc < 5) throw std::invalid_argument(needs);
      cli.parse(argc - 2, argv + 2);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "cow_tool %s: %s; %s\n", cmd.c_str(), e.what(),
                   cli.usage(program).c_str());
      std::exit(2);
    }
  };
  if (cmd != "routes" && cmd != "check" && cmd != "pingpong" &&
      cmd != "serialize" && cmd != "trace") {
    std::fprintf(stderr,
                 "cow_tool: unknown command '%s'; usage: cow_tool "
                 "routes|check|pingpong|serialize|trace <file> [args]\n",
                 cmd.c_str());
    return 2;
  }
  if (argc < 3) parse_args(bench::Cli{}, nullptr);  // exits: no <file>
  // A recording is not a topology: dispatch before the topology parse.
  if (cmd == "trace") {
    parse_args(bench::Cli{}, nullptr);
    return cmd_trace(argv[2]);
  }
  // Host bounds come from the topology, so it is read first.
  topo::Topology topo;
  try {
    topo = topo::parse_topology(read_file(argv[2]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }

  try {
    bench::Cli cli;
    if (cmd == "routes") {
      std::string policy = "itb";
      cli.positional("ud|itb", &policy, {"ud", "itb"});
      parse_args(cli, nullptr);
      return cmd_routes(topo, policy == "ud" ? routing::Policy::kUpDown
                                             : routing::Policy::kItb);
    }
    if (cmd == "pingpong") {
      const auto last = static_cast<std::uint16_t>(
          std::max<std::size_t>(topo.host_count(), 1) - 1);
      std::uint16_t src = 0, dst = 0;
      std::size_t size = 64;
      cli.positional("src", &src, std::uint16_t{0}, last);
      cli.positional("dst", &dst, std::uint16_t{0}, last);
      cli.positional("size", &size, std::size_t{1}, std::size_t{1} << 20);
      parse_args(cli, "needs <src> <dst>");
      return cmd_pingpong(std::move(topo), src, dst, size);
    }
    parse_args(cli, nullptr);
    if (cmd == "check") return cmd_check(topo);
    std::fputs(topo::serialize_topology(topo).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
