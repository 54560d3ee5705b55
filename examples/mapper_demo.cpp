// The Myrinet mapper at work: probe-walk discovery of an irregular fabric,
// route computation under both policies, and what the modified (ITB)
// mapper changes.
//
//   $ ./mapper_demo [seed]
#include <cstdio>

#include "harness.hpp"
#include "itb/mapper/mapper.hpp"
#include "itb/routing/paths.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"

int main(int argc, char** argv) {
  using namespace itb;

  bench::Harness h("mapper_demo", 0);
  std::uint64_t seed = 7;
  h.cli.positional("seed", &seed, std::uint64_t{0});
  h.parse(argc, argv);
  sim::Rng rng(seed);
  topo::IrregularSpec spec;
  spec.switches = 12;
  spec.hosts_per_switch = 3;
  auto fabric = topo::make_random_irregular(spec, rng);

  std::printf("fabric: %zu switches, %zu hosts, %zu cables (seed %llu)\n\n",
              fabric.switch_count(), fabric.host_count(), fabric.link_count(),
              static_cast<unsigned long long>(seed));

  auto report = mapper::discover(fabric, /*root_host=*/0);
  std::printf("discovery from host 0: %zu switches and %zu hosts found with "
              "%llu probes\n",
              report.switches_found(), report.hosts_found(),
              static_cast<unsigned long long>(report.probes_sent));
  std::printf("discovery order (true switch ids):");
  for (auto s : report.switch_of) std::printf(" s%u", s);
  std::printf("\n\n");

  for (auto policy : {routing::Policy::kUpDown, routing::Policy::kItb}) {
    auto result = mapper::run(fabric, policy);
    std::printf("%s mapper: avg trunk hops %.3f, avg ITBs/route %.3f\n",
                to_string(policy), result.table.average_trunk_hops(),
                result.table.average_itbs());
    // Show a route that actually uses an ITB, if any.
    for (std::uint16_t s = 0; s < fabric.host_count(); ++s) {
      bool shown = false;
      for (std::uint16_t d = 0; d < fabric.host_count(); ++d) {
        if (s == d) continue;
        const auto& path = result.table.route(s, d);
        if (path.itb_count() > 0) {
          std::printf("  sample ITB route: %s\n",
                      routing::describe(path, result.report.discovered).c_str());
          shown = true;
          break;
        }
      }
      if (shown) break;
    }
  }
  return 0;
}
