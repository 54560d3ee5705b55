#include "itb/core/experiments.hpp"

namespace itb::core {
namespace {

using Routes = std::vector<std::vector<std::vector<packet::Route>>>;

/// The testbed with the routes shared by every testbed experiment (the
/// plain reverse path and the in-transit host's service paths, used by GM
/// acks) plus the forward routes `host1_to_host2`.
ClusterConfig testbed_config(std::vector<packet::Route> host1_to_host2,
                             const nic::McpOptions& options) {
  Routes r(3, std::vector<std::vector<packet::Route>>(3));
  r[kHost2][kHost1] = {{5, 0}};      // s1 -> s0 -> h0
  r[kHost1][kInTransit] = {{4}};     // s0 -> h1
  r[kInTransit][kHost1] = {{0}};     // s0 -> h0
  r[kInTransit][kHost2] = {{5, 4}};  // s0 -> s1 -> h2
  r[kHost2][kInTransit] = {{5, 4}};  // s1 -> s0 -> h1
  r[kHost1][kHost2] = std::move(host1_to_host2);
  ClusterConfig cfg;
  cfg.topology = topo::make_paper_testbed();
  cfg.mcp_options = options;
  cfg.manual_routes = std::move(r);
  return cfg;
}

}  // namespace

ClusterConfig fig7_config(bool modified_mcp) {
  nic::McpOptions options;
  options.itb_support = modified_mcp;
  // 3 traversals forward (s0, s1, loop back into s1), 2 reverse: the
  // paper's "packets traversing 2.5 switches".
  return testbed_config({{5, 7, 4}}, options);
}

ClusterConfig fig8_config(bool itb_path, const nic::McpOptions& options) {
  // 5 traversals either way: through the ITB at h1, or round the loop in
  // switch 2.
  if (itb_path) return testbed_config({{5, 6, 4}, {6, 4}}, options);
  return testbed_config({{5, 7, 6, 6, 4}}, options);
}

}  // namespace itb::core
