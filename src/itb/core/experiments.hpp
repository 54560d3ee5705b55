// Preset clusters for the paper's experiments (§5, Figs. 6-8).
//
// The evaluation testbed (Fig. 6) is topo::make_paper_testbed(). Both tests
// run gm_allsize ping-pong between host1 (h0) and host2 (h2) over
// hand-built routes — exactly how the authors controlled switch-traversal
// counts and port kinds:
//
// Fig. 7 (code overhead) — up*/down* routes both ways, packets traversing
//   2.5 switches on average: forward h0->h2 = [5, 7, 4] (s0, s1, loop back
//   into s1: 3 traversals), reverse h2->h0 = [5, 0] (2 traversals). The two
//   clusters differ only in MCP build (original vs ITB-capable).
//
// Fig. 8 (per-ITB overhead) — both paths cross 5 switches and the same
//   port kinds (one LAN port each: host1's own link):
//   * UD:      h0->h2 = [5, 7, 6, 6, 4] — trunk A to s1, the loopback
//              cable ("a loop in switch 2"), trunk B back to s0, trunk B
//              forward again, out to h2.
//   * UD+ITB:  h0->h2 = [5, 6, 4] then ITB at h1, then [6, 4] — trunk A,
//              trunk B back, eject at the in-transit host, re-inject over
//              trunk B forward, out to h2. No directed channel is shared
//              between the two wormhole segments, so cut-through
//              re-injection never self-blocks.
//   The reverse (pong) route is the plain [5, 0] in both clusters, so the
//   half-round-trip difference isolates exactly one ITB crossing; the
//   paper therefore multiplies the difference by two (§5), and so do the
//   benches.
#pragma once

#include "itb/core/cluster.hpp"

namespace itb::core {

/// Testbed host roles (see topo::make_paper_testbed).
inline constexpr std::uint16_t kHost1 = 0;
inline constexpr std::uint16_t kInTransit = 1;
inline constexpr std::uint16_t kHost2 = 2;

/// Fig. 7 cluster config: up*/down* routes; `modified_mcp` selects the
/// ITB-capable MCP (true) or the original GM MCP (false).
ClusterConfig fig7_config(bool modified_mcp);

/// Fig. 8 cluster config: ITB-capable MCP on every NIC; `itb_path` selects
/// the UD+ITB forward route (true) or the 5-traversal UD route (false).
/// `options` lets the ablation benches tweak the MCP.
ClusterConfig fig8_config(bool itb_path, const nic::McpOptions& options = {});

}  // namespace itb::core
