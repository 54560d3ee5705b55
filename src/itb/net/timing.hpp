// Wire-level timing parameters.
//
// Defaults are calibrated to the paper's testbed: Myrinet LAN links run at
// 1.28 Gbit/s = 6.25 ns/byte, which matches the paper's own conversions
// (44 bytes = 275 ns, 32 bytes = 200 ns, §2). Switch fall-through and the
// LAN-port penalty reproduce the §5 observation that switch latency depends
// on the traversed port kinds.
#pragma once

#include "itb/sim/time.hpp"

namespace itb::net {

struct NetTiming {
  /// Link rate as nanoseconds per 256 bytes (1600 = 6.25 ns/byte).
  std::int64_t ns_per_256bytes = 1600;

  /// Cable propagation delay per link (few metres of copper/fibre).
  sim::Duration link_latency_ns = 10;

  /// Switch fall-through: header decode + crossbar setup, SAN in/out.
  sim::Duration switch_fallthrough_ns = 150;

  /// Extra latency per LAN port crossed (each of the input and output port
  /// contributes if its link is a LAN link). M2FM-SW8 LAN ports re-time the
  /// signal and are noticeably slower than SAN ports.
  sim::Duration lan_port_penalty_ns = 200;

  sim::Duration byte_time(std::int64_t bytes) const {
    return sim::scaled_bytes_time(bytes, ns_per_256bytes);
  }
};

}  // namespace itb::net
