// The unit the network carries between NICs.
#pragma once

#include <cstdint>

#include "itb/packet/format.hpp"
#include "itb/sim/time.hpp"

namespace itb::net {

/// Identifies one in-flight transmission (not one logical message: an ITB
/// re-injection is a new transmission of the same logical packet).
using TxHandle = std::uint64_t;

struct WirePacket {
  TxHandle handle = 0;
  packet::Bytes bytes;      // route bytes still present are consumed en route
  std::uint16_t src_host = 0;
  /// The bytes still carry the CRC their framing NIC computed over them:
  /// nothing has touched them since. A receiver need not recompute it.
  bool crc_intact = false;
  sim::Time injected_at = 0;
};

}  // namespace itb::net
