// The CRC that guards every packet.
//
// Myrinet packets carry an 8-bit CRC appended by the sending interface and
// checked (and stripped/recomputed) at each hop. We implement it as
// CRC-8/ATM (poly 0x07) for the trailing byte; the simulator models no
// other checksum. The MCP's check cycles are modelled on every packet, but
// the byte itself is computed only where something reads it: a NIC frames
// it only when a fault hook may corrupt the bytes (net::WirePacket::
// crc_intact), and a receiver verifies only bytes such a hook touched.
#pragma once

#include <cstdint>
#include <span>

namespace itb::packet {

/// CRC-8, polynomial x^8+x^2+x+1 (0x07), init 0, no reflection.
std::uint8_t crc8(std::span<const std::uint8_t> data);

}  // namespace itb::packet
