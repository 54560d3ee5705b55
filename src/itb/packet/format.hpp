// Myrinet packet formats (paper Fig. 3).
//
// Original packet (Fig. 3a):   [ Path | Type | Payload | CRC ]
// ITB packet      (Fig. 3b):   [ Path | ITB | Length | Path | Type | Payload | CRC ]
//
// `Path` is a sequence of route bytes, one per switch traversal; each switch
// consumes the leading byte to pick its output port. When a packet reaches a
// NIC the leading two bytes name its type; an in-transit NIC recognises the
// ITB tag, reads the remaining-header `Length`, strips the tag, and
// re-injects the rest of the packet, whose own leading bytes are the next
// source route. Several ITB stages can be chained (more than one ITB per
// path, §1).
//
// Wire encoding choices (ours; the real byte values are Myricom-assigned):
//   route byte  = 0x80 | output_port      (high bit marks a route byte)
//   type        = 2 bytes, big-endian     (PacketType below)
//   ITB tag     = type kItb + 1 byte Length (remaining header bytes)
//   CRC         = CRC-8 over Type..Payload (route bytes excluded so hops
//                 that consume route bytes don't have to recompute it)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace itb::packet {

using Bytes = std::vector<std::uint8_t>;

/// Leading 2-byte packet types understood by a NIC (§4: "a normal GM packet,
/// a mapping packet, a packet with an IP packet in its payload or an ITB
/// packet"). New types are assigned by Myricom on request; kItb is the one
/// this paper requested.
enum class PacketType : std::uint16_t {
  kGm = 0x0001,
  kMapping = 0x0002,
  kIp = 0x0003,
  kItb = 0x0004,
};

/// A source route: output ports, in traversal order.
using Route = std::vector<std::uint8_t>;

inline constexpr std::uint8_t kRouteByteFlag = 0x80;

std::uint8_t encode_route_byte(std::uint8_t port);
bool is_route_byte(std::uint8_t b);
std::uint8_t decode_route_byte(std::uint8_t b);

/// Hard ceiling on bytes a single ITB `Length` field can describe.
inline constexpr std::size_t kMaxHeaderBytes = 255;

/// Build an original-format packet (Fig. 3a).
Bytes build_packet(const Route& route, PacketType type,
                   std::span<const std::uint8_t> payload);

/// Build an ITB-format packet (Fig. 3b) whose path is split into
/// `segments` (>= 1). With one segment this degenerates to build_packet.
/// Throws std::invalid_argument if a Length field would overflow.
Bytes build_itb_packet(const std::vector<Route>& segments, PacketType type,
                       std::span<const std::uint8_t> payload);

/// What a parser found at the head of a buffer that reached a NIC
/// (i.e. after all route bytes of the current segment were consumed).
struct ParsedHead {
  PacketType type;
  /// For kItb: the Length field (remaining header bytes after the tag).
  std::uint8_t itb_remaining_header = 0;
  /// Offset of the first payload byte (for terminal packets).
  std::size_t payload_offset = 0;
  /// Payload length in bytes (terminal packets; excludes trailing CRC).
  std::size_t payload_length = 0;
};

/// Parse the head of a received buffer. Returns nullopt on malformed input
/// (leading route bytes, short buffer, unknown type).
std::optional<ParsedHead> parse_head(std::span<const std::uint8_t> buffer);

/// Decode just the 2-byte type field — all the Early Recv handler can do
/// with the 4-byte snapshot the LANai hands it (§4). Returns nullopt for
/// route bytes, short buffers or unknown type values.
std::optional<PacketType> peek_type(std::span<const std::uint8_t> buffer);

/// Strip the leading ITB tag (2-byte type + Length byte) from a received
/// in-transit packet, yielding the bytes to re-inject. Throws
/// std::invalid_argument if the buffer does not start with an ITB tag.
Bytes strip_itb_stage(std::span<const std::uint8_t> buffer);

/// Consume the leading route byte (what a switch does). Returns the output
/// port and erases the byte from `buffer`. Throws if no route byte leads.
std::uint8_t consume_route_byte(Bytes& buffer);

/// Verify the trailing CRC-8 of a terminal packet (route bytes must already
/// be consumed).
bool verify_crc(std::span<const std::uint8_t> buffer);

/// Number of route bytes at the head of the buffer.
std::size_t leading_route_bytes(std::span<const std::uint8_t> buffer);

}  // namespace itb::packet
