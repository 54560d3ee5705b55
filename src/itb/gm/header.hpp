// GM message header carried inside the Myrinet packet payload.
//
// GM provides reliable, ordered delivery over an unreliable wire (§3). Our
// header carries what go-back-N needs: a per-connection sequence number,
// message framing for fragmentation/reassembly, and a subtype separating
// data from acknowledgements.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "itb/packet/format.hpp"

namespace itb::gm {

enum class Subtype : std::uint8_t { kData = 1, kAck = 2 };

struct GmHeader {
  Subtype subtype = Subtype::kData;
  std::uint16_t src_host = 0;
  std::uint16_t dst_host = 0;
  /// Data: this fragment's sequence number. Ack: cumulative — every
  /// sequence up to and including this one is acknowledged.
  std::uint32_t seq = 0;
  std::uint32_t msg_id = 0;       // data only
  std::uint32_t frag_offset = 0;  // byte offset of this fragment
  std::uint32_t msg_len = 0;      // total message length
  std::uint16_t frag_len = 0;     // bytes of user data in this packet

  static constexpr std::size_t kSize = 1 + 2 + 2 + 4 + 4 + 4 + 4 + 2;
};

/// The wire form of a header alone. GM posts it with the fragment data as
/// the NIC's two-piece payload, so sending builds no per-packet buffer.
using HeaderBytes = std::array<std::uint8_t, GmHeader::kSize>;

HeaderBytes encode_header(const GmHeader& h);

/// Serialize the header followed by `data` into one packet payload buffer,
/// with frag_len set to data.size() — a hand-built GM packet for
/// Nic::post_send.
packet::Bytes encode(const GmHeader& h, std::span<const std::uint8_t> data);

/// Parse a payload produced by encode(). Returns nullopt on malformed
/// input (short buffer, inconsistent frag_len, unknown subtype, a data
/// fragment reaching past its message's end). Nothing is copied: `data`
/// views the fragment's user data inside `payload`.
struct Decoded {
  GmHeader header;
  std::span<const std::uint8_t> data;
};
std::optional<Decoded> decode(std::span<const std::uint8_t> payload);

}  // namespace itb::gm
