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

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
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

/// The one encoder of a route header: everything a sender puts in front
/// of the final Type. Route bytes of segment 0, then per ITB the kItb tag,
/// the Length byte and the next segment's route bytes (Fig. 3b; one
/// segment is Fig. 3a). It is written back to front, the final route byte
/// first, one route byte or ITB stage at a time: each Length (the header
/// bytes behind it, the final Type included) is known when its stage is
/// written, and the route solver writes straight from its predecessor
/// chain, which runs from the destination back to the source. The bytes go
/// at the end of the caller's buffer, and finish() turns them around.
class HeaderEncoder {
 public:
  /// Start a header at the current end of `out`.
  explicit HeaderEncoder(Bytes& out) : out_(out), start_(out.size()) {}

  /// Prepend a route byte. Throws std::invalid_argument for port >= 128.
  void port(std::uint8_t p) { out_.push_back(encode_route_byte(p)); }

  /// Prepend an ITB stage, the kItb tag and its Length: the segment before
  /// it ends at an in-transit host, whose route byte goes in front of it.
  /// Throws std::invalid_argument if the Length overflows.
  void itb();

  /// Put the header's bytes in wire order.
  void finish();

 private:
  Bytes& out_;
  std::size_t start_;
};

/// Append the header for `segments` (>= 1) to `out` through HeaderEncoder.
void append_header(Bytes& out, const std::vector<Route>& segments);

/// A ready header read in place from where a route table stores it, in two
/// parts: every byte but the last, which the hosts of one destination
/// switch share, and the final route byte toward one of them. It reads as
/// the whole header, byte by byte. A header never ends in 0 (a route byte
/// has its high bit set, a Length counts at least the Type), so a final
/// byte of 0 means no header at all.
class HeaderView {
 public:
  /// Random-access iterator over the header's bytes, by value.
  class iterator {
   public:
    using value_type = std::uint8_t;
    using difference_type = std::ptrdiff_t;
    using iterator_concept = std::random_access_iterator_tag;

    iterator() = default;
    std::uint8_t operator*() const {
      return static_cast<std::size_t>(pos_) < body_.size() ? body_[pos_]
                                                           : last_;
    }
    std::uint8_t operator[](difference_type n) const { return *(*this + n); }
    iterator& operator++() { return *this += 1; }
    iterator operator++(int) { return std::exchange(*this, *this + 1); }
    iterator& operator--() { return *this -= 1; }
    iterator operator--(int) { return std::exchange(*this, *this - 1); }
    iterator& operator+=(difference_type n) {
      pos_ += n;
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return a.pos_ - b.pos_;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend std::strong_ordering operator<=>(const iterator& a,
                                            const iterator& b) {
      return a.pos_ <=> b.pos_;
    }

   private:
    friend class HeaderView;
    iterator(std::span<const std::uint8_t> body, std::uint8_t last,
             difference_type pos)
        : body_(body), last_(last), pos_(pos) {}
    std::span<const std::uint8_t> body_;
    std::uint8_t last_ = 0;
    difference_type pos_ = 0;
  };

  HeaderView() = default;
  HeaderView(std::span<const std::uint8_t> body, std::uint8_t last)
      : body_(body), last_(last) {}

  /// Every byte but the final route byte.
  std::span<const std::uint8_t> body() const { return body_; }
  std::uint8_t last() const { return last_; }
  bool empty() const { return last_ == 0; }
  std::size_t size() const { return empty() ? 0 : body_.size() + 1; }
  std::uint8_t operator[](std::size_t i) const {
    return i < body_.size() ? body_[i] : last_;
  }
  iterator begin() const { return {body_, last_, 0}; }
  iterator end() const {
    return {body_, last_, static_cast<std::ptrdiff_t>(size())};
  }

 private:
  std::span<const std::uint8_t> body_;
  std::uint8_t last_ = 0;
};

/// Frame a ready header: `header`, Type, payload and the CRC-8, in one
/// allocation. What the MCP does with the route it downloaded. With `crc`
/// false the trailing byte is 0 instead of the CRC: a sender may skip it
/// only when nothing can touch the bytes before their receiver, which then
/// takes them unchecked (net::WirePacket::crc_intact).
Bytes frame(const HeaderView& header, PacketType type,
            std::span<const std::uint8_t> payload, bool crc);

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
/// in-transit packet, yielding the bytes to re-inject. The buffer is taken
/// by value and stripped in place: move a fully received packet in, copy
/// one that is still arriving. Throws std::invalid_argument if the buffer
/// does not start with an ITB tag.
Bytes strip_itb_stage(Bytes buffer);

/// Consume the leading route byte (what a switch does). Returns the output
/// port and erases the byte from `buffer`. Throws if no route byte leads.
std::uint8_t consume_route_byte(Bytes& buffer);

/// Verify the trailing CRC-8 of a terminal packet (route bytes must already
/// be consumed).
bool verify_crc(std::span<const std::uint8_t> buffer);

/// Number of route bytes at the head of the buffer.
std::size_t leading_route_bytes(std::span<const std::uint8_t> buffer);

}  // namespace itb::packet
