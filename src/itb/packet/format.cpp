#include "itb/packet/format.hpp"

#include <algorithm>
#include <stdexcept>

#include "itb/packet/crc.hpp"

namespace itb::packet {

std::uint8_t encode_route_byte(std::uint8_t port) {
  if (port >= kRouteByteFlag)
    throw std::invalid_argument("port too large for a route byte");
  return static_cast<std::uint8_t>(kRouteByteFlag | port);
}

bool is_route_byte(std::uint8_t b) { return (b & kRouteByteFlag) != 0; }

std::uint8_t decode_route_byte(std::uint8_t b) {
  return static_cast<std::uint8_t>(b & ~kRouteByteFlag);
}

namespace {

void append_type(Bytes& out, PacketType type) {
  const auto v = static_cast<std::uint16_t>(type);
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

/// Append Type, payload and the CRC-8 over both (or a 0 in its place)
/// behind a header.
void append_body(Bytes& out, PacketType type,
                 std::span<const std::uint8_t> payload, bool crc = true) {
  const std::size_t body_start = out.size();
  append_type(out, type);
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC over the terminal portion (Type + payload) so that consuming route
  // bytes and stripping ITB stages never invalidates it.
  out.push_back(crc ? crc8(std::span(out).subspan(body_start)) : 0);
}

std::optional<PacketType> read_type(std::span<const std::uint8_t> b) {
  if (b.size() < 2) return std::nullopt;
  const auto v = static_cast<std::uint16_t>((b[0] << 8) | b[1]);
  switch (static_cast<PacketType>(v)) {
    case PacketType::kGm:
    case PacketType::kMapping:
    case PacketType::kIp:
    case PacketType::kItb:
      return static_cast<PacketType>(v);
  }
  return std::nullopt;
}

}  // namespace

void HeaderEncoder::itb() {
  // Everything written so far follows the Length, and the Type after it.
  const std::size_t remaining = out_.size() - start_ + 2;
  if (remaining > kMaxHeaderBytes)
    throw std::invalid_argument("ITB Length field overflow");
  out_.push_back(static_cast<std::uint8_t>(remaining));
  const auto v = static_cast<std::uint16_t>(PacketType::kItb);
  out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void HeaderEncoder::finish() {
  std::reverse(out_.begin() + static_cast<std::ptrdiff_t>(start_), out_.end());
}

void append_header(Bytes& out, const std::vector<Route>& segments) {
  if (segments.empty()) throw std::invalid_argument("no route segments");
  HeaderEncoder enc(out);
  for (std::size_t i = segments.size(); i-- > 0;) {
    for (auto p = segments[i].rbegin(); p != segments[i].rend(); ++p)
      enc.port(*p);
    if (i > 0) enc.itb();
  }
  enc.finish();
}

Bytes frame(const HeaderView& header, PacketType type,
            std::span<const std::uint8_t> payload, bool crc) {
  Bytes out;
  out.reserve(header.size() + 2 + payload.size() + 1);
  out.assign(header.body().begin(), header.body().end());
  if (!header.empty()) out.push_back(header.last());
  append_body(out, type, payload, crc);
  return out;
}

Bytes build_packet(const Route& route, PacketType type,
                   std::span<const std::uint8_t> payload) {
  Bytes out;
  out.reserve(route.size() + 2 + payload.size() + 1);
  HeaderEncoder enc(out);
  for (auto p = route.rbegin(); p != route.rend(); ++p) enc.port(*p);
  enc.finish();
  append_body(out, type, payload);
  return out;
}

Bytes build_itb_packet(const std::vector<Route>& segments, PacketType type,
                       std::span<const std::uint8_t> payload) {
  if (segments.empty()) throw std::invalid_argument("no route segments");
  // Route bytes, an ITB tag + Length per later segment, and the Type.
  std::size_t header = 3 * (segments.size() - 1) + 2;
  for (const auto& seg : segments) header += seg.size();
  Bytes out;
  out.reserve(header + payload.size() + 1);
  append_header(out, segments);
  append_body(out, type, payload);
  return out;
}

std::optional<PacketType> peek_type(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < 2 || is_route_byte(buffer[0])) return std::nullopt;
  return read_type(buffer);
}

std::optional<ParsedHead> parse_head(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < 3) return std::nullopt;
  if (is_route_byte(buffer[0])) return std::nullopt;
  auto type = read_type(buffer);
  if (!type) return std::nullopt;
  ParsedHead head;
  head.type = *type;
  if (*type == PacketType::kItb) {
    head.itb_remaining_header = buffer[2];
    if (buffer.size() < 3u + head.itb_remaining_header + 1u) return std::nullopt;
    return head;
  }
  head.payload_offset = 2;
  head.payload_length = buffer.size() - 3;  // minus type and trailing CRC
  return head;
}

Bytes strip_itb_stage(Bytes buffer) {
  auto head = parse_head(buffer);
  if (!head || head->type != PacketType::kItb)
    throw std::invalid_argument("buffer does not start with an ITB tag");
  buffer.erase(buffer.begin(), buffer.begin() + 3);
  return buffer;
}

std::uint8_t consume_route_byte(Bytes& buffer) {
  if (buffer.empty() || !is_route_byte(buffer[0]))
    throw std::invalid_argument("no leading route byte");
  const std::uint8_t port = decode_route_byte(buffer[0]);
  buffer.erase(buffer.begin());
  return port;
}

bool verify_crc(std::span<const std::uint8_t> buffer) {
  auto head = parse_head(buffer);
  if (!head || head->type == PacketType::kItb) return false;
  return crc8(buffer.subspan(0, buffer.size() - 1)) == buffer.back();
}

std::size_t leading_route_bytes(std::span<const std::uint8_t> buffer) {
  std::size_t n = 0;
  while (n < buffer.size() && is_route_byte(buffer[n])) ++n;
  return n;
}

}  // namespace itb::packet
