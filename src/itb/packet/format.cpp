#include "itb/packet/format.hpp"

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

void append_route(Bytes& out, const Route& route) {
  for (auto port : route) out.push_back(encode_route_byte(port));
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

Bytes build_packet(const Route& route, PacketType type,
                   std::span<const std::uint8_t> payload) {
  Bytes out;
  out.reserve(route.size() + 2 + payload.size() + 1);
  append_route(out, route);
  const std::size_t body_start = out.size();
  append_type(out, type);
  out.insert(out.end(), payload.begin(), payload.end());
  out.push_back(crc8(std::span(out).subspan(body_start)));
  return out;
}

Bytes build_itb_packet(const std::vector<Route>& segments, PacketType type,
                       std::span<const std::uint8_t> payload) {
  if (segments.empty()) throw std::invalid_argument("no route segments");
  if (segments.size() == 1) return build_packet(segments[0], type, payload);

  // Remaining-header length seen by the ITB tag before segment i: all later
  // segments' route bytes, the tags between them, and the final 2-byte type.
  // Computed back-to-front.
  std::vector<std::size_t> remaining(segments.size(), 0);
  std::size_t acc = 2;  // final Type field
  for (std::size_t i = segments.size(); i-- > 1;) {
    acc += segments[i].size();
    remaining[i] = acc;
    acc += 3;  // the ITB tag (2) + Length (1) that precedes segment i
  }
  for (std::size_t i = 1; i < segments.size(); ++i) {
    if (remaining[i] > kMaxHeaderBytes)
      throw std::invalid_argument("ITB Length field overflow");
  }

  Bytes out;
  append_route(out, segments[0]);
  for (std::size_t i = 1; i < segments.size(); ++i) {
    append_type(out, PacketType::kItb);
    out.push_back(static_cast<std::uint8_t>(remaining[i]));
    append_route(out, segments[i]);
  }
  append_type(out, type);
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC over the terminal portion (Type + payload) so that consuming route
  // bytes and stripping ITB stages never invalidates it.
  const std::size_t body_start = out.size() - payload.size() - 2;
  out.push_back(crc8(std::span(out).subspan(body_start)));
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

Bytes strip_itb_stage(std::span<const std::uint8_t> buffer) {
  auto head = parse_head(buffer);
  if (!head || head->type != PacketType::kItb)
    throw std::invalid_argument("buffer does not start with an ITB tag");
  return Bytes(buffer.begin() + 3, buffer.end());
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
