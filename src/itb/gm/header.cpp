#include "itb/gm/header.hpp"

#include <algorithm>

namespace itb::gm {
namespace {

void put16(std::uint8_t* b, std::uint16_t v) {
  b[0] = static_cast<std::uint8_t>(v >> 8);
  b[1] = static_cast<std::uint8_t>(v);
}
void put32(std::uint8_t* b, std::uint32_t v) {
  b[0] = static_cast<std::uint8_t>(v >> 24);
  b[1] = static_cast<std::uint8_t>(v >> 16);
  b[2] = static_cast<std::uint8_t>(v >> 8);
  b[3] = static_cast<std::uint8_t>(v);
}
std::uint16_t get16(std::span<const std::uint8_t> b, std::size_t i) {
  return static_cast<std::uint16_t>((b[i] << 8) | b[i + 1]);
}
std::uint32_t get32(std::span<const std::uint8_t> b, std::size_t i) {
  return (static_cast<std::uint32_t>(b[i]) << 24) |
         (static_cast<std::uint32_t>(b[i + 1]) << 16) |
         (static_cast<std::uint32_t>(b[i + 2]) << 8) |
         static_cast<std::uint32_t>(b[i + 3]);
}

}  // namespace

HeaderBytes encode_header(const GmHeader& h) {
  HeaderBytes out;
  out[0] = static_cast<std::uint8_t>(h.subtype);
  put16(&out[1], h.src_host);
  put16(&out[3], h.dst_host);
  put32(&out[5], h.seq);
  put32(&out[9], h.msg_id);
  put32(&out[13], h.frag_offset);
  put32(&out[17], h.msg_len);
  put16(&out[21], h.frag_len);
  return out;
}

packet::Bytes encode(const GmHeader& h, std::span<const std::uint8_t> data) {
  GmHeader framed = h;
  framed.frag_len = static_cast<std::uint16_t>(data.size());
  const auto header = encode_header(framed);
  packet::Bytes out(header.size() + data.size());
  std::copy(header.begin(), header.end(), out.begin());
  std::copy(data.begin(), data.end(), out.begin() + GmHeader::kSize);
  return out;
}

std::optional<Decoded> decode(std::span<const std::uint8_t> payload) {
  if (payload.size() < GmHeader::kSize) return std::nullopt;
  Decoded d;
  const auto st = payload[0];
  if (st != static_cast<std::uint8_t>(Subtype::kData) &&
      st != static_cast<std::uint8_t>(Subtype::kAck))
    return std::nullopt;
  d.header.subtype = static_cast<Subtype>(st);
  d.header.src_host = get16(payload, 1);
  d.header.dst_host = get16(payload, 3);
  d.header.seq = get32(payload, 5);
  d.header.msg_id = get32(payload, 9);
  d.header.frag_offset = get32(payload, 13);
  d.header.msg_len = get32(payload, 17);
  d.header.frag_len = get16(payload, 21);
  if (payload.size() != GmHeader::kSize + d.header.frag_len)
    return std::nullopt;
  if (std::uint64_t{d.header.frag_offset} + d.header.frag_len >
      d.header.msg_len)
    return std::nullopt;
  d.data = payload.subspan(GmHeader::kSize);
  return d;
}

}  // namespace itb::gm
