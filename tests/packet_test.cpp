// Unit tests for packet formats (paper Fig. 3) and the CRC-8.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "itb/packet/crc.hpp"
#include "itb/packet/format.hpp"
#include "itb/sim/alloc_hook.hpp"

namespace {

using namespace itb::packet;

Bytes make_payload(std::size_t n) {
  Bytes p(n);
  std::iota(p.begin(), p.end(), std::uint8_t{1});
  return p;
}

TEST(Crc8, KnownVector) {
  // CRC-8/ATM of "123456789" is 0xF4.
  const char* s = "123456789";
  std::vector<std::uint8_t> data(s, s + 9);
  EXPECT_EQ(crc8(data), 0xF4);
}

// CRC-8 straight from its definition, one bit at a time (poly 0x07, init
// 0, no reflection). Shares no table or code with packet::crc8.
std::uint8_t crc8_reference(std::span<const std::uint8_t> data) {
  std::uint8_t c = 0;
  for (auto b : data) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit)
      c = static_cast<std::uint8_t>((c & 0x80u) ? (c << 1) ^ 0x07u : c << 1);
  }
  return c;
}

TEST(Crc8, MatchesBitwiseReferenceAtEveryLength) {
  const char* s = "123456789";
  const Bytes check(s, s + 9);
  EXPECT_EQ(crc8_reference(check), 0xF4);
  EXPECT_EQ(crc8(check), 0xF4);

  std::mt19937 gen(20011);
  Bytes data(4200);
  for (auto& b : data) b = static_cast<std::uint8_t>(gen());
  const std::span<const std::uint8_t> all(data);
  for (std::size_t n = 0; n <= data.size(); ++n)
    ASSERT_EQ(crc8(all.first(n)), crc8_reference(all.first(n)))
        << "length " << n;
  // Every start offset within a word, so the 8-byte blocks straddle
  // different alignments.
  for (std::size_t off = 1; off < 8; ++off)
    ASSERT_EQ(crc8(all.subspan(off, 1001)),
              crc8_reference(all.subspan(off, 1001)))
        << "offset " << off;
}

TEST(Crc8, DetectsSingleBitFlips) {
  auto p = make_payload(64);
  const auto good = crc8(p);
  for (std::size_t byte = 0; byte < p.size(); byte += 7) {
    auto copy = p;
    copy[byte] ^= 0x10;
    EXPECT_NE(crc8(copy), good) << "undetected flip at byte " << byte;
  }
}

TEST(RouteBytes, EncodeDecodeRoundTrip) {
  for (std::uint8_t port = 0; port < 16; ++port) {
    auto b = encode_route_byte(port);
    EXPECT_TRUE(is_route_byte(b));
    EXPECT_EQ(decode_route_byte(b), port);
  }
}

TEST(RouteBytes, OversizedPortThrows) {
  EXPECT_THROW(encode_route_byte(0x80), std::invalid_argument);
}

TEST(Format, OriginalPacketLayout) {
  auto p = build_packet({1, 5, 2}, PacketType::kGm, make_payload(10));
  // 3 route bytes + 2 type + 10 payload + 1 crc.
  EXPECT_EQ(p.size(), 16u);
  EXPECT_EQ(leading_route_bytes(p), 3u);
  EXPECT_EQ(decode_route_byte(p[0]), 1);
  EXPECT_EQ(decode_route_byte(p[1]), 5);
  EXPECT_EQ(decode_route_byte(p[2]), 2);
}

TEST(Format, ParseAfterRouteConsumption) {
  auto p = build_packet({1, 5}, PacketType::kGm, make_payload(8));
  EXPECT_EQ(consume_route_byte(p), 1);
  EXPECT_EQ(consume_route_byte(p), 5);
  auto head = parse_head(p);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->type, PacketType::kGm);
  EXPECT_EQ(head->payload_offset, 2u);
  EXPECT_EQ(head->payload_length, 8u);
  EXPECT_TRUE(verify_crc(p));
}

TEST(Format, ParseHeadRejectsRouteBytes) {
  auto p = build_packet({3}, PacketType::kGm, make_payload(4));
  EXPECT_FALSE(parse_head(p).has_value());  // route byte still leading
}

TEST(Format, ConsumeWithoutRouteByteThrows) {
  Bytes p{0x00, 0x01};
  EXPECT_THROW(consume_route_byte(p), std::invalid_argument);
}

TEST(Format, CrcSurvivesRouteConsumption) {
  auto p = build_packet({1, 2, 3, 4}, PacketType::kGm, make_payload(32));
  while (leading_route_bytes(p) > 0) consume_route_byte(p);
  EXPECT_TRUE(verify_crc(p));
}

TEST(Format, CorruptedPayloadFailsCrc) {
  auto p = build_packet({}, PacketType::kGm, make_payload(16));
  p[5] ^= 0x01;
  EXPECT_FALSE(verify_crc(p));
}

TEST(Format, ItbPacketSingleSegmentDegeneratesToOriginal) {
  auto a = build_itb_packet({{2, 4}}, PacketType::kGm, make_payload(6));
  auto b = build_packet({2, 4}, PacketType::kGm, make_payload(6));
  EXPECT_EQ(a, b);
}

TEST(Format, ItbPacketTwoSegments) {
  // Fig. 3b: Path | ITB | Length | Path | Type | Payload | CRC
  auto p = build_itb_packet({{1, 2}, {3}}, PacketType::kGm, make_payload(5));
  // 2 route + (2 type + 1 len) + 1 route + 2 type + 5 payload + 1 crc = 14.
  EXPECT_EQ(p.size(), 14u);
  EXPECT_EQ(leading_route_bytes(p), 2u);
  consume_route_byte(p);
  consume_route_byte(p);
  auto head = parse_head(p);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->type, PacketType::kItb);
  // Remaining header after the tag: 1 route byte + 2-byte final type = 3.
  EXPECT_EQ(head->itb_remaining_header, 3u);
}

TEST(Format, ItbStripYieldsReinjectablePacket) {
  const auto payload = make_payload(9);
  auto p = build_itb_packet({{1, 2}, {3, 4}}, PacketType::kGm, payload);
  consume_route_byte(p);
  consume_route_byte(p);
  auto rest = strip_itb_stage(p);
  // The re-injected packet is exactly an original-format packet.
  EXPECT_EQ(leading_route_bytes(rest), 2u);
  consume_route_byte(rest);
  consume_route_byte(rest);
  auto head = parse_head(rest);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->type, PacketType::kGm);
  EXPECT_EQ(head->payload_length, payload.size());
  EXPECT_TRUE(verify_crc(rest));
  Bytes got(rest.begin() + 2, rest.end() - 1);
  EXPECT_EQ(got, payload);
}

TEST(Format, ThreeSegmentChain) {
  // More than one ITB per path is explicitly allowed (§1).
  auto p = build_itb_packet({{1}, {2, 3}, {4}}, PacketType::kGm, make_payload(4));
  consume_route_byte(p);
  auto h1 = parse_head(p);
  ASSERT_TRUE(h1 && h1->type == PacketType::kItb);
  // After tag 1: 2 route + tag(3) + 1 route + type(2) = 8.
  EXPECT_EQ(h1->itb_remaining_header, 8u);
  auto rest = strip_itb_stage(p);
  consume_route_byte(rest);
  consume_route_byte(rest);
  auto h2 = parse_head(rest);
  ASSERT_TRUE(h2 && h2->type == PacketType::kItb);
  EXPECT_EQ(h2->itb_remaining_header, 3u);
  auto last = strip_itb_stage(rest);
  consume_route_byte(last);
  EXPECT_TRUE(verify_crc(last));
}

TEST(Format, ItbBuildAllocatesOnlyItsBuffer) {
  if (!itb::sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";
  const std::vector<Route> segments{{1, 2, 3}, {4, 5}, {6}};
  const auto payload = make_payload(512);
  const auto before = itb::sim::total_allocations();
  const Bytes p = build_itb_packet(segments, PacketType::kGm, payload);
  EXPECT_EQ(itb::sim::total_allocations() - before, 1u);
  // 6 route + 2 x (tag 2 + Length 1) + type 2 + payload + CRC 1.
  EXPECT_EQ(p.size(), 6u + 6u + 2u + payload.size() + 1u);
  EXPECT_EQ(p.capacity(), p.size());  // the size pass was exact
}

TEST(Format, StripNonItbThrows) {
  auto p = build_packet({}, PacketType::kGm, make_payload(4));
  EXPECT_THROW(strip_itb_stage(p), std::invalid_argument);
}

TEST(Format, EmptySegmentsThrow) {
  EXPECT_THROW(build_itb_packet({}, PacketType::kGm, {}), std::invalid_argument);
}

TEST(Format, LengthOverflowThrows) {
  // A second segment with 254 hops overflows the 1-byte Length field.
  std::vector<Route> segs{{1}, Route(254, 2)};
  EXPECT_THROW(build_itb_packet(segs, PacketType::kGm, {}),
               std::invalid_argument);
}

TEST(Format, ParseHeadRejectsShortBuffers) {
  Bytes tiny{0x00};
  EXPECT_FALSE(parse_head(tiny).has_value());
  Bytes unknown{0x00, 0x99, 0x00};
  EXPECT_FALSE(parse_head(unknown).has_value());
}

TEST(Format, ItbHeadRequiresDeclaredBytesPresent) {
  // ITB tag claiming 10 remaining header bytes but buffer too short.
  Bytes p{0x00, 0x04, 10, 0x81};
  EXPECT_FALSE(parse_head(p).has_value());
}

TEST(Format, MappingAndIpTypesParse) {
  auto m = build_packet({}, PacketType::kMapping, make_payload(2));
  auto i = build_packet({}, PacketType::kIp, make_payload(2));
  EXPECT_EQ(parse_head(m)->type, PacketType::kMapping);
  EXPECT_EQ(parse_head(i)->type, PacketType::kIp);
}

TEST(Format, EmptyPayloadPacket) {
  auto p = build_packet({7}, PacketType::kGm, {});
  consume_route_byte(p);
  auto head = parse_head(p);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->payload_length, 0u);
  EXPECT_TRUE(verify_crc(p));
}

}  // namespace
