#include "itb/packet/crc.hpp"

#include <array>

namespace itb::packet {
namespace {

// Slicing-by-8 tables for CRC-8. kCrc8Tables[0] is the classic byte table
// (the CRC of byte x); kCrc8Tables[k][x] is the CRC of x followed by k zero
// bytes. An 8-bit CRC is linear and its state is one byte, so eight input
// bytes fold into the state as one XOR of eight independent lookups: the
// byte k positions before the end of the word goes through table k.
using Crc8Tables = std::array<std::array<std::uint8_t, 256>, 8>;

constexpr Crc8Tables make_crc8_tables() {
  Crc8Tables t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t c = static_cast<std::uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit)
      c = static_cast<std::uint8_t>((c & 0x80u) ? (c << 1) ^ 0x07u : c << 1);
    t[0][static_cast<std::size_t>(i)] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = t[0][t[k - 1][i]];
  return t;
}

constexpr auto kCrc8Tables = make_crc8_tables();

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  const auto& t = kCrc8Tables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint8_t c = 0;
  for (; n >= 8; p += 8, n -= 8) {
    c = static_cast<std::uint8_t>(
        t[7][c ^ p[0]] ^ t[6][p[1]] ^ t[5][p[2]] ^ t[4][p[3]] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
  }
  for (; n > 0; ++p, --n) c = t[0][c ^ *p];
  return c;
}

}  // namespace itb::packet
