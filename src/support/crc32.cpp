#include "support/crc32.h"

#include <array>

namespace svc {
namespace {

// Slice-by-8: tables[0] is the classic bytewise table; tables[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups
// advance the CRC by eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> data) {
  const Tables& t = kTables;
  uint32_t c = 0xffffffffu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = load_le32(p) ^ c;
    const uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace svc
