// CRC-32 (support/crc32.h): the slice-by-8 loop must give the values of
// the classic one-byte-at-a-time table loop on every length and
// alignment, because module images, annotations and persistent-store
// entries written by earlier builds carry checksums computed that way.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/crc32.h"
#include "support/rng.h"

namespace svc {
namespace {

/// The reference: reflected IEEE polynomial, one bit at a time.
uint32_t crc32_bitwise(std::span<const uint8_t> data) {
  uint32_t c = 0xffffffffu;
  for (const uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(kCheck.data()), kCheck.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(bytes), 0xCBF43926u);
}

TEST(Crc32, AgreesWithBytewiseReferenceOnEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 300;
  constexpr size_t kMaxOffset = 7;
  std::vector<uint8_t> buffer(kMaxLen + kMaxOffset);
  Rng rng(0xc7c32);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.next_u32());
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const uint8_t> slice(buffer.data() + offset, len);
      ASSERT_EQ(crc32(slice), crc32_bitwise(slice))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32, AgreesOnConstantRuns) {
  // All-zero and all-ones runs exercise every table at index 0 and 255.
  for (const uint8_t fill : {uint8_t{0x00}, uint8_t{0xff}}) {
    const std::vector<uint8_t> run(257, fill);
    for (size_t len = 0; len <= run.size(); len += 3) {
      const std::span<const uint8_t> slice(run.data(), len);
      ASSERT_EQ(crc32(slice), crc32_bitwise(slice))
          << "fill " << int{fill} << ", length " << len;
    }
  }
}

}  // namespace
}  // namespace svc
