#include <gtest/gtest.h>

#include "support/crc32.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/statistics.h"
#include "support/varint.h"

namespace svc {
namespace {

TEST(Varint, UnsignedRoundtrip) {
  const uint64_t cases[] = {0,    1,    127,        128,
                            129,  255,  16383,      16384,
                            1u << 20, uint64_t{1} << 35, ~uint64_t{0}};
  for (uint64_t v : cases) {
    std::vector<uint8_t> buf;
    write_uleb(buf, v);
    ByteReader r(buf);
    const auto got = r.read_uleb();
    ASSERT_TRUE(got.has_value()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Varint, SignedRoundtrip) {
  const int64_t cases[] = {0,  1,  -1, 63, -64, 64, -65, 1 << 20, -(1 << 20),
                           INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    std::vector<uint8_t> buf;
    write_sleb(buf, v);
    ByteReader r(buf);
    const auto got = r.read_sleb();
    ASSERT_TRUE(got.has_value()) << v;
    EXPECT_EQ(*got, v);
  }
}

TEST(Varint, SmallMagnitudeIsCompact) {
  std::vector<uint8_t> buf;
  write_sleb(buf, -3);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  write_uleb(buf, 100);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, TruncatedInputRejected) {
  std::vector<uint8_t> buf;
  write_uleb(buf, uint64_t{1} << 40);
  buf.pop_back();
  ByteReader r(buf);
  EXPECT_FALSE(r.read_uleb().has_value());
}

TEST(Varint, PropertyRoundtripSweep) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.next_u64() >> (rng.next_u64() % 64);
    std::vector<uint8_t> buf;
    write_uleb(buf, v);
    ByteReader r(buf);
    ASSERT_EQ(r.read_uleb().value(), v);

    const auto s = static_cast<int64_t>(rng.next_u64());
    buf.clear();
    write_sleb(buf, s);
    ByteReader r2(buf);
    ASSERT_EQ(r2.read_sleb().value(), s);
  }
}

TEST(ByteReader, ReadBytesBounds) {
  const std::vector<uint8_t> buf = {1, 2, 3};
  ByteReader r(buf);
  auto a = r.read_bytes(2);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ((*a)[0], 1);
  EXPECT_FALSE(r.read_bytes(2).has_value());
  EXPECT_TRUE(r.read_bytes(1).has_value());
  EXPECT_TRUE(r.at_end());
}

TEST(Crc32, KnownVectors) {
  const std::string s = "123456789";
  const std::vector<uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc32(data), 0xcbf43926u);  // classic check value
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, DetectsBitFlip) {
  std::vector<uint8_t> data(64, 0xab);
  const uint32_t base = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(crc32(data), base);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const float f = rng.next_f32();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Statistics, AddGetMergeDump) {
  Statistics s;
  s.add("spills", 3);
  s.add("spills", 2);
  s.set("code_bytes", 128);
  EXPECT_EQ(s.get("spills"), 5);
  EXPECT_EQ(s.get("missing"), 0);
  EXPECT_TRUE(s.has("code_bytes"));

  Statistics t;
  t.add("spills", 10);
  s.merge(t);
  EXPECT_EQ(s.get("spills"), 15);
  EXPECT_NE(s.dump().find("spills=15"), std::string::npos);
}

TEST(Statistics, TimersRoundToTheNearestMicrosecond) {
  using std::chrono::nanoseconds;
  EXPECT_EQ(round_to_us(nanoseconds(0)), 0);
  EXPECT_EQ(round_to_us(nanoseconds(499)), 0);
  EXPECT_EQ(round_to_us(nanoseconds(999)), 1);
  EXPECT_EQ(round_to_us(nanoseconds(1'000)), 1);
  EXPECT_EQ(round_to_us(nanoseconds(1'499)), 1);
  EXPECT_EQ(round_to_us(nanoseconds(1'500)), 2);
  EXPECT_EQ(round_to_us(nanoseconds(2'000'000)), 2'000);
}

TEST(Diagnostics, CountsAndFormats) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.warning({3, 7}, "odd");
  diags.error({1, 2}, "bad");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  const std::string dump = diags.dump();
  EXPECT_NE(dump.find("1:2: error: bad"), std::string::npos);
  EXPECT_NE(dump.find("3:7: warning: odd"), std::string::npos);
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
}

}  // namespace
}  // namespace svc
