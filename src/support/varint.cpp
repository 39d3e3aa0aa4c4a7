#include "support/varint.h"

namespace svc {

void write_sleb(std::vector<uint8_t>& out, int64_t value) {
  // Zig-zag: maps small-magnitude negatives to small unsigned values.
  const uint64_t zz =
      (static_cast<uint64_t>(value) << 1) ^
      static_cast<uint64_t>(value >> 63);
  write_uleb(out, zz);
}

std::optional<uint64_t> ByteReader::read_uleb() {
  uint64_t result = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= data_.size()) return std::nullopt;
    if (shift >= 64) return std::nullopt;  // overlong encoding
    const uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return result;
}

std::optional<int64_t> ByteReader::read_sleb() {
  const auto zz = read_uleb();
  if (!zz) return std::nullopt;
  return static_cast<int64_t>((*zz >> 1) ^ (~(*zz & 1) + 1));
}

std::optional<uint8_t> ByteReader::read_byte() {
  if (pos_ >= data_.size()) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::span<const uint8_t>> ByteReader::read_bytes(size_t n) {
  if (remaining() < n) return std::nullopt;
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace svc
