// LEB128 variable-length integer codec used by the bytecode serializer and
// the annotation records. Unsigned and zig-zag signed variants.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace svc {

/// Appends `value` to `out` as unsigned LEB128. `Out` is any byte sink
/// with push_back(uint8_t): a byte vector, or a hash that digests the
/// bytes without keeping them.
template <typename Out>
void write_uleb(Out& out, uint64_t value) {
  do {
    uint8_t byte = value & 0x7f;
    value >>= 7;
    if (value != 0) byte |= 0x80;
    out.push_back(byte);
  } while (value != 0);
}

/// Appends `value` to `out` as zig-zag-encoded signed LEB128.
void write_sleb(std::vector<uint8_t>& out, int64_t value);

/// Cursor over a byte buffer with bounds-checked LEB reads. All reads
/// return std::nullopt on truncation/overlong input instead of trapping,
/// so the deserializer can reject corrupt modules gracefully.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<uint64_t> read_uleb();
  [[nodiscard]] std::optional<int64_t> read_sleb();
  [[nodiscard]] std::optional<uint8_t> read_byte();
  /// Reads exactly `n` raw bytes; nullopt if fewer remain.
  [[nodiscard]] std::optional<std::span<const uint8_t>> read_bytes(size_t n);

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace svc
