// Linear memory: the VM's flat byte-addressable address space. Pointers in
// SVIL are i32 byte offsets into this memory. The same memory object is
// shared by the interpreter and the target simulators so results are
// directly comparable, and by "DMA" transfers in the SoC model.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "vm/value.h"

namespace svc {

class Memory {
 public:
  explicit Memory(size_t size_bytes) : data_(size_bytes, 0) {}

  [[nodiscard]] size_t size() const { return data_.size(); }

  /// True when [addr, addr+len) is fully inside memory.
  [[nodiscard]] bool in_bounds(uint64_t addr, uint64_t len) const {
    return addr + len <= data_.size() && addr + len >= addr;
  }

  // Unchecked fast-path accessors; callers bounds-check first.
  [[nodiscard]] uint8_t load_u8(uint32_t addr) const { return data_[addr]; }
  [[nodiscard]] uint16_t load_u16(uint32_t addr) const {
    uint16_t v;
    std::memcpy(&v, &data_[addr], 2);
    return v;
  }
  [[nodiscard]] uint32_t load_u32(uint32_t addr) const {
    uint32_t v;
    std::memcpy(&v, &data_[addr], 4);
    return v;
  }
  [[nodiscard]] uint64_t load_u64(uint32_t addr) const {
    uint64_t v;
    std::memcpy(&v, &data_[addr], 8);
    return v;
  }
  [[nodiscard]] V128 load_v128(uint32_t addr) const {
    V128 v;
    std::memcpy(v.bytes.data(), &data_[addr], 16);
    return v;
  }

  void store_u8(uint32_t addr, uint8_t v) { data_[addr] = v; }
  void store_u16(uint32_t addr, uint16_t v) { std::memcpy(&data_[addr], &v, 2); }
  void store_u32(uint32_t addr, uint32_t v) { std::memcpy(&data_[addr], &v, 4); }
  void store_u64(uint32_t addr, uint64_t v) { std::memcpy(&data_[addr], &v, 8); }
  void store_v128(uint32_t addr, const V128& v) {
    std::memcpy(&data_[addr], v.bytes.data(), 16);
  }

  // Host-side typed helpers for setting up workloads.
  void write_f32(uint32_t addr, float v) {
    store_u32(addr, std::bit_cast<uint32_t>(v));
  }
  [[nodiscard]] float read_f32(uint32_t addr) const {
    return std::bit_cast<float>(load_u32(addr));
  }
  void write_i32(uint32_t addr, int32_t v) {
    store_u32(addr, static_cast<uint32_t>(v));
  }
  [[nodiscard]] int32_t read_i32(uint32_t addr) const {
    return static_cast<int32_t>(load_u32(addr));
  }

  [[nodiscard]] std::span<uint8_t> bytes() { return data_; }
  [[nodiscard]] std::span<const uint8_t> bytes() const { return data_; }

  /// Copies a region from another memory (models DMA between cores).
  void copy_from(const Memory& src, uint32_t src_addr, uint32_t dst_addr,
                 uint32_t len) {
    std::memcpy(&data_[dst_addr], &src.data_[src_addr], len);
  }

 private:
  std::vector<uint8_t> data_;
};

/// Simple bump allocator over a Memory, for workload setup in examples,
/// tests and benches. Alignment is always 16 so V128 accesses are aligned.
class BumpAllocator {
 public:
  explicit BumpAllocator(Memory& mem, uint32_t base = 64)
      : mem_(mem), top_(base) {}

  /// Allocates `bytes`, 16-byte aligned; returns the address.
  uint32_t alloc(uint32_t bytes);

  [[nodiscard]] uint32_t used() const { return top_; }

 private:
  Memory& mem_;
  uint32_t top_;
};

}  // namespace svc
