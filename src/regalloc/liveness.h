// Dataflow liveness and live-interval construction over virtual-register
// machine code. Two construction modes mirror the paper's split-compilation
// trade-off (S4, Diouf et al. [18]):
//   - precise: iterative dataflow (what an *offline* or expensive online
//     allocator can afford);
//   - naive: no dataflow -- locals are assumed live for the whole
//     function, temporaries within their defining block (what a
//     time-budgeted JIT baseline does).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "targets/machine.h"

namespace svc {

/// Successor blocks of `block` (from its terminator).
[[nodiscard]] std::vector<uint32_t> successors(const MFunction& fn,
                                               uint32_t block);

/// Invokes `f` for every register read by `inst` (including call-site
/// argument registers).
template <typename F>
void for_each_use(const MFunction& fn, const MInst& inst, F&& f) {
  if (inst.s0.valid) f(inst.s0);
  if (inst.s1.valid) f(inst.s1);
  if (inst.s2.valid) f(inst.s2);
  if (!is_machine_only(inst.op) && base_opcode(inst.op) == Opcode::Call) {
    for (const Reg& r : fn.call_sites[static_cast<size_t>(inst.imm)]) f(r);
  }
}

/// The register written by `inst`, if any.
[[nodiscard]] std::optional<Reg> def_of(const MInst& inst);

/// Flattened dense id for a virtual register (class-interleaved).
[[nodiscard]] inline uint32_t vreg_key(Reg r) {
  return r.idx * static_cast<uint32_t>(kNumRegClasses) +
         static_cast<uint32_t>(r.cls);
}

/// One past the largest vreg_key of the registers `fn.num_vregs` counts:
/// the size of a table indexed by vreg_key. Until allocation every
/// register of `fn` is one of those.
[[nodiscard]] inline size_t vreg_key_bound(const MFunction& fn) {
  const uint32_t max_v =
      std::max({fn.num_vregs[0], fn.num_vregs[1], fn.num_vregs[2]});
  return (static_cast<size_t>(max_v) + 1) * kNumRegClasses;
}

class Liveness {
 public:
  Liveness(size_t num_blocks, size_t num_keys);

  [[nodiscard]] bool live_in(uint32_t block, uint32_t key) const {
    return test(in_[block], key);
  }
  [[nodiscard]] bool live_out(uint32_t block, uint32_t key) const {
    return test(out_[block], key);
  }
  [[nodiscard]] size_t num_keys() const { return num_keys_; }

  /// Invoke `f(key)` for each key live into / out of `block`, ascending.
  template <typename F>
  void for_each_live_in(uint32_t block, F&& f) const {
    for_each_set(in_[block], f);
  }
  template <typename F>
  void for_each_live_out(uint32_t block, F&& f) const {
    for_each_set(out_[block], f);
  }

 private:
  friend Liveness compute_liveness(const MFunction& fn);
  using BitRow = std::vector<uint64_t>;
  static bool test(const BitRow& row, uint32_t key) {
    return (row[key >> 6] >> (key & 63)) & 1;
  }
  static void set(BitRow& row, uint32_t key) {
    row[key >> 6] |= uint64_t{1} << (key & 63);
  }
  template <typename F>
  static void for_each_set(const BitRow& row, F& f) {
    for (size_t w = 0; w < row.size(); ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  size_t num_keys_;
  std::vector<BitRow> in_, out_;
};

[[nodiscard]] Liveness compute_liveness(const MFunction& fn);

/// One allocation unit: a virtual register with a coarse [start, end]
/// range over the linearized instruction order.
struct LiveInterval {
  Reg vreg;
  uint32_t start = 0;
  uint32_t end = 0;
  bool is_local = false;    // corresponds to an SVIL local (or a lane of one)
  uint32_t local_idx = 0;   // valid when is_local
  uint32_t use_count = 0;   // number of reads+writes (spill-cost proxy)
};

/// Linearized instruction numbering: global position of (block, index).
struct LinearOrder {
  std::vector<uint32_t> block_start;
  uint32_t total = 0;

  [[nodiscard]] uint32_t pos(uint32_t block, uint32_t idx) const {
    return block_start[block] + idx;
  }
};

[[nodiscard]] LinearOrder linearize(const MFunction& fn);

/// Builds intervals. `precise == nullptr` selects the naive JIT mode.
[[nodiscard]] std::vector<LiveInterval> build_intervals(
    const MFunction& fn, const LinearOrder& order, const Liveness* precise);

}  // namespace svc
