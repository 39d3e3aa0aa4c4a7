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

/// Successor blocks of one block, read off its terminator (at most two).
struct Successors {
  uint32_t ids[2] = {0, 0};
  uint32_t count = 0;
  [[nodiscard]] const uint32_t* begin() const { return ids; }
  [[nodiscard]] const uint32_t* end() const { return ids + count; }
};

/// Successor blocks of `block` (from its terminator).
[[nodiscard]] Successors successors(const MFunction& fn, uint32_t block);

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

/// Per-block live-in / live-out sets over the vregs a function's
/// instructions mention. Each such vreg gets one bit, numbered in order of
/// first mention, so a row is as wide as the function's register use
/// rather than its vreg_key range. The rows of all blocks share one flat
/// buffer per set, and compute() reuses the buffers of the previous
/// function, so a Liveness kept across calls allocates only when a
/// function outgrows every earlier one.
class Liveness {
 public:
  /// Recomputes the sets for `fn` (backward dataflow to the fixpoint).
  void compute(const MFunction& fn);

  [[nodiscard]] bool live_in(uint32_t block, uint32_t key) const {
    return test(in_, block, key);
  }
  [[nodiscard]] bool live_out(uint32_t block, uint32_t key) const {
    return test(out_, block, key);
  }
  /// vreg_key_bound of the function: every key is below it.
  [[nodiscard]] size_t num_keys() const { return bit_of_.size(); }

  /// Invoke `f(key)` for each key live out of `block`.
  template <typename F>
  void for_each_live_out(uint32_t block, F&& f) const {
    const uint64_t* row = out_.data() + block * words_;
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        f(key_of_[w * 64 + std::countr_zero(bits)]);
      }
    }
  }

  /// Invoke `f(key, first_in, last_out)` for each key live across some
  /// block boundary: the first block (in layout order) the key is live
  /// into and the last block it is live out of, kNoBlock for none. Blocks
  /// are laid out in order, so these two bound every boundary at which
  /// the key is live.
  static constexpr uint32_t kNoBlock = ~uint32_t{0};
  template <typename F>
  void for_each_live_range(F&& f) const {
    for (uint32_t bit = 0; bit < key_of_.size(); ++bit) {
      if (first_in_[bit] != kNoBlock || last_out_[bit] != kNoBlock) {
        f(key_of_[bit], first_in_[bit], last_out_[bit]);
      }
    }
  }

 private:
  static constexpr uint32_t kNoBit = ~uint32_t{0};

  [[nodiscard]] bool test(const std::vector<uint64_t>& set, uint32_t block,
                          uint32_t key) const {
    const uint32_t bit = key < bit_of_.size() ? bit_of_[key] : kNoBit;
    if (bit == kNoBit) return false;
    return (set[block * words_ + (bit >> 6)] >> (bit & 63)) & 1;
  }

  // bit_of_[key] is the key's bit (kNoBit when no instruction mentions
  // it); key_of_ is the inverse.
  std::vector<uint32_t> bit_of_;
  std::vector<uint32_t> key_of_;
  // Per bit: see for_each_live_range.
  std::vector<uint32_t> first_in_, last_out_;
  std::vector<uint64_t> seen_;  // one row, for the range scan
  size_t words_ = 0;
  // num_blocks * words_ each: block b's row starts at b * words_.
  std::vector<uint64_t> in_, out_, gen_, kill_;
  std::vector<Successors> succs_;
  std::vector<uint32_t> pred_start_, preds_, pred_fill_;
  std::vector<uint8_t> dirty_;
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
/// Same, reusing `order`'s storage.
void linearize(const MFunction& fn, LinearOrder& order);

/// Builds live intervals, ordered by (start, vreg_key). `precise ==
/// nullptr` selects the naive JIT mode. Keeps its per-vreg tables between
/// calls, so one builder reused across functions allocates only when a
/// function outgrows every earlier one; the order comes from a counting
/// sort over instruction positions, not a comparison sort.
class IntervalBuilder {
 public:
  /// Replaces the contents of `out` with the intervals of `fn`.
  void build(const MFunction& fn, const LinearOrder& order,
             const Liveness* precise, std::vector<LiveInterval>& out);

 private:
  std::vector<uint32_t> slot_of_;   // key -> index in unsorted_
  std::vector<uint32_t> local_of_;  // key -> SVIL local
  std::vector<LiveInterval> unsorted_;
  std::vector<uint32_t> first_at_;  // counting-sort offsets by start
};

/// One-shot spelling of IntervalBuilder::build.
[[nodiscard]] std::vector<LiveInterval> build_intervals(
    const MFunction& fn, const LinearOrder& order, const Liveness* precise);

}  // namespace svc
