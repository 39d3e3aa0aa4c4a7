// Machine layer: target-neutral machine IR (MInst/MFunction), register
// classes, and per-target machine descriptions (register files, SIMD
// capability, cost tables). Four concrete targets are registered:
// x86sim, sparcsim, ppcsim (the Table 1 triple) and spusim (the Cell-like
// vector accelerator of the S3 offload scenario).
//
// Machine ops reuse the SVIL Opcode enumeration in three-address register
// form for all shared semantics; a small set of machine-only ops (moves,
// spills, fused multiply-add) lives above Opcode::Count_. This mirrors how
// a simple JIT maps a virtual ISA onto a RISC-like core 1:1, and lets the
// simulator share semantic definitions with the reference interpreter.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bytecode/opcode.h"

namespace svc {

// --- Machine opcodes -----------------------------------------------------

enum class MOp : uint16_t {
  // Values below kMachineOnlyBase mirror svc::Opcode semantics.
  MovRR = 1000,   // dst <- s0 (same class)
  MovImm,         // int dst <- imm
  FMovImm32,      // flt dst <- f32 imm (bits in imm)
  FMovImm64,      // flt dst <- f64 imm (bits in imm)
  SpillLoad,      // dst <- frame[imm]   (slot index, class of dst)
  SpillStore,     // frame[imm] <- s0
  FMA32,          // dst <- s0 * s1 + s2 (targets with has_fma)
  LoadAddr,       // dst <- s0 + imm     (address arithmetic, int)
  MNop,
};

inline constexpr uint16_t kMachineOnlyBase = 1000;

/// Wraps a bytecode opcode as a machine op (three-address form).
[[nodiscard]] inline MOp mop(Opcode op) {
  return static_cast<MOp>(static_cast<uint16_t>(op));
}
[[nodiscard]] inline bool is_machine_only(MOp op) {
  return static_cast<uint16_t>(op) >= kMachineOnlyBase;
}
/// Valid only when !is_machine_only(op).
[[nodiscard]] inline Opcode base_opcode(MOp op) {
  return static_cast<Opcode>(static_cast<uint16_t>(op));
}

[[nodiscard]] std::string mop_name(MOp op);

// --- Registers -------------------------------------------------------------

enum class RegClass : uint8_t { Int = 0, Flt = 1, Vec = 2 };
inline constexpr size_t kNumRegClasses = 3;

[[nodiscard]] RegClass reg_class_for(Type t);
[[nodiscard]] const char* reg_class_prefix(RegClass cls);

/// After register allocation, a register index with this bit set denotes a
/// spill slot instead of a physical register. Used for call-site argument
/// and parameter registers that were spilled (operands of ordinary
/// instructions are rewritten to scratch registers instead).
inline constexpr uint32_t kSlotFlag = 1u << 31;

struct Reg {
  // The index leads so the class and flag share its word's padding: a Reg
  // is 8 bytes, and every JIT pass and the simulator copy or read them.
  uint32_t idx = 0;
  RegClass cls = RegClass::Int;
  bool valid = false;

  static Reg make(RegClass cls, uint32_t idx) { return {idx, cls, true}; }
  static Reg slot(RegClass cls, uint32_t slot_idx) {
    return {slot_idx | kSlotFlag, cls, true};
  }
  [[nodiscard]] bool is_slot() const { return (idx & kSlotFlag) != 0; }
  [[nodiscard]] uint32_t slot_index() const { return idx & ~kSlotFlag; }
  friend bool operator==(const Reg&, const Reg&) = default;
};
static_assert(sizeof(Reg) == 8);

/// A list of register lists kept in two flat arrays: list i is
/// regs[ends[i - 1], ends[i]) (from 0 for list 0). Building or copying
/// one costs two allocations however many lists it holds.
class RegLists {
 public:
  [[nodiscard]] size_t size() const { return ends_.size(); }
  [[nodiscard]] std::span<const Reg> operator[](size_t i) const {
    return std::span<const Reg>(regs_).subspan(begin(i), ends_[i] - begin(i));
  }
  [[nodiscard]] std::span<Reg> operator[](size_t i) {
    return std::span<Reg>(regs_).subspan(begin(i), ends_[i] - begin(i));
  }
  /// Every register of every list, in list order.
  [[nodiscard]] std::span<const Reg> all() const { return regs_; }
  [[nodiscard]] std::span<Reg> all() { return regs_; }

  void reserve(size_t lists, size_t regs) {
    ends_.reserve(lists);
    regs_.reserve(regs);
  }
  /// Appends a list of `n` invalid registers and returns it to fill in.
  std::span<Reg> append(size_t n) {
    regs_.resize(regs_.size() + n);
    ends_.push_back(static_cast<uint32_t>(regs_.size()));
    return (*this)[ends_.size() - 1];
  }
  void push_back(std::span<const Reg> list) {
    regs_.insert(regs_.end(), list.begin(), list.end());
    ends_.push_back(static_cast<uint32_t>(regs_.size()));
  }

  friend bool operator==(const RegLists&, const RegLists&) = default;

 private:
  [[nodiscard]] size_t begin(size_t i) const {
    return i == 0 ? 0 : ends_[i - 1];
  }

  std::vector<Reg> regs_;
  std::vector<uint32_t> ends_;
};

// --- Machine instructions ----------------------------------------------------

struct MInst {
  MOp op = MOp::MNop;
  Reg dst;
  Reg s0, s1, s2;
  int64_t imm = 0;   // constant bits | memory offset | spill slot
  uint32_t a = 0;    // branch target 0 | callee index | lane
  uint32_t b = 0;    // branch target 1

  [[nodiscard]] std::string str() const;
};
static_assert(sizeof(MInst) <= 56);

struct MBlock {
  std::vector<MInst> insts;
};

/// A function in machine form. Registers are virtual until register
/// allocation rewrites them to physical indices and records frame sizes.
struct MFunction {
  std::string name;
  std::vector<MBlock> blocks;
  // Virtual register counts per class (valid pre-allocation).
  uint32_t num_vregs[kNumRegClasses] = {0, 0, 0};
  // Spill-slot counts per class (valid post-allocation).
  uint32_t num_slots[kNumRegClasses] = {0, 0, 0};
  // Parameter registers in declaration order (entry values arrive here).
  std::vector<Reg> param_regs;
  // Call-site argument registers: a Call instruction's imm field indexes
  // this table; the listed registers (in the caller's frame) hold the
  // arguments in declaration order.
  RegLists call_sites;
  // SVIL-local -> vreg mapping maintained by the JIT front end and the
  // de-vectorizer; consumed by split register allocation (annotation
  // eviction ranks are expressed over SVIL locals). A de-vectorized v128
  // local maps to one vreg per lane; all lanes inherit the local's rank.
  RegLists local_regs;
  Type ret_type = Type::Void;
  bool allocated = false;  // physical registers assigned?

  [[nodiscard]] size_t size() const {
    size_t n = 0;
    for (const auto& b : blocks) n += b.insts.size();
    return n;
  }
  /// Deployment size estimate: 4 bytes per instruction (RISC-style).
  [[nodiscard]] size_t code_bytes() const { return size() * 4; }

  [[nodiscard]] std::string str() const;
};

/// The machine code of one module as a simulator runs it: function i's
/// code at index i, null for a function not compiled (yet). Entries are
/// shared, so an image can point into code owned elsewhere -- a deployed
/// target's image points into the cached JIT artifacts.
using CodeImage = std::vector<std::shared_ptr<const MFunction>>;

// --- Machine description -----------------------------------------------------

/// Identifier for registered targets.
enum class TargetKind : uint8_t { X86Sim, SparcSim, PpcSim, SpuSim };

/// Static description of a simulated core: what the JIT needs (register
/// budget, SIMD support, lowering preferences) and what the simulator
/// needs (cycle cost tables, penalty model). All knobs are named so
/// DESIGN.md S6 can point at them.
struct MachineDesc {
  TargetKind kind = TargetKind::X86Sim;
  std::string name;
  bool has_simd = false;
  bool has_fma = false;
  // Allocatable registers per class (beyond reserved scratch).
  uint32_t regs[kNumRegClasses] = {8, 8, 8};
  // Pipeline penalties (cycles).
  uint32_t load_use_penalty = 1;
  uint32_t taken_branch_penalty = 1;
  uint32_t mispredict_penalty = 10;
  // Cost-table overrides keyed by MOp raw value; everything else uses
  // default_mop_cost().
  std::map<uint16_t, uint32_t> cost_overrides;

  [[nodiscard]] uint32_t cost(MOp op) const;
  void override_cost(MOp op, uint32_t cycles) {
    cost_overrides[static_cast<uint16_t>(op)] = cycles;
  }
  void override_cost(Opcode op, uint32_t cycles) {
    override_cost(mop(op), cycles);
  }
};

/// Baseline per-op cycle costs shared by all targets (latency-flavored,
/// approximating CPI of dependent code on an in-order core).
[[nodiscard]] uint32_t default_mop_cost(MOp op);

}  // namespace svc
