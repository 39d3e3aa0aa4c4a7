#include "targets/simulator.h"

#include <bit>
#include <cmath>
#include <limits>

#include "support/diagnostics.h"

namespace svc {
namespace {

// Register-file view of one call frame. Physical register files are per
// frame (the call cost models save/restore traffic in aggregate).
struct RegFiles {
  std::vector<int64_t> iregs;
  std::vector<double> fregs;
  std::vector<V128> vregs;
  std::vector<int64_t> islots;
  std::vector<double> fslots;
  std::vector<V128> vslots;
};

}  // namespace

class SimFrame {
 public:
  SimFrame(Simulator& sim, const MFunction& fn, uint32_t func_idx)
      : sim_(sim), desc_(sim.desc_), mem_(sim.memory_), fn_(fn),
        func_idx_(func_idx) {
    // +2 scratch registers per class used by the spill rewriter.
    regs_.iregs.assign(desc_.regs[0] + 4, 0);
    regs_.fregs.assign(desc_.regs[1] + 4, 0.0);
    regs_.vregs.assign(desc_.regs[2] + 4, V128{});
    regs_.islots.assign(fn.num_slots[0], 0);
    regs_.fslots.assign(fn.num_slots[1], 0.0);
    regs_.vslots.assign(fn.num_slots[2], V128{});
  }

  TrapKind run(std::span<const Value> args, Value& ret_out);

 private:
  // --- register accessors -------------------------------------------------
  // Slot-flagged registers (spilled parameters / call arguments) read and
  // write the frame's spill area directly.
  [[nodiscard]] int64_t iget(const Reg& r) const {
    return r.is_slot() ? regs_.islots[r.slot_index()] : regs_.iregs[r.idx];
  }
  void iset(const Reg& r, int64_t v) {
    if (r.is_slot()) {
      regs_.islots[r.slot_index()] = v;
    } else {
      regs_.iregs[r.idx] = v;
    }
  }
  [[nodiscard]] int32_t i32get(const Reg& r) const {
    return static_cast<int32_t>(iget(r));
  }
  void i32set(const Reg& r, int32_t v) { iset(r, v); }
  [[nodiscard]] double fget(const Reg& r) const {
    return r.is_slot() ? regs_.fslots[r.slot_index()] : regs_.fregs[r.idx];
  }
  void fset(const Reg& r, double v) {
    if (r.is_slot()) {
      regs_.fslots[r.slot_index()] = v;
    } else {
      regs_.fregs[r.idx] = v;
    }
  }
  [[nodiscard]] float f32get(const Reg& r) const {
    return static_cast<float>(fget(r));
  }
  void f32set(const Reg& r, float v) { fset(r, v); }
  [[nodiscard]] const V128& vget(const Reg& r) const {
    return r.is_slot() ? regs_.vslots[r.slot_index()] : regs_.vregs[r.idx];
  }
  void vset(const Reg& r, const V128& v) {
    if (r.is_slot()) {
      regs_.vslots[r.slot_index()] = v;
    } else {
      regs_.vregs[r.idx] = v;
    }
  }

  void set_value(const Reg& r, const Value& v) {
    switch (v.type) {
      case Type::I32: i32set(r, v.i32); break;
      case Type::I64: iset(r, v.i64); break;
      case Type::F32: f32set(r, v.f32); break;
      case Type::F64: fset(r, v.f64); break;
      case Type::V128: vset(r, v.v128); break;
      case Type::Void: break;
    }
  }
  [[nodiscard]] Value get_value(const Reg& r, Type t) const {
    switch (t) {
      case Type::I32: return Value::make_i32(i32get(r));
      case Type::I64: return Value::make_i64(iget(r));
      case Type::F32: return Value::make_f32(f32get(r));
      case Type::F64: return Value::make_f64(fget(r));
      case Type::V128: return Value::make_v128(vget(r));
      case Type::Void: return Value{};
    }
    return Value{};
  }

  // --- timing helpers -----------------------------------------------------
  void account(const MInst& inst) {
    sim_.stats_.cycles += desc_.cost(inst.op);
    sim_.stats_.instructions += 1;
    // Load-use stall: consuming the previous load's destination.
    if (last_load_valid_) {
      const Reg& lr = last_load_dst_;
      if ((inst.s0.valid && inst.s0 == lr) ||
          (inst.s1.valid && inst.s1 == lr) ||
          (inst.s2.valid && inst.s2 == lr)) {
        sim_.stats_.cycles += desc_.load_use_penalty;
      }
    }
    last_load_valid_ = false;
  }
  void mark_load(const MInst& inst) {
    last_load_dst_ = inst.dst;
    last_load_valid_ = true;
  }

  /// 2-bit saturating counter prediction; returns true if mispredicted.
  bool predict(uint32_t block, uint32_t inst_idx, bool taken) {
    const uint64_t key = (static_cast<uint64_t>(func_idx_) << 40) |
                         (static_cast<uint64_t>(block) << 16) | inst_idx;
    uint8_t& ctr = sim_.predictor_[key];  // init 0 = strongly not-taken
    const bool predicted_taken = ctr >= 2;
    if (taken && ctr < 3) ++ctr;
    if (!taken && ctr > 0) --ctr;
    return predicted_taken != taken;
  }

  void account_jump(uint32_t from_block, uint32_t to_block) {
    // Fall-through (next block in layout order) is free; anything else
    // pays the taken-branch penalty.
    if (to_block != from_block + 1) {
      sim_.stats_.cycles += desc_.taken_branch_penalty;
      sim_.stats_.taken_branches += 1;
    }
  }

  Simulator& sim_;
  const MachineDesc& desc_;
  Memory& mem_;
  const MFunction& fn_;
  uint32_t func_idx_;
  RegFiles regs_;
  Reg last_load_dst_;
  bool last_load_valid_ = false;
};

TrapKind SimFrame::run(std::span<const Value> args, Value& ret_out) {
  for (size_t i = 0; i < args.size() && i < fn_.param_regs.size(); ++i) {
    set_value(fn_.param_regs[i], args[i]);
  }

  uint32_t block = 0;
  for (;;) {
    const MBlock& bb = fn_.blocks[block];
    for (uint32_t idx = 0; idx < bb.insts.size(); ++idx) {
      const MInst& inst = bb.insts[idx];
      if (sim_.stats_.instructions >= sim_.step_budget_) {
        return TrapKind::StepBudgetExceeded;
      }
      account(inst);

      // --- machine-only ops ---------------------------------------------
      if (is_machine_only(inst.op)) {
        switch (inst.op) {
          case MOp::MovRR:
            switch (inst.dst.cls) {
              case RegClass::Int: iset(inst.dst, iget(inst.s0)); break;
              case RegClass::Flt: fset(inst.dst, fget(inst.s0)); break;
              case RegClass::Vec: vset(inst.dst, vget(inst.s0)); break;
            }
            break;
          case MOp::MovImm:
            iset(inst.dst, inst.imm);
            break;
          case MOp::FMovImm32:
            f32set(inst.dst, std::bit_cast<float>(
                                 static_cast<uint32_t>(inst.imm)));
            break;
          case MOp::FMovImm64:
            fset(inst.dst,
                 std::bit_cast<double>(static_cast<uint64_t>(inst.imm)));
            break;
          case MOp::SpillLoad: {
            sim_.stats_.spill_loads += 1;
            const auto slot = static_cast<size_t>(inst.imm);
            switch (inst.dst.cls) {
              case RegClass::Int: iset(inst.dst, regs_.islots[slot]); break;
              case RegClass::Flt: fset(inst.dst, regs_.fslots[slot]); break;
              case RegClass::Vec: vset(inst.dst, regs_.vslots[slot]); break;
            }
            mark_load(inst);
            break;
          }
          case MOp::SpillStore: {
            sim_.stats_.spill_stores += 1;
            const auto slot = static_cast<size_t>(inst.imm);
            switch (inst.s0.cls) {
              case RegClass::Int: regs_.islots[slot] = iget(inst.s0); break;
              case RegClass::Flt: regs_.fslots[slot] = fget(inst.s0); break;
              case RegClass::Vec: regs_.vslots[slot] = vget(inst.s0); break;
            }
            break;
          }
          case MOp::FMA32:
            f32set(inst.dst, f32get(inst.s0) * f32get(inst.s1) +
                                 f32get(inst.s2));
            break;
          case MOp::LoadAddr:
            i32set(inst.dst,
                   static_cast<int32_t>(i32get(inst.s0) + inst.imm));
            break;
          case MOp::MNop:
            break;
          default:
            fatal("simulator: unknown machine-only op");
        }
        continue;
      }

      // --- shared-semantics ops -------------------------------------------
      const Opcode bc = base_opcode(inst.op);
      switch (bc) {
        // Integer arithmetic (i32 slices of int registers).
        case Opcode::AddI32:
          i32set(inst.dst,
                 static_cast<int32_t>(static_cast<uint32_t>(i32get(inst.s0)) +
                                      static_cast<uint32_t>(i32get(inst.s1))));
          break;
        case Opcode::SubI32:
          i32set(inst.dst,
                 static_cast<int32_t>(static_cast<uint32_t>(i32get(inst.s0)) -
                                      static_cast<uint32_t>(i32get(inst.s1))));
          break;
        case Opcode::MulI32:
          i32set(inst.dst,
                 static_cast<int32_t>(static_cast<uint32_t>(i32get(inst.s0)) *
                                      static_cast<uint32_t>(i32get(inst.s1))));
          break;
        case Opcode::DivSI32: {
          const int32_t a = i32get(inst.s0), b = i32get(inst.s1);
          if (b == 0) return TrapKind::DivideByZero;
          if (a == std::numeric_limits<int32_t>::min() && b == -1) {
            return TrapKind::IntegerOverflow;
          }
          i32set(inst.dst, a / b);
          break;
        }
        case Opcode::DivUI32: {
          const auto a = static_cast<uint32_t>(i32get(inst.s0));
          const auto b = static_cast<uint32_t>(i32get(inst.s1));
          if (b == 0) return TrapKind::DivideByZero;
          i32set(inst.dst, static_cast<int32_t>(a / b));
          break;
        }
        case Opcode::RemSI32: {
          const int32_t a = i32get(inst.s0), b = i32get(inst.s1);
          if (b == 0) return TrapKind::DivideByZero;
          if (a == std::numeric_limits<int32_t>::min() && b == -1) {
            i32set(inst.dst, 0);
          } else {
            i32set(inst.dst, a % b);
          }
          break;
        }
        case Opcode::RemUI32: {
          const auto a = static_cast<uint32_t>(i32get(inst.s0));
          const auto b = static_cast<uint32_t>(i32get(inst.s1));
          if (b == 0) return TrapKind::DivideByZero;
          i32set(inst.dst, static_cast<int32_t>(a % b));
          break;
        }
        case Opcode::AndI32:
          i32set(inst.dst, i32get(inst.s0) & i32get(inst.s1));
          break;
        case Opcode::OrI32:
          i32set(inst.dst, i32get(inst.s0) | i32get(inst.s1));
          break;
        case Opcode::XorI32:
          i32set(inst.dst, i32get(inst.s0) ^ i32get(inst.s1));
          break;
        case Opcode::ShlI32:
          i32set(inst.dst,
                 static_cast<int32_t>(static_cast<uint32_t>(i32get(inst.s0))
                                      << (i32get(inst.s1) & 31)));
          break;
        case Opcode::ShrSI32:
          i32set(inst.dst, i32get(inst.s0) >> (i32get(inst.s1) & 31));
          break;
        case Opcode::ShrUI32:
          i32set(inst.dst,
                 static_cast<int32_t>(static_cast<uint32_t>(i32get(inst.s0)) >>
                                      (i32get(inst.s1) & 31)));
          break;
        case Opcode::MinSI32:
          i32set(inst.dst, std::min(i32get(inst.s0), i32get(inst.s1)));
          break;
        case Opcode::MaxSI32:
          i32set(inst.dst, std::max(i32get(inst.s0), i32get(inst.s1)));
          break;
        case Opcode::MinUI32:
          i32set(inst.dst, static_cast<int32_t>(
                               std::min(static_cast<uint32_t>(i32get(inst.s0)),
                                        static_cast<uint32_t>(i32get(inst.s1)))));
          break;
        case Opcode::MaxUI32:
          i32set(inst.dst, static_cast<int32_t>(
                               std::max(static_cast<uint32_t>(i32get(inst.s0)),
                                        static_cast<uint32_t>(i32get(inst.s1)))));
          break;
        case Opcode::EqzI32:
          i32set(inst.dst, i32get(inst.s0) == 0);
          break;

        case Opcode::EqI32: i32set(inst.dst, i32get(inst.s0) == i32get(inst.s1)); break;
        case Opcode::NeI32: i32set(inst.dst, i32get(inst.s0) != i32get(inst.s1)); break;
        case Opcode::LtSI32: i32set(inst.dst, i32get(inst.s0) < i32get(inst.s1)); break;
        case Opcode::LtUI32:
          i32set(inst.dst, static_cast<uint32_t>(i32get(inst.s0)) <
                               static_cast<uint32_t>(i32get(inst.s1)));
          break;
        case Opcode::LeSI32: i32set(inst.dst, i32get(inst.s0) <= i32get(inst.s1)); break;
        case Opcode::LeUI32:
          i32set(inst.dst, static_cast<uint32_t>(i32get(inst.s0)) <=
                               static_cast<uint32_t>(i32get(inst.s1)));
          break;
        case Opcode::GtSI32: i32set(inst.dst, i32get(inst.s0) > i32get(inst.s1)); break;
        case Opcode::GtUI32:
          i32set(inst.dst, static_cast<uint32_t>(i32get(inst.s0)) >
                               static_cast<uint32_t>(i32get(inst.s1)));
          break;
        case Opcode::GeSI32: i32set(inst.dst, i32get(inst.s0) >= i32get(inst.s1)); break;
        case Opcode::GeUI32:
          i32set(inst.dst, static_cast<uint32_t>(i32get(inst.s0)) >=
                               static_cast<uint32_t>(i32get(inst.s1)));
          break;

        // i64.
        case Opcode::AddI64:
          iset(inst.dst, static_cast<int64_t>(static_cast<uint64_t>(iget(inst.s0)) +
                                              static_cast<uint64_t>(iget(inst.s1))));
          break;
        case Opcode::SubI64:
          iset(inst.dst, static_cast<int64_t>(static_cast<uint64_t>(iget(inst.s0)) -
                                              static_cast<uint64_t>(iget(inst.s1))));
          break;
        case Opcode::MulI64:
          iset(inst.dst, static_cast<int64_t>(static_cast<uint64_t>(iget(inst.s0)) *
                                              static_cast<uint64_t>(iget(inst.s1))));
          break;
        case Opcode::DivSI64: {
          const int64_t a = iget(inst.s0), b = iget(inst.s1);
          if (b == 0) return TrapKind::DivideByZero;
          if (a == std::numeric_limits<int64_t>::min() && b == -1) {
            return TrapKind::IntegerOverflow;
          }
          iset(inst.dst, a / b);
          break;
        }
        case Opcode::AndI64: iset(inst.dst, iget(inst.s0) & iget(inst.s1)); break;
        case Opcode::OrI64: iset(inst.dst, iget(inst.s0) | iget(inst.s1)); break;
        case Opcode::XorI64: iset(inst.dst, iget(inst.s0) ^ iget(inst.s1)); break;
        case Opcode::ShlI64:
          iset(inst.dst, static_cast<int64_t>(static_cast<uint64_t>(iget(inst.s0))
                                              << (iget(inst.s1) & 63)));
          break;
        case Opcode::ShrSI64:
          iset(inst.dst, iget(inst.s0) >> (iget(inst.s1) & 63));
          break;
        case Opcode::ShrUI64:
          iset(inst.dst, static_cast<int64_t>(static_cast<uint64_t>(iget(inst.s0)) >>
                                              (iget(inst.s1) & 63)));
          break;
        case Opcode::EqI64: i32set(inst.dst, iget(inst.s0) == iget(inst.s1)); break;
        case Opcode::NeI64: i32set(inst.dst, iget(inst.s0) != iget(inst.s1)); break;
        case Opcode::LtSI64: i32set(inst.dst, iget(inst.s0) < iget(inst.s1)); break;
        case Opcode::GtSI64: i32set(inst.dst, iget(inst.s0) > iget(inst.s1)); break;

        // f32 (computed in float precision, stored widened).
        case Opcode::AddF32: f32set(inst.dst, f32get(inst.s0) + f32get(inst.s1)); break;
        case Opcode::SubF32: f32set(inst.dst, f32get(inst.s0) - f32get(inst.s1)); break;
        case Opcode::MulF32: f32set(inst.dst, f32get(inst.s0) * f32get(inst.s1)); break;
        case Opcode::DivF32: f32set(inst.dst, f32get(inst.s0) / f32get(inst.s1)); break;
        case Opcode::MinF32:
          f32set(inst.dst, std::fmin(f32get(inst.s0), f32get(inst.s1)));
          break;
        case Opcode::MaxF32:
          f32set(inst.dst, std::fmax(f32get(inst.s0), f32get(inst.s1)));
          break;
        case Opcode::NegF32: f32set(inst.dst, -f32get(inst.s0)); break;
        case Opcode::AbsF32: f32set(inst.dst, std::fabs(f32get(inst.s0))); break;
        case Opcode::SqrtF32: f32set(inst.dst, std::sqrt(f32get(inst.s0))); break;
        case Opcode::EqF32: i32set(inst.dst, f32get(inst.s0) == f32get(inst.s1)); break;
        case Opcode::NeF32: i32set(inst.dst, f32get(inst.s0) != f32get(inst.s1)); break;
        case Opcode::LtF32: i32set(inst.dst, f32get(inst.s0) < f32get(inst.s1)); break;
        case Opcode::LeF32: i32set(inst.dst, f32get(inst.s0) <= f32get(inst.s1)); break;
        case Opcode::GtF32: i32set(inst.dst, f32get(inst.s0) > f32get(inst.s1)); break;
        case Opcode::GeF32: i32set(inst.dst, f32get(inst.s0) >= f32get(inst.s1)); break;

        // f64.
        case Opcode::AddF64: fset(inst.dst, fget(inst.s0) + fget(inst.s1)); break;
        case Opcode::SubF64: fset(inst.dst, fget(inst.s0) - fget(inst.s1)); break;
        case Opcode::MulF64: fset(inst.dst, fget(inst.s0) * fget(inst.s1)); break;
        case Opcode::DivF64: fset(inst.dst, fget(inst.s0) / fget(inst.s1)); break;
        case Opcode::MinF64:
          fset(inst.dst, std::fmin(fget(inst.s0), fget(inst.s1)));
          break;
        case Opcode::MaxF64:
          fset(inst.dst, std::fmax(fget(inst.s0), fget(inst.s1)));
          break;
        case Opcode::NegF64: fset(inst.dst, -fget(inst.s0)); break;
        case Opcode::SqrtF64: fset(inst.dst, std::sqrt(fget(inst.s0))); break;
        case Opcode::EqF64: i32set(inst.dst, fget(inst.s0) == fget(inst.s1)); break;
        case Opcode::NeF64: i32set(inst.dst, fget(inst.s0) != fget(inst.s1)); break;
        case Opcode::LtF64: i32set(inst.dst, fget(inst.s0) < fget(inst.s1)); break;
        case Opcode::LeF64: i32set(inst.dst, fget(inst.s0) <= fget(inst.s1)); break;
        case Opcode::GtF64: i32set(inst.dst, fget(inst.s0) > fget(inst.s1)); break;
        case Opcode::GeF64: i32set(inst.dst, fget(inst.s0) >= fget(inst.s1)); break;

        // Selects: dst = cond (s2) ? s0 : s1.
        case Opcode::SelectI32:
        case Opcode::SelectI64:
          iset(inst.dst, i32get(inst.s2) != 0 ? iget(inst.s0) : iget(inst.s1));
          break;
        case Opcode::SelectF32:
        case Opcode::SelectF64:
          fset(inst.dst, i32get(inst.s2) != 0 ? fget(inst.s0) : fget(inst.s1));
          break;

        // Conversions.
        case Opcode::I32ToI64S: iset(inst.dst, i32get(inst.s0)); break;
        case Opcode::I32ToI64U:
          iset(inst.dst, static_cast<uint32_t>(i32get(inst.s0)));
          break;
        case Opcode::I64ToI32:
          i32set(inst.dst, static_cast<int32_t>(iget(inst.s0)));
          break;
        case Opcode::I32ToF32S:
          f32set(inst.dst, static_cast<float>(i32get(inst.s0)));
          break;
        case Opcode::F32ToI32S:
          i32set(inst.dst, static_cast<int32_t>(f32get(inst.s0)));
          break;
        case Opcode::I32ToF64S: fset(inst.dst, i32get(inst.s0)); break;
        case Opcode::F64ToI32S:
          i32set(inst.dst, static_cast<int32_t>(fget(inst.s0)));
          break;
        case Opcode::F32ToF64: fset(inst.dst, f32get(inst.s0)); break;
        case Opcode::F64ToF32:
          f32set(inst.dst, static_cast<float>(fget(inst.s0)));
          break;
        case Opcode::I64ToF64S:
          fset(inst.dst, static_cast<double>(iget(inst.s0)));
          break;
        case Opcode::F64ToI64S:
          iset(inst.dst, static_cast<int64_t>(fget(inst.s0)));
          break;

        // Memory.
        case Opcode::LoadI8U:
        case Opcode::LoadI8S:
        case Opcode::LoadI16U:
        case Opcode::LoadI16S:
        case Opcode::LoadI32:
        case Opcode::LoadI64:
        case Opcode::LoadF32:
        case Opcode::LoadF64:
        case Opcode::LoadV128: {
          const uint64_t addr = static_cast<uint32_t>(i32get(inst.s0)) +
                                static_cast<uint64_t>(inst.imm);
          const uint32_t len = op_info(bc).mem_bytes;
          if (!mem_.in_bounds(addr, len)) return TrapKind::OutOfBoundsMemory;
          const auto a32 = static_cast<uint32_t>(addr);
          sim_.stats_.loads += 1;
          switch (bc) {
            case Opcode::LoadI8U: i32set(inst.dst, mem_.load_u8(a32)); break;
            case Opcode::LoadI8S:
              i32set(inst.dst, static_cast<int8_t>(mem_.load_u8(a32)));
              break;
            case Opcode::LoadI16U: i32set(inst.dst, mem_.load_u16(a32)); break;
            case Opcode::LoadI16S:
              i32set(inst.dst, static_cast<int16_t>(mem_.load_u16(a32)));
              break;
            case Opcode::LoadI32:
              i32set(inst.dst, static_cast<int32_t>(mem_.load_u32(a32)));
              break;
            case Opcode::LoadI64:
              iset(inst.dst, static_cast<int64_t>(mem_.load_u64(a32)));
              break;
            case Opcode::LoadF32:
              f32set(inst.dst, std::bit_cast<float>(mem_.load_u32(a32)));
              break;
            case Opcode::LoadF64:
              fset(inst.dst, std::bit_cast<double>(mem_.load_u64(a32)));
              break;
            case Opcode::LoadV128:
              vset(inst.dst, mem_.load_v128(a32));
              break;
            default: break;
          }
          mark_load(inst);
          break;
        }
        case Opcode::StoreI8:
        case Opcode::StoreI16:
        case Opcode::StoreI32:
        case Opcode::StoreI64:
        case Opcode::StoreF32:
        case Opcode::StoreF64:
        case Opcode::StoreV128: {
          const uint64_t addr = static_cast<uint32_t>(i32get(inst.s0)) +
                                static_cast<uint64_t>(inst.imm);
          const uint32_t len = op_info(bc).mem_bytes;
          if (!mem_.in_bounds(addr, len)) return TrapKind::OutOfBoundsMemory;
          const auto a32 = static_cast<uint32_t>(addr);
          sim_.stats_.stores += 1;
          switch (bc) {
            case Opcode::StoreI8:
              mem_.store_u8(a32, static_cast<uint8_t>(i32get(inst.s1)));
              break;
            case Opcode::StoreI16:
              mem_.store_u16(a32, static_cast<uint16_t>(i32get(inst.s1)));
              break;
            case Opcode::StoreI32:
              mem_.store_u32(a32, static_cast<uint32_t>(i32get(inst.s1)));
              break;
            case Opcode::StoreI64:
              mem_.store_u64(a32, static_cast<uint64_t>(iget(inst.s1)));
              break;
            case Opcode::StoreF32:
              mem_.store_u32(a32, std::bit_cast<uint32_t>(f32get(inst.s1)));
              break;
            case Opcode::StoreF64:
              mem_.store_u64(a32, std::bit_cast<uint64_t>(fget(inst.s1)));
              break;
            case Opcode::StoreV128:
              mem_.store_v128(a32, vget(inst.s1));
              break;
            default: break;
          }
          break;
        }

        // Vector ops (only selected on has_simd targets; semantics shared
        // with the interpreter definitions).
        case Opcode::VZero: vset(inst.dst, V128{}); break;
        case Opcode::VSplatI8:
          vset(inst.dst, V128::splat_u8(static_cast<uint8_t>(i32get(inst.s0))));
          break;
        case Opcode::VSplatI16:
          vset(inst.dst,
               V128::splat_u16(static_cast<uint16_t>(i32get(inst.s0))));
          break;
        case Opcode::VSplatI32:
          vset(inst.dst,
               V128::splat_u32(static_cast<uint32_t>(i32get(inst.s0))));
          break;
        case Opcode::VSplatF32:
          vset(inst.dst, V128::splat_f32(f32get(inst.s0)));
          break;

        case Opcode::VAddI8:
        case Opcode::VSubI8:
        case Opcode::VMinU8:
        case Opcode::VMaxU8: {
          const V128& a = vget(inst.s0);
          const V128& b = vget(inst.s1);
          V128 r;
          for (size_t i = 0; i < 16; ++i) {
            const uint8_t x = a.u8(i), y = b.u8(i);
            uint8_t o = 0;
            switch (bc) {
              case Opcode::VAddI8: o = static_cast<uint8_t>(x + y); break;
              case Opcode::VSubI8: o = static_cast<uint8_t>(x - y); break;
              case Opcode::VMinU8: o = std::min(x, y); break;
              case Opcode::VMaxU8: o = std::max(x, y); break;
              default: break;
            }
            r.set_u8(i, o);
          }
          vset(inst.dst, r);
          break;
        }
        case Opcode::VAddI16:
        case Opcode::VSubI16:
        case Opcode::VMinU16:
        case Opcode::VMaxU16: {
          const V128& a = vget(inst.s0);
          const V128& b = vget(inst.s1);
          V128 r;
          for (size_t i = 0; i < 8; ++i) {
            const uint16_t x = a.u16(i), y = b.u16(i);
            uint16_t o = 0;
            switch (bc) {
              case Opcode::VAddI16: o = static_cast<uint16_t>(x + y); break;
              case Opcode::VSubI16: o = static_cast<uint16_t>(x - y); break;
              case Opcode::VMinU16: o = std::min(x, y); break;
              case Opcode::VMaxU16: o = std::max(x, y); break;
              default: break;
            }
            r.set_u16(i, o);
          }
          vset(inst.dst, r);
          break;
        }
        case Opcode::VAddI32:
        case Opcode::VSubI32:
        case Opcode::VMulI32:
        case Opcode::VMinSI32:
        case Opcode::VMaxSI32: {
          const V128& a = vget(inst.s0);
          const V128& b = vget(inst.s1);
          V128 r;
          for (size_t i = 0; i < 4; ++i) {
            const uint32_t x = a.u32(i), y = b.u32(i);
            const auto xs = static_cast<int32_t>(x);
            const auto ys = static_cast<int32_t>(y);
            uint32_t o = 0;
            switch (bc) {
              case Opcode::VAddI32: o = x + y; break;
              case Opcode::VSubI32: o = x - y; break;
              case Opcode::VMulI32: o = x * y; break;
              case Opcode::VMinSI32:
                o = static_cast<uint32_t>(std::min(xs, ys));
                break;
              case Opcode::VMaxSI32:
                o = static_cast<uint32_t>(std::max(xs, ys));
                break;
              default: break;
            }
            r.set_u32(i, o);
          }
          vset(inst.dst, r);
          break;
        }
        case Opcode::VAddF32:
        case Opcode::VSubF32:
        case Opcode::VMulF32:
        case Opcode::VDivF32:
        case Opcode::VMinF32:
        case Opcode::VMaxF32: {
          const V128& a = vget(inst.s0);
          const V128& b = vget(inst.s1);
          V128 r;
          for (size_t i = 0; i < 4; ++i) {
            const float x = a.f32(i), y = b.f32(i);
            float o = 0;
            switch (bc) {
              case Opcode::VAddF32: o = x + y; break;
              case Opcode::VSubF32: o = x - y; break;
              case Opcode::VMulF32: o = x * y; break;
              case Opcode::VDivF32: o = x / y; break;
              case Opcode::VMinF32: o = std::fmin(x, y); break;
              case Opcode::VMaxF32: o = std::fmax(x, y); break;
              default: break;
            }
            r.set_f32(i, o);
          }
          vset(inst.dst, r);
          break;
        }
        case Opcode::VAnd:
        case Opcode::VOr:
        case Opcode::VXor: {
          const V128& a = vget(inst.s0);
          const V128& b = vget(inst.s1);
          V128 r;
          for (size_t i = 0; i < 16; ++i) {
            uint8_t o = 0;
            switch (bc) {
              case Opcode::VAnd: o = a.u8(i) & b.u8(i); break;
              case Opcode::VOr: o = a.u8(i) | b.u8(i); break;
              case Opcode::VXor: o = a.u8(i) ^ b.u8(i); break;
              default: break;
            }
            r.set_u8(i, o);
          }
          vset(inst.dst, r);
          break;
        }
        case Opcode::VRSumU8: {
          const V128& a = vget(inst.s0);
          int32_t s = 0;
          for (size_t i = 0; i < 16; ++i) s += a.u8(i);
          i32set(inst.dst, s);
          break;
        }
        case Opcode::VRSumU16: {
          const V128& a = vget(inst.s0);
          int32_t s = 0;
          for (size_t i = 0; i < 8; ++i) s += a.u16(i);
          i32set(inst.dst, s);
          break;
        }
        case Opcode::VRSumI32: {
          const V128& a = vget(inst.s0);
          uint32_t s = 0;
          for (size_t i = 0; i < 4; ++i) s += a.u32(i);
          i32set(inst.dst, static_cast<int32_t>(s));
          break;
        }
        case Opcode::VRSumF32: {
          const V128& a = vget(inst.s0);
          f32set(inst.dst, (a.f32(0) + a.f32(1)) + (a.f32(2) + a.f32(3)));
          break;
        }
        case Opcode::VRMaxU8: {
          const V128& a = vget(inst.s0);
          uint8_t m = 0;
          for (size_t i = 0; i < 16; ++i) m = std::max(m, a.u8(i));
          i32set(inst.dst, m);
          break;
        }
        case Opcode::VRMinU8: {
          const V128& a = vget(inst.s0);
          uint8_t m = 0xff;
          for (size_t i = 0; i < 16; ++i) m = std::min(m, a.u8(i));
          i32set(inst.dst, m);
          break;
        }
        case Opcode::VRMaxU16: {
          const V128& a = vget(inst.s0);
          uint16_t m = 0;
          for (size_t i = 0; i < 8; ++i) m = std::max(m, a.u16(i));
          i32set(inst.dst, m);
          break;
        }
        case Opcode::VRMaxSI32: {
          const V128& a = vget(inst.s0);
          int32_t m = std::numeric_limits<int32_t>::min();
          for (size_t i = 0; i < 4; ++i) {
            m = std::max(m, static_cast<int32_t>(a.u32(i)));
          }
          i32set(inst.dst, m);
          break;
        }
        case Opcode::VRMaxF32: {
          const V128& a = vget(inst.s0);
          float m = a.f32(0);
          for (size_t i = 1; i < 4; ++i) m = std::fmax(m, a.f32(i));
          f32set(inst.dst, m);
          break;
        }
        case Opcode::VRMinF32: {
          const V128& a = vget(inst.s0);
          float m = a.f32(0);
          for (size_t i = 1; i < 4; ++i) m = std::fmin(m, a.f32(i));
          f32set(inst.dst, m);
          break;
        }
        case Opcode::VExtractU8:
          i32set(inst.dst, vget(inst.s0).u8(inst.a));
          break;
        case Opcode::VExtractU16:
          i32set(inst.dst, vget(inst.s0).u16(inst.a));
          break;
        case Opcode::VExtractI32:
          i32set(inst.dst, static_cast<int32_t>(vget(inst.s0).u32(inst.a)));
          break;
        case Opcode::VExtractF32:
          f32set(inst.dst, vget(inst.s0).f32(inst.a));
          break;
        case Opcode::VInsertI8: {
          V128 r = vget(inst.s0);
          r.set_u8(inst.a, static_cast<uint8_t>(i32get(inst.s1)));
          vset(inst.dst, r);
          break;
        }
        case Opcode::VInsertI16: {
          V128 r = vget(inst.s0);
          r.set_u16(inst.a, static_cast<uint16_t>(i32get(inst.s1)));
          vset(inst.dst, r);
          break;
        }
        case Opcode::VInsertI32: {
          V128 r = vget(inst.s0);
          r.set_u32(inst.a, static_cast<uint32_t>(i32get(inst.s1)));
          vset(inst.dst, r);
          break;
        }
        case Opcode::VInsertF32: {
          V128 r = vget(inst.s0);
          r.set_f32(inst.a, f32get(inst.s1));
          vset(inst.dst, r);
          break;
        }

        // Control.
        case Opcode::Jump:
          sim_.stats_.branches += 1;
          account_jump(block, inst.a);
          block = inst.a;
          goto next_block;
        case Opcode::BranchIf: {
          sim_.stats_.branches += 1;
          const bool taken = i32get(inst.s0) != 0;
          if (predict(block, idx, taken)) {
            sim_.stats_.mispredicts += 1;
            sim_.stats_.cycles += desc_.mispredict_penalty;
          }
          const uint32_t next = taken ? inst.a : inst.b;
          account_jump(block, next);
          block = next;
          goto next_block;
        }
        case Opcode::Ret:
          if (fn_.ret_type != Type::Void) {
            ret_out = get_value(inst.s0, fn_.ret_type);
          }
          return TrapKind::None;
        case Opcode::Trap:
          return TrapKind::ExplicitTrap;
        case Opcode::Call: {
          sim_.stats_.calls += 1;
          if (++sim_.call_depth_ > kMaxCallDepth) {
            return TrapKind::CallStackOverflow;
          }
          const MFunction& callee = sim_.functions_[inst.a];
          // Argument registers live in the caller's frame, listed by the
          // call-site table (inst.imm indexes fn_.call_sites).
          const auto& arg_regs =
              fn_.call_sites[static_cast<size_t>(inst.imm)];
          std::vector<Value> args;
          args.reserve(arg_regs.size());
          for (const Reg& src : arg_regs) {
            Type t = Type::I64;
            switch (src.cls) {
              case RegClass::Int: t = Type::I64; break;
              case RegClass::Flt: t = Type::F64; break;
              case RegClass::Vec: t = Type::V128; break;
            }
            args.push_back(get_value(src, t));
          }
          // Save/restore traffic approximation.
          sim_.stats_.cycles += 2 * static_cast<uint64_t>(args.size());
          SimFrame child(sim_, callee, inst.a);
          Value ret;
          const TrapKind trap = child.run(args, ret);
          --sim_.call_depth_;
          if (trap != TrapKind::None) return trap;
          if (callee.ret_type != Type::Void && inst.dst.valid) {
            set_value(inst.dst, ret);
          }
          break;
        }
        case Opcode::Drop:
        case Opcode::Nop:
          break;
        default:
          fatal("simulator: unhandled opcode " + std::string(op_mnemonic(bc)));
      }
    }
    // Blocks always end in a terminator; reaching here is a JIT bug.
    fatal("simulator: block fell through");
  next_block:;
  }
}

SimResult Simulator::run(uint32_t func_idx, std::span<const Value> args) {
  stats_ = SimStats{};
  predictor_.clear();
  call_depth_ = 0;
  SimResult result;
  SimFrame frame(*this, functions_[func_idx], func_idx);
  result.trap = frame.run(args, result.value);
  result.stats = stats_;
  return result;
}

}  // namespace svc
