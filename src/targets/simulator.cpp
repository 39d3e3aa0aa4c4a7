#include "targets/simulator.h"

#include <bit>
#include <type_traits>

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
  // Operands of a value opcode: s0, s1, s2 in push order; the result goes
  // to dst.
  struct RegOperands {
    SimFrame& f;
    const MInst& inst;

    template <class T, size_t K>
    [[nodiscard]] decltype(auto) operand() const {
      const Reg& r = K == 0 ? inst.s0 : K == 1 ? inst.s1 : inst.s2;
      if constexpr (std::is_same_v<T, int32_t>) {
        return f.i32get(r);
      } else if constexpr (std::is_same_v<T, int64_t>) {
        return f.iget(r);
      } else if constexpr (std::is_same_v<T, float>) {
        return f.f32get(r);
      } else if constexpr (std::is_same_v<T, double>) {
        return f.fget(r);
      } else {
        return f.vget(r);
      }
    }
    void result(int32_t v) { f.i32set(inst.dst, v); }
    void result(int64_t v) { f.iset(inst.dst, v); }
    void result(float v) { f.f32set(inst.dst, v); }
    void result(double v) { f.fset(inst.dst, v); }
    void result(const V128& v) { f.vset(inst.dst, v); }
    [[nodiscard]] Memory& memory() const { return f.mem_; }
    [[nodiscard]] int64_t offset() const { return inst.imm; }
    [[nodiscard]] uint32_t lane() const { return inst.a; }
  };

  template <auto F>
  SVC_SEM_INLINE TrapKind apply(const MInst& inst) {
    RegOperands ops{*this, inst};
    const TrapKind trap = sem::apply<F>(ops);
    if (trap != TrapKind::None) return trap;
    using S = sem::SignatureOf<F>;
    if constexpr (S::kLoads) {
      sim_.stats_.loads += 1;
      mark_load(inst);
    }
    if constexpr (S::kStores) sim_.stats_.stores += 1;
    return TrapKind::None;
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
            // Two roundings: exactly the mul.f32 + add.f32 it replaces.
            f32set(inst.dst,
                   sem::AddF32(sem::MulF32(f32get(inst.s0), f32get(inst.s1)),
                               f32get(inst.s2)));
            break;
          case MOp::LoadAddr:
            i32set(inst.dst, sem::AddI32(i32get(inst.s0),
                                         static_cast<int32_t>(inst.imm)));
            break;
          case MOp::MNop:
            break;
          default:
            fatal("simulator: unknown machine-only op");
        }
        continue;
      }

      // --- SVIL ops ------------------------------------------------------
      const Opcode bc = base_opcode(inst.op);
      switch (bc) {
        // Value opcodes (vm/semantics.h) in three-address form.
#define SVC_VALUE_CASE(Name)                                    \
  case Opcode::Name:                                            \
    if (const TrapKind t = apply<&sem::Name>(inst);             \
        t != TrapKind::None) {                                  \
      return t;                                                 \
    }                                                           \
    break;
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  SVC_SEM_##category(SVC_VALUE_CASE, Name)
#include "bytecode/opcodes.def"
#undef SVC_OP
#undef SVC_VALUE_CASE

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
          const MFunction& callee = *sim_.functions_[inst.a];
          // Argument registers live in the caller's frame, listed by the
          // call-site table (inst.imm indexes fn_.call_sites).
          const std::span<const Reg> arg_regs =
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
  SimFrame frame(*this, *functions_[func_idx], func_idx);
  result.trap = frame.run(args, result.value);
  result.stats = stats_;
  return result;
}

}  // namespace svc
