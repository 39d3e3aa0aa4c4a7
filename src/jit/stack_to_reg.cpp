#include "jit/stack_to_reg.h"

#include <span>
#include <vector>

#include "support/diagnostics.h"

namespace svc {
namespace {

class Translator {
 public:
  Translator(const Module& module, const Function& fn)
      : module_(module), fn_(fn) {}

  MFunction run() {
    out_.name = fn_.name();
    out_.ret_type = fn_.sig().ret;
    out_.blocks.resize(fn_.num_blocks());

    // Locals (including parameters) get dedicated vregs.
    out_.local_regs.reserve(fn_.num_locals(), fn_.num_locals());
    out_.param_regs.reserve(fn_.num_params());
    for (uint32_t l = 0; l < fn_.num_locals(); ++l) {
      const Reg r = fresh(reg_class_for(fn_.local_type(l)));
      out_.local_regs.append(1)[0] = r;
      if (l < fn_.num_params()) out_.param_regs.push_back(r);
    }

    for (uint32_t b = 0; b < fn_.num_blocks(); ++b) {
      translate_block(b);
    }
    return std::move(out_);
  }

 private:
  Reg fresh(RegClass cls) {
    return Reg::make(cls, out_.num_vregs[static_cast<size_t>(cls)]++);
  }

  void emit(uint32_t block, MInst inst) {
    out_.blocks[block].insts.push_back(inst);
  }

  /// The vreg of SVIL local `l` (one per local before de-vectorization).
  Reg local_reg(uint32_t l) const { return out_.local_regs.all()[l]; }

  Reg pop() {
    Reg r = stack_.back();
    stack_.pop_back();
    return r;
  }

  void translate_block(uint32_t b) {
    stack_.clear();
    const auto& insts = fn_.block(b).insts;
    // Sized once: an instruction emits at most one machine instruction,
    // except a LocalSet, which may first save the local's old value.
    size_t bound = insts.size();
    for (const Instruction& inst : insts) {
      if (inst.op == Opcode::LocalSet) ++bound;
    }
    out_.blocks[b].insts.reserve(bound);
    for (const Instruction& inst : insts) translate_inst(b, inst);
  }

  void translate_inst(uint32_t b, const Instruction& inst) {
    const OpInfo& info = op_info(inst.op);
    switch (inst.op) {
      case Opcode::ConstI32:
      case Opcode::ConstI64: {
        const Reg dst = fresh(RegClass::Int);
        MInst m;
        m.op = MOp::MovImm;
        m.dst = dst;
        m.imm = inst.imm;
        emit(b, m);
        stack_.push_back(dst);
        return;
      }
      case Opcode::ConstF32:
      case Opcode::ConstF64: {
        const Reg dst = fresh(RegClass::Flt);
        MInst m;
        m.op = inst.op == Opcode::ConstF32 ? MOp::FMovImm32 : MOp::FMovImm64;
        m.dst = dst;
        m.imm = inst.imm;
        emit(b, m);
        stack_.push_back(dst);
        return;
      }
      case Opcode::LocalGet:
        stack_.push_back(local_reg(inst.a));
        return;
      case Opcode::LocalSet: {
        const Reg value = pop();
        const Reg local = local_reg(inst.a);
        // Any still-pending stack reads of the local's old value must be
        // preserved before the overwrite.
        for (Reg& s : stack_) {
          if (s == local) {
            const Reg save = fresh(local.cls);
            MInst m;
            m.op = MOp::MovRR;
            m.dst = save;
            m.s0 = local;
            emit(b, m);
            for (Reg& t : stack_) {
              if (t == local) t = save;
            }
            break;
          }
        }
        MInst m;
        m.op = MOp::MovRR;
        m.dst = local;
        m.s0 = value;
        emit(b, m);
        return;
      }
      case Opcode::Jump: {
        MInst m;
        m.op = mop(inst.op);
        m.a = inst.a;
        emit(b, m);
        return;
      }
      case Opcode::BranchIf: {
        MInst m;
        m.op = mop(inst.op);
        m.s0 = pop();
        m.a = inst.a;
        m.b = inst.b;
        emit(b, m);
        return;
      }
      case Opcode::Ret: {
        MInst m;
        m.op = mop(inst.op);
        if (fn_.sig().ret != Type::Void) m.s0 = pop();
        emit(b, m);
        return;
      }
      case Opcode::Trap: {
        MInst m;
        m.op = mop(inst.op);
        emit(b, m);
        return;
      }
      case Opcode::Call: {
        const Function& callee = module_.function(inst.a);
        MInst m;
        m.op = mop(inst.op);
        m.a = inst.a;
        m.imm = static_cast<int64_t>(out_.call_sites.size());
        const std::span<Reg> args = out_.call_sites.append(callee.num_params());
        for (size_t i = args.size(); i-- > 0;) args[i] = pop();
        if (callee.sig().ret != Type::Void) {
          m.dst = fresh(reg_class_for(callee.sig().ret));
          stack_.push_back(m.dst);
        }
        emit(b, m);
        return;
      }
      case Opcode::Drop:
        pop();
        return;
      case Opcode::Nop:
        return;
      default:
        break;
    }

    // Generic typed ops: pop per signature, push per signature.
    MInst m;
    m.op = mop(inst.op);
    m.imm = inst.imm;
    m.a = inst.a;
    m.b = inst.b;
    const std::string_view pops = info.pops;
    // Operands are popped back-to-front (pops lists them in push order).
    Reg ops[3];
    const size_t n = pops.size();
    if (n > 3) fatal("stack_to_reg: op pops more than 3 operands");
    for (size_t i = n; i-- > 0;) ops[i] = pop();
    m.s0 = n > 0 ? ops[0] : Reg{};
    m.s1 = n > 1 ? ops[1] : Reg{};
    m.s2 = n > 2 ? ops[2] : Reg{};
    if (!info.pushes.empty()) {
      m.dst = fresh(reg_class_for(info.push_type()));
      stack_.push_back(m.dst);
    }
    emit(b, m);
  }

  const Module& module_;
  const Function& fn_;
  MFunction out_;
  std::vector<Reg> stack_;
};

}  // namespace

MFunction stack_to_reg(const Module& module, const Function& fn) {
  return Translator(module, fn).run();
}

}  // namespace svc
