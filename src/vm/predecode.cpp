#include "vm/predecode.h"

#include <optional>
#include <span>
#include <utility>

#include "support/diagnostics.h"

namespace svc {

namespace {

constexpr std::string_view kPOpMnemonics[] = {
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  mnemonic,
#include "bytecode/opcodes.def"
#undef SVC_OP
#define SVC_FUSED_OP(Name, mnemonic, steps) mnemonic,
#include "vm/fused_ops.def"
#undef SVC_FUSED_OP
};
static_assert(std::size(kPOpMnemonics) == kNumPOps);

// The unfused prefix of POp mirrors Opcode 1:1 so the profiling engine
// can cast stream ops straight back to Opcode for record_op().
static_assert(static_cast<uint16_t>(POp::Nop) ==
              static_cast<uint16_t>(Opcode::Nop));
static_assert(static_cast<uint16_t>(POp::ConstI32) ==
              static_cast<uint16_t>(Opcode::ConstI32));
static_assert(static_cast<size_t>(POp::FGetGetAddI32) == kNumOpcodes);

/// (pops, pushes) of one instruction, resolving the polymorphic opcodes
/// the static OpInfo signatures leave empty.
std::pair<uint32_t, uint32_t> stack_effect(const Module& module,
                                           const Function& fn,
                                           const Instruction& inst) {
  switch (inst.op) {
    case Opcode::LocalGet: return {0, 1};
    case Opcode::LocalSet: return {1, 0};
    case Opcode::Jump:
    case Opcode::Trap:
    case Opcode::Nop: return {0, 0};
    case Opcode::BranchIf: return {1, 0};
    case Opcode::Ret: return {fn.sig().ret != Type::Void ? 1u : 0u, 0};
    case Opcode::Drop: return {1, 0};
    case Opcode::Call: {
      const Function& callee = module.function(inst.a);
      return {static_cast<uint32_t>(callee.num_params()),
              callee.sig().ret != Type::Void ? 1u : 0u};
    }
    default: {
      const OpInfo& info = op_info(inst.op);
      return {static_cast<uint32_t>(info.pops.size()),
              static_cast<uint32_t>(info.pushes.size())};
    }
  }
}

int64_t pack2(uint32_t lo, uint32_t hi) {
  return static_cast<int64_t>(static_cast<uint64_t>(lo) |
                              (static_cast<uint64_t>(hi) << 32));
}

/// Branch-target patch recorded during lowering: targets are emitted as
/// basic-block ids and rewritten to stream offsets once every block's
/// start offset is known.
struct Fixup {
  enum Kind : uint8_t {
    ABlock,     // a = block id -> offset (Jump)
    ABBlocks,   // a, b = block ids -> offsets (BranchIf, F*Br)
    ImmBlocks,  // imm packs (taken, not-taken) block ids -> offsets
  };
  size_t index;
  Kind kind;
};

PInst make_pinst(POp op, uint8_t steps, uint32_t a, uint32_t b, int64_t imm) {
  PInst p;
  p.op = op;
  p.steps = steps;
  p.a = a;
  p.b = b;
  p.imm = imm;
  return p;
}

struct Match {
  PInst inst;
  size_t len;
  std::optional<Fixup::Kind> fixup;
};

/// Fused compare-and-branch op for `cmp`, or nullopt when the pair is
/// not in the table.
std::optional<POp> fused_cmp_br(Opcode cmp) {
  switch (cmp) {
    case Opcode::EqzI32: return POp::FEqzI32Br;
    case Opcode::EqI32: return POp::FEqI32Br;
    case Opcode::NeI32: return POp::FNeI32Br;
    case Opcode::LtSI32: return POp::FLtSI32Br;
    case Opcode::LtUI32: return POp::FLtUI32Br;
    case Opcode::LeSI32: return POp::FLeSI32Br;
    case Opcode::GtSI32: return POp::FGtSI32Br;
    case Opcode::GeSI32: return POp::FGeSI32Br;
    default: return std::nullopt;
  }
}

/// The static fusion table: tries the patterns longest-first at position
/// `i` of a block's instruction list. Only frame-private, non-trapping
/// sequences fuse (see fused_ops.def for the selection rules).
std::optional<Match> try_fuse(std::span<const Instruction> insts, size_t i) {
  const auto op_at = [&](size_t j) { return insts[i + j].op; };
  const size_t left = insts.size() - i;

  if (left >= 4 && op_at(0) == Opcode::LocalGet &&
      op_at(1) == Opcode::ConstI32 && op_at(2) == Opcode::AddI32 &&
      op_at(3) == Opcode::LocalSet) {
    return Match{make_pinst(POp::FIncLocalI32, 4, insts[i].a, insts[i + 3].a,
                            insts[i + 1].imm),
                 4, std::nullopt};
  }
  if (left >= 4 && op_at(0) == Opcode::LocalGet &&
      op_at(1) == Opcode::LocalGet && op_at(2) == Opcode::LtSI32 &&
      op_at(3) == Opcode::BranchIf) {
    const Instruction& br = insts[i + 3];
    return Match{make_pinst(POp::FGetGetLtSBr, 4, insts[i].a, insts[i + 1].a,
                            pack2(br.a, br.b)),
                 4, Fixup::ImmBlocks};
  }
  if (left >= 3 && op_at(0) == Opcode::LocalGet &&
      op_at(1) == Opcode::LocalGet) {
    POp fused = POp::Count_;
    switch (op_at(2)) {
      case Opcode::AddI32: fused = POp::FGetGetAddI32; break;
      case Opcode::AddF32: fused = POp::FGetGetAddF32; break;
      case Opcode::MulF32: fused = POp::FGetGetMulF32; break;
      default: break;
    }
    if (fused != POp::Count_) {
      return Match{make_pinst(fused, 3, insts[i].a, insts[i + 1].a, 0), 3,
                   std::nullopt};
    }
  }
  if (left >= 3 && op_at(0) == Opcode::LocalGet &&
      op_at(1) == Opcode::ConstI32 && op_at(2) == Opcode::AddI32) {
    return Match{make_pinst(POp::FGetConstAddI32, 3, insts[i].a, 0,
                            insts[i + 1].imm),
                 3, std::nullopt};
  }
  if (left >= 2 && op_at(0) == Opcode::ConstI32 &&
      op_at(1) == Opcode::LocalSet) {
    return Match{
        make_pinst(POp::FConstI32Set, 2, insts[i + 1].a, 0, insts[i].imm), 2,
        std::nullopt};
  }
  if (left >= 2 && op_at(0) == Opcode::LocalGet &&
      op_at(1) == Opcode::LocalSet) {
    return Match{make_pinst(POp::FGetSet, 2, insts[i].a, insts[i + 1].a, 0),
                 2, std::nullopt};
  }
  if (left >= 2 && op_at(1) == Opcode::BranchIf) {
    if (const auto fused = fused_cmp_br(op_at(0))) {
      const Instruction& br = insts[i + 1];
      return Match{make_pinst(*fused, 2, br.a, br.b, 0), 2, Fixup::ABBlocks};
    }
  }
  return std::nullopt;
}

}  // namespace

std::string_view pop_mnemonic(POp op) {
  return kPOpMnemonics[static_cast<size_t>(op)];
}

PCode predecode(const Module& module, uint32_t fn_idx, bool fuse) {
  const Function& fn = module.function(fn_idx);
  PCode out;
  out.fn_idx = fn_idx;
  out.num_locals = static_cast<uint32_t>(fn.num_locals());
  out.fused = fuse;
  out.block_offsets.resize(fn.num_blocks());
  out.locals_init.reserve(fn.num_locals());
  for (uint32_t l = 0; l < fn.num_locals(); ++l) {
    out.locals_init.push_back(Value::zero_of(fn.local_type(l)));
  }

  std::vector<Fixup> fixups;
  const bool ret_value = fn.sig().ret != Type::Void;

  for (uint32_t bi = 0; bi < fn.num_blocks(); ++bi) {
    out.block_offsets[bi] = static_cast<uint32_t>(out.code.size());
    const std::span<const Instruction> insts = fn.block(bi).insts;

    // Exact operand-stack high-water mark: the stack is empty at every
    // block boundary, so a per-block walk of the original instructions
    // bounds the frame (fusion only ever uses fewer slots).
    uint32_t depth = 0;
    for (const Instruction& inst : insts) {
      const auto [pops, pushes] = stack_effect(module, fn, inst);
      depth = depth - pops + pushes;
      if (depth > out.max_stack) out.max_stack = depth;
    }

    size_t i = 0;
    while (i < insts.size()) {
      if (fuse) {
        if (const auto m = try_fuse(insts, i)) {
          if (m->fixup) {
            fixups.push_back({out.code.size(), *m->fixup});
          }
          out.code.push_back(m->inst);
          ++out.fused_count;
          i += m->len;
          continue;
        }
      }
      const Instruction& inst = insts[i];
      PInst p = make_pinst(static_cast<POp>(inst.op), 1, inst.a, inst.b,
                           inst.imm);
      switch (inst.op) {
        case Opcode::Ret:
          p.a = ret_value ? 1 : 0;
          break;
        case Opcode::Call: {
          const Function& callee = module.function(inst.a);
          p.b = static_cast<uint32_t>(callee.num_params());
          p.imm = callee.sig().ret != Type::Void ? 1 : 0;
          break;
        }
        case Opcode::Jump:
          // a: block id, patched to a stream offset below; b keeps the
          // block id for the profiling engine's loop bookkeeping.
          p.b = inst.a;
          fixups.push_back({out.code.size(), Fixup::ABlock});
          break;
        case Opcode::BranchIf:
          // a/b: block ids, patched below; imm keeps both block ids for
          // record_branch / record_transfer in the profiling engine.
          p.imm = pack2(inst.a, inst.b);
          fixups.push_back({out.code.size(), Fixup::ABBlocks});
          break;
        default: break;
      }
      out.code.push_back(p);
      ++i;
    }
  }

  for (const Fixup& fix : fixups) {
    PInst& p = out.code[fix.index];
    switch (fix.kind) {
      case Fixup::ABlock:
        p.a = out.block_offsets[p.a];
        break;
      case Fixup::ABBlocks:
        p.a = out.block_offsets[p.a];
        p.b = out.block_offsets[p.b];
        break;
      case Fixup::ImmBlocks: {
        const auto packed = static_cast<uint64_t>(p.imm);
        p.imm = pack2(out.block_offsets[static_cast<uint32_t>(packed)],
                      out.block_offsets[static_cast<uint32_t>(packed >> 32)]);
        break;
      }
    }
  }
  return out;
}

}  // namespace svc
