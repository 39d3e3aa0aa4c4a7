#include "ir/passes.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ir/loop_info.h"
#include "vm/semantics.h"

namespace svc {
namespace {

/// Map of single-def i32 constants.
std::map<ValueId, int64_t> const_map(const IRFunction& fn) {
  const auto defs = fn.def_counts();
  std::map<ValueId, int64_t> consts;
  for (const IRBlock& block : fn.blocks()) {
    for (const IRInst& inst : block.insts) {
      if (inst.dst != kNoValue && defs[inst.dst] == 1 &&
          inst.op == Opcode::ConstI32) {
        consts[inst.dst] = inst.imm;
      }
    }
  }
  return consts;
}

bool has_side_effects(const IRInst& inst) {
  const OpInfo& info = op_info(inst.op);
  switch (info.category) {
    case OpCategory::Store:
    case OpCategory::Control:
    case OpCategory::Call:
      return true;
    case OpCategory::Load:
      return true;  // loads can trap out-of-bounds; keep them
    case OpCategory::IntArith:
      // Division can trap.
      switch (inst.op) {
        case Opcode::DivSI32:
        case Opcode::DivUI32:
        case Opcode::RemSI32:
        case Opcode::RemUI32:
        case Opcode::DivSI64:
          return true;
        default:
          return false;
      }
    default:
      return false;
  }
}

}  // namespace

uint32_t run_fold_pass(IRFunction& fn) {
  // The i32 binary opcodes folded when both operands are constants,
  // evaluated by their one definition in vm/semantics.h.
  using Fold = int32_t (*)(int32_t, int32_t);
  static constexpr std::pair<Opcode, Fold> kFoldable[] = {
      {Opcode::AddI32, &sem::AddI32}, {Opcode::SubI32, &sem::SubI32},
      {Opcode::MulI32, &sem::MulI32}, {Opcode::AndI32, &sem::AndI32},
      {Opcode::OrI32, &sem::OrI32},   {Opcode::XorI32, &sem::XorI32},
      {Opcode::ShlI32, &sem::ShlI32}, {Opcode::LtSI32, &sem::LtSI32},
      {Opcode::GtSI32, &sem::GtSI32}, {Opcode::EqI32, &sem::EqI32},
      {Opcode::NeI32, &sem::NeI32},
  };
  const auto consts = const_map(fn);
  uint32_t folded = 0;
  auto cval = [&](ValueId v) -> std::optional<int32_t> {
    const auto it = consts.find(v);
    if (it == consts.end()) return std::nullopt;
    return static_cast<int32_t>(it->second);
  };
  for (IRBlock& block : fn.blocks()) {
    for (IRInst& inst : block.insts) {
      if (inst.dst == kNoValue) continue;
      const auto* fold = std::find_if(
          std::begin(kFoldable), std::end(kFoldable),
          [&](const auto& entry) { return entry.first == inst.op; });
      if (fold == std::end(kFoldable)) continue;
      const auto a = cval(inst.s0);
      const auto b = cval(inst.s1);
      if (!a || !b) continue;
      inst = {Opcode::ConstI32, inst.dst, kNoValue, kNoValue, kNoValue,
              fold->second(*a, *b), 0, 0};
      ++folded;
    }
  }
  return folded;
}

uint32_t run_simplify_pass(IRFunction& fn) {
  const auto consts = const_map(fn);
  uint32_t simplified = 0;
  auto cval = [&](ValueId v) -> std::optional<int64_t> {
    const auto it = consts.find(v);
    if (it == consts.end()) return std::nullopt;
    return it->second;
  };
  auto log2_exact = [](int64_t v) -> std::optional<int64_t> {
    if (v <= 0 || (v & (v - 1)) != 0) return std::nullopt;
    int64_t k = 0;
    while ((int64_t{1} << k) != v) ++k;
    return k;
  };
  for (IRBlock& block : fn.blocks()) {
    for (size_t i = 0; i < block.insts.size(); ++i) {
      IRInst& inst = block.insts[i];
      switch (inst.op) {
        case Opcode::MulI32: {
          // x * 2^k  ->  x << k (strength reduction for addressing math).
          for (int flip = 0; flip < 2; ++flip) {
            const ValueId x = flip ? inst.s1 : inst.s0;
            const ValueId c = flip ? inst.s0 : inst.s1;
            const auto v = cval(c);
            if (!v) continue;
            if (*v == 1) {
              inst = ir_copy(inst.dst, x);
              ++simplified;
              break;
            }
            const auto k = log2_exact(*v);
            if (k) {
              // Reuses the constant value as the shift amount via a new
              // constant instruction inserted before.
              const ValueId kval = fn.new_value(Type::I32);
              IRInst kinst{Opcode::ConstI32, kval, kNoValue, kNoValue,
                           kNoValue, *k, 0, 0};
              inst = {Opcode::ShlI32, inst.dst, x, kval, kNoValue, 0, 0, 0};
              block.insts.insert(block.insts.begin() + static_cast<long>(i),
                                 kinst);
              ++i;
              ++simplified;
              break;
            }
          }
          break;
        }
        case Opcode::AddI32:
        case Opcode::SubI32: {
          // x + 0 / x - 0 -> copy.
          const auto b = cval(inst.s1);
          if (b && *b == 0) {
            inst = ir_copy(inst.dst, inst.s0);
            ++simplified;
          } else if (inst.op == Opcode::AddI32) {
            const auto a = cval(inst.s0);
            if (a && *a == 0) {
              inst = ir_copy(inst.dst, inst.s1);
              ++simplified;
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return simplified;
}


/// Copy coalescing: `tmp = <op>(...); ...; x <- tmp` with tmp defined and
/// used exactly once collapses to `x = <op>(...)`. Canonicalizes the
/// frontend's assignment pattern so induction updates become
/// `i = add(i, 1)` and reductions `r = op(r, e)` -- the shapes the
/// vectorizer and induction analysis match on.
uint32_t run_coalesce_pass(IRFunction& fn) {
  uint32_t coalesced = 0;
  const auto defs = fn.def_counts();
  // Global use counts.
  std::vector<uint32_t> uses(fn.num_values(), 0);
  for (const IRBlock& block : fn.blocks()) {
    for (const IRInst& inst : block.insts) {
      for (ValueId s : {inst.s0, inst.s1, inst.s2}) {
        if (s != kNoValue) ++uses[s];
      }
    }
  }
  for (IRBlock& block : fn.blocks()) {
    for (size_t k = 0; k < block.insts.size(); ++k) {
      const IRInst copy = block.insts[k];
      if (!is_ir_copy(copy)) continue;
      const ValueId tmp = copy.s0;
      const ValueId x = copy.dst;
      if (tmp == x || defs[tmp] != 1 || uses[tmp] != 1) continue;
      // Find tmp's def earlier in this block; x must stay untouched in
      // between (reads of x would observe the old value).
      for (size_t j = 0; j < k; ++j) {
        if (block.insts[j].dst != tmp) continue;
        bool safe = true;
        for (size_t m = j + 1; m < k; ++m) {
          const IRInst& mid = block.insts[m];
          if (mid.dst == x || mid.s0 == x || mid.s1 == x || mid.s2 == x) {
            safe = false;
            break;
          }
        }
        if (safe) {
          block.insts[j].dst = x;
          block.insts.erase(block.insts.begin() + static_cast<long>(k));
          --k;
          ++coalesced;
        }
        break;
      }
    }
  }
  return coalesced;
}

uint32_t run_dce_pass(IRFunction& fn) {
  // A value is live if any instruction reads it; defs of dead values with
  // no side effects are removed. Iterates to a fixpoint.
  uint32_t removed_total = 0;
  for (;;) {
    std::vector<bool> used(fn.num_values(), false);
    for (const IRBlock& block : fn.blocks()) {
      for (const IRInst& inst : block.insts) {
        for (ValueId s : {inst.s0, inst.s1, inst.s2}) {
          if (s != kNoValue) used[s] = true;
        }
      }
    }
    uint32_t removed = 0;
    for (IRBlock& block : fn.blocks()) {
      std::vector<IRInst> kept;
      kept.reserve(block.insts.size());
      for (const IRInst& inst : block.insts) {
        const bool dead = inst.dst != kNoValue && !used[inst.dst] &&
                          !has_side_effects(inst);
        if (dead) {
          ++removed;
        } else {
          kept.push_back(inst);
        }
      }
      block.insts = std::move(kept);
    }
    removed_total += removed;
    if (removed == 0) break;
  }
  return removed_total;
}

/// If-conversion of triangles:
///   A: ... br_if c -> T, J      T: x = v; jump J
/// becomes
///   A: ... x = select(v, x, c); jump J
/// Only fires when T contains exactly one assignment (copy or pure op
/// producing a redefinition of x) and J is T's unique successor.
uint32_t run_if_convert_pass(IRFunction& fn) {
  uint32_t converted = 0;
  for (uint32_t a = 0; a < fn.num_blocks(); ++a) {
    IRBlock& A = fn.block(a);
    if (A.insts.empty()) continue;
    IRInst& term = A.insts.back();
    if (term.op != Opcode::BranchIf) continue;
    const uint32_t t = term.a, j = term.b;
    if (t == j || t >= fn.num_blocks()) continue;
    IRBlock& T = fn.block(t);
    if (T.insts.size() != 2) continue;
    const IRInst& body = T.insts[0];
    const IRInst& tj = T.insts[1];
    if (tj.op != Opcode::Jump || tj.a != j) continue;
    // The single instruction must be a pure redefinition x = f(...).
    if (body.dst == kNoValue || has_side_effects(body)) continue;
    const ValueId x = body.dst;
    const Type xt = fn.value_type(x);
    Opcode select_op;
    switch (xt) {
      case Type::I32: select_op = Opcode::SelectI32; break;
      case Type::I64: select_op = Opcode::SelectI64; break;
      case Type::F32: select_op = Opcode::SelectF32; break;
      case Type::F64: select_op = Opcode::SelectF64; break;
      default: continue;
    }
    // Compute the candidate value into a temp, then select.
    const ValueId cond = term.s0;
    const ValueId tmp = fn.new_value(xt);
    IRInst compute = body;
    compute.dst = tmp;
    // select(tmp, x, cond): picks tmp when cond != 0.
    IRInst select{select_op, x, tmp, x, cond, 0, 0, 0};
    IRInst jump{Opcode::Jump, kNoValue, kNoValue, kNoValue, kNoValue, 0, j, 0};
    A.insts.pop_back();
    A.insts.push_back(compute);
    A.insts.push_back(select);
    A.insts.push_back(jump);
    // T becomes unreachable; leave it (DCE of blocks is unnecessary --
    // lowering emits it but nothing jumps there).
    ++converted;
  }
  return converted;
}


/// Constant LICM: hoists loop-invariant constant materializations (and
/// nothing else -- constants are always safe to speculate) to the loop
/// preheader. Real offline compilers do this; without it every simulated
/// target pays 2-3 rematerialization cycles per iteration, inflating the
/// apparent benefit of de-vectorized unrolling.
uint32_t run_licm_consts_pass(IRFunction& fn) {
  uint32_t hoisted = 0;
  const auto defs = fn.def_counts();
  const std::vector<Loop> loops = find_loops(fn);
  for (const Loop& loop : loops) {
    // Unique preheader: the single out-of-loop predecessor of the header.
    uint32_t preheader = UINT32_MAX;
    bool unique = true;
    for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
      if (loop.contains(b)) continue;
      for (uint32_t s : fn.successors(b)) {
        if (s != loop.header) continue;
        if (preheader != UINT32_MAX && preheader != b) unique = false;
        preheader = b;
      }
    }
    if (preheader == UINT32_MAX || !unique) continue;
    IRBlock& pre = fn.block(preheader);
    for (uint32_t b : loop.blocks) {
      IRBlock& blk = fn.block(b);
      for (size_t i = 0; i < blk.insts.size(); ++i) {
        const IRInst& inst = blk.insts[i];
        const bool is_const = inst.op == Opcode::ConstI32 ||
                              inst.op == Opcode::ConstI64 ||
                              inst.op == Opcode::ConstF32 ||
                              inst.op == Opcode::ConstF64;
        if (!is_const || inst.dst == kNoValue || defs[inst.dst] != 1) {
          continue;
        }
        // Insert before the preheader's terminator.
        pre.insts.insert(pre.insts.end() - 1, inst);
        blk.insts.erase(blk.insts.begin() + static_cast<long>(i));
        --i;
        ++hoisted;
      }
    }
  }
  return hoisted;
}

PassStats run_cleanup_fixpoint(IRFunction& fn, const PassOptions& options) {
  PassStats stats;
  for (int round = 0; round < 3; ++round) {
    uint32_t work = 0;
    work += run_coalesce_pass(fn);
    if (options.fold_constants) {
      const uint32_t f = run_fold_pass(fn);
      stats.folded += f;
      work += f;
    }
    if (options.simplify) {
      const uint32_t s = run_simplify_pass(fn);
      stats.simplified += s;
      work += s;
    }
    if (options.dce) {
      const uint32_t d = run_dce_pass(fn);
      stats.dce_removed += d;
      work += d;
    }
    if (work == 0) break;
  }
  return stats;
}

PassStats run_passes(IRFunction& fn, const PassOptions& options) {
  PassStats stats = run_cleanup_fixpoint(fn, options);
  if (options.simplify) {
    stats.simplified += run_licm_consts_pass(fn);
  }
  if (options.if_convert) {
    stats.if_converted = run_if_convert_pass(fn);
    if (options.dce) stats.dce_removed += run_dce_pass(fn);
  }
  return stats;
}

}  // namespace svc
