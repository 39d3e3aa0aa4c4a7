#include "jit/isel.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "regalloc/liveness.h"

namespace svc {
namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// `table[key]`, first growing the table with `fill` when `key` lies past
/// its end: the tables start at vreg_key_bound(fn), which does not cover
/// physical registers when a pipeline runs these passes after allocation.
template <typename T>
T& dense_at(std::vector<T>& table, uint32_t key, T fill = T{}) {
  if (key >= table.size()) table.resize(static_cast<size_t>(key) + 1, fill);
  return table[key];
}

/// Dense per-vreg read counts indexed by vreg_key, call-site arguments
/// included. Slot registers (spilled arguments, after allocation) are
/// frame slots that no move or multiply names, so they are not counted.
std::vector<uint32_t> count_uses(const MFunction& fn) {
  std::vector<uint32_t> uses(vreg_key_bound(fn), 0);
  for (const MBlock& block : fn.blocks) {
    for (const MInst& inst : block.insts) {
      for_each_use(fn, inst, [&](Reg r) {
        if (!r.is_slot()) dense_at(uses, vreg_key(r)) += 1;
      });
    }
  }
  return uses;
}

uint32_t use_count(const std::vector<uint32_t>& uses, Reg r) {
  const uint32_t key = vreg_key(r);
  return key < uses.size() ? uses[key] : 0;
}

bool defines(const MInst& inst, Reg r) {
  return inst.dst.valid && inst.dst == r;
}

bool uses_reg(const MFunction& fn, const MInst& inst, Reg r) {
  bool found = false;
  for_each_use(fn, inst, [&](Reg u) { found |= (u == r); });
  return found;
}

/// Replaces every read of `from` in `inst` by `to`; returns how many.
uint32_t replace_use(MFunction& fn, MInst& inst, Reg from, Reg to) {
  uint32_t replaced = 0;
  auto swap = [&](Reg& r) {
    if (r == from) {
      r = to;
      ++replaced;
    }
  };
  swap(inst.s0);
  swap(inst.s1);
  swap(inst.s2);
  if (!is_machine_only(inst.op) && base_opcode(inst.op) == Opcode::Call) {
    for (Reg& r : fn.call_sites[static_cast<size_t>(inst.imm)]) swap(r);
  }
  return replaced;
}

bool move_touches(const MInst& inst, Reg r) {
  return inst.op == MOp::MovRR && (inst.s0 == r || inst.dst == r);
}

/// Copy forwarding + dead-move elimination. The result is that of the
/// naive fixpoint "apply the first applicable rewrite in program order,
/// then start over", computed with one forward cursor: every live move
/// before the cursor is known not to apply. Instructions are addressed by
/// a global index (block start + original position) that orders them in
/// program order; removed moves become tombstones, unlinked from their
/// block's live list, and the blocks are compacted once at the end.
class Peephole {
 public:
  explicit Peephole(MFunction& fn) : fn_(fn), uses_(count_uses(fn)) {
    pinned_.assign(uses_.size(), 0);
    auto pin = [&](Reg r) {
      if (!r.is_slot()) dense_at<uint8_t>(pinned_, vreg_key(r)) = 1;
    };
    for (const Reg& r : fn.local_regs.all()) pin(r);
    for (const Reg& r : fn.param_regs) pin(r);
    move_head_.assign(uses_.size(), kNone);

    const size_t n = fn.size();
    inst_.reserve(n);
    block_of_.reserve(n);
    prev_.reserve(n);
    next_.reserve(n);
    head_.assign(fn.blocks.size(), kNone);
    for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
      auto& insts = fn.blocks[b].insts;
      for (size_t i = 0; i < insts.size(); ++i) {
        const auto g = static_cast<uint32_t>(inst_.size());
        inst_.push_back(&insts[i]);
        block_of_.push_back(b);
        prev_.push_back(i == 0 ? kNone : g - 1);
        next_.push_back(i + 1 == insts.size() ? kNone : g + 1);
        if (i == 0) head_[b] = g;
        if (insts[i].op == MOp::MovRR) {
          note_move(g, insts[i].s0);
          if (insts[i].dst != insts[i].s0) note_move(g, insts[i].dst);
        }
      }
    }
    dead_.assign(inst_.size(), 0);
  }

  PeepholeStats run() {
    uint32_t g = first_live_from(0);
    while (g != kNone) {
      ++stats_.work_units;
      g = inst_[g]->op == MOp::MovRR ? visit_move(g) : after(g);
    }
    compact();
    return stats_;
  }

 private:
  bool pinned(Reg r) const {
    const uint32_t key = vreg_key(r);
    return key < pinned_.size() && pinned_[key] != 0;
  }
  uint32_t uses(Reg r) const { return use_count(uses_, r); }

  /// Records that move `g` reads or writes `r` (a per-vreg singly linked
  /// list; stale entries are pruned when the list is walked).
  void note_move(uint32_t g, Reg r) {
    uint32_t& head = dense_at(move_head_, vreg_key(r), kNone);
    node_inst_.push_back(g);
    node_next_.push_back(head);
    head = static_cast<uint32_t>(node_inst_.size() - 1);
  }

  uint32_t first_live_from(uint32_t block) const {
    for (uint32_t b = block; b < head_.size(); ++b) {
      if (head_[b] != kNone) return head_[b];
    }
    return kNone;
  }
  /// The live instruction following `g` in program order.
  uint32_t after(uint32_t g) const {
    return next_[g] != kNone ? next_[g] : first_live_from(block_of_[g] + 1);
  }

  void erase(uint32_t g) {
    for_each_use(fn_, *inst_[g], [&](Reg r) { uses_[vreg_key(r)] -= 1; });
    dead_[g] = 1;
    if (prev_[g] != kNone) {
      next_[prev_[g]] = next_[g];
    } else {
      head_[block_of_[g]] = next_[g];
    }
    if (next_[g] != kNone) prev_[next_[g]] = prev_[g];
    stats_.moves_removed += 1;
  }

  /// Applies the first rule that fires on move `g`, if any; returns where
  /// the cursor resumes.
  uint32_t visit_move(uint32_t g) {
    const uint32_t resume = after(g);
    const Reg src = inst_[g]->s0;
    const Reg dst = inst_[g]->dst;
    if (!rewrite(g, src, dst)) return resume;
    // Only an earlier move that reads or writes a non-local src or dst
    // can have become applicable: the rewrite changed nothing else that a
    // rule on an earlier move looks at.
    uint32_t earliest = kNone;
    for (const Reg r : {src, dst}) {
      if (!pinned(r)) earliest = std::min(earliest, earliest_move(r, g));
    }
    return earliest != kNone ? earliest : resume;
  }

  /// The three rules, in the order the fixpoint tries them.
  bool rewrite(uint32_t g, Reg src, Reg dst) {
    // Dead move: temp destination never read.
    if (!pinned(dst) && uses(dst) == 0) {
      erase(g);
      return true;
    }

    // Rename-adjacent: previous instruction's sole purpose is to feed
    // this move -- fold the destination into it.
    if (const uint32_t p = prev_[g]; p != kNone) {
      MInst& prev = *inst_[p];
      if (prev.dst.valid && prev.dst == src && !pinned(src) &&
          uses(src) == 1) {
        prev.dst = dst;
        if (prev.op == MOp::MovRR) note_move(p, dst);
        erase(g);
        return true;
      }
    }

    // Forward into the single later use within the block.
    if (!pinned(dst) && uses(dst) == 1) {
      for (uint32_t j = next_[g]; j != kNone; j = next_[j]) {
        ++stats_.work_units;
        MInst& later = *inst_[j];
        if (uses_reg(fn_, later, dst)) {
          const uint32_t n = replace_use(fn_, later, dst, src);
          uses_[vreg_key(dst)] -= n;
          uses_[vreg_key(src)] += n;  // counted: the move reads it
          if (later.op == MOp::MovRR) note_move(j, src);
          erase(g);
          return true;
        }
        if (defines(later, src) || defines(later, dst)) break;
      }
    }
    return false;
  }

  /// The earliest live move before `g` that reads or writes `r`.
  uint32_t earliest_move(Reg r, uint32_t g) {
    uint32_t earliest = kNone;
    uint32_t* link = &move_head_[vreg_key(r)];
    while (*link != kNone) {
      const uint32_t node = *link;
      const uint32_t m = node_inst_[node];
      if (dead_[m] || !move_touches(*inst_[m], r)) {
        *link = node_next_[node];
        continue;
      }
      ++stats_.work_units;
      if (m < g) earliest = std::min(earliest, m);
      link = &node_next_[node];
    }
    return earliest;
  }

  void compact() {
    uint32_t g = 0;
    for (MBlock& block : fn_.blocks) {
      size_t kept = 0;
      for (size_t i = 0; i < block.insts.size(); ++i, ++g) {
        if (!dead_[g]) block.insts[kept++] = block.insts[i];
      }
      block.insts.resize(kept);
    }
  }

  MFunction& fn_;
  std::vector<uint32_t> uses_;    // vreg key -> live reads
  std::vector<uint8_t> pinned_;   // vreg key -> is a local or parameter
  // Instructions by global index, with per-block live links.
  std::vector<MInst*> inst_;
  std::vector<uint32_t> block_of_, prev_, next_;
  std::vector<uint32_t> head_;    // block -> first live instruction
  std::vector<uint8_t> dead_;
  // Per-vreg lists of the moves that read or write it.
  std::vector<uint32_t> move_head_, node_inst_, node_next_;
  PeepholeStats stats_;
};

}  // namespace

PeepholeStats peephole_cleanup(MFunction& fn) { return Peephole(fn).run(); }

uint32_t form_fma(MFunction& fn) {
  uint32_t formed = 0;
  const std::vector<uint32_t> uses = count_uses(fn);

  for (MBlock& block : fn.blocks) {
    std::vector<MInst>& insts = block.insts;
    for (size_t i = 0; i < insts.size(); ++i) {
      MInst& mul = insts[i];
      if (is_machine_only(mul.op) || base_opcode(mul.op) != Opcode::MulF32) {
        continue;
      }
      if (use_count(uses, mul.dst) != 1) continue;
      for (size_t j = i + 1; j < insts.size(); ++j) {
        MInst& add = insts[j];
        const bool is_add = !is_machine_only(add.op) &&
                            base_opcode(add.op) == Opcode::AddF32;
        if (is_add && (add.s0 == mul.dst || add.s1 == mul.dst)) {
          const Reg addend = add.s0 == mul.dst ? add.s1 : add.s0;
          // The multiply's reads move down to the add's position, so its
          // operands must survive unmodified until there. The addend is
          // read at the add's position either way.
          bool safe = true;
          for (size_t k = i + 1; k < j; ++k) {
            if (defines(insts[k], mul.s0) || defines(insts[k], mul.s1)) {
              safe = false;
              break;
            }
          }
          if (!safe) break;
          MInst fma;
          fma.op = MOp::FMA32;
          fma.dst = add.dst;
          fma.s0 = mul.s0;
          fma.s1 = mul.s1;
          fma.s2 = addend;
          insts[j] = fma;
          insts.erase(insts.begin() + static_cast<long>(i));
          --i;
          ++formed;
          break;
        }
        // Stop if anything clobbers the product or its inputs.
        if (defines(insts[j], mul.dst) || defines(insts[j], mul.s0) ||
            defines(insts[j], mul.s1)) {
          break;
        }
      }
    }
  }
  return formed;
}

}  // namespace svc
