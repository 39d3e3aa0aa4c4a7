#include "regalloc/liveness.h"

#include <algorithm>

namespace svc {

Successors successors(const MFunction& fn, uint32_t block) {
  const MBlock& bb = fn.blocks[block];
  if (bb.insts.empty()) return {};
  const MInst& term = bb.insts.back();
  if (is_machine_only(term.op)) return {};
  switch (base_opcode(term.op)) {
    case Opcode::Jump:
      return {{term.a, 0}, 1};
    case Opcode::BranchIf:
      if (term.a == term.b) return {{term.a, 0}, 1};
      return {{term.a, term.b}, 2};
    default:
      return {};
  }
}

std::optional<Reg> def_of(const MInst& inst) {
  if (inst.dst.valid) return inst.dst;
  return std::nullopt;
}

void Liveness::compute(const MFunction& fn) {
  // Number the vregs the instructions mention, in order of mention.
  bit_of_.assign(vreg_key_bound(fn), kNoBit);
  key_of_.clear();
  const auto mention = [&](Reg r) {
    const uint32_t key = vreg_key(r);
    if (bit_of_[key] == kNoBit) {
      bit_of_[key] = static_cast<uint32_t>(key_of_.size());
      key_of_.push_back(key);
    }
  };
  for (const MBlock& block : fn.blocks) {
    for (const MInst& inst : block.insts) {
      for_each_use(fn, inst, mention);
      if (inst.dst.valid) mention(inst.dst);
    }
  }

  const size_t words = (key_of_.size() + 63) / 64;
  const size_t nb = fn.blocks.size();
  words_ = words;
  for (std::vector<uint64_t>* set : {&in_, &out_, &gen_, &kill_}) {
    set->assign(nb * words, 0);
  }
  succs_.resize(nb);

  // Per-block gen (upward-exposed uses) and kill (defs) sets.
  for (size_t b = 0; b < nb; ++b) {
    uint64_t* gen = gen_.data() + b * words;
    uint64_t* kill = kill_.data() + b * words;
    for (const MInst& inst : fn.blocks[b].insts) {
      for_each_use(fn, inst, [&](Reg r) {
        const uint32_t bit = bit_of_[vreg_key(r)];
        const uint64_t mask = uint64_t{1} << (bit & 63);
        if (!(kill[bit >> 6] & mask)) gen[bit >> 6] |= mask;
      });
      if (inst.dst.valid) {
        const uint32_t bit = bit_of_[vreg_key(inst.dst)];
        kill[bit >> 6] |= uint64_t{1} << (bit & 63);
      }
    }
    succs_[b] = successors(fn, static_cast<uint32_t>(b));
  }

  // Predecessor lists (CSR), to revisit only the blocks whose successors'
  // live-in rows changed.
  pred_start_.assign(nb + 1, 0);
  for (size_t b = 0; b < nb; ++b) {
    for (const uint32_t s : succs_[b]) ++pred_start_[s + 1];
  }
  for (size_t b = 0; b < nb; ++b) pred_start_[b + 1] += pred_start_[b];
  preds_.resize(pred_start_[nb]);
  pred_fill_.assign(pred_start_.begin(), pred_start_.end() - 1);
  for (size_t b = 0; b < nb; ++b) {
    for (const uint32_t s : succs_[b]) {
      preds_[pred_fill_[s]++] = static_cast<uint32_t>(b);
    }
  }

  // Backward fixpoint over the dirty blocks, updating rows in place.
  uint64_t* in = in_.data();
  uint64_t* out = out_.data();
  dirty_.assign(nb, 1);
  bool again = true;
  while (again) {
    again = false;
    for (size_t b = nb; b-- > 0;) {
      if (!dirty_[b]) continue;
      dirty_[b] = 0;
      const Successors& succs = succs_[b];
      const size_t row = b * words;
      bool in_changed = false;
      for (size_t w = 0; w < words; ++w) {
        uint64_t new_out = 0;
        for (const uint32_t s : succs) new_out |= in[s * words + w];
        const uint64_t new_in =
            gen_[row + w] | (new_out & ~kill_[row + w]);
        out[row + w] = new_out;
        if (new_in != in[row + w]) {
          in[row + w] = new_in;
          in_changed = true;
        }
      }
      if (!in_changed) continue;
      for (uint32_t i = pred_start_[b]; i < pred_start_[b + 1]; ++i) {
        dirty_[preds_[i]] = 1;
        // A predecessor below b is visited later in this sweep.
        again = again || preds_[i] >= b;
      }
    }
  }

  // First live-in block and last live-out block of every bit: a block's
  // row minus the bits already seen holds exactly the bits it is first
  // (or, walking backward, last) for.
  const auto first_blocks = [&](const uint64_t* rows, bool forward,
                                std::vector<uint32_t>& block_of) {
    block_of.assign(key_of_.size(), kNoBlock);
    seen_.assign(words, 0);
    for (size_t i = 0; i < nb; ++i) {
      const size_t b = forward ? i : nb - 1 - i;
      for (size_t w = 0; w < words; ++w) {
        const uint64_t fresh = rows[b * words + w] & ~seen_[w];
        seen_[w] |= fresh;
        for (uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
          block_of[w * 64 + std::countr_zero(bits)] = static_cast<uint32_t>(b);
        }
      }
    }
  };
  first_blocks(in, /*forward=*/true, first_in_);
  first_blocks(out, /*forward=*/false, last_out_);
}

Liveness compute_liveness(const MFunction& fn) {
  Liveness lv;
  lv.compute(fn);
  return lv;
}

void linearize(const MFunction& fn, LinearOrder& order) {
  order.block_start.resize(fn.blocks.size());
  uint32_t pos = 0;
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    order.block_start[b] = pos;
    pos += static_cast<uint32_t>(fn.blocks[b].insts.size());
  }
  order.total = pos;
}

LinearOrder linearize(const MFunction& fn) {
  LinearOrder order;
  linearize(fn, order);
  return order;
}

namespace {

Reg key_to_reg(uint32_t key) {
  return Reg::make(static_cast<RegClass>(key % kNumRegClasses),
                   key / kNumRegClasses);
}

}  // namespace

void IntervalBuilder::build(const MFunction& fn, const LinearOrder& order,
                            const Liveness* precise,
                            std::vector<LiveInterval>& out) {
  // Dense tables indexed by vreg key; the intervals themselves are kept in
  // order of first sight until the sort below.
  constexpr uint32_t kNone = ~uint32_t{0};
  const size_t bound = vreg_key_bound(fn);
  slot_of_.assign(bound, kNone);
  unsorted_.clear();

  // Which vregs are SVIL locals (or de-vectorized lanes of locals)?
  local_of_.assign(bound, kNone);
  for (uint32_t i = 0; i < fn.local_regs.size(); ++i) {
    for (const Reg& r : fn.local_regs[i]) {
      if (r.valid) local_of_[vreg_key(r)] = i;
    }
  }

  auto extend = [&](Reg r, uint32_t pos, bool count_use) {
    const uint32_t key = vreg_key(r);
    uint32_t& slot = slot_of_[key];
    if (slot == kNone) {
      slot = static_cast<uint32_t>(unsorted_.size());
      LiveInterval& iv = unsorted_.emplace_back();
      iv.vreg = r;
      iv.start = pos;
      iv.end = pos;
      if (local_of_[key] != kNone) {
        iv.is_local = true;
        iv.local_idx = local_of_[key];
      }
    } else {
      LiveInterval& iv = unsorted_[slot];
      iv.start = std::min(iv.start, pos);
      iv.end = std::max(iv.end, pos);
    }
    if (count_use) unsorted_[slot].use_count += 1;
  };

  // Parameters are defined at entry.
  for (const Reg& p : fn.param_regs) {
    if (p.valid) extend(p, 0, false);
  }

  // A key live across block boundaries extends to each: to the first
  // block it is live into and the last it is live out of, which bound the
  // rest (block starts and ends only grow along the layout).
  if (precise) {
    const auto block_end = [&](uint32_t b) {
      const size_t n = fn.blocks[b].insts.size();
      return order.block_start[b] + (n == 0 ? 0 : static_cast<uint32_t>(n) - 1);
    };
    precise->for_each_live_range(
        [&](uint32_t key, uint32_t first_in, uint32_t last_out) {
          const Reg r = key_to_reg(key);
          if (first_in != Liveness::kNoBlock) {
            extend(r, order.block_start[first_in], false);
          }
          if (last_out != Liveness::kNoBlock) {
            extend(r, block_end(last_out), false);
          }
        });
  }

  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    for (uint32_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
      const MInst& inst = fn.blocks[b].insts[i];
      const uint32_t pos = order.pos(b, i);
      for_each_use(fn, inst, [&](Reg r) { extend(r, pos, true); });
      if (inst.dst.valid) extend(inst.dst, pos, true);
    }
  }

  if (!precise) {
    // Naive mode: locals conservatively live for the whole function.
    for (LiveInterval& iv : unsorted_) {
      if (!iv.is_local) continue;
      iv.start = 0;
      iv.end = order.total == 0 ? 0 : order.total - 1;
    }
  }

  // Order by (start, key) with a counting sort over start positions:
  // placing the intervals in ascending key order keeps equal starts in
  // key order. Every start is at most order.total.
  first_at_.assign(static_cast<size_t>(order.total) + 2, 0);
  for (const LiveInterval& iv : unsorted_) ++first_at_[iv.start + 1];
  for (size_t i = 1; i < first_at_.size(); ++i) {
    first_at_[i] += first_at_[i - 1];
  }
  out.resize(unsorted_.size());
  for (const uint32_t slot : slot_of_) {
    if (slot == kNone) continue;
    const LiveInterval& iv = unsorted_[slot];
    out[first_at_[iv.start]++] = iv;
  }
}

std::vector<LiveInterval> build_intervals(const MFunction& fn,
                                          const LinearOrder& order,
                                          const Liveness* precise) {
  IntervalBuilder builder;
  std::vector<LiveInterval> out;
  builder.build(fn, order, precise, out);
  return out;
}

}  // namespace svc
