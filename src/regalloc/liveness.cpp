#include "regalloc/liveness.h"

#include <algorithm>

namespace svc {

std::vector<uint32_t> successors(const MFunction& fn, uint32_t block) {
  const MBlock& bb = fn.blocks[block];
  if (bb.insts.empty()) return {};
  const MInst& term = bb.insts.back();
  if (is_machine_only(term.op)) return {};
  switch (base_opcode(term.op)) {
    case Opcode::Jump:
      return {term.a};
    case Opcode::BranchIf:
      if (term.a == term.b) return {term.a};
      return {term.a, term.b};
    default:
      return {};
  }
}

std::optional<Reg> def_of(const MInst& inst) {
  if (inst.dst.valid) return inst.dst;
  return std::nullopt;
}

Liveness::Liveness(size_t num_blocks, size_t num_keys)
    : num_keys_(num_keys),
      in_(num_blocks, BitRow((num_keys + 63) / 64, 0)),
      out_(num_blocks, BitRow((num_keys + 63) / 64, 0)) {}

Liveness compute_liveness(const MFunction& fn) {
  const size_t num_keys = vreg_key_bound(fn);
  const size_t nb = fn.blocks.size();
  Liveness lv(nb, num_keys);
  const size_t words = (num_keys + 63) / 64;

  // Per-block gen (upward-exposed uses) and kill (defs) sets.
  std::vector<Liveness::BitRow> gen(nb, Liveness::BitRow(words, 0));
  std::vector<Liveness::BitRow> kill(nb, Liveness::BitRow(words, 0));
  for (size_t b = 0; b < nb; ++b) {
    for (const MInst& inst : fn.blocks[b].insts) {
      for_each_use(fn, inst, [&](Reg r) {
        const uint32_t k = vreg_key(r);
        if (!Liveness::test(kill[b], k)) Liveness::set(gen[b], k);
      });
      if (const auto d = def_of(inst)) Liveness::set(kill[b], vreg_key(*d));
    }
  }

  // Backward fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t bi = nb; bi-- > 0;) {
      const auto b = static_cast<uint32_t>(bi);
      Liveness::BitRow new_out(words, 0);
      for (uint32_t succ : successors(fn, b)) {
        for (size_t w = 0; w < words; ++w) new_out[w] |= lv.in_[succ][w];
      }
      Liveness::BitRow new_in(words);
      for (size_t w = 0; w < words; ++w) {
        new_in[w] = gen[b][w] | (new_out[w] & ~kill[b][w]);
      }
      if (new_out != lv.out_[b] || new_in != lv.in_[b]) {
        lv.out_[b] = std::move(new_out);
        lv.in_[b] = std::move(new_in);
        changed = true;
      }
    }
  }
  return lv;
}

LinearOrder linearize(const MFunction& fn) {
  LinearOrder order;
  order.block_start.resize(fn.blocks.size());
  uint32_t pos = 0;
  for (size_t b = 0; b < fn.blocks.size(); ++b) {
    order.block_start[b] = pos;
    pos += static_cast<uint32_t>(fn.blocks[b].insts.size());
  }
  order.total = pos;
  return order;
}

namespace {

Reg key_to_reg(uint32_t key) {
  return Reg::make(static_cast<RegClass>(key % kNumRegClasses),
                   key / kNumRegClasses);
}

}  // namespace

std::vector<LiveInterval> build_intervals(const MFunction& fn,
                                          const LinearOrder& order,
                                          const Liveness* precise) {
  // Dense tables indexed by vreg key.
  const size_t bound = vreg_key_bound(fn);
  std::vector<LiveInterval> by_key(bound);
  std::vector<uint8_t> seen(bound, 0);

  // Which vregs are SVIL locals (or de-vectorized lanes of locals)?
  constexpr uint32_t kNotLocal = ~uint32_t{0};
  std::vector<uint32_t> local_of(bound, kNotLocal);
  for (uint32_t i = 0; i < fn.local_regs.size(); ++i) {
    for (const Reg& r : fn.local_regs[i]) {
      if (r.valid) local_of[vreg_key(r)] = i;
    }
  }

  auto extend = [&](Reg r, uint32_t pos, bool count_use) {
    const uint32_t key = vreg_key(r);
    LiveInterval& iv = by_key[key];
    if (!seen[key]) {
      seen[key] = 1;
      iv.vreg = r;
      iv.start = pos;
      iv.end = pos;
      if (local_of[key] != kNotLocal) {
        iv.is_local = true;
        iv.local_idx = local_of[key];
      }
    } else {
      iv.start = std::min(iv.start, pos);
      iv.end = std::max(iv.end, pos);
    }
    if (count_use) iv.use_count += 1;
  };

  // Parameters are defined at entry.
  for (const Reg& p : fn.param_regs) {
    if (p.valid) extend(p, 0, false);
  }

  for (uint32_t b = 0; b < fn.blocks.size(); ++b) {
    const uint32_t bstart = order.block_start[b];
    const uint32_t bend =
        bstart +
        (fn.blocks[b].insts.empty()
             ? 0
             : static_cast<uint32_t>(fn.blocks[b].insts.size()) - 1);
    if (precise) {
      precise->for_each_live_in(
          b, [&](uint32_t key) { extend(key_to_reg(key), bstart, false); });
      precise->for_each_live_out(
          b, [&](uint32_t key) { extend(key_to_reg(key), bend, false); });
    }
    for (uint32_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
      const MInst& inst = fn.blocks[b].insts[i];
      const uint32_t pos = order.pos(b, i);
      for_each_use(fn, inst, [&](Reg r) { extend(r, pos, true); });
      if (const auto d = def_of(inst)) extend(*d, pos, true);
    }
  }

  std::vector<LiveInterval> out;
  for (size_t key = 0; key < by_key.size(); ++key) {
    if (!seen[key]) continue;
    LiveInterval& iv = by_key[key];
    if (!precise && iv.is_local) {
      // Naive mode: locals conservatively live for the whole function.
      iv.start = 0;
      iv.end = order.total == 0 ? 0 : order.total - 1;
    }
    out.push_back(iv);
  }
  // (start, key) is a total order, so the result is deterministic.
  std::sort(out.begin(), out.end(),
            [](const LiveInterval& a, const LiveInterval& b) {
              if (a.start != b.start) return a.start < b.start;
              return vreg_key(a.vreg) < vreg_key(b.vreg);
            });
  return out;
}

}  // namespace svc
