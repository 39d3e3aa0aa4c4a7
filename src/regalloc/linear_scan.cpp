#include "regalloc/linear_scan.h"

#include <algorithm>
#include <vector>

#include "regalloc/alloc_common.h"
#include "regalloc/chaitin.h"
#include "regalloc/liveness.h"
#include "support/diagnostics.h"

namespace svc {

const char* alloc_policy_name(AllocPolicy p) {
  switch (p) {
    case AllocPolicy::NaiveOnline: return "naive-online";
    case AllocPolicy::LinearScan: return "linear-scan";
    case AllocPolicy::SplitGuided: return "split-guided";
    case AllocPolicy::OfflineChaitin: return "offline-chaitin";
  }
  return "?";
}

using regalloc_detail::Assignment;
using regalloc_detail::AssignmentTable;
using regalloc_detail::rewrite_spills;

namespace {

/// Core linear scan over sorted intervals. `evict_rank(interval)` returns
/// the preference for evicting an interval when pressure is exceeded:
/// the candidate (including the incoming interval itself) with the
/// *highest* rank is spilled.
template <typename EvictRank>
AllocResult run_linear_scan(MFunction& fn, const MachineDesc& desc,
                            const std::vector<LiveInterval>& intervals,
                            const EvictRank& evict_rank) {
  AllocResult result;
  AssignmentTable assign(vreg_key_bound(fn));

  // Per-class allocation state.
  struct ActiveEntry {
    LiveInterval iv;
    uint32_t preg;
    uint64_t seq;  // allocation order (for round-robin ranks)
  };
  struct ClassState {
    std::vector<bool> preg_used;
    std::vector<ActiveEntry> active;
    uint32_t next_slot = 0;
  };
  ClassState cls_state[kNumRegClasses];
  for (size_t c = 0; c < kNumRegClasses; ++c) {
    cls_state[c].preg_used.assign(desc.regs[c], false);
  }

  uint64_t seq = 0;
  for (const LiveInterval& iv : intervals) {
    ClassState& st = cls_state[static_cast<size_t>(iv.vreg.cls)];
    result.work_units += 1;

    // Expire intervals that ended before this one starts.
    for (size_t i = 0; i < st.active.size();) {
      result.work_units += 1;
      if (st.active[i].iv.end < iv.start) {
        st.preg_used[st.active[i].preg] = false;
        st.active.erase(st.active.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }

    const uint32_t num_pregs =
        static_cast<uint32_t>(st.preg_used.size());
    // Find a free physical register.
    std::optional<uint32_t> free;
    for (uint32_t p = 0; p < num_pregs; ++p) {
      if (!st.preg_used[p]) {
        free = p;
        break;
      }
    }

    if (free) {
      st.preg_used[*free] = true;
      st.active.push_back({iv, *free, seq});
      assign[vreg_key(iv.vreg)] = Assignment{false, *free, 0};
    } else if (num_pregs == 0) {
      // Classes with no registers at all (e.g. Vec on scalar targets
      // before de-vectorization) should never reach allocation.
      fatal("linear scan: no registers in class");
    } else {
      // Pressure exceeded: evict the worst-ranked candidate.
      double worst_rank = evict_rank(iv, seq);
      int victim = -1;  // -1 = spill the incoming interval
      for (size_t i = 0; i < st.active.size(); ++i) {
        const double r = evict_rank(st.active[i].iv, st.active[i].seq);
        result.work_units += 1;
        if (r > worst_rank) {
          worst_rank = r;
          victim = static_cast<int>(i);
        }
      }
      if (victim < 0) {
        assign[vreg_key(iv.vreg)] = Assignment{true, 0, st.next_slot++};
        result.spilled_vregs += 1;
      } else {
        const ActiveEntry evicted = st.active[static_cast<size_t>(victim)];
        st.active.erase(st.active.begin() + victim);
        assign[vreg_key(evicted.iv.vreg)] =
            Assignment{true, 0, st.next_slot++};
        result.spilled_vregs += 1;
        st.active.push_back({iv, evicted.preg, seq});
        assign[vreg_key(iv.vreg)] = Assignment{false, evicted.preg, 0};
      }
    }
    ++seq;
  }

  for (size_t c = 0; c < kNumRegClasses; ++c) {
    fn.num_slots[c] = cls_state[c].next_slot;
  }
  rewrite_spills(fn, desc, assign, result);
  fn.allocated = true;
  return result;
}

}  // namespace

namespace regalloc_detail {

void rewrite_spills(MFunction& fn, const MachineDesc& desc,
                    const AssignmentTable& assign,
                    AllocResult& result) {
  auto lookup = [&](Reg r) -> const Assignment* {
    const auto& a = assign[vreg_key(r)];
    return a ? &*a : nullptr;
  };

  // Parameters and call-site argument registers: spilled ones become
  // slot-flagged registers (read/written in the frame's spill area).
  auto map_flat = [&](Reg& r) {
    if (!r.valid) return;
    if (const Assignment* a = lookup(r)) {
      r = a->spilled ? Reg::slot(r.cls, a->slot) : Reg::make(r.cls, a->preg);
    }
  };
  for (Reg& r : fn.param_regs) map_flat(r);
  for (auto& site : fn.call_sites) {
    for (Reg& r : site) map_flat(r);
  }
  for (auto& lane_regs : fn.local_regs) {
    for (Reg& r : lane_regs) map_flat(r);
  }

  for (MBlock& block : fn.blocks) {
    std::vector<MInst> out;
    out.reserve(block.insts.size());
    for (MInst inst : block.insts) {
      uint32_t next_scratch = 0;
      auto map_src = [&](Reg& r) {
        if (!r.valid) return;
        const Assignment* a = lookup(r);
        if (!a) return;
        if (!a->spilled) {
          r = Reg::make(r.cls, a->preg);
          return;
        }
        // Reload into a scratch register.
        const uint32_t scratch = desc.regs[static_cast<size_t>(r.cls)] +
                                 (next_scratch++ % 3);
        MInst load;
        load.op = MOp::SpillLoad;
        load.dst = Reg::make(r.cls, scratch);
        load.imm = a->slot;
        out.push_back(load);
        result.static_spill_loads += 1;
        r = load.dst;
      };
      map_src(inst.s0);
      map_src(inst.s1);
      map_src(inst.s2);

      std::optional<MInst> store_after;
      if (inst.dst.valid) {
        const Assignment* a = lookup(inst.dst);
        if (a && a->spilled) {
          const uint32_t scratch = desc.regs[static_cast<size_t>(inst.dst.cls)];
          const Reg scratch_reg = Reg::make(inst.dst.cls, scratch);
          MInst store;
          store.op = MOp::SpillStore;
          store.s0 = scratch_reg;
          store.imm = a->slot;
          store_after = store;
          result.static_spill_stores += 1;
          inst.dst = scratch_reg;
        } else if (a) {
          inst.dst = Reg::make(inst.dst.cls, a->preg);
        }
      }
      out.push_back(inst);
      if (store_after) out.push_back(*store_after);
    }
    block.insts = std::move(out);
  }
}

}  // namespace regalloc_detail

AllocResult allocate_registers(MFunction& fn, const MachineDesc& desc,
                               AllocPolicy policy,
                               const SpillPriorityInfo* hints) {
  // Every allocator indexes its tables by vreg_key below
  // vreg_key_bound(fn), which covers virtual registers only.
  if (fn.allocated) fatal("allocate_registers: " + fn.name + " is allocated");
  if (policy == AllocPolicy::OfflineChaitin) {
    return chaitin_allocate(fn, desc);
  }

  const LinearOrder order = linearize(fn);
  std::optional<Liveness> live;
  std::vector<LiveInterval> intervals;
  switch (policy) {
    case AllocPolicy::LinearScan: {
      live = compute_liveness(fn);
      intervals = build_intervals(fn, order, &*live);
      break;
    }
    case AllocPolicy::NaiveOnline:
    case AllocPolicy::SplitGuided:
      intervals = build_intervals(fn, order, nullptr);
      break;
    case AllocPolicy::OfflineChaitin:
      break;  // handled above
  }

  switch (policy) {
    case AllocPolicy::NaiveOnline:
      // Round-robin-ish: evict the oldest allocated interval, blind to
      // live ranges and use counts.
      return run_linear_scan(fn, desc, intervals,
                             [](const LiveInterval&, uint64_t seq) {
                               return -static_cast<double>(seq);
                             });
    case AllocPolicy::LinearScan:
      // Classic: evict the interval ending furthest in the future.
      return run_linear_scan(fn, desc, intervals,
                             [](const LiveInterval& iv, uint64_t) {
                               return static_cast<double>(iv.end);
                             });
    case AllocPolicy::SplitGuided: {
      // Offline eviction ranks over SVIL locals; temporaries are poor
      // eviction candidates (short-lived by construction), so they rank
      // below every annotated local, and unranked locals rank 0.5.
      std::vector<double> local_rank(fn.local_regs.size(), 0.5);
      if (hints) {
        for (size_t i = 0; i < hints->eviction_order.size(); ++i) {
          // First entry = best spill candidate = highest eviction rank.
          const auto local = hints->eviction_order[i];
          if (local < local_rank.size()) {
            local_rank[local] =
                static_cast<double>(hints->eviction_order.size() - i);
          }
        }
      }
      return run_linear_scan(
          fn, desc, intervals,
          [&local_rank](const LiveInterval& iv, uint64_t) {
            return iv.is_local ? local_rank[iv.local_idx] : 0.0;
          });
    }
    case AllocPolicy::OfflineChaitin:
      break;
  }
  fatal("allocate_registers: unreachable");
}

}  // namespace svc
