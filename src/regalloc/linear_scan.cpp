#include "regalloc/linear_scan.h"

#include <algorithm>
#include <cstdint>
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

struct ActiveEntry {
  const LiveInterval* iv;
  uint32_t preg;
  uint64_t seq;  // allocation order (for round-robin ranks)
};

/// Per-class allocation state.
struct ClassState {
  std::vector<uint8_t> preg_used;
  std::vector<ActiveEntry> active;
  // At most the lowest end in `active` (an evicted entry may have held
  // the minimum, so it can be stale low, never high).
  uint32_t min_end = UINT32_MAX;
  uint32_t next_slot = 0;
};

/// Everything the online allocators build per function, kept per thread
/// (JitCompiler::compile may run on several threads at once) and reused:
/// once it has grown to the largest function seen, an allocation
/// allocates memory only for the blocks that gain spill code.
struct Scratch {
  LinearOrder order;
  Liveness live;
  IntervalBuilder builder;
  std::vector<LiveInterval> intervals;
  AssignmentTable assign;
  ClassState cls[kNumRegClasses];
  std::vector<double> local_rank;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Core linear scan over sorted intervals. `evict_rank(interval)` returns
/// the preference for evicting an interval when pressure is exceeded:
/// the candidate (including the incoming interval itself) with the
/// *highest* rank is spilled.
template <typename EvictRank>
AllocResult run_linear_scan(MFunction& fn, const MachineDesc& desc,
                            Scratch& sc, const EvictRank& evict_rank) {
  AllocResult result;
  AssignmentTable& assign = sc.assign;
  assign.assign(vreg_key_bound(fn), std::nullopt);
  for (size_t c = 0; c < kNumRegClasses; ++c) {
    sc.cls[c].preg_used.assign(desc.regs[c], 0);
    sc.cls[c].active.clear();
    sc.cls[c].min_end = UINT32_MAX;
    sc.cls[c].next_slot = 0;
  }

  uint64_t seq = 0;
  for (const LiveInterval& iv : sc.intervals) {
    ClassState& st = sc.cls[static_cast<size_t>(iv.vreg.cls)];
    result.work_units += 1;

    // Expire intervals that ended before this one starts, keeping the
    // survivors in order. The walk (one work unit per active entry) is
    // only taken when the lowest end can have expired.
    result.work_units += st.active.size();
    if (st.min_end < iv.start) {
      size_t kept = 0;
      st.min_end = UINT32_MAX;
      for (const ActiveEntry& entry : st.active) {
        if (entry.iv->end < iv.start) {
          st.preg_used[entry.preg] = 0;
        } else {
          st.active[kept++] = entry;
          st.min_end = std::min(st.min_end, entry.iv->end);
        }
      }
      st.active.resize(kept);
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
      st.preg_used[*free] = 1;
      st.active.push_back({&iv, *free, seq});
      st.min_end = std::min(st.min_end, iv.end);
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
        const double r = evict_rank(*st.active[i].iv, st.active[i].seq);
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
        assign[vreg_key(evicted.iv->vreg)] =
            Assignment{true, 0, st.next_slot++};
        result.spilled_vregs += 1;
        st.active.push_back({&iv, evicted.preg, seq});
        st.min_end = std::min(st.min_end, iv.end);
        assign[vreg_key(iv.vreg)] = Assignment{false, evicted.preg, 0};
      }
    }
    ++seq;
  }

  for (size_t c = 0; c < kNumRegClasses; ++c) {
    fn.num_slots[c] = sc.cls[c].next_slot;
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
  auto spilled = [&](const Reg& r) {
    if (!r.valid) return false;
    const Assignment* a = lookup(r);
    return a && a->spilled;
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
  for (Reg& r : fn.call_sites.all()) map_flat(r);
  for (Reg& r : fn.local_regs.all()) map_flat(r);

  // Emits `inst` with its registers mapped, preceded by one reload into a
  // scratch register per spilled source and followed by one store for a
  // spilled destination.
  auto rewrite = [&](MInst inst, auto&& emit) {
    uint32_t next_scratch = 0;
    auto map_src = [&](Reg& r) {
      if (!r.valid) return;
      const Assignment* a = lookup(r);
      if (!a) return;
      if (!a->spilled) {
        r = Reg::make(r.cls, a->preg);
        return;
      }
      const uint32_t scratch = desc.regs[static_cast<size_t>(r.cls)] +
                               (next_scratch++ % 3);
      MInst load;
      load.op = MOp::SpillLoad;
      load.dst = Reg::make(r.cls, scratch);
      load.imm = a->slot;
      emit(load);
      result.static_spill_loads += 1;
      r = load.dst;
    };
    map_src(inst.s0);
    map_src(inst.s1);
    map_src(inst.s2);

    MInst store;
    bool store_after = false;
    if (inst.dst.valid) {
      const Assignment* a = lookup(inst.dst);
      if (a && a->spilled) {
        const uint32_t scratch = desc.regs[static_cast<size_t>(inst.dst.cls)];
        const Reg scratch_reg = Reg::make(inst.dst.cls, scratch);
        store.op = MOp::SpillStore;
        store.s0 = scratch_reg;
        store.imm = a->slot;
        store_after = true;
        result.static_spill_stores += 1;
        inst.dst = scratch_reg;
      } else if (a) {
        inst.dst = Reg::make(inst.dst.cls, a->preg);
      }
    }
    emit(inst);
    if (store_after) emit(store);
  };

  // The common case: no operand of `inst` is spilled, so it is rewritten
  // in place with one lookup per operand. Returns false, leaving `inst`
  // untouched, when it needs spill code.
  auto map_in_place = [&](MInst& inst) {
    Reg* regs[4] = {&inst.s0, &inst.s1, &inst.s2, &inst.dst};
    const Assignment* found[4] = {};
    for (size_t k = 0; k < 4; ++k) {
      if (!regs[k]->valid) continue;
      found[k] = lookup(*regs[k]);
      if (found[k] && found[k]->spilled) return false;
    }
    for (size_t k = 0; k < 4; ++k) {
      if (found[k]) regs[k]->idx = found[k]->preg;
    }
    return true;
  };
  auto spill_code = [&](const MInst& inst) {
    return static_cast<size_t>(spilled(inst.s0)) + spilled(inst.s1) +
           spilled(inst.s2) + spilled(inst.dst);
  };
  for (MBlock& block : fn.blocks) {
    std::vector<MInst>& insts = block.insts;
    // Rewrite in place up to the first instruction that needs spill code;
    // most blocks have none and end here.
    size_t first = 0;
    while (first < insts.size() && map_in_place(insts[first])) ++first;
    if (first == insts.size()) continue;
    // The rest grows by exactly `extra` instructions: build it once.
    size_t extra = 0;
    for (size_t i = first; i < insts.size(); ++i) extra += spill_code(insts[i]);
    std::vector<MInst> grown;
    grown.reserve(insts.size() + extra);
    grown.insert(grown.end(), insts.begin(),
                 insts.begin() + static_cast<long>(first));
    for (size_t i = first; i < insts.size(); ++i) {
      rewrite(insts[i], [&](const MInst& m) { grown.push_back(m); });
    }
    insts = std::move(grown);
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

  Scratch& sc = scratch();
  linearize(fn, sc.order);
  if (policy == AllocPolicy::LinearScan) {
    sc.live.compute(fn);
    sc.builder.build(fn, sc.order, &sc.live, sc.intervals);
  } else {
    sc.builder.build(fn, sc.order, nullptr, sc.intervals);
  }

  switch (policy) {
    case AllocPolicy::NaiveOnline:
      // Round-robin-ish: evict the oldest allocated interval, blind to
      // live ranges and use counts.
      return run_linear_scan(fn, desc, sc,
                             [](const LiveInterval&, uint64_t seq) {
                               return -static_cast<double>(seq);
                             });
    case AllocPolicy::LinearScan:
      // Classic: evict the interval ending furthest in the future.
      return run_linear_scan(fn, desc, sc,
                             [](const LiveInterval& iv, uint64_t) {
                               return static_cast<double>(iv.end);
                             });
    case AllocPolicy::SplitGuided: {
      // Offline eviction ranks over SVIL locals; temporaries are poor
      // eviction candidates (short-lived by construction), so they rank
      // below every annotated local, and unranked locals rank 0.5.
      std::vector<double>& local_rank = sc.local_rank;
      local_rank.assign(fn.local_regs.size(), 0.5);
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
          fn, desc, sc,
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
