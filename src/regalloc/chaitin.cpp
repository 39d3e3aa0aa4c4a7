#include "regalloc/chaitin.h"

#include <algorithm>
#include <limits>
#include <map>

#include "regalloc/alloc_common.h"
#include "regalloc/interference.h"
#include "regalloc/liveness.h"

namespace svc {

using regalloc_detail::Assignment;
using regalloc_detail::AssignmentTable;
using regalloc_detail::rewrite_spills;

AllocResult chaitin_allocate(MFunction& fn, const MachineDesc& desc) {
  AllocResult result;
  const LinearOrder order = linearize(fn);
  const Liveness live = compute_liveness(fn);
  const InterferenceGraph graph = build_interference(fn, live);
  const std::vector<LiveInterval> intervals =
      build_intervals(fn, order, &live);
  result.work_units = graph.num_edges() + intervals.size();

  // Spill cost: uses per unit of live range (classic Chaitin heuristic).
  std::map<uint32_t, double> cost;
  std::map<uint32_t, LiveInterval> info;
  for (const LiveInterval& iv : intervals) {
    const uint32_t key = vreg_key(iv.vreg);
    const double len = 1.0 + (iv.end - iv.start);
    cost[key] = iv.use_count / len;
    info[key] = iv;
  }

  // Simplify: repeatedly remove the lowest-degree node; when stuck, pick
  // the cheapest spill candidate (still pushed -- optimistic coloring).
  std::map<uint32_t, size_t> degree;
  std::vector<uint32_t> nodes;
  for (const auto& [key, iv] : info) {
    nodes.push_back(key);
    degree[key] = 0;
  }
  for (uint32_t key : nodes) {
    size_t d = 0;
    for (uint32_t n : graph.neighbors(key)) {
      if (degree.count(n)) ++d;
    }
    degree[key] = d;
  }

  auto k_for = [&](uint32_t key) {
    return desc.regs[key % kNumRegClasses];
  };

  std::vector<uint32_t> stack;
  std::set<uint32_t> removed;
  std::set<uint32_t> remaining(nodes.begin(), nodes.end());
  while (!remaining.empty()) {
    result.work_units += remaining.size();
    // Find a trivially colorable node.
    std::optional<uint32_t> pick;
    for (uint32_t key : remaining) {
      if (degree[key] < k_for(key)) {
        pick = key;
        break;
      }
    }
    if (!pick) {
      // Stuck: choose the cheapest-to-spill candidate.
      double best = std::numeric_limits<double>::infinity();
      for (uint32_t key : remaining) {
        const double c = cost[key] / (1.0 + static_cast<double>(degree[key]));
        if (c < best) {
          best = c;
          pick = key;
        }
      }
    }
    stack.push_back(*pick);
    remaining.erase(*pick);
    removed.insert(*pick);
    for (uint32_t n : graph.neighbors(*pick)) {
      if (remaining.count(n)) --degree[n];
    }
  }

  // Optimistic coloring.
  AssignmentTable assign(live.num_keys());
  uint32_t next_slot[kNumRegClasses] = {0, 0, 0};
  for (size_t i = stack.size(); i-- > 0;) {
    const uint32_t key = stack[i];
    const uint32_t k = k_for(key);
    std::vector<bool> taken(k, false);
    for (uint32_t n : graph.neighbors(key)) {
      const auto& a = assign[n];
      if (a && !a->spilled && a->preg < k) taken[a->preg] = true;
    }
    std::optional<uint32_t> color;
    for (uint32_t c = 0; c < k; ++c) {
      if (!taken[c]) {
        color = c;
        break;
      }
    }
    if (color) {
      assign[key] = Assignment{false, *color, 0};
    } else {
      const auto cls = static_cast<size_t>(key % kNumRegClasses);
      assign[key] = Assignment{true, 0, next_slot[cls]++};
      result.spilled_vregs += 1;
    }
  }

  for (size_t c = 0; c < kNumRegClasses; ++c) {
    fn.num_slots[c] = next_slot[c];
  }
  rewrite_spills(fn, desc, assign, result);
  fn.allocated = true;
  return result;
}

}  // namespace svc
