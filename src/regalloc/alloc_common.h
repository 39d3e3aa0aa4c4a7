// Internals shared between the linear-scan and Chaitin-Briggs allocators:
// the per-vreg assignment record and the spill rewriter.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "regalloc/linear_scan.h"
#include "targets/machine.h"

namespace svc {
namespace regalloc_detail {

struct Assignment {
  bool spilled = false;
  uint32_t preg = 0;  // valid when !spilled
  uint32_t slot = 0;  // valid when spilled
};

/// Indexed by vreg_key, sized vreg_key_bound(fn); empty for a vreg that
/// has no interval.
using AssignmentTable = std::vector<std::optional<Assignment>>;

/// Rewrites `fn` in place: maps vregs to physical registers, inserts
/// scratch-register reload/store code around spilled operands, and turns
/// spilled parameters / call arguments into slot-flagged registers.
void rewrite_spills(MFunction& fn, const MachineDesc& desc,
                    const AssignmentTable& assign,
                    AllocResult& result);

}  // namespace regalloc_detail
}  // namespace svc
