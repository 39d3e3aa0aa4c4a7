// Machine-code cleanup run by the online compiler between translation and
// register allocation:
//   - copy forwarding / dead-move elimination (removes the operand-stack
//     traffic left by stack-to-register translation);
//   - fused multiply-add formation for targets with has_fma (ppcsim,
//     spusim) -- the saxpy inner loop becomes one fmadds.
//
// Cost, under the JIT budget the paper works under (S5):
//   - peephole_cleanup computes the fixpoint of "apply the first
//     applicable rewrite in program order" with one forward cursor, use
//     counts kept up to date per rewrite, and removed moves tombstoned
//     and compacted once at the end. After rewriting `mov d <- s` the
//     cursor steps back to the earliest live move that reads or writes d
//     or s, skipping locals and parameters (no rule fires on them), or
//     else goes on after the move; no other earlier move can have become
//     applicable. Work is O(n + step-back distances + forward-scan
//     lengths). Translation keeps temporaries short-lived, so both are a
//     few instructions and the pass is linear in function size in practice
//     (tests/peephole_test.cpp checks this on unrolled kernels).
//   - form_fma is one pass; each multiply scans forward only until its add
//     or the first clobber, within its block.
#pragma once

#include "targets/machine.h"

namespace svc {

struct PeepholeStats {
  uint32_t moves_removed = 0;
  // Instructions the cursor visited, plus forward-scan steps and step-back
  // candidates examined: a deterministic proxy for the pass's time.
  uint64_t work_units = 0;
};

/// Runs copy forwarding + dead-move elimination to a fixpoint.
PeepholeStats peephole_cleanup(MFunction& fn);

/// Forms FMA32 from MulF32 + AddF32 pairs. Call only for has_fma targets.
uint32_t form_fma(MFunction& fn);

}  // namespace svc
