// Cycle-approximate simulator for JIT-compiled machine code. This is the
// measurement substrate replacing the paper's physical x86/UltraSparc/
// PowerPC hosts (DESIGN.md S2).
//
// Timing model (deterministic):
//   cycles += desc.cost(op) for every executed instruction
//   + load_use_penalty when an instruction consumes the result of the
//     immediately preceding load;
//   + taken_branch_penalty when control transfers anywhere but the
//     fall-through block (blocks are laid out in emission order);
//   + mispredict_penalty when the 2-bit saturating per-site predictor
//     gets a conditional branch wrong.
//
// Functional semantics are the value-opcode definitions of vm/semantics.h,
// the same ones tier 0 runs; the differential test suite enforces
// bit-identity on random programs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "targets/machine.h"
#include "vm/interpreter.h"  // TrapKind, kMaxCallDepth, kDefaultStepBudget
#include "vm/memory.h"

namespace svc {

struct SimStats {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t spill_loads = 0;
  uint64_t spill_stores = 0;
  uint64_t branches = 0;
  uint64_t mispredicts = 0;
  uint64_t taken_branches = 0;
  uint64_t calls = 0;
};

struct SimResult {
  Value value;  // return value (Void -> default)
  TrapKind trap = TrapKind::None;
  SimStats stats;
  // Which tier of the runtime answered: 0 = interpreter (cycles then
  // follow the deterministic interpreter cost model, see
  // online_compiler.h), 1 = fast JIT, 2 = profile-guided optimizing
  // recompile. Results are bit-identical across tiers; only
  // timing/codegen may differ.
  uint8_t tier = 1;

  [[nodiscard]] bool ok() const { return trap == TrapKind::None; }
};

/// Executes machine code for one target. Holds the branch-predictor state
/// across calls within one run (reset per `run`).
class Simulator {
 public:
  /// Runs `image` (a CodeImage); every function a run reaches must have
  /// code.
  Simulator(const MachineDesc& desc,
            std::span<const std::shared_ptr<const MFunction>> image,
            Memory& memory)
      : desc_(desc), functions_(image), memory_(memory) {}

  void set_step_budget(uint64_t steps) { step_budget_ = steps; }

  [[nodiscard]] SimResult run(uint32_t func_idx, std::span<const Value> args);

 private:
  friend class SimFrame;
  const MachineDesc& desc_;
  std::span<const std::shared_ptr<const MFunction>> functions_;
  Memory& memory_;
  uint64_t step_budget_ = kDefaultStepBudget;
  // Shared across frames during one run:
  SimStats stats_;
  std::unordered_map<uint64_t, uint8_t> predictor_;
  uint32_t call_depth_ = 0;  // limited by kMaxCallDepth (vm/interpreter.h)
};

}  // namespace svc
