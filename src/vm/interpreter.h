// Tier-0 execution for SVIL, with two dispatch engines over the one
// definition of opcode semantics in vm/semantics.h:
//
//   * Switch: the reference interpreter -- a single switch over Opcode
//     walking the original Function/BasicBlock structures. Deliberately
//     simple and defensive; every JIT target and the threaded engine are
//     differential-tested against it for dispatch, frames and stacks, and
//     it is the portable fallback when SVC_THREADED_DISPATCH is
//     configured OFF.
//   * Threaded: the production tier-0 engine -- a computed-goto dispatch
//     loop (GCC/Clang &&label tables) over pre-decoded code streams
//     (vm/predecode.h) with superinstruction fusion. Typically several
//     times faster; bit-identical results, traps, step counts and
//     profiles by construction (tests/dispatch_test.cpp).
//
// Both engines trap on call-stack overflow and honor a step budget that
// guards against runaway loops in tests; the value opcodes' own traps
// (memory bounds, division) come from vm/semantics.h. See
// docs/INTERPRETER.md and docs/SEMANTICS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bytecode/module.h"
#include "vm/memory.h"
#include "vm/predecode.h"
#include "vm/profile.h"
#include "vm/semantics.h"
#include "vm/value.h"

namespace svc {

/// Deepest chain of nested guest calls before CallStackOverflow. The one
/// limit for every engine -- the switch and threaded tier-0 engines and
/// the cycle simulator -- so a program traps at the same depth whichever
/// tier runs it.
inline constexpr uint32_t kMaxCallDepth = 128;

/// Dynamic instructions one execution may run before StepBudgetExceeded,
/// unless the caller sets its own budget. The one default for every
/// engine and for every run entry point of the runtime (OnlineTarget,
/// Soc, Deployment).
inline constexpr uint64_t kDefaultStepBudget = uint64_t{1} << 32;

struct ExecResult {
  std::optional<Value> value;  // set on normal return (Void -> Value{})
  TrapKind trap = TrapKind::None;
  uint64_t steps = 0;  // dynamic instruction count

  [[nodiscard]] bool ok() const { return trap == TrapKind::None; }
  // Cold by contract: formatting is for error reports, never the
  // execution path.
  [[nodiscard, gnu::cold]] std::string trap_message() const;
};

/// Which tier-0 dispatch engine serves run().
enum class DispatchKind : uint8_t {
  Switch,    // portable reference switch (the differential oracle)
  Threaded,  // pre-decoded computed-goto loop with fusion
};

class Interpreter {
 public:
  Interpreter(const Module& module, Memory& memory)
      : module_(module), memory_(memory) {}

  /// Maximum dynamic instructions before trapping (default
  /// kDefaultStepBudget).
  void set_step_budget(uint64_t steps) { step_budget_ = steps; }

  /// Attaches a profile collector (sized for this module's functions; may
  /// be nullptr to disable). Not owned; must outlive every run(). With no
  /// collector attached the execution loop pays only a null check per
  /// recorded event -- profiling off is effectively free.
  void set_profile(ProfileData* profile) { profile_ = profile; }

  /// True when this build carries the computed-goto engine (CMake option
  /// SVC_THREADED_DISPATCH, GCC/Clang only). When false, Threaded
  /// requests silently run on the Switch engine.
  [[nodiscard]] static bool threaded_available();

  /// Selects the dispatch engine (default: Threaded when available).
  /// Results, traps, step counts and collected profiles are identical
  /// across engines; only speed differs.
  void set_dispatch(DispatchKind kind) { dispatch_ = kind; }
  [[nodiscard]] DispatchKind dispatch() const { return dispatch_; }

  /// Enables/disables superinstruction fusion in the threaded engine
  /// (default on; no effect on the Switch engine). The profiling
  /// instantiation always runs unfused streams -- profiles are recorded
  /// per original opcode.
  void set_fusion(bool on) { fusion_ = on; }

  /// Shares a pre-decoded-stream cache (typically one per OnlineTarget
  /// or Soc, so streams are lowered once per deployment, not per
  /// Interpreter). Not owned; must outlive every run(). Without one the
  /// interpreter lowers into a private cache, amortized across its own
  /// run() calls only.
  void set_predecode_cache(PredecodeCache* cache) { pcache_ = cache; }

  /// Runs function `func_idx` with `args` (must match the signature).
  [[nodiscard]] ExecResult run(uint32_t func_idx,
                               const std::vector<Value>& args);
  /// Convenience: look up by name first.
  [[nodiscard]] ExecResult run(std::string_view name,
                               const std::vector<Value>& args);

 private:
  friend class FrameExecutor;
  friend struct ThreadedEngine;

  [[nodiscard]] ExecResult run_switch(uint32_t func_idx,
                                      const std::vector<Value>& args);
  // Defined in vm/dispatch_threaded.cpp; falls back to run_switch when
  // the computed-goto engine is compiled out.
  [[nodiscard]] ExecResult run_threaded(uint32_t func_idx,
                                        const std::vector<Value>& args);

  const Module& module_;
  Memory& memory_;
  uint64_t step_budget_ = kDefaultStepBudget;
  uint64_t steps_used_ = 0;
  uint32_t call_depth_ = 0;
  ProfileData* profile_ = nullptr;
  DispatchKind dispatch_ = DispatchKind::Threaded;
  bool fusion_ = true;
  PredecodeCache* pcache_ = nullptr;
  PredecodeCache own_cache_;
};

}  // namespace svc
