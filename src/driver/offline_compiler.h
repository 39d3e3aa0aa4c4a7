// The offline half of the split pipeline (Figure 1, left): MiniC source ->
// typed AST -> IR -> scalar optimizations -> automatic vectorization ->
// SVIL bytecode + annotations (vectorized loops, spill priorities,
// hardware hints) -> verified Module ready for serialization.
//
// Everything expensive lives here, on the "developer's powerful
// workstation"; the per-target JIT consumes the result.
#pragma once

#include <optional>
#include <string_view>

#include "bytecode/module.h"
#include "ir/passes.h"
#include "support/diagnostics.h"
#include "support/pass_manager.h"
#include "support/result.h"
#include "support/statistics.h"

namespace svc {

struct OfflineOptions {
  PassOptions passes;
  bool vectorize = true;
  bool annotate_spill_priorities = true;
  bool annotate_hardware_hints = true;
  // Explicit IR pipeline (names from ir/ir_pipeline.h). When set it
  // replaces the schedule derived from `passes` + `vectorize`; unknown
  // pass names are reported through the DiagnosticEngine.
  std::optional<PipelineSpec> pipeline;
  // Runtime profile imported from a previous deployment cycle: a module
  // whose functions carry Profile annotations (Soc::export_profiled_module
  // round-tripped through the serializer). Two effects: when no explicit
  // `pipeline` is given the offline schedule is seeded from the observed
  // behavior instead of the blind defaults, and the profile annotations
  // are carried over to the recompiled functions (matched by name) so the
  // next cycle's consumers -- tuner, mapper, tier-2 -- still see them.
  // Not owned; must outlive the compile_module call.
  const Module* profile = nullptr;
};

/// Compiles MiniC `source` into a deployable module. The single offline
/// entry point: a failed compile (parse/sema errors, unknown pipeline
/// passes, verifier failures) returns every diagnostic structured inside
/// the Result -- nothing fatals, nothing needs an out-param. Embedders
/// normally reach this through svc::Engine::compile (api/svc.h).
[[nodiscard]] Result<Module> compile_module(std::string_view source,
                                            const OfflineOptions& options = {},
                                            Statistics* stats = nullptr);

}  // namespace svc
