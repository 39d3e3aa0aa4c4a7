// Offline half of the unified pass pipeline: the scalar optimizations of
// ir/passes.h plus the split vectorizer, registered as named passes in a
// process-wide PassManager. The offline compiler (driver/) and the
// iterative-compilation tuner (runtime/iterative.h) drive everything
// through specs built here, so the optimization schedule is data.
//
// Registered passes:
//   coalesce       copy coalescing (canonicalizes frontend assignments)
//   fold           constant folding
//   simplify       algebraic identities + mul->shift strength reduction
//   dce            dead code elimination (internal fixpoint)
//   licm           loop-invariant constant hoisting
//   if_convert     branchy triangles -> selects
//   cleanup        fixpoint of coalesce+fold+simplify+dce (<= 3 rounds)
//   cleanup_nosimp same fixpoint without simplify (ablation arm)
//   vectorize      split automatic vectorization (records loop headers in
//                  the context for VectorizedLoop annotations)
#pragma once

#include "ir/ir.h"
#include "ir/passes.h"
#include "ir/vectorizer.h"
#include "support/pass_manager.h"

namespace svc {

/// Cross-pass outputs of one offline pipeline run over one function.
struct IRPipelineContext {
  /// The passes' counters ("offline.folded", ...) accumulate here.
  Statistics& stats;
  /// Accumulated by the "vectorize" pass; the offline compiler turns
  /// vectorized_headers into VectorizedLoop annotations after lowering.
  VectorizeStats vec_stats;
};

using IRPassManager = PassManager<IRFunction, IRPipelineContext>;

/// The process-wide offline pass registry (built once, immutable after).
[[nodiscard]] const IRPassManager& ir_pass_manager();

/// Spec equivalent of run_passes(options): cleanup fixpoint, LICM when
/// simplify is on, then optional if-conversion (+ final DCE).
[[nodiscard]] PipelineSpec ir_cleanup_spec(const PassOptions& options);

/// Spec equivalent of the full offline schedule: cleanup, then -- when
/// `vectorize` -- the vectorizer followed by a second cleanup round.
/// compile_module() runs this when no explicit pipeline is given, so
/// running it through the manager reproduces the pre-pipeline compiler
/// bit for bit.
[[nodiscard]] PipelineSpec default_ir_pipeline(const PassOptions& options,
                                               bool vectorize);

}  // namespace svc
