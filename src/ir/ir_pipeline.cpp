#include "ir/ir_pipeline.h"

namespace svc {
namespace {

IRPassManager build_ir_pass_manager() {
  IRPassManager pm("offline.pass_us.");

  pm.register_pass("coalesce", "copy coalescing",
                   [](IRFunction& fn, IRPipelineContext& ctx) {
                     ctx.stats.add("offline.coalesced", run_coalesce_pass(fn));
                   });
  pm.register_pass("fold", "constant folding",
                   [](IRFunction& fn, IRPipelineContext& ctx) {
                     ctx.stats.add("offline.folded", run_fold_pass(fn));
                   });
  pm.register_pass("simplify",
                   "algebraic simplification / strength reduction",
                   [](IRFunction& fn, IRPipelineContext& ctx) {
                     ctx.stats.add("offline.simplified", run_simplify_pass(fn));
                   });
  pm.register_pass("dce", "dead code elimination",
                   [](IRFunction& fn, IRPipelineContext& ctx) {
                     ctx.stats.add("offline.dce_removed", run_dce_pass(fn));
                   });
  pm.register_pass("licm", "loop-invariant constant hoisting",
                   [](IRFunction& fn, IRPipelineContext& ctx) {
                     ctx.stats.add("offline.licm_hoisted",
                                   run_licm_consts_pass(fn));
                   });
  pm.register_pass("if_convert", "if-conversion of branchy triangles",
                   [](IRFunction& fn, IRPipelineContext& ctx) {
                     ctx.stats.add("offline.if_converted",
                                   run_if_convert_pass(fn));
                   });

  auto fixpoint = [](bool simplify) {
    return [simplify](IRFunction& fn, IRPipelineContext& ctx) {
      PassOptions options;
      options.simplify = simplify;
      const PassStats ps = run_cleanup_fixpoint(fn, options);
      ctx.stats.add("offline.folded", ps.folded);
      ctx.stats.add("offline.simplified", ps.simplified);
      ctx.stats.add("offline.dce_removed", ps.dce_removed);
    };
  };
  pm.register_pass("cleanup",
                   "fixpoint of coalesce+fold+simplify+dce (<= 3 rounds)",
                   fixpoint(/*simplify=*/true));
  pm.register_pass("cleanup_nosimp",
                   "cleanup fixpoint without algebraic simplification",
                   fixpoint(/*simplify=*/false));

  pm.register_pass(
      "vectorize", "split automatic vectorization",
      [](IRFunction& fn, IRPipelineContext& ctx) {
        const VectorizeStats vs = vectorize(fn);
        ctx.stats.add("offline.loops_vectorized", vs.loops_vectorized);
        ctx.stats.add("offline.widening_reductions", vs.widening_reductions);
        ctx.stats.add("offline.accumulator_reductions",
                      vs.accumulator_reductions);
        ctx.vec_stats.loops_considered += vs.loops_considered;
        ctx.vec_stats.loops_vectorized += vs.loops_vectorized;
        ctx.vec_stats.widening_reductions += vs.widening_reductions;
        ctx.vec_stats.accumulator_reductions += vs.accumulator_reductions;
        ctx.vec_stats.map_stores += vs.map_stores;
        ctx.vec_stats.vectorized_headers.insert(
            ctx.vec_stats.vectorized_headers.end(),
            vs.vectorized_headers.begin(), vs.vectorized_headers.end());
      });

  return pm;
}

}  // namespace

const IRPassManager& ir_pass_manager() {
  static const IRPassManager pm = build_ir_pass_manager();
  return pm;
}

PipelineSpec ir_cleanup_spec(const PassOptions& options) {
  PipelineSpec spec;
  if (options.fold_constants && options.dce) {
    spec.append(options.simplify ? "cleanup" : "cleanup_nosimp");
  } else {
    // Uncommon knob settings have no composite pass; unroll the fixpoint.
    // Rounds past the old early exit rewrite nothing, so the result is
    // identical to run_cleanup_fixpoint.
    for (int round = 0; round < 3; ++round) {
      spec.append("coalesce");
      if (options.fold_constants) spec.append("fold");
      if (options.simplify) spec.append("simplify");
      if (options.dce) spec.append("dce");
    }
  }
  if (options.simplify) spec.append("licm");
  if (options.if_convert) {
    spec.append("if_convert");
    if (options.dce) spec.append("dce");
  }
  return spec;
}

PipelineSpec default_ir_pipeline(const PassOptions& options, bool vectorize) {
  PipelineSpec spec = ir_cleanup_spec(options);
  if (vectorize) {
    spec.append("vectorize");
    // Vectorization introduces new values; clean up again.
    spec.append(ir_cleanup_spec(options));
  }
  return spec;
}

}  // namespace svc
