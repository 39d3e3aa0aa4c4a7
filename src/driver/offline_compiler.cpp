#include "driver/offline_compiler.h"

#include <chrono>
#include <vector>

#include "bytecode/verifier.h"
#include "frontend/irgen.h"
#include "frontend/parser.h"
#include "ir/ir_pipeline.h"
#include "ir/lower_bytecode.h"
#include "ir/vectorizer.h"
#include "regalloc/split_alloc.h"
#include "runtime/profile_guided.h"
#include "support/diagnostics.h"

namespace svc {
namespace {

/// Static hardware-affinity estimate for the mapper (S3: "annotations may
/// also express the hardware requirements or characteristics of a code
/// module").
HardwareHintsInfo compute_hw_hints(const Function& fn) {
  // Blocks inside loops dominate dynamic behavior: weight them by an
  // estimated trip factor derived from back edges (same heuristic the
  // spill-priority analysis uses).
  std::vector<double> weight(fn.num_blocks(), 1.0);
  for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
    const Instruction& term = fn.block(b).terminator();
    auto mark = [&](uint32_t target) {
      if (target <= b) {
        for (uint32_t d = target; d <= b; ++d) weight[d] *= 16.0;
      }
    };
    if (term.op == Opcode::Jump) mark(term.a);
    if (term.op == Opcode::BranchIf) {
      mark(term.a);
      mark(term.b);
    }
  }

  double vector_ops = 0, float_ops = 0, branches = 0, total = 0;
  for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
    for (const Instruction& inst : fn.block(b).insts) {
      const double w = weight[b];
      total += w;
      if (is_vector_op(inst.op)) vector_ops += w;
      const OpCategory cat = op_info(inst.op).category;
      if (cat == OpCategory::FloatArith) float_ops += w;
      if (inst.op == Opcode::BranchIf) branches += w;
    }
  }
  HardwareHintsInfo info;
  if (vector_ops > 0) info.features |= kFeatureSimd;
  if (float_ops > 0) info.features |= kFeatureFloat;
  // Data-dependent branching beyond the loop back edges themselves.
  if (total > 0 && branches * 10.0 > total) {
    info.features |= kFeatureControlHeavy;
  }
  info.vector_intensity =
      total == 0 ? 0 : static_cast<uint32_t>(100.0 * vector_ops / total);
  return info;
}

}  // namespace

Result<Module> compile_module(std::string_view source,
                              const OfflineOptions& options,
                              Statistics* stats) {
  const auto t0 = std::chrono::steady_clock::now();

  DiagnosticEngine diags;
  auto program = parse_program(source, diags);
  if (!program) return Result<Module>::failure(diags.all());
  auto ir_fns = generate_ir(*program, diags);
  if (!ir_fns) return Result<Module>::failure(diags.all());

  // Schedule precedence: an explicit pipeline wins; otherwise an imported
  // profile seeds the vectorize / if-convert decisions with observed
  // behavior; otherwise the blind knob-derived default runs.
  const ProfileSeedDecision seed =
      options.profile ? profile_seed_decision(*options.profile)
                      : ProfileSeedDecision{};
  PipelineSpec spec;
  if (options.pipeline) {
    spec = *options.pipeline;
  } else if (seed.observed) {
    PassOptions seeded = options.passes;
    seeded.if_convert = seed.if_convert;
    spec = default_ir_pipeline(seeded, seed.vectorize);
  } else {
    spec = default_ir_pipeline(options.passes, options.vectorize);
  }
  if (const auto unknown = ir_pass_manager().first_unknown(spec)) {
    diags.error({}, "unknown IR pass '" + *unknown + "' in pipeline '" +
                        spec.str() + "'");
    return Result<Module>::failure(diags.all());
  }

  const ResolvedPipeline pipeline = ir_pass_manager().resolve(spec);
  Statistics unused;
  PassTimes times;
  Module module;
  for (IRFunction& ir : *ir_fns) {
    IRPipelineContext ctx{stats ? *stats : unused, {}};
    ir_pass_manager().run(pipeline, ir, ctx, &times);

    Function fn = lower_to_bytecode(ir);
    for (const auto& [header, vf] : ctx.vec_stats.vectorized_headers) {
      fn.annotations().push_back(
          VectorizedLoopInfo{header, vf, true}.encode());
    }
    if (options.annotate_spill_priorities) annotate_spill_priorities(fn);
    if (options.annotate_hardware_hints) {
      fn.annotations().push_back(compute_hw_hints(fn).encode());
    }
    // Re-ingest the imported profile: the observed record rides along on
    // the recompiled function (matched by name -- indices shift across
    // compiles, names persist). Copied verbatim: block references inside
    // are advisory and may be stale for the new block layout, but the
    // aggregate counters the consumers read stay meaningful.
    if (options.profile) {
      if (const auto prev = options.profile->find_function(fn.name())) {
        const Annotation* ann = find_annotation(
            options.profile->function(*prev).annotations(),
            AnnotationKind::Profile);
        if (ann) fn.annotations().push_back(*ann);
      }
    }
    module.add_function(std::move(fn));
  }

  if (!verify_module(module, diags)) return Result<Module>::failure(diags.all());

  if (stats) {
    ir_pass_manager().add_times(times, *stats);
    stats->add("offline.compile_us",
               round_to_us(std::chrono::steady_clock::now() - t0));
  }
  return module;
}

}  // namespace svc
