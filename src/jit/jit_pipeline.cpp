#include "jit/jit_pipeline.h"

#include "jit/devectorize.h"
#include "jit/isel.h"
#include "jit/stack_to_reg.h"
#include "regalloc/split_alloc.h"

namespace svc {
namespace {

JitPassManager build_jit_pass_manager() {
  JitPassManager pm("jit.pass_us.");

  pm.register_pass("stack_to_reg",
                   "stack bytecode -> virtual-register translation",
                   [](MFunction& fn, JitPipelineContext& ctx, Statistics&) {
                     fn = stack_to_reg(ctx.module, ctx.fn);
                   });

  pm.register_pass("peephole",
                   "copy forwarding + dead-move elimination",
                   [](MFunction& fn, JitPipelineContext&, Statistics& stats) {
                     const PeepholeStats peep = peephole_cleanup(fn);
                     stats.add("jit.moves_removed", peep.moves_removed);
                     stats.add("jit.peephole_work_units",
                               static_cast<int64_t>(peep.work_units));
                   });

  pm.register_pass("fma", "fused multiply-add formation (has_fma targets)",
                   [](MFunction& fn, JitPipelineContext& ctx,
                      Statistics& stats) {
                     if (!ctx.desc.has_fma) return;
                     stats.add("jit.fma_formed", form_fma(fn));
                   });

  pm.register_pass("devectorize", "lane expansion to scalar code",
                   [](MFunction& fn, JitPipelineContext&, Statistics& stats) {
                     const DevectorizeStats dv = devectorize(fn);
                     stats.add("jit.vector_insts_expanded",
                               dv.vector_insts_expanded);
                     stats.add("jit.scalar_insts_emitted",
                               dv.scalar_insts_emitted);
                   });

  pm.register_pass(
      "regalloc", "register allocation (policy from JitOptions)",
      [](MFunction& fn, JitPipelineContext& ctx, Statistics& stats) {
        // The SplitGuided policy consumes the offline SpillPriority
        // annotation when present and enabled.
        SpillPriorityInfo hints;
        const SpillPriorityInfo* hints_ptr = nullptr;
        if (ctx.options.use_annotations &&
            ctx.options.alloc_policy == AllocPolicy::SplitGuided) {
          if (const Annotation* ann = find_annotation(
                  ctx.fn.annotations(), AnnotationKind::SpillPriority)) {
            if (auto decoded = SpillPriorityInfo::decode(ann->payload)) {
              hints = std::move(*decoded);
              hints_ptr = &hints;
            }
          }
        }
        const AllocResult alloc = allocate_registers(
            fn, ctx.desc, ctx.options.alloc_policy, hints_ptr);
        stats.add("jit.spilled_vregs", alloc.spilled_vregs);
        stats.add("jit.static_spill_loads", alloc.static_spill_loads);
        stats.add("jit.static_spill_stores", alloc.static_spill_stores);
        stats.add("jit.alloc_work_units",
                  static_cast<int64_t>(alloc.work_units));
      });

  return pm;
}

}  // namespace

const JitPassManager& jit_pass_manager() {
  static const JitPassManager pm = build_jit_pass_manager();
  return pm;
}

PipelineSpec default_jit_pipeline(const MachineDesc& desc) {
  PipelineSpec spec;
  spec.append("stack_to_reg");
  spec.append("peephole");
  if (desc.has_fma) spec.append("fma");
  if (!desc.has_simd) {
    spec.append("devectorize");
    // Lane expansion leaves copy chains worth one more cleanup round.
    spec.append("peephole");
  }
  spec.append("regalloc");
  return spec;
}

}  // namespace svc
