#include "jit/jit_pipeline.h"

#include <array>

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
                   [](MFunction& fn, JitPipelineContext& ctx) {
                     fn = stack_to_reg(ctx.module, ctx.fn);
                   });

  pm.register_pass("peephole",
                   "copy forwarding + dead-move elimination",
                   [](MFunction& fn, JitPipelineContext& ctx) {
                     const PeepholeStats peep = peephole_cleanup(fn);
                     ctx.counters.add(JitCounters::MovesRemoved,
                                      peep.moves_removed);
                     ctx.counters.add(JitCounters::PeepholeWorkUnits,
                                      static_cast<int64_t>(peep.work_units));
                   });

  pm.register_pass("fma", "fused multiply-add formation (has_fma targets)",
                   [](MFunction& fn, JitPipelineContext& ctx) {
                     if (!ctx.desc.has_fma) return;
                     ctx.counters.add(JitCounters::FmaFormed, form_fma(fn));
                   });

  pm.register_pass("devectorize", "lane expansion to scalar code",
                   [](MFunction& fn, JitPipelineContext& ctx) {
                     const DevectorizeStats dv = devectorize(fn);
                     ctx.counters.add(JitCounters::VectorInstsExpanded,
                                      dv.vector_insts_expanded);
                     ctx.counters.add(JitCounters::ScalarInstsEmitted,
                                      dv.scalar_insts_emitted);
                   });

  pm.register_pass(
      "regalloc", "register allocation (policy from JitOptions)",
      [](MFunction& fn, JitPipelineContext& ctx) {
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
        ctx.counters.add(JitCounters::SpilledVregs, alloc.spilled_vregs);
        ctx.counters.add(JitCounters::StaticSpillLoads,
                         alloc.static_spill_loads);
        ctx.counters.add(JitCounters::StaticSpillStores,
                         alloc.static_spill_stores);
        ctx.counters.add(JitCounters::AllocWorkUnits,
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

const ResolvedPipeline& jit_translation_passes() {
  static const ResolvedPipeline resolved =
      jit_pass_manager().resolve(PipelineSpec({"stack_to_reg", "peephole"}));
  return resolved;
}

const ResolvedPipeline& default_jit_passes(const MachineDesc& desc) {
  static const auto resolved = [] {
    std::array<ResolvedPipeline, 4> out;
    for (size_t shape = 0; shape < out.size(); ++shape) {
      MachineDesc d;
      d.has_fma = (shape & 1) != 0;
      d.has_simd = (shape & 2) != 0;
      out[shape] = jit_pass_manager().resolve(default_jit_pipeline(d));
    }
    return out;
  }();
  return resolved[(desc.has_fma ? 1 : 0) | (desc.has_simd ? 2 : 0)];
}

}  // namespace svc
