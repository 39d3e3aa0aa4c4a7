// Online half of the unified pass pipeline: the JIT's phase chain
// (translation, peephole cleanup, FMA formation, de-vectorization,
// register allocation) as named passes in a process-wide PassManager --
// the same abstraction the offline compiler uses (ir/ir_pipeline.h), so
// both halves of Figure 1 are driven by PipelineSpec data.
//
// Registered passes:
//   stack_to_reg  SVIL stack bytecode -> virtual-register MFunction
//                 (replaces the unit wholesale; must come first)
//   peephole      copy forwarding + dead-move elimination
//   fma           fused multiply-add formation; no-op unless the target
//                 has_fma (the paper's annotations-are-advisory rule:
//                 a spec never forces an op the core cannot execute)
//   devectorize   lane expansion to scalar code; runs wherever named, so
//                 a spec can force scalarization even on a SIMD target
//                 (the ablation the default chain only does when
//                 !has_simd)
//   regalloc      policy-selectable register allocation; SplitGuided
//                 consumes the SpillPriority annotation when enabled
#pragma once

#include "bytecode/module.h"
#include "jit/jit_compiler.h"
#include "support/pass_manager.h"
#include "targets/machine.h"

namespace svc {

/// Immutable surroundings of one online compilation.
struct JitPipelineContext {
  const Module& module;
  const Function& fn;
  const MachineDesc& desc;
  const JitOptions& options;
  JitCounters& counters;  // the compile's counters; passes add to them
};

using JitPassManager = PassManager<MFunction, JitPipelineContext>;

/// The process-wide online pass registry (built once, immutable after).
[[nodiscard]] const JitPassManager& jit_pass_manager();

/// The classic per-target chain JitCompiler::compile ran before the
/// refactor: stack_to_reg, peephole, [fma], [devectorize + second
/// peephole], regalloc -- gates resolved against `desc` capabilities.
[[nodiscard]] PipelineSpec default_jit_pipeline(const MachineDesc& desc);

/// The target-neutral head of every default and tier-2 pipeline,
/// stack_to_reg then peephole, resolved: what a JitTranslation holds the
/// result of.
[[nodiscard]] const ResolvedPipeline& jit_translation_passes();

/// default_jit_pipeline(desc) resolved against jit_pass_manager(). The
/// chain depends only on has_fma and has_simd, so its four shapes are
/// resolved once per process.
[[nodiscard]] const ResolvedPipeline& default_jit_passes(
    const MachineDesc& desc);

}  // namespace svc
