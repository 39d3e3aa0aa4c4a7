// The online (JIT) compiler: SVIL bytecode -> allocated machine code for
// one target. Mirrors the paper's deployment-side step (Figure 1, right):
// it is fast, linear-time, and leans on offline annotations instead of
// re-running expensive analyses.
//
// Pipeline: stack-to-register translation -> peephole cleanup ->
// [FMA formation if has_fma] -> [de-vectorization if !has_simd, plus a
// second cleanup] -> register allocation (policy-selectable; SplitGuided
// consumes the SpillPriority annotation). The first two passes do not
// depend on the target, so compilers that share a TranslationMemo run
// them once per function and continue from a copy of the result.
#pragma once

#include <array>
#include <chrono>
#include <optional>
#include <string_view>
#include <vector>

#include "bytecode/function_memo.h"
#include "bytecode/module.h"
#include "regalloc/linear_scan.h"
#include "support/pass_manager.h"
#include "support/statistics.h"
#include "targets/machine.h"

namespace svc {

struct JitOptions {
  JitOptions() = default;
  JitOptions(AllocPolicy policy, bool annotations)
      : alloc_policy(policy), use_annotations(annotations) {}

  AllocPolicy alloc_policy = AllocPolicy::LinearScan;
  // When false the JIT ignores all annotations (the ablation arm of the
  // split-compilation experiments); SplitGuided degrades to NaiveOnline
  // ranking as required by the annotations-are-advisory rule.
  bool use_annotations = true;
  // Custom online phase chain (names from jit/jit_pipeline.h). When unset
  // the JIT runs default_jit_pipeline(desc) -- the classic chain gated on
  // the target's capabilities. Must start with "stack_to_reg" (the
  // translation that creates the machine function the rest transforms).
  std::optional<PipelineSpec> pipeline;

  /// Canonical stringification for code-cache keying: two JitOptions with
  /// equal keys produce identical code on the same target. An unset
  /// pipeline renders as "default" -- sound to cache because the default
  /// schedule is a pure function of the MachineDesc, and the cache key
  /// also carries the target kind.
  [[nodiscard]] std::string cache_key() const;
};

/// What one JIT compile counts, in fixed fields rather than a string
/// map: the passes add their counters (moves removed, spills, ...) and
/// the pass runner adds each pass's wall time. A counter nothing touched
/// is absent, as a key never added to a Statistics is, so add_to()
/// renders exactly the "jit.*" keys a string map would have held.
class JitCounters {
 public:
  enum Counter : uint8_t {
    MovesRemoved,
    PeepholeWorkUnits,
    FmaFormed,
    VectorInstsExpanded,
    ScalarInstsEmitted,
    SpilledVregs,
    StaticSpillLoads,
    StaticSpillStores,
    AllocWorkUnits,
    CodeBytes,
    kNumCounters,
  };

  void add(Counter c, int64_t delta) {
    values_[c] += delta;
    present_ |= uint32_t{1} << c;
  }
  /// Per-pass wall time, indexed by jit_pass_manager() pass index.
  [[nodiscard]] PassTimes& pass_us() { return pass_us_; }
  JitCounters& operator+=(const JitCounters& other);

  /// Adds every present counter to `out` under its key ("jit.spilled_vregs",
  /// "jit.pass_us.regalloc", ...).
  void add_to(Statistics& out) const;
  /// A counter by its key; 0 when absent or when the key names none.
  [[nodiscard]] int64_t get(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
  /// Adds `delta` to the counter or pass timer `key` names (an add_to
  /// key); false, changing nothing, when it names none. The persistent
  /// store decodes an entry's counters through this, one key at a time.
  [[nodiscard]] bool add_by_key(std::string_view key, int64_t delta);
  /// The inverse of add_to: nullopt when a key names no JIT counter.
  [[nodiscard]] static std::optional<JitCounters> from_statistics(
      const Statistics& stats);

 private:
  std::array<int64_t, kNumCounters> values_{};
  uint32_t present_ = 0;
  PassTimes pass_us_;
};

struct JitArtifact {
  MFunction code;
  JitCounters stats;
  double compile_seconds = 0.0;
};

/// One function after the target-neutral head of a JIT pipeline,
/// stack_to_reg then peephole, with those passes' counters and times.
struct JitTranslation {
  MFunction code;
  JitCounters stats;
};

/// Per-function translations shared by the compilers of every core of a
/// Soc (a standalone OnlineTarget keeps its own).
using TranslationMemo = FunctionMemo<JitTranslation>;

class JitCompiler {
 public:
  /// Resolves the pipeline (options.pipeline, or the target's default)
  /// once; an invalid spec is reported by compile().
  explicit JitCompiler(const MachineDesc& desc, JitOptions options = {});

  [[nodiscard]] const MachineDesc& desc() const { return desc_; }
  [[nodiscard]] const JitOptions& options() const { return options_; }

  /// Compiles one function of `module`. Const and thread-safe: touches
  /// only the immutable target description / options and the process-wide
  /// pass registry (built once), so background compile jobs may share one
  /// JitCompiler across threads.
  ///
  /// With `translations`, a pipeline that begins stack_to_reg,peephole
  /// (every default and tier-2 one) takes the function's translation from
  /// the memo, building it there on first use, and runs only the passes
  /// after it. The artifact is the one a compile without the memo makes:
  /// the same code and counters, and the two passes still marked as run,
  /// with their wall time counted by the compile that built the entry
  /// and 0 in the others.
  [[nodiscard]] JitArtifact compile(
      const Module& module, uint32_t func_idx,
      TranslationMemo* translations = nullptr) const;

  /// Compiles every function; `aggregate` (optional) accumulates stats.
  [[nodiscard]] CodeImage compile_module(
      const Module& module, Statistics* aggregate = nullptr) const;

 private:
  const MachineDesc& desc_;
  const JitOptions options_;
  ResolvedPipeline pipeline_;
  // pipeline_ begins with the passes a JitTranslation holds the result of.
  bool translation_prefix_ = false;
  std::string pipeline_error_;  // why options_.pipeline cannot run, if so
};

}  // namespace svc
