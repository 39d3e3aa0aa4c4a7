#include "jit/jit_compiler.h"

#include <algorithm>

#include "jit/jit_pipeline.h"

namespace svc {

std::string JitOptions::cache_key() const {
  std::string key = alloc_policy_name(alloc_policy);
  key += use_annotations ? "/ann" : "/noann";
  key += '/';
  key += pipeline ? pipeline->str() : "default";
  return key;
}

namespace {

/// Statistics keys of the JitCounters fields, in enum order.
constexpr std::string_view kCounterKeys[JitCounters::kNumCounters] = {
    "jit.moves_removed",         "jit.peephole_work_units",
    "jit.fma_formed",            "jit.vector_insts_expanded",
    "jit.scalar_insts_emitted",  "jit.spilled_vregs",
    "jit.static_spill_loads",    "jit.static_spill_stores",
    "jit.alloc_work_units",      "jit.code_bytes",
};

std::optional<size_t> counter_index(std::string_view key) {
  for (size_t i = 0; i < JitCounters::kNumCounters; ++i) {
    if (kCounterKeys[i] == key) return i;
  }
  return std::nullopt;
}

/// True when `pipeline` begins with the passes a JitTranslation holds.
bool starts_with_translation(const ResolvedPipeline& pipeline) {
  const auto& head = jit_translation_passes().passes;
  return pipeline.passes.size() >= head.size() &&
         std::equal(head.begin(), head.end(), pipeline.passes.begin());
}

}  // namespace

JitCounters& JitCounters::operator+=(const JitCounters& other) {
  for (size_t i = 0; i < kNumCounters; ++i) values_[i] += other.values_[i];
  present_ |= other.present_;
  pass_us_ += other.pass_us_;
  return *this;
}

void JitCounters::add_to(Statistics& out) const {
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (present_ & (uint32_t{1} << i)) {
      out.add(std::string(kCounterKeys[i]), values_[i]);
    }
  }
  jit_pass_manager().add_times(pass_us_, out);
}

int64_t JitCounters::get(std::string_view key) const {
  if (const auto i = counter_index(key)) return values_[*i];
  if (const auto pass = jit_pass_manager().timer_pass(key)) {
    return pass_us_.us[*pass];
  }
  return 0;
}

bool JitCounters::has(std::string_view key) const {
  if (const auto i = counter_index(key)) return present_ & (uint32_t{1} << *i);
  if (const auto pass = jit_pass_manager().timer_pass(key)) {
    return pass_us_.ran & (uint32_t{1} << *pass);
  }
  return false;
}

bool JitCounters::add_by_key(std::string_view key, int64_t delta) {
  if (const auto i = counter_index(key)) {
    add(static_cast<Counter>(*i), delta);
  } else if (const auto pass = jit_pass_manager().timer_pass(key)) {
    pass_us_.add(*pass, delta);
  } else {
    return false;
  }
  return true;
}

std::optional<JitCounters> JitCounters::from_statistics(
    const Statistics& stats) {
  JitCounters out;
  for (const auto& [key, value] : stats.all()) {
    if (!out.add_by_key(key, value)) return std::nullopt;
  }
  return out;
}

JitCompiler::JitCompiler(const MachineDesc& desc, JitOptions options)
    : desc_(desc), options_(std::move(options)) {
  if (!options_.pipeline) {
    pipeline_ = default_jit_passes(desc_);
    translation_prefix_ = starts_with_translation(pipeline_);
    return;
  }
  const PipelineSpec& spec = *options_.pipeline;
  if (const auto unknown = jit_pass_manager().first_unknown(spec)) {
    pipeline_error_ = "JitCompiler: unknown pass '" + *unknown +
                      "' in pipeline '" + spec.str() + "'";
  } else if (spec.empty() || spec.names().front() != "stack_to_reg") {
    // Every later pass transforms the MFunction that translation creates;
    // without this check a bad spec would "compile" the default-constructed
    // empty function and only fail much later, at run time.
    pipeline_error_ = "JitCompiler: pipeline '" + spec.str() +
                      "' must start with stack_to_reg";
  } else {
    pipeline_ = jit_pass_manager().resolve(spec);
    translation_prefix_ = starts_with_translation(pipeline_);
  }
}

JitArtifact JitCompiler::compile(const Module& module, uint32_t func_idx,
                                 TranslationMemo* translations) const {
  const auto t0 = std::chrono::steady_clock::now();
  if (!pipeline_error_.empty()) fatal(pipeline_error_);

  const Function& fn = module.function(func_idx);
  JitArtifact artifact;
  size_t first = 0;
  if (translations && translation_prefix_) {
    bool built = false;
    const auto shared = translations->get(module, func_idx, 0, [&] {
      built = true;
      JitTranslation t;
      JitPipelineContext ctx{module, fn, desc_, options_, t.stats};
      jit_pass_manager().run(jit_translation_passes(), t.code, ctx,
                             &t.stats.pass_us());
      return t;
    });
    artifact.code = shared->code;
    artifact.stats = shared->stats;
    // The passes ran once, for the compile that built the entry.
    if (!built) artifact.stats.pass_us().us.fill(0);
    first = jit_translation_passes().passes.size();
  }
  JitPipelineContext ctx{module, fn, desc_, options_, artifact.stats};
  jit_pass_manager().run(pipeline_, artifact.code, ctx,
                         &artifact.stats.pass_us(), first);
  artifact.stats.add(JitCounters::CodeBytes,
                     static_cast<int64_t>(artifact.code.code_bytes()));

  const auto t1 = std::chrono::steady_clock::now();
  artifact.compile_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  return artifact;
}

CodeImage JitCompiler::compile_module(const Module& module,
                                     Statistics* aggregate) const {
  CodeImage out;
  out.reserve(module.num_functions());
  for (uint32_t i = 0; i < module.num_functions(); ++i) {
    JitArtifact artifact = compile(module, i);
    if (aggregate) artifact.stats.add_to(*aggregate);
    out.push_back(std::make_shared<const MFunction>(std::move(artifact.code)));
  }
  return out;
}

}  // namespace svc
