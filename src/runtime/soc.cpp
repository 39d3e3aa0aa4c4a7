#include "runtime/soc.h"

#include "bytecode/verifier.h"
#include "runtime/mapper.h"

namespace svc {

Soc::Soc(std::vector<CoreSpec> cores, size_t memory_bytes, JitOptions jit,
         SocOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_budget_bytes),
      specs_(std::move(cores)),
      memory_(memory_bytes) {
  cache_.attach_persistent(options_.persistent_cache.get());
  if (options_.pool_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.pool_threads);
  }
  const OnlineTarget::Config core_config{options_.tiers, &cache_,
                                         pool_.get(), &predecode_,
                                         &translations_};
  cores_.reserve(specs_.size());
  for (const CoreSpec& spec : specs_) {
    cores_.push_back(
        std::make_unique<OnlineTarget>(spec.kind, jit, core_config));
  }
}

Result<void> Soc::load_module(std::shared_ptr<const Module> module) {
  if (!module) {
    return Result<void>::failure("Soc::load_module: null module");
  }
  // One verification for every core: an invalid module loads nowhere (no
  // partially-loaded SoC), and the cores skip their own check. Eager cores
  // compile through the shared cache, so same-kind cores after the first
  // are all hits.
  DiagnosticEngine diags;
  if (!verify_module(*module, diags)) {
    diags.note({}, "while loading module '" + module->name() + "'");
    return Result<void>::failure(diags.all());
  }
  load_verified_module(std::move(module));
  return {};
}

void Soc::load_verified_module(std::shared_ptr<const Module> module) {
  for (auto& core : cores_) core->load_verified_module(module);
  module_ = std::move(module);

  if (options_.prefetch) {
    // Annotation-driven warm-up: each function is background-compiled only
    // on its top-ranked core -- the mapper's HardwareHints scoring applied
    // to install time. Same-kind cores share the resulting artifact via
    // the cache when they promote later.
    for (uint32_t f = 0; f < module_->num_functions(); ++f) {
      const size_t best = rank_cores(*this, module_->function(f)).front().core;
      cores_[best]->request_compile(f);
    }
  }
}

void Soc::wait_warmup() {
  if (pool_) pool_->wait_idle();
}

ProfileData Soc::profile() const {
  // Snapshot each core under its own lock, then merge the snapshots with
  // the same n-way merge the cluster uses across Socs (vm/profile.h).
  std::vector<ProfileData> snapshots;
  snapshots.reserve(cores_.size());
  for (const auto& core : cores_) snapshots.push_back(core->profile());
  std::vector<const ProfileData*> parts;
  parts.reserve(snapshots.size());
  for (const ProfileData& snap : snapshots) parts.push_back(&snap);
  return merge_profiles(parts);
}

void Soc::seed_profile(const ProfileData& seed) {
  for (const auto& core : cores_) core->seed_profile(seed);
}

Module Soc::export_profiled_module() const {
  if (!module_) fatal("Soc::export_profiled_module before load");
  return attach_profile(*module_, profile());
}

SimResult Soc::run_on(size_t c, std::string_view name,
                      const std::vector<Value>& args, uint64_t step_budget) {
  return cores_[c]->run(name, args, memory_, step_budget);
}

SimResult Soc::run_on(size_t c, uint32_t func_idx,
                      const std::vector<Value>& args, uint64_t step_budget) {
  return cores_[c]->run(func_idx, args, memory_, step_budget);
}

}  // namespace svc
