#include "api/engine.h"

#include <algorithm>
#include <utility>

#include "bytecode/serializer.h"
#include "bytecode/verifier.h"
#include "runtime/persistent_cache.h"
#include "ir/ir_pipeline.h"
#include "jit/jit_pipeline.h"

namespace svc {

// --- Builder setters -------------------------------------------------------

Engine::Builder& Engine::Builder::vectorize(bool on) {
  options_.offline.vectorize = on;
  return *this;
}

Engine::Builder& Engine::Builder::annotate_spill_priorities(bool on) {
  options_.offline.annotate_spill_priorities = on;
  return *this;
}

Engine::Builder& Engine::Builder::annotate_hardware_hints(bool on) {
  options_.offline.annotate_hardware_hints = on;
  return *this;
}

Engine::Builder& Engine::Builder::pass_options(const PassOptions& options) {
  options_.offline.passes = options;
  return *this;
}

Engine::Builder& Engine::Builder::offline_pipeline(std::string_view spec) {
  offline_pipeline_ = std::string(spec);
  offline_pipeline_set_ = true;
  return *this;
}

Engine::Builder& Engine::Builder::alloc_policy(AllocPolicy policy) {
  options_.jit.alloc_policy = policy;
  return *this;
}

Engine::Builder& Engine::Builder::use_annotations(bool on) {
  options_.jit.use_annotations = on;
  return *this;
}

Engine::Builder& Engine::Builder::jit_pipeline(std::string_view spec) {
  jit_pipeline_ = std::string(spec);
  jit_pipeline_set_ = true;
  return *this;
}

Engine::Builder& Engine::Builder::eager() {
  options_.runtime.tiers.mode = LoadMode::Eager;
  return *this;
}

Engine::Builder& Engine::Builder::tiered(uint32_t promote_threshold) {
  options_.runtime.tiers.mode = LoadMode::Tiered;
  options_.runtime.tiers.promote_threshold = promote_threshold;
  return *this;
}

Engine::Builder& Engine::Builder::prefetch(bool on) {
  options_.runtime.prefetch = on;
  return *this;
}

Engine::Builder& Engine::Builder::profiling(bool on) {
  options_.runtime.tiers.profile = on;
  return *this;
}

Engine::Builder& Engine::Builder::tier2(uint32_t threshold) {
  options_.runtime.tiers.tier2_threshold = threshold;
  return *this;
}

Engine::Builder& Engine::Builder::tier0_dispatch(DispatchKind kind) {
  options_.runtime.tiers.tier0_dispatch = kind;
  return *this;
}

Engine::Builder& Engine::Builder::pool_threads(size_t threads) {
  options_.runtime.pool_threads = threads;
  return *this;
}

Engine::Builder& Engine::Builder::cache_budget(size_t bytes) {
  options_.runtime.cache_budget_bytes = bytes;
  return *this;
}

Engine::Builder& Engine::Builder::persistent_cache(std::string_view path) {
  persistent_cache_path_ = std::string(path);
  return *this;
}

Engine::Builder& Engine::Builder::memory_bytes(size_t bytes) {
  options_.memory_bytes = bytes;
  return *this;
}

Engine::Builder& Engine::Builder::serving(const ServerOptions& options) {
  options_.server = options;
  return *this;
}

Engine::Builder& Engine::Builder::cluster(const ClusterOptions& options) {
  options_.cluster = options;
  return *this;
}

Engine::Builder& Engine::Builder::with_profile(ModuleHandle profiled) {
  profile_ = std::move(profiled);
  return *this;
}

// --- Builder validation ----------------------------------------------------

Result<Engine> Engine::Builder::build() const {
  EngineOptions options = options_;
  std::vector<Diagnostic> problems;
  const auto problem = [&problems](std::string message) {
    problems.push_back({Severity::Error, {}, std::move(message)});
  };

  if (offline_pipeline_set_) {
    auto spec = PipelineSpec::parse(offline_pipeline_);
    if (!spec) {
      problem("offline pipeline '" + offline_pipeline_ +
              "' is not a valid pass list");
    } else {
      if (const auto unknown = ir_pass_manager().first_unknown(*spec)) {
        problem("unknown IR pass '" + *unknown + "' in offline pipeline '" +
                spec->str() + "'");
      }
      options.offline.pipeline = std::move(*spec);
    }
  }

  if (jit_pipeline_set_) {
    auto spec = PipelineSpec::parse(jit_pipeline_);
    if (!spec) {
      problem("JIT pipeline '" + jit_pipeline_ +
              "' is not a valid pass list");
    } else {
      if (const auto unknown = jit_pass_manager().first_unknown(*spec)) {
        problem("unknown JIT phase '" + *unknown + "' in pipeline '" +
                spec->str() + "'");
      }
      if (spec->empty() || spec->names().front() != "stack_to_reg") {
        problem("JIT pipeline '" + spec->str() +
                "' must start with 'stack_to_reg' (the translation that "
                "creates the machine function the later phases transform)");
      }
      options.jit.pipeline = std::move(*spec);
    }
  }

  const SocOptions& runtime = options.runtime;
  if (runtime.tiers.mode == LoadMode::Eager) {
    if (runtime.prefetch) {
      problem("prefetch() requires a tiered() engine: eager deployments "
              "compile everything at deploy() already");
    }
    if (runtime.tiers.profile) {
      problem("profiling() requires a tiered() engine: the runtime profile "
              "is collected by the tier-0 interpreter");
    }
    if (runtime.tiers.tier2_threshold > 0) {
      problem("tier2() requires a tiered() engine: re-specialization "
              "promotes functions that are hot at tier 1");
    }
  } else if (runtime.tiers.promote_threshold == 0) {
    problem("tiered() promote_threshold must be at least 1 (a function is "
            "promoted after that many calls)");
  }

  if (options.memory_bytes == 0) {
    problem("memory_bytes() must be non-zero: deployments execute against "
            "this linear memory");
  }

  if (!persistent_cache_path_.empty()) {
    // Opening validates the whole contract now (creatable, a directory,
    // writable) so a mis-pointed store is a build() error instead of a
    // silently memory-only deployment. Every deployment of the engine
    // shares the store opened here.
    if (Result<PersistentCache> store =
            PersistentCache::open(persistent_cache_path_);
        store.ok()) {
      options.runtime.persistent_cache =
          std::make_shared<const PersistentCache>(std::move(store).value());
    } else {
      problem("persistent_cache('" + persistent_cache_path_ +
              "') failed validation:\n" + store.error_text());
    }
  }

  validate_server_options(options.server, problems);
  validate_cluster_options(options.cluster, problems);

  if (!problems.empty()) return Result<Engine>::failure(std::move(problems));
  return Engine(std::move(options), profile_);
}

// --- Engine ----------------------------------------------------------------

Result<ModuleHandle> Engine::compile(std::string_view source,
                                     Statistics* stats) const {
  OfflineOptions offline = options_.offline;
  if (profile_) offline.profile = profile_.get();
  // compile_module verifies the module it returns.
  Result<Module> module = compile_module(source, offline, stats);
  if (!module.ok()) return Result<ModuleHandle>::failure(module.error());
  return ModuleHandle::adopt_verified(std::move(module).value());
}

Result<ModuleHandle> Engine::load_bytecode(
    std::span<const uint8_t> bytes) const {
  DeserializeResult loaded = deserialize_module(bytes);
  if (!loaded.module) {
    return Result<ModuleHandle>::failure("deserialize failed: " +
                                         loaded.error);
  }
  DiagnosticEngine diags;
  if (!verify_module(*loaded.module, diags)) {
    diags.note({}, "while verifying deserialized module '" +
                       loaded.module->name() + "'");
    return Result<ModuleHandle>::failure(diags.all());
  }
  return ModuleHandle::adopt_verified(std::move(*loaded.module));
}

std::vector<uint8_t> Engine::save_bytecode(const ModuleHandle& module) {
  if (!module) fatal("Engine::save_bytecode: empty module handle");
  return serialize_module(*module);
}

Result<Deployment> Engine::deploy(const ModuleHandle& module,
                                  std::vector<CoreSpec> cores) const {
  if (!module) {
    return Result<Deployment>::failure("Engine::deploy: empty module handle");
  }
  if (cores.empty()) {
    return Result<Deployment>::failure(
        "Engine::deploy: a deployment needs at least one core");
  }

  const size_t memory_bytes =
      std::max<size_t>(options_.memory_bytes, module->memory_hint());
  auto soc = std::make_unique<Soc>(std::move(cores), memory_bytes,
                                   options_.jit, options_.runtime);
  if (module.verified()) {
    soc->load_verified_module(module.shared());
  } else if (Result<void> r = soc->load_module(module.shared()); !r.ok()) {
    return Result<Deployment>::failure(r.error());
  }
  return Deployment(std::move(soc), module);
}

}  // namespace svc
