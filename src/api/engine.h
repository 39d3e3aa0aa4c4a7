// svc::Engine -- the embeddable facade over the whole split pipeline.
// One object, built once from one Builder, answers every entry point the
// paper's "compile once, deploy the same bytecode everywhere" story
// needs:
//
//   Engine::Builder      unified offline + JIT + runtime configuration,
//                        validated at build() (misconfiguration is a
//                        Result error, not a surprise at run time)
//   engine.compile()     MiniC source -> Result<ModuleHandle>
//   engine.load_bytecode()  deployment image -> Result<ModuleHandle>
//   Engine::save_bytecode() ModuleHandle -> deployment image
//   engine.deploy()      ModuleHandle + cores -> Result<Deployment>
//
// and the feedback loop closes in ~10 lines:
//
//   auto engine = value_or_die(Engine::Builder().tiered().profiling()
//                                  .tier2(32).build());
//   auto module = value_or_die(engine.compile(source));
//   auto dep    = value_or_die(engine.deploy(module, cores));
//   dep.warm_up().get();
//   ... dep.run("kernel", args) ...
//   auto tuned  = value_or_die(Engine::Builder()
//                                  .with_profile(dep.export_profile())
//                                  .build());
//   auto better = value_or_die(tuned.compile(source));   // profile-seeded
//
// Errors travel as structured diagnostics inside Result<T>
// (support/result.h): no optional-plus-out-param, no fatal paths.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/deployment.h"
#include "api/module_handle.h"
#include "driver/offline_compiler.h"
#include "runtime/soc.h"
#include "serve/cluster_options.h"
#include "serve/server_options.h"
#include "support/result.h"

namespace svc {

/// The full, validated configuration behind an Engine: offline schedule,
/// per-target JIT options, and deployment-runtime knobs in one place.
/// Each part is the struct its layer consumes (OfflineOptions, JitOptions,
/// SocOptions, ServerOptions, ClusterOptions), so deploy() and serve()
/// hand them down whole. Assembled by Engine::Builder; read-only
/// afterwards.
struct EngineOptions {
  // Offline (imported profiles are carried separately, as an owned
  // handle -- see Engine::Builder::with_profile).
  OfflineOptions offline;
  // Per-target JIT.
  JitOptions jit;
  // Deployment runtime: tier policy, prefetch, compile pool, cache budget
  // and the persistent on-disk store (opened and validated at build();
  // see docs/PERSISTENCE.md), shared by every deployment of this engine.
  SocOptions runtime;
  // Linear memory per deployment; raised to the module's own memory hint
  // at deploy() when that is larger.
  size_t memory_bytes = size_t{1} << 20;
  // Serving layer (svc::Server) knobs, consumed by serve() in
  // serve/server.h: worker count, per-core queue depth (the
  // admission-control watermark), and the per-drain batch bound.
  ServerOptions server;
  // Sharded serving (svc::Cluster) knobs, consumed by serve_cluster() in
  // serve/cluster.h: shard count, routing policy, profile-merge cadence.
  ClusterOptions cluster;
};

/// The embeddable facade: one immutable object holding the validated
/// configuration behind compile/deploy/serve.
///
/// Thread-safety: an Engine is immutable after build(); every method is
/// const and safe to call from any thread concurrently (compiles share
/// no mutable state, deploys produce independent Deployments).
/// Lifetime: an Engine may be destroyed while its ModuleHandles,
/// Deployments, and Servers live on -- they share or own everything
/// they need.
class Engine {
 public:
  class Builder;

  /// Compiles MiniC source offline (optimization, vectorization,
  /// annotations; seeded by the imported profile when the engine was
  /// built with_profile). All diagnostics of a failed compile come back
  /// inside the Result.
  [[nodiscard]] Result<ModuleHandle> compile(std::string_view source,
                                             Statistics* stats = nullptr) const;

  /// Loads and verifies a serialized deployment image
  /// (Engine::save_bytecode / serialize_module output).
  [[nodiscard]] Result<ModuleHandle> load_bytecode(
      std::span<const uint8_t> bytes) const;

  /// Serializes a module into the deployment image format (checksummed;
  /// the bytes every device of the fleet receives).
  [[nodiscard]] static std::vector<uint8_t> save_bytecode(
      const ModuleHandle& module);

  /// Deploys `module` onto `cores` with the engine's runtime
  /// configuration: one Soc sharing one CodeCache (and, with
  /// pool_threads, one background-compile pool) across all cores.
  [[nodiscard]] Result<Deployment> deploy(const ModuleHandle& module,
                                          std::vector<CoreSpec> cores) const;

  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The profile module imported via Builder::with_profile (empty handle
  /// when none): kept alive by the engine for as long as compiles may
  /// read it.
  [[nodiscard]] const ModuleHandle& imported_profile() const {
    return profile_;
  }

 private:
  friend class Builder;
  Engine(EngineOptions options, ModuleHandle profile)
      : options_(std::move(options)), profile_(std::move(profile)) {}

  EngineOptions options_;
  ModuleHandle profile_;
};

/// Fluent, validated construction of an Engine. Setters only record; all
/// validation happens in build(), which reports every problem it finds
/// (unknown pass names, contradictory runtime knobs, ...) as one Result
/// failure.
///
/// Thread-safety: a Builder is a plain mutable value -- confine it to
/// one thread (or copy it); the Engines it builds are immutable and
/// freely shared.
class Engine::Builder {
 public:
  // --- offline schedule ---
  Builder& vectorize(bool on);
  Builder& annotate_spill_priorities(bool on);
  Builder& annotate_hardware_hints(bool on);
  Builder& pass_options(const PassOptions& options);
  /// Explicit IR pipeline ("fold,simplify,dce,vectorize,...": names from
  /// ir/ir_pipeline.h); replaces the knob-derived default schedule.
  Builder& offline_pipeline(std::string_view spec);

  // --- per-target JIT ---
  Builder& alloc_policy(AllocPolicy policy);
  Builder& use_annotations(bool on);
  /// Explicit JIT phase chain (names from jit/jit_pipeline.h; must start
  /// with "stack_to_reg").
  Builder& jit_pipeline(std::string_view spec);

  // --- deployment runtime ---
  /// Eager deployments JIT everything at deploy() (the default).
  Builder& eager();
  /// Tiered deployments interpret first and promote functions to JITed
  /// code after `promote_threshold` calls.
  Builder& tiered(uint32_t promote_threshold = 1);
  /// Tiered only: background-compile each function on its best-ranked
  /// core at deploy().
  Builder& prefetch(bool on = true);
  /// Tiered only: collect a runtime profile in the tier-0 interpreter
  /// (feeds tier2() and Deployment::export_profile()).
  Builder& profiling(bool on = true);
  /// Tiered only: re-specialize a function with profile-guided options
  /// after `threshold` JIT-served calls (0 disables tier 2).
  Builder& tier2(uint32_t threshold);
  /// Tier-0 engine selection for tiered deployments: Threaded (the
  /// default computed-goto engine, with superinstruction fusion) or
  /// Switch (the portable reference engine). Semantics are identical
  /// either way; this knob exists for benchmarking and for the
  /// differential fuzz harness, which runs both engines as cells.
  Builder& tier0_dispatch(DispatchKind kind);
  Builder& pool_threads(size_t threads);
  Builder& cache_budget(size_t bytes);
  /// Persistent on-disk code cache rooted at `path` (created if needed):
  /// JIT artifacts survive process restarts, so a second boot's
  /// Deployment::warm_up() loads code from disk instead of recompiling
  /// (near-instant; bench/warm_start.cpp measures it), and concurrent
  /// server processes on one host share one store. build() validates the
  /// path (creatable, a directory, writable) and opens the store once;
  /// every deployment of the engine shares it
  /// (options().runtime.persistent_cache). Corrupt or stale entries at
  /// run time are silent misses that recompile. See docs/PERSISTENCE.md
  /// for the format and sharing contract.
  Builder& persistent_cache(std::string_view path);
  Builder& memory_bytes(size_t bytes);

  // --- serving layer ---
  /// Knobs for svc::Server when the engine's deployments are served via
  /// serve() (serve/server.h): workers (0 = one per core), per-core
  /// queue_depth (admission-control watermark), batch_max (requests
  /// coalesced per drain). Validated at build().
  Builder& serving(const ServerOptions& options);

  /// Knobs for svc::Cluster when the engine's deployments are served as
  /// a sharded fleet via serve_cluster() (serve/cluster.h): shard count,
  /// routing policy (consistent-hash or least-loaded), virtual-node
  /// count, load-EWMA smoothing, cross-shard profile-merge cadence, and
  /// the per-shard memory initializer. Validated at build().
  Builder& cluster(const ClusterOptions& options);

  // --- feedback loop ---
  /// Imports a profile-annotated module (Deployment::export_profile or a
  /// deserialized image of one): compiles seed their schedule from the
  /// observed behavior and carry the annotations forward. The engine
  /// shares ownership, so the handle may be dropped after build().
  Builder& with_profile(ModuleHandle profiled);

  /// Validates the assembled configuration. On failure the Result lists
  /// every problem found, not just the first.
  [[nodiscard]] Result<Engine> build() const;

 private:
  EngineOptions options_;
  ModuleHandle profile_;
  std::string offline_pipeline_;
  std::string jit_pipeline_;
  std::string persistent_cache_path_;
  bool offline_pipeline_set_ = false;
  bool jit_pipeline_set_ = false;
};

}  // namespace svc
