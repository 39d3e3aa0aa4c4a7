// A deployed target: the device-side pairing of a JIT compiler and its
// simulated core, run as a *tiered* runtime. Eager mode keeps the original
// install-time behavior (load JIT-compiles every function before the first
// instruction runs); tiered mode starts executing immediately in the
// reference interpreter (tier 0) and promotes a function to its JITed
// artifact (tier 1) once a background compile -- shared through an
// optional CodeCache and ThreadPool -- has finished. This is what
// "shipping the same bytecode to three machines" looks like when the
// machines also have to start up fast.
//
// The runtime also observes itself: with tiers.profile the tier-0
// interpreter collects ProfileData (calls, branch bias, trip counts,
// vector widths), and with tiers.tier2_threshold > 0 functions hot at
// tier 1 are *re*-specialized -- the JIT re-runs with profile-derived
// options (runtime/profile_guided.h) and the tier-2 artifact replaces the
// tier-1 code under a copy-on-write code image, so in-flight executions
// keep their snapshot. export_profiled_module() hands the observations
// back to the offline side. Results are bit-identical across all tiers.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "bytecode/module.h"
#include "jit/jit_compiler.h"
#include "runtime/code_cache.h"
#include "support/result.h"
#include "support/thread_pool.h"
#include "targets/simulator.h"
#include "targets/target_registry.h"
#include "vm/interpreter.h"
#include "vm/predecode.h"
#include "vm/profile.h"

namespace svc {

/// How a target materializes machine code for a loaded module.
enum class LoadMode : uint8_t {
  Eager,   // JIT every function during load() (the classic behavior)
  Tiered,  // interpret first, promote to JITed code once compiled
};

/// Deterministic tier-0 cost model: one interpreted bytecode step costs
/// this many "cycles", so cold-start numbers are comparable to simulated
/// machine cycles and stable across hosts (bench/warmup_throughput.cpp).
inline constexpr uint64_t kInterpreterCyclesPerStep = 8;

/// How a deployed runtime tiers code: the knobs every layer above
/// (OnlineTarget, Soc, Engine) shares, declared once here and passed
/// down by value.
struct TierPolicy {
  LoadMode mode = LoadMode::Eager;
  // Calls of a function before its JIT compile is requested.
  uint32_t promote_threshold = 1;
  // Tier-0 runtime profiling (tiered mode only): the interpreter records
  // per-function ProfileData, merged under the target's lock. Feeds
  // tier-2 re-specialization and export_profiled_module().
  bool profile = false;
  // Calls served by JITed code before the profile-guided optimizing
  // recompile (tier 2) of that function is requested; 0 disables tier 2.
  uint32_t tier2_threshold = 0;
  // Tier-0 engine selection, forwarded to every interpreter the runtime
  // creates. The default is the production engine; differential tests
  // and the fuzz harness (src/fuzz) flip it to compare engines (results
  // are bit-identical either way -- see vm/interpreter.h).
  DispatchKind tier0_dispatch = DispatchKind::Threaded;
};

/// Tiered-runtime wiring for one OnlineTarget. `cache` and `pool` are
/// optional and shared (typically owned by a Soc): without a pool, tier-up
/// compiles run synchronously at the promotion threshold; without a cache,
/// artifacts are private to the target.
struct OnlineTargetConfig {
  TierPolicy tiers;
  CodeCache* cache = nullptr;
  ThreadPool* pool = nullptr;
  // Pre-decoded tier-0 stream cache shared across targets (pre-decoding
  // is target-independent, so a Soc shares one across all its cores the
  // way it shares the CodeCache). Without one the target keeps a private
  // cache, so streams are still lowered once per deployment rather than
  // once per call.
  PredecodeCache* predecode = nullptr;
};

/// Calls served per tier since load, one snapshot taken under one lock:
/// `interpreted` by tier 0, `jitted` by JITed code (tier 1 or 2), `tier2`
/// by a tier-2 re-specialized artifact (a subset of `jitted`), plus the
/// number of functions with a tier-2 artifact installed. Eager targets do
/// no tier bookkeeping and report zeros. Deployment sums it over cores.
struct TierCounters {
  uint64_t interpreted = 0;
  uint64_t jitted = 0;
  uint64_t tier2 = 0;
  uint64_t tier2_functions = 0;
};

class OnlineTarget {
 public:
  using Config = OnlineTargetConfig;

  explicit OnlineTarget(TargetKind kind, JitOptions options = {},
                        Config config = {})
      : desc_(target_desc(kind)), jit_(desc_, options), config_(config) {}

  /// Blocks until every background compile this target enqueued has
  /// finished: in-flight jobs capture `this`, so they must not outlive it.
  /// (The shared pool itself is the caller's to destroy.)
  ~OnlineTarget();

  [[nodiscard]] const MachineDesc& desc() const { return desc_; }
  [[nodiscard]] const JitOptions& options() const { return jit_.options(); }
  [[nodiscard]] LoadMode mode() const { return config_.tiers.mode; }
  /// JIT counters and compile time of the installed code. Snapshots taken
  /// under the target's lock, so safe while tier-up installs more code.
  [[nodiscard]] Statistics jit_stats() const;
  [[nodiscard]] double jit_seconds() const;
  [[nodiscard]] const std::vector<MFunction>& code() const { return code_; }

  /// Verifies `module` and prepares it for execution: eager mode
  /// JIT-compiles every function now, tiered mode defers to
  /// run()/request_compile(). An invalid module is reported through the
  /// Result (never executed, never fatal); the target keeps its previous
  /// module in that case.
  ///
  /// Ownership: the target shares ownership of the module, so it stays
  /// alive as long as any target, Soc, Deployment, or ModuleHandle
  /// references it; the shared CodeCache keys artifacts by the module's
  /// stable id. Callers that manage the lifetime themselves can pass
  /// borrow_module(m) and keep the old outlives-the-target contract. The
  /// module must not be mutated after loading.
  [[nodiscard]] Result<void> load_module(std::shared_ptr<const Module> module);

  /// Runs a loaded function by name on `memory`. In tiered mode the call
  /// is served by the interpreter until the function and everything it
  /// can call have installed JITed code (result.tier tells which tier
  /// ran); results are bit-identical across tiers. Thread-safe in
  /// tiered mode for concurrent callers on disjoint memory.
  [[nodiscard]] SimResult run(std::string_view name,
                              const std::vector<Value>& args, Memory& memory,
                              uint64_t step_budget = kDefaultStepBudget);

  /// Index-taking spelling of run() for callers that already resolved
  /// (and bounds-checked) the function -- the serving layer's hot path,
  /// which would otherwise pay a by-name lookup per request. `func_idx`
  /// must be < the module's function count.
  [[nodiscard]] SimResult run(uint32_t func_idx,
                              const std::vector<Value>& args, Memory& memory,
                              uint64_t step_budget = kDefaultStepBudget);

  /// Requests the background (or, without a pool, immediate) compile of
  /// `func_idx` and every function it can reach, without running anything.
  /// Used by Soc warm-up prefetch; no-op in eager mode.
  void request_compile(uint32_t func_idx);

  /// True when the next run() of `func_idx` executes JITed code. Polls
  /// pending compiles, so a false result may turn true moments later.
  [[nodiscard]] bool jit_ready(uint32_t func_idx);

  /// Snapshot of the per-tier call counters (see TierCounters).
  /// Thread-safe; consistent with concurrent run() calls.
  [[nodiscard]] TierCounters tier_counters() const;

  /// Snapshot of the runtime profile collected so far (empty unless the
  /// target runs tiered with tiers.profile). Own observations only: an
  /// externally seeded baseline (seed_profile) is never included, so
  /// merging targets' profiles across cores, Socs, or cluster shards
  /// never double-counts.
  [[nodiscard]] ProfileData profile() const;

  /// Installs an external baseline profile -- typically the fleet-wide
  /// merge a svc::Cluster computed over its *other* shards
  /// (merge_profiles in vm/profile.h). Tier-2 re-specialization derives
  /// its options from own + seed, so a function promoted here is
  /// specialized for aggregate fleet traffic rather than this target's
  /// slice; profile() and export_profiled_module() keep reporting own
  /// observations only. Replaces any previous seed. Thread-safe.
  void seed_profile(const ProfileData& seed);

  /// Copy of the loaded module with the collected profile attached as
  /// Profile annotations -- the export half of the feedback loop; feed it
  /// to serialize_module() and, offline, to tune_with_profile() or
  /// OfflineOptions::profile.
  [[nodiscard]] Module export_profiled_module() const;

  /// Total emitted code size (deployment footprint per target). In tiered
  /// mode: installed artifacts only.
  [[nodiscard]] size_t code_bytes() const;

 private:
  struct FuncState {
    uint32_t calls = 0;
    bool requested = false;
    bool installed = false;
    std::shared_future<CodeCache::Artifact> pending;
    // Calls answered by JITed code; drives the tier-2 promotion.
    uint32_t jit_calls = 0;
    bool tier2_requested = false;
    bool tier2_installed = false;
    std::shared_future<CodeCache::Artifact> tier2_pending;
    // This function plus its transitive callees: everything the simulator
    // may execute when the function runs, so everything that must be
    // installed before tier-up.
    std::vector<uint32_t> reachable;
  };

  [[nodiscard]] CodeCache::Artifact compile_artifact(uint32_t func_idx) const;
  void drain_pending();
  void request_compile_locked(uint32_t func_idx);
  void request_tier2_locked(uint32_t func_idx);
  void poll_install_locked(uint32_t func_idx);
  void poll_tier2_locked(uint32_t func_idx);
  void install_locked(uint32_t func_idx, const JitArtifact& artifact);
  void install_tier2_locked(uint32_t func_idx, const JitArtifact& artifact);
  [[nodiscard]] SimResult interpret(uint32_t func_idx,
                                    const std::vector<Value>& args,
                                    Memory& memory, uint64_t step_budget);

  const MachineDesc& desc_;
  JitCompiler jit_;
  Config config_;
  std::shared_ptr<const Module> module_;
  std::vector<MFunction> code_;
  Statistics jit_stats_;
  double jit_seconds_ = 0.0;
  // Tiered-mode state; guarded by mutex_ (eager mode is immutable after
  // load and needs no locking on the run path).
  mutable std::mutex mutex_;
  std::vector<FuncState> states_;
  // The code image handed to the simulator in tiered mode; run() grabs
  // the shared_ptr under the lock and executes outside it. Tier-1
  // installs write its slots in place -- safe, because they only fill
  // entries no in-flight run can reach yet (promotion requires the whole
  // reachable set installed). Tier-2 installs *replace* already-observed
  // entries, so they copy-on-write: a fresh vector is swapped in and runs
  // in flight keep executing the image they started with.
  std::shared_ptr<std::vector<MFunction>> image_;
  // Fallback tier-0 stream cache when config_.predecode is not set.
  PredecodeCache predecode_;
  ProfileData profile_;
  // External baseline merged into tier-2 derivation only (seed_profile);
  // excluded from profile() so cross-collector merges stay exact.
  ProfileData seed_profile_;
  TierCounters counters_;
};

}  // namespace svc
