// A deployed target: the device-side pairing of a JIT compiler and its
// simulated core, run as a *tiered* runtime. Each function has two slots,
// tier 1 (the fast JIT) and tier 2 (the profile-guided recompile), each
// requested -> pending -> installed into the target's one code image.
// Eager mode requests every tier-1 slot during load; tiered mode starts
// executing immediately in the reference interpreter (tier 0) and requests
// a function once it is called promote_threshold times, compiling in the
// background through an optional CodeCache and ThreadPool. This is what
// "shipping the same bytecode to three machines" looks like when the
// machines also have to start up fast.
//
// The runtime also observes itself: with tiers.profile the tier-0
// interpreter collects ProfileData (calls, branch bias, trip counts,
// vector widths), and with tiers.tier2_threshold > 0 functions hot at
// tier 1 request their tier-2 slot -- the JIT re-runs with profile-derived
// options (runtime/profile_guided.h) and the tier-2 artifact replaces the
// tier-1 code copy-on-write, so in-flight executions keep their snapshot
// of the image. export_profiled_module() hands the observations back to
// the offline side. Results are bit-identical across all tiers.
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
  // The JIT's target-neutral translations, shared the same way: with one
  // memo across a Soc, each function is translated once for every core
  // (JitCompiler::compile). Without one the target keeps a private memo.
  TranslationMemo* translations = nullptr;
};

/// Calls served per tier since load, one snapshot taken under one lock:
/// `interpreted` by tier 0, `jitted` by JITed code (tier 1 or 2), `tier2`
/// by a tier-2 re-specialized artifact (a subset of `jitted`), plus the
/// number of functions with a tier-2 artifact installed. Eager targets run
/// the same state machine, so every call they serve counts as `jitted`.
/// Deployment sums it over cores.
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
      : desc_(target_desc(kind)),
        tier1_(desc_, std::move(options)),
        config_(config) {}

  /// Blocks until every background compile this target enqueued has
  /// finished: in-flight jobs capture `this`, so they must not outlive it.
  /// (The shared pool itself is the caller's to destroy.)
  ~OnlineTarget();

  [[nodiscard]] const MachineDesc& desc() const { return desc_; }
  [[nodiscard]] const JitOptions& options() const {
    return tier1_.jit.options();
  }
  [[nodiscard]] LoadMode mode() const { return config_.tiers.mode; }
  /// JIT counters of the installed code, summed over every installed
  /// artifact (a tier-1 artifact a tier-2 one replaced included) when
  /// called, and the sum of those artifacts' compile_seconds (a cache hit
  /// reports the time its artifact took to compile). Snapshots taken
  /// under the target's lock, so safe while tier-up installs more code.
  [[nodiscard]] Statistics jit_stats() const;
  [[nodiscard]] double jit_seconds() const;
  /// Snapshot of the code image, one slot per function (null until that
  /// function's tier-1 slot installs), taken under the lock. A tier-2
  /// install swaps in a new image, so the snapshot's installed slots never
  /// change; a later tier-1 install fills an empty slot in place, so read
  /// a slot only once jit_ready() says it is installed.
  [[nodiscard]] std::shared_ptr<const CodeImage> code() const;

  /// Verifies `module` and prepares it for execution: eager mode requests
  /// and installs every function's tier-1 slot now, on the calling thread;
  /// tiered mode defers to run()/request_compile(). An invalid module is
  /// reported through the Result (never executed, never fatal); the target
  /// keeps its previous module in that case.
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
  /// ran); results are bit-identical across tiers. Thread-safe for
  /// concurrent callers on disjoint memory.
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

  /// Requests the tier-1 slot of `func_idx` and every function it can
  /// reach -- a background (or, without a pool, immediate) compile --
  /// without running anything. Used by Soc warm-up prefetch; requesting an
  /// already-requested slot (every slot, in eager mode) does nothing.
  void request_compile(uint32_t func_idx);

  /// True when the next run() of `func_idx` executes JITed code, i.e. its
  /// whole reachable set has tier 1 installed; false for an index out of
  /// range. Polls pending compiles, so a false result may turn true
  /// moments later.
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

  /// Total emitted code size of the installed artifacts (deployment
  /// footprint per target).
  [[nodiscard]] size_t code_bytes() const;

 private:
  // One tier of one function. `pending` is set while a background compile
  // is in flight; a compile without a pool installs straight away.
  struct TierSlot {
    bool requested = false;
    CodeCache::Artifact installed;  // null until installed
    std::shared_future<CodeCache::Artifact> pending;
  };

  struct FuncState {
    uint32_t calls = 0;
    // Calls answered by JITed code; drives the tier-2 request.
    uint32_t jit_calls = 0;
    // tiers[0] is tier 1, tiers[1] is tier 2.
    std::array<TierSlot, 2> tiers;
    // This function plus its transitive callees: everything the simulator
    // may execute when the function runs, so everything that must have
    // tier 1 installed before the function is served from JITed code.
    std::vector<uint32_t> reachable;
  };

  // A JIT compiler and its cache key, computed once: the target's own for
  // tier 1, and one per request for tier 2's profile-derived options.
  struct Compiler {
    Compiler(const MachineDesc& desc, JitOptions options)
        : jit(desc, std::move(options)),
          options_key(jit.options().cache_key()) {}
    JitCompiler jit;
    std::string options_key;
  };

  // Soc::load_module verifies the module once for all its cores.
  friend class Soc;
  void load_verified_module(std::shared_ptr<const Module> module);
  [[nodiscard]] CodeCache::Artifact compile(const Compiler& compiler,
                                            uint32_t func_idx, uint32_t tier,
                                            uint64_t profile_hash) const;
  void drain_pending();
  void request_locked(uint32_t func_idx, uint32_t tier, ThreadPool* pool);
  void poll_locked(uint32_t func_idx, uint32_t tier);
  void install_locked(uint32_t func_idx, uint32_t tier,
                      CodeCache::Artifact artifact);
  [[nodiscard]] bool tier1_ready_locked(uint32_t func_idx);
  [[nodiscard]] SimResult interpret(uint32_t func_idx,
                                    const std::vector<Value>& args,
                                    Memory& memory, uint64_t step_budget);

  const MachineDesc& desc_;
  const Compiler tier1_;
  Config config_;
  std::shared_ptr<const Module> module_;
  // Fallback tier-0 stream cache when config_.predecode is not set.
  PredecodeCache predecode_;
  // Fallback translation memo when config_.translations is not set;
  // thread-safe, so compile() may fill it from const context.
  mutable TranslationMemo translations_;
  // Everything below is guarded by mutex_.
  mutable std::mutex mutex_;
  std::vector<FuncState> states_;
  // The one code image; run() grabs the shared_ptr under the lock and
  // executes outside it. A slot points into the installed JitArtifact and
  // shares its ownership (with the CodeCache), so installs copy no code. Tier-1 installs write their slot in place --
  // safe, because they only fill entries no in-flight run can reach yet
  // (serving from JITed code requires the whole reachable set installed).
  // Tier-2 installs *replace* already-observed entries, so they
  // copy-on-write: a fresh vector of pointers is swapped in and runs in
  // flight keep executing the image they started with.
  std::shared_ptr<CodeImage> image_ = std::make_shared<CodeImage>();
  ProfileData profile_;
  // External baseline merged into tier-2 derivation only (seed_profile);
  // excluded from profile() so cross-collector merges stay exact.
  ProfileData seed_profile_;
  TierCounters counters_;
};

}  // namespace svc
