// Simulated heterogeneous SoC (the paper's S3 scenario): a set of cores of
// different target kinds sharing one linear memory, each running its own
// per-ISA JIT over the *same* deployed bytecode module. Accelerator cores
// (spusim) reach memory through a DMA model whose cost the scheduler
// charges explicitly -- the stand-in for the Cell local-store transfers.
//
// Code management is shared: one thread-safe CodeCache (and, optionally,
// one background-compile ThreadPool) spans all cores, so cores of the same
// TargetKind + JitOptions reuse JIT artifacts instead of recompiling --
// load()'s compile count drops from O(cores x functions) to
// O(kinds x functions). Tiered mode starts interpreting immediately and
// warms up in the background; prefetch applies the paper's
// annotations-drive-mapping story to warm-up, background-compiling each
// function only on its top-ranked core (mapper.h rank_cores).
#pragma once

#include <memory>
#include <vector>

#include "driver/online_compiler.h"
#include "runtime/code_cache.h"
#include "support/thread_pool.h"

namespace svc {

struct CoreSpec {
  TargetKind kind;
  bool is_accelerator = false;  // memory reached via DMA
};

/// Runtime configuration of a Soc; JIT options are passed separately,
/// as they are to OnlineTarget.
struct SocOptions {
  // Tier mode, thresholds, profiling and tier-0 engine, handed to every
  // core unchanged.
  TierPolicy tiers;
  // Tiered warm-up prefetch: at load, background-compile each function on
  // its top-ranked core per the HardwareHints annotations (no-op in eager
  // mode, where everything compiles anyway).
  bool prefetch = false;
  // Background compile workers; 0 = no pool, tier-up compiles run
  // synchronously at the promotion threshold.
  size_t pool_threads = 0;
  // Shared-cache resident-code budget (LRU eviction above it).
  size_t cache_budget_bytes = SIZE_MAX;
  // The persistent on-disk artifact store (second level under the shared
  // CodeCache); null = in-memory only. Shared, not opened per Soc: every
  // deployment of an Engine uses the one store Engine::Builder::build()
  // opened and validated, and a raw Soc user opens one with
  // PersistentCache::open. One directory may also be shared by
  // concurrent processes on a host -- see runtime/persistent_cache.h and
  // docs/PERSISTENCE.md.
  std::shared_ptr<const PersistentCache> persistent_cache;
};

class Soc {
 public:
  Soc(std::vector<CoreSpec> cores, size_t memory_bytes, JitOptions jit = {},
      SocOptions options = {});

  /// Loads `module` on every core through the shared cache. The module is
  /// verified once here, for all cores; an invalid one is reported
  /// through the Result and no core loads it (each keeps what it had);
  /// eager
  /// mode compiles every function per *kind* now, tiered mode defers to
  /// run_on and -- with options.prefetch -- enqueues one background
  /// compile per function on its best core.
  ///
  /// Ownership: the Soc and its cores share ownership of the module (the
  /// shared cache keys artifacts by the module's stable id), so dropping
  /// every external handle is safe while the Soc lives. Pass
  /// borrow_module(m) to keep managing the lifetime yourself. The module
  /// must not be mutated after loading.
  [[nodiscard]] Result<void> load_module(std::shared_ptr<const Module> module);

  [[nodiscard]] size_t num_cores() const { return cores_.size(); }
  [[nodiscard]] const CoreSpec& core_spec(size_t c) const { return specs_[c]; }
  [[nodiscard]] OnlineTarget& core(size_t c) { return *cores_[c]; }
  [[nodiscard]] const OnlineTarget& core(size_t c) const { return *cores_[c]; }
  [[nodiscard]] Memory& memory() { return memory_; }
  [[nodiscard]] const Module* module() const { return module_.get(); }
  [[nodiscard]] const SocOptions& options() const { return options_; }

  /// The cache shared by every core's JIT.
  [[nodiscard]] CodeCache& code_cache() { return cache_; }
  [[nodiscard]] const CodeCache& code_cache() const { return cache_; }

  /// Background compile pool, or nullptr when options.pool_threads == 0.
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }

  /// The tier-0 pre-decoded-stream cache shared by every core's
  /// interpreter (pre-decoding is target-independent, so one lowering
  /// serves all ISAs).
  [[nodiscard]] PredecodeCache& predecode_cache() { return predecode_; }

  /// The JIT translations shared by every core's compiler: each function
  /// is translated once for all ISAs, on its first code-cache miss.
  [[nodiscard]] TranslationMemo& translations() { return translations_; }

  /// Blocks until every in-flight background compile has finished.
  void wait_warmup();

  /// Runtime profile merged across every core (empty unless
  /// options.tiers.profile). One SoC-wide view: the cores execute the same
  /// module, so per-function records simply accumulate. Safe to call
  /// concurrently with run_on: each core's contribution is snapshotted
  /// under that core's lock, so the merge sees a consistent per-core
  /// state (concurrent calls still being served land in a later
  /// snapshot).
  [[nodiscard]] ProfileData profile() const;

  /// Installs an external baseline profile on every core
  /// (OnlineTarget::seed_profile): tier-2 re-specialization then derives
  /// from own + seed, while profile() keeps reporting own observations
  /// only. This is how a svc::Cluster makes each shard specialize for
  /// aggregate fleet traffic. Replaces any previous seed; thread-safe.
  void seed_profile(const ProfileData& seed);

  /// Copy of the loaded module carrying the merged profile as Profile
  /// annotations -- what a deployed SoC ships back to the offline tuner
  /// (serialize it like any deployment image). Same concurrency contract
  /// as profile(); must not race with load_module.
  [[nodiscard]] Module export_profiled_module() const;

  /// Runs `name` synchronously on core `c`. Concurrent calls are safe --
  /// each core serializes its own tiered bookkeeping under its lock --
  /// but all cores execute against the one shared linear memory:
  /// concurrent requests must touch disjoint (or read-only) regions, or
  /// the caller must serialize them (the serving layer in serve/server.h
  /// serializes per core and routes each function to one core).
  /// `step_budget` bounds a single execution (interpreter steps or
  /// simulated instructions, whichever serves the call); exceeding it
  /// returns a StepBudgetExceeded trap instead of running forever. The
  /// default matches OnlineTarget::run's.
  [[nodiscard]] SimResult run_on(size_t c, std::string_view name,
                                 const std::vector<Value>& args,
                                 uint64_t step_budget = kDefaultStepBudget);

  /// Index-taking spelling for callers that already resolved the
  /// function (the serving layer's per-request path); same concurrency
  /// contract. `func_idx` must be < the module's function count.
  [[nodiscard]] SimResult run_on(size_t c, uint32_t func_idx,
                                 const std::vector<Value>& args,
                                 uint64_t step_budget = kDefaultStepBudget);

  /// DMA cost (cycles) for moving `bytes` to or from an accelerator.
  [[nodiscard]] uint64_t dma_cycles(uint64_t bytes) const {
    return dma_setup_cycles_ + bytes / dma_bytes_per_cycle_;
  }

  void set_dma_model(uint64_t setup_cycles, uint64_t bytes_per_cycle) {
    dma_setup_cycles_ = setup_cycles;
    dma_bytes_per_cycle_ = bytes_per_cycle;
  }

  /// The on-disk artifact store behind the shared cache, or nullptr when
  /// options.persistent_cache is null.
  [[nodiscard]] const PersistentCache* persistent_cache() const {
    return options_.persistent_cache.get();
  }

 private:
  // Engine::deploy loads a module its ModuleHandle records as verified.
  friend class Engine;
  /// load_module without the verification, for a module that passed it.
  void load_verified_module(std::shared_ptr<const Module> module);

  // Destruction order matters: options_ (which holds the persistent
  // store the cache borrows) precedes cache_, and cores_ is declared
  // after cache_/pool_ so it is destroyed first -- each ~OnlineTarget
  // drains its in-flight compile jobs while the pool workers and the
  // cache are still alive.
  SocOptions options_;
  CodeCache cache_;
  // Shared across cores like cache_ (declared before cores_ for the same
  // destruction-order reason).
  PredecodeCache predecode_;
  TranslationMemo translations_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<CoreSpec> specs_;
  std::vector<std::unique_ptr<OnlineTarget>> cores_;
  Memory memory_;
  std::shared_ptr<const Module> module_;
  uint64_t dma_setup_cycles_ = 200;
  uint64_t dma_bytes_per_cycle_ = 8;
};

}  // namespace svc
