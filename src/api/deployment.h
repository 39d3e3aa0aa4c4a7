// Deployment: one module running on one (possibly heterogeneous) set of
// cores -- the runtime half of the embeddable API (api/svc.h). Produced
// by Engine::deploy; wraps the Soc runtime (shared CodeCache, background
// JIT, tiered execution, profiling) behind a handle an embedder can hold
// without knowing any of those types exist.
//
// The deployment shares ownership of its module, so it stays valid after
// the Engine and every external ModuleHandle are gone. Move-only.
//
// Thread-safety: run, run_on, warm_up, wait_warmup and every counter
// accessor (tier_counters, cache_stats, export_profile) are safe to call
// concurrently from any number of threads. The one shared-state caveat
// is the deployment's linear memory: all cores execute against it, so
// concurrent runs must touch disjoint (or read-only) regions -- or go
// through svc::Server (serve/server.h), which serializes per core and
// routes each function to one core. Destruction blocks until in-flight
// warm_up jobs have finished; moving a Deployment does not invalidate
// anything (the Soc itself never moves).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "api/module_handle.h"
#include "runtime/soc.h"
#include "support/result.h"

namespace svc {

class Deployment {
 public:
  Deployment(Deployment&&) noexcept = default;
  Deployment& operator=(Deployment&& other) noexcept;

  /// Blocks until every warm_up() job still in flight has finished (so
  /// background jobs never outlive the Soc they warm).
  ~Deployment();

  /// Runs `name` on the core the annotation-driven mapper ranks best for
  /// it (runtime/mapper.h) -- the paper's "annotations drive mapping"
  /// story as the default call path. Fails on an unknown function name.
  [[nodiscard]] Result<SimResult> run(std::string_view name,
                                      const std::vector<Value>& args);

  /// Runs `name` on core `core`. Fails on an out-of-range core or an
  /// unknown function name. `step_budget` bounds the execution: past it
  /// the run returns a StepBudgetExceeded trap instead of looping
  /// forever (the differential fuzz harness leans on this to keep
  /// runaway reduction candidates cheap).
  [[nodiscard]] Result<SimResult> run_on(
      size_t core, std::string_view name, const std::vector<Value>& args,
      uint64_t step_budget = kDefaultStepBudget);

  /// Asynchronously compiles every function on every core (through the
  /// shared cache, so same-ISA cores coalesce). The returned future
  /// completes when the deployment is fully warm: every subsequent run is
  /// served by JITed code. Ready immediately for eager deployments.
  ///
  /// With Engine::Builder::persistent_cache() configured, warm-up
  /// prefers disk: every function already persisted by a previous boot
  /// (or another process sharing the store) installs from its on-disk
  /// artifact without invoking the JIT, making a second boot's warm-up
  /// near-instant -- cache_stats() then reports cache.disk_hits and
  /// zero cache.compiles (bench/warm_start.cpp measures the win).
  ///
  /// Concurrency contract: safe to call from any thread, concurrently
  /// with run/run_on and with other warm_up calls. The deployment keeps
  /// its own handle on every job it launches and its destructor waits
  /// them out, so the returned future may be dropped -- or waited on
  /// even after the Deployment is gone (by then it is already ready).
  /// The future is satisfied by a deferred forwarder: get()/wait() work
  /// as usual, but wait_for/wait_until report future_status::deferred
  /// until first waited.
  [[nodiscard]] std::future<void> warm_up();

  /// Blocks until in-flight background compiles are done (cheap synonym
  /// for warm_up().wait() when no new compile requests are wanted).
  void wait_warmup();

  /// Calls served per tier (TierCounters, driver/online_compiler.h),
  /// summed over all cores. Safe concurrently with run: each core's
  /// counters are one snapshot under its lock.
  [[nodiscard]] TierCounters tier_counters() const;

  /// The same counters for one core shard -- per-core visibility for the
  /// serving layer's stats. Fails on an out-of-range core.
  [[nodiscard]] Result<TierCounters> tier_counters_on(size_t core) const;

  /// Shared code-cache counters: cache.hits, cache.misses,
  /// cache.compiles, cache.coalesced, cache.evictions, cache.bytes.
  [[nodiscard]] Statistics cache_stats() const;

  [[nodiscard]] size_t num_cores() const;

  /// The deployment's linear memory (shared by all cores).
  [[nodiscard]] Memory& memory();

  /// The deployed module (shared ownership).
  [[nodiscard]] const ModuleHandle& module() const { return module_; }

  /// Copy of the deployed module carrying the runtime profile observed so
  /// far (merged across cores) as Profile annotations: feed it straight
  /// back into Engine::Builder::with_profile() -- or serialize it -- to
  /// close the compile -> deploy -> profile -> recompile loop. Meaningful
  /// when the engine was built with profiling(); otherwise the annotations
  /// are empty.
  ///
  /// Concurrency contract: safe to call while traffic is running (and
  /// while warm_up is in flight). Each core's profile is snapshotted
  /// under that core's lock, then merged; calls that are mid-execution
  /// when the snapshot is taken land in a later export. Every call
  /// returns a freshly annotated copy of the module.
  [[nodiscard]] ModuleHandle export_profile() const;

  /// Escape hatch to the underlying runtime for callers that need
  /// per-core control (request_compile, DMA model, ...). The Soc is owned
  /// by this Deployment; everything reachable from it follows the
  /// Deployment's lifetime.
  [[nodiscard]] Soc& soc() { return *soc_; }
  [[nodiscard]] const Soc& soc() const { return *soc_; }

 private:
  friend class Engine;
  Deployment(std::unique_ptr<Soc> soc, ModuleHandle module)
      : soc_(std::move(soc)), module_(std::move(module)) {}

  /// Handles on the warm_up jobs launched so far, so destruction (and
  /// move-assignment over a live deployment) can wait them out instead
  /// of leaving a background job with a dangling Soc*. Behind a
  /// unique_ptr so the Deployment stays movable; null only in a
  /// moved-from husk.
  struct WarmupJobs {
    std::mutex mu;
    std::vector<std::shared_future<void>> jobs;
  };
  void wait_pending_warmups();

  std::unique_ptr<Soc> soc_;
  ModuleHandle module_;
  std::unique_ptr<WarmupJobs> warmups_ = std::make_unique<WarmupJobs>();
};

}  // namespace svc
