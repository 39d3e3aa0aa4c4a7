// The workload interface of the perfbench program and the rollout
// pipeline every workload shares. A workload object's constructor is its
// set-up (timed by main, several times per run); measure() runs the
// measured phase for a given time and returns every metric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // scratch space for persistent stores
  std::string trace_file;  // Chrome trace-event JSON (trace runs only)
  bool corrupt_expected = false;
};

/// What one measured phase produced.
struct Outcome {
  Report e2e;     // the end-to-end metrics
  Report layers;  // the per-layer metrics
  // Deterministic metrics, checked for equality across phases and runs.
  std::map<std::string, double> deterministic;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the measured phase for `seconds`; spans go to `tracer` when it
  /// is enabled (and only then are the per-layer probes run).
  virtual Outcome measure(double seconds, Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_rollout(const Options& options, Ledger& ledger);
std::unique_ptr<Workload> make_serve_hot(const Options& options, Ledger& ledger);
std::unique_ptr<Workload> make_serve_tierup(const Options& options,
                                            Ledger& ledger);

// ------------------------------------------------------------ rollout --

/// One core per ISA: the targets every rollout deploys to and every JIT
/// probe compiles for.
std::vector<svc::CoreSpec> isa_cores();

/// Totals of the oracle-checked runs of one deployment.
struct RunTotals {
  uint64_t runs = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t spill_loads = 0;
  double seconds = 0.0;  // calling-thread CPU time inside the run calls
};

/// Runs a module's requests on a deployment and checks each against the
/// oracle (value, trap kind, final memory), reporting mismatches to the
/// ledger. `parent` is the span the run spans hang under.
using CheckedRuns =
    std::function<void(svc::Deployment&, RunTotals&, Tracer&, uint64_t parent)>;

/// The offline -> image -> online path of one module, timed step by step
/// on the calling thread's CPU clock:
///   1. Engine::compile
///   2. save_bytecode -> load_bytecode
///   3. cold eager deploy, in memory
///   4. the oracle-checked runs
///   5. a second cold deploy that writes a fresh persistent store (skipped
///      when the caller gives a shared store already holding the code)
///   6. load_bytecode + warm redeploy from the store (0 compiles, checked)
///      and its oracle-checked runs
/// Traced rollouts also time JitCompiler::compile for every function on
/// every ISA and run the module once more at tier 0.
class RolloutPipeline {
 public:
  /// Fresh per-module stores go under `store_root`. A non-empty
  /// `warm_store` names a store the caller has populated with the code
  /// of every module it will roll out.
  RolloutPipeline(std::string store_root, Ledger& ledger,
                  const std::string& warm_store = {});

  /// Rolls out `source` onto `cores`. `fixed` marks the modules whose
  /// sizes, code and cycles form the deterministic metrics; `module`
  /// names the module, so repeated rollouts of it can be grouped.
  void run(const std::string& source, const std::vector<svc::CoreSpec>& cores,
           const CheckedRuns& runs, bool fixed, uint64_t module, Tracer& tracer);

  struct Stats {
    Samples offline_ms, online_ms, warm_online_ms, tier1_ms, latency_us;
    Samples save_us, load_us, deploy_overhead_us, jit_compile_us;
    Samples store_deploy_ms;
    std::map<uint64_t, Samples> online_ms_by_module;
    svc::Statistics offline;  // compile stats, all modules
    svc::Statistics jit;      // cold-deploy JIT stats, one core per ISA
    svc::Statistics cache;    // cache counters of cold + warm deploys
    RunTotals runs;           // cold checked runs, all modules
    RunTotals tier0;          // traced tier-0 runs
    double cpu_s = 0.0;       // rollout time summed over modules
    uint64_t good = 0;        // modules correct within the latency limit
    // Deterministic, over the fixed modules only.
    uint64_t image_bytes = 0;
    uint64_t code_bytes = 0;
    RunTotals fixed_runs;
    svc::Statistics fixed_offline;
    svc::Statistics fixed_jit;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::string store_root_;
  Ledger& ledger_;
  svc::Engine compiler_;
  svc::Engine tier0_;
  std::optional<svc::Engine> warm_engine_;
  uint64_t next_store_ = 0;
  Stats stats_;
};

/// Adds the rollout-derived end-to-end metrics (offline/online/warm
/// deploy times, time to tier 1, image and code bytes) and the
/// compile-side per-layer metrics to `out`.
void report_rollout(const RolloutPipeline::Stats& s, Outcome& out);

/// Adds the code-cache counters (cache.*, cache.hit_ratio, jit.compiles).
void report_cache(const svc::Statistics& cache, Report& l);

}  // namespace perfbench
