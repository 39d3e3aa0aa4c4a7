// Tier-0 dispatch-engine comparison: the reference switch interpreter vs
// the pre-decoded computed-goto engine, with and without superinstruction
// fusion, measured as steady-state interpreted steps per wall second.
//
// The workload is the Table 1 kernel suite run the way a tiered
// deployment serves a cold call (OnlineTarget::interpret): a fresh
// Interpreter per call over one persistent PredecodeCache, so streams are
// lowered once and every timed call is pure dispatch. Tier-0 execution is
// target-independent, so no ISA is involved; instead the whole engine
// sweep is repeated kTrials times, engines interleaved within a trial,
// and the JSON reports the median trial per engine.
//
// Before timing, the first rounds of every engine are checked bit-for-bit
// (result value and dynamic step count, which fixes the simulated cycles)
// against the switch engine; any divergence aborts, which makes this
// bench the perf smoke test registered in ctest. Results land in
// BENCH_interp.json (bench_report in bench_util.h) so the tier-0 perf
// trajectory is recorded across PRs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace svc;
using namespace svc::bench;

constexpr int kElems = 1024;     // elements per kernel invocation
constexpr int kVerifyRounds = 2; // bit-checked rounds before timing
constexpr double kMinWindowSec = 0.15;  // per (trial, engine) window
constexpr int kTrials = 3;       // repeated engine sweeps

struct EngineSpec {
  const char* name;      // table / JSON label
  DispatchKind dispatch;
  bool fusion;
};

constexpr EngineSpec kEngines[] = {
    {"switch", DispatchKind::Switch, false},
    {"threaded", DispatchKind::Threaded, false},
    {"threaded_fused", DispatchKind::Threaded, true},
};

Module build_suite() {
  Module suite;
  suite.set_name("interp_dispatch_suite");
  for (const KernelInfo& k : table1_kernels()) {
    Module m = value_or_die(compile_module(k.source));
    suite.add_function(m.function(0));
  }
  return suite;
}

/// One observation of a kernel call, compared bit-for-bit across engines.
struct RoundResult {
  Value value;
  uint64_t steps = 0;

  friend bool operator==(const RoundResult& a, const RoundResult& b) {
    return a.value == b.value && a.steps == b.steps;
  }
};

/// Runs every kernel once on tier 0; returns per-kernel observations and
/// the total dynamic step count.
uint64_t run_round(const Module& suite, const EngineSpec& engine,
                   PredecodeCache& cache, Memory& mem,
                   std::span<const KernelInfo> kernels,
                   std::vector<RoundResult>* out) {
  uint64_t steps = 0;
  for (const KernelInfo& k : kernels) {
    Interpreter interp(suite, mem);
    interp.set_dispatch(engine.dispatch);
    interp.set_fusion(engine.fusion);
    interp.set_predecode_cache(&cache);
    const ExecResult r = interp.run(k.fn_name, kernel_args(k, kElems));
    if (!r.ok()) {
      std::fprintf(stderr, "interp_dispatch: %s trapped on %s\n",
                   std::string(k.name).c_str(), engine.name);
      std::abort();
    }
    steps += r.steps;
    if (out) out->push_back({r.value.value_or(Value{}), r.steps});
  }
  return steps;
}

struct Measurement {
  std::vector<RoundResult> verify;  // first kVerifyRounds observations
  double steps_per_sec = 0.0;
};

Measurement measure(const EngineSpec& engine, const Module& suite,
                    std::span<const KernelInfo> kernels) {
  Measurement m;
  PredecodeCache cache;
  Memory mem(1 << 20);
  setup_memory(mem, kElems);

  // Warm-up doubles as the differential check: memory evolves
  // deterministically round by round, so these observations must agree
  // bit-for-bit across engines.
  for (int r = 0; r < kVerifyRounds; ++r) {
    run_round(suite, engine, cache, mem, kernels, &m.verify);
  }

  // Steady state: the pre-decoded streams are cached, every call is pure
  // dispatch. Time whole rounds until the window is filled.
  using Clock = std::chrono::steady_clock;
  uint64_t steps = 0;
  const auto t0 = Clock::now();
  auto t1 = t0;
  do {
    steps += run_round(suite, engine, cache, mem, kernels, nullptr);
    t1 = Clock::now();
  } while (std::chrono::duration<double>(t1 - t0).count() < kMinWindowSec);
  const double sec = std::chrono::duration<double>(t1 - t0).count();
  m.steps_per_sec = sec > 0.0 ? static_cast<double>(steps) / sec : 0.0;
  return m;
}

}  // namespace

int main() {
  const Module suite = build_suite();
  const std::span<const KernelInfo> kernels = table1_kernels();

  std::printf("tier-0 dispatch engines, steady-state interpreted steps/sec\n"
              "(%zu Table 1 kernels, n=%d, >=%.0f ms window per cell; "
              "threaded engine %s in this build)\n",
              kernels.size(), kElems, kMinWindowSec * 1000.0,
              Interpreter::threaded_available() ? "available" : "COMPILED OUT");
  std::printf("%-8s %14s %14s %16s %10s %10s\n", "trial", "switch",
              "threaded", "threaded+fused", "thr/sw", "fused/sw");
  print_rule(78);

  constexpr size_t kEngineCount = std::size(kEngines);
  std::vector<double> sps[kEngineCount];
  for (int t = 0; t < kTrials; ++t) {
    std::vector<RoundResult> oracle;
    double row[kEngineCount] = {};
    for (size_t e = 0; e < kEngineCount; ++e) {
      const Measurement m = measure(kEngines[e], suite, kernels);
      row[e] = m.steps_per_sec;
      sps[e].push_back(m.steps_per_sec);
      if (e == 0) {
        oracle = m.verify;
      } else if (!(m.verify == oracle)) {
        std::fprintf(stderr,
                     "interp_dispatch: BIT DIVERGENCE between switch and %s\n",
                     kEngines[e].name);
        std::abort();
      }
    }
    std::printf("%-8d %14.3e %14.3e %16.3e %9.2fx %9.2fx\n", t, row[0],
                row[1], row[2], row[0] > 0.0 ? row[1] / row[0] : 0.0,
                row[0] > 0.0 ? row[2] / row[0] : 0.0);
  }
  print_rule(78);

  std::vector<BenchMetric> metrics;
  metrics.emplace_back("threaded_available",
                       Interpreter::threaded_available() ? 1.0 : 0.0);
  metrics.emplace_back("elems", kElems);
  metrics.emplace_back("kernels", static_cast<double>(kernels.size()));
  double median[kEngineCount] = {};
  for (size_t e = 0; e < kEngineCount; ++e) {
    std::sort(sps[e].begin(), sps[e].end());
    median[e] = sps[e][sps[e].size() / 2];
    const std::string key = kEngines[e].name;
    metrics.emplace_back(key + ".steps_per_sec", median[e]);
    metrics.emplace_back(key + ".steps_per_sec.min", sps[e].front());
    metrics.emplace_back(key + ".steps_per_sec.max", sps[e].back());
  }
  const double thr = median[0] > 0.0 ? median[1] / median[0] : 0.0;
  const double fused = median[0] > 0.0 ? median[2] / median[0] : 0.0;
  metrics.emplace_back("speedup.threaded", thr);
  metrics.emplace_back("speedup.threaded_fused", fused);
  std::printf("%-8s %14.3e %14.3e %16.3e %9.2fx %9.2fx\n", "median",
              median[0], median[1], median[2], thr, fused);
  std::printf("every engine verified bit-identical to the switch oracle "
              "(%d rounds x %zu kernels per trial)\n",
              kVerifyRounds, kernels.size());

  bench_report("interp",
               {{"elems", std::to_string(kElems)},
                {"verify_rounds", std::to_string(kVerifyRounds)},
                {"trials", std::to_string(kTrials)}},
               metrics);
  return 0;
}
