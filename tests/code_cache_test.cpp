// The code-management subsystem under the tiered deployment runtime:
// ThreadPool, CodeCache keying/coalescing/eviction, tiered OnlineTarget
// promotion, and the shared-cache Soc. Acceptance properties from ISSUE 2:
//  - tiered/cached execution is bit-identical to eager load() output for
//    every target kind;
//  - concurrent Soc::load warm-up + run_on is race-free (the TSan CI job
//    runs this binary);
//  - same-kind cores on one Soc produce exactly one compile per function
//    (O(cores x functions) -> O(kinds x functions)).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "api/svc.h"
#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "runtime/code_cache.h"
#include "runtime/mapper.h"
#include "runtime/soc.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace svc {
namespace {

using namespace ::svc::testing;

TEST(ThreadPool, RunsJobsAndWaitsIdle) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return i * i;
    }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
  // The pool accepts work again after an idle period.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(JitOptions, CacheKeyCanonicalization) {
  const JitOptions lscan(AllocPolicy::LinearScan, true);
  EXPECT_EQ(lscan.cache_key(),
            JitOptions(AllocPolicy::LinearScan, true).cache_key());
  EXPECT_NE(lscan.cache_key(),
            JitOptions(AllocPolicy::SplitGuided, true).cache_key());
  EXPECT_NE(lscan.cache_key(),
            JitOptions(AllocPolicy::LinearScan, false).cache_key());

  JitOptions custom;
  custom.pipeline = PipelineSpec::parse("stack_to_reg,regalloc");
  ASSERT_TRUE(custom.pipeline.has_value());
  EXPECT_NE(custom.cache_key(), lscan.cache_key());
  // The default-pipeline sentinel is spelled out, not empty.
  EXPECT_NE(lscan.cache_key().find("default"), std::string::npos);
}

CodeCacheKey key_for(const Module& m, uint32_t idx, TargetKind kind,
                     const JitOptions& options = {}) {
  return CodeCacheKey{m.id(), idx, kind, options.cache_key()};
}

TEST(CodeCache, HitMissAndKeying) {
  Module m;
  m.add_function(build_scalar_saxpy());
  m.add_function(build_high_pressure());
  const JitCompiler jit(target_desc(TargetKind::X86Sim));
  CodeCache cache;
  const auto compile0 = [&] { return jit.compile(m, 0); };

  const auto first = cache.get_or_compile(key_for(m, 0, TargetKind::X86Sim),
                                          compile0);
  const auto again = cache.get_or_compile(key_for(m, 0, TargetKind::X86Sim),
                                          compile0);
  EXPECT_EQ(first.get(), again.get());  // same artifact object
  EXPECT_EQ(cache.stats().get("cache.misses"), 1);
  EXPECT_EQ(cache.stats().get("cache.hits"), 1);
  EXPECT_EQ(cache.stats().get("cache.compiles"), 1);

  // Different function, target kind, or options: distinct entries.
  (void)cache.get_or_compile(key_for(m, 1, TargetKind::X86Sim),
                             [&] { return jit.compile(m, 1); });
  const JitCompiler sparc(target_desc(TargetKind::SparcSim));
  (void)cache.get_or_compile(key_for(m, 0, TargetKind::SparcSim),
                             [&] { return sparc.compile(m, 0); });
  const JitOptions naive(AllocPolicy::NaiveOnline, true);
  const JitCompiler naive_jit(target_desc(TargetKind::X86Sim), naive);
  (void)cache.get_or_compile(key_for(m, 0, TargetKind::X86Sim, naive),
                             [&] { return naive_jit.compile(m, 0); });
  EXPECT_EQ(cache.num_entries(), 4u);
  EXPECT_EQ(cache.stats().get("cache.compiles"), 4);
  EXPECT_EQ(cache.stats().get("cache.bytes"),
            static_cast<int64_t>(cache.code_bytes()));
}

TEST(CodeCache, StatsHoldOnlyTouchedCountersAndClearKeepsInFlight) {
  Module m;
  m.add_function(build_scalar_saxpy());
  const JitCompiler jit(target_desc(TargetKind::X86Sim));
  CodeCache cache;
  EXPECT_TRUE(cache.stats().all().empty());

  // A compile in flight across clear() still lands in the cache.
  const auto artifact = cache.get_or_compile(
      key_for(m, 0, TargetKind::X86Sim), [&] {
        cache.clear();
        EXPECT_EQ(cache.peek(key_for(m, 0, TargetKind::X86Sim)), nullptr);
        return jit.compile(m, 0);
      });
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(cache.peek(key_for(m, 0, TargetKind::X86Sim)), artifact);
  const std::map<std::string, int64_t> want = {
      {"cache.bytes", static_cast<int64_t>(artifact->code.code_bytes())},
      {"cache.compiles", 1},
      {"cache.misses", 1},
  };
  EXPECT_EQ(cache.stats().all(), want);
}

TEST(CodeCache, LruEvictionRespectsBudget) {
  Module m;
  m.add_function(build_scalar_saxpy());
  m.add_function(build_high_pressure());
  m.add_function(build_branchy_max_u8());
  const JitCompiler jit(target_desc(TargetKind::SparcSim));
  CodeCache cache;
  std::vector<size_t> bytes;
  for (uint32_t i = 0; i < 3; ++i) {
    bytes.push_back(cache
                        .get_or_compile(key_for(m, i, TargetKind::SparcSim),
                                        [&] { return jit.compile(m, i); })
                        ->code.code_bytes());
  }
  ASSERT_EQ(cache.num_entries(), 3u);

  // Shrink so only the two most recent fit: function 0 (LRU tail) goes.
  cache.set_code_budget(bytes[1] + bytes[2]);
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_EQ(cache.stats().get("cache.evictions"), 1);
  EXPECT_EQ(cache.peek(key_for(m, 0, TargetKind::SparcSim)), nullptr);
  EXPECT_NE(cache.peek(key_for(m, 2, TargetKind::SparcSim)), nullptr);
  EXPECT_LE(cache.code_bytes(), bytes[1] + bytes[2]);

  // An evicted key recompiles on demand (a new miss).
  (void)cache.get_or_compile(key_for(m, 0, TargetKind::SparcSim),
                             [&] { return jit.compile(m, 0); });
  EXPECT_EQ(cache.stats().get("cache.misses"), 4);
  // The single-entry floor: a budget below any artifact keeps the most
  // recent entry resident rather than thrashing to empty.
  cache.set_code_budget(1);
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_NE(cache.peek(key_for(m, 0, TargetKind::SparcSim)), nullptr);
}

TEST(CodeCache, ConcurrentSameKeyCompilesOnce) {
  Module m;
  m.add_function(build_scalar_saxpy());
  const JitCompiler jit(target_desc(TargetKind::X86Sim));
  CodeCache cache;
  std::atomic<int> compiles{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CodeCache::Artifact> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] =
          cache.get_or_compile(key_for(m, 0, TargetKind::X86Sim), [&] {
            compiles.fetch_add(1, std::memory_order_relaxed);
            return jit.compile(m, 0);
          });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(cache.stats().get("cache.compiles"), 1);
  EXPECT_EQ(cache.stats().get("cache.misses"), 1);
  EXPECT_EQ(cache.stats().get("cache.hits"), kThreads - 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
}

// --- Tiered OnlineTarget -------------------------------------------------

/// Runs `name` and compares return value and memory image against the
/// reference interpreter.
void expect_matches_interpreter(OnlineTarget& target, const Module& m,
                                std::string_view name,
                                const std::vector<Value>& args,
                                const std::function<void(Memory&)>& setup) {
  Memory ref_mem(1 << 20);
  setup(ref_mem);
  Interpreter interp(m, ref_mem);
  const ExecResult ref = interp.run(name, args);
  ASSERT_TRUE(ref.ok()) << ref.trap_message();

  Memory mem(1 << 20);
  setup(mem);
  const SimResult got = target.run(name, args, mem);
  ASSERT_TRUE(got.ok());
  if (ref.value.has_value() && ref.value->type != Type::Void) {
    EXPECT_EQ(*ref.value, got.value) << target.desc().name;
  }
  EXPECT_TRUE(std::equal(ref_mem.bytes().begin(), ref_mem.bytes().end(),
                         mem.bytes().begin()))
      << target.desc().name << ": memory diverged";
}

TEST(TieredTarget, BitIdenticalToEagerForEveryTargetKind) {
  Module m;
  m.add_function(build_scalar_saxpy());
  m.add_function(build_vector_dot_f32());
  expect_verifies(m);
  const auto setup = [](Memory& mem) {
    for (uint32_t i = 0; i < 64; ++i) {
      mem.write_f32(1024 + 4 * i, 0.5f + static_cast<float>(i));
      mem.write_f32(4096 + 4 * i, 1.5f * static_cast<float>(i));
    }
  };
  const std::vector<Value> saxpy_args = {
      Value::make_f32(2.0f), Value::make_i32(1024), Value::make_i32(4096),
      Value::make_i32(64)};
  const std::vector<Value> dot_args = {Value::make_i32(1024),
                                       Value::make_i32(4096),
                                       Value::make_i32(16)};

  for (const TargetKind kind : all_targets()) {
    // Eager reference output for this kind.
    OnlineTarget eager(kind);
    load_or_die(eager, m);
    Memory eager_mem(1 << 20);
    setup(eager_mem);
    const SimResult eager_dot = eager.run("vdot_f32", dot_args, eager_mem);
    ASSERT_TRUE(eager_dot.ok());

    // Tier 1 from call one (synchronous promotion at threshold 1).
    OnlineTarget::Config hot;
    hot.tiers.mode = LoadMode::Tiered;
    OnlineTarget tiered(kind, {}, hot);
    load_or_die(tiered, m);
    expect_matches_interpreter(tiered, m, "saxpy", saxpy_args, setup);
    expect_matches_interpreter(tiered, m, "vdot_f32", dot_args, setup);

    // Tier 0 throughout (threshold never reached): still identical.
    OnlineTarget::Config cold;
    cold.tiers.mode = LoadMode::Tiered;
    cold.tiers.promote_threshold = 1000;
    OnlineTarget interp_only(kind, {}, cold);
    load_or_die(interp_only, m);
    expect_matches_interpreter(interp_only, m, "saxpy", saxpy_args, setup);
    expect_matches_interpreter(interp_only, m, "vdot_f32", dot_args, setup);
    EXPECT_EQ(interp_only.tier_counters().jitted, 0u);

    // And the promoted target's simulated cycles equal eager's: the same
    // artifact bits run in both.
    Memory tiered_mem(1 << 20);
    setup(tiered_mem);
    const SimResult tiered_dot = tiered.run("vdot_f32", dot_args, tiered_mem);
    ASSERT_TRUE(tiered_dot.ok());
    EXPECT_NE(tiered_dot.tier, 0);
    EXPECT_EQ(tiered_dot.stats.cycles, eager_dot.stats.cycles);
    EXPECT_EQ(tiered_dot.value, eager_dot.value);
  }
}

TEST(TieredTarget, PromotionThresholdCountsCalls) {
  Module m = build_call_module();
  expect_verifies(m);
  OnlineTarget::Config config;
  config.tiers.mode = LoadMode::Tiered;
  config.tiers.promote_threshold = 3;
  OnlineTarget target(TargetKind::X86Sim, {}, config);
  load_or_die(target, m);
  Memory mem(1 << 16);
  const std::vector<Value> args = {Value::make_i32(5)};

  // Calls 1 and 2: below threshold, no compile requested, interpreted.
  for (int call = 0; call < 2; ++call) {
    const SimResult r = target.run("combine", args, mem);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.tier, 0);
    EXPECT_EQ(r.value.i32, 5 + 2 + 3 + 4);
    EXPECT_GT(r.stats.cycles, 0u);  // interpreter cost model charges steps
  }
  const auto combine_idx = m.find_function("combine");
  ASSERT_TRUE(combine_idx.has_value());
  EXPECT_FALSE(target.jit_ready(*combine_idx));

  // Call 3 reaches the threshold; with no pool the compile is synchronous,
  // and promotion covers the callee (add2) too.
  const SimResult r3 = target.run("combine", args, mem);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.tier, 1);
  EXPECT_EQ(r3.value.i32, 14);
  EXPECT_TRUE(target.jit_ready(*combine_idx));
  EXPECT_EQ(target.tier_counters().interpreted, 2u);
  EXPECT_EQ(target.tier_counters().jitted, 1u);
  EXPECT_GT(target.code_bytes(), 0u);
}

TEST(TieredTarget, BackgroundPromotionViaPool) {
  Module m;
  m.add_function(build_high_pressure());
  expect_verifies(m);
  ThreadPool pool(2);
  CodeCache cache;
  OnlineTarget::Config config;
  config.tiers.mode = LoadMode::Tiered;
  config.cache = &cache;
  config.pool = &pool;
  OnlineTarget target(TargetKind::PpcSim, {}, config);
  load_or_die(target, m);

  Memory mem(1 << 16);
  for (uint32_t i = 0; i < 16; ++i) mem.write_i32(4 * i, 3);
  // First call requests the background compile; whichever tier serves it,
  // the value must be right.
  const SimResult first =
      target.run("pressure16", {Value::make_i32(0)}, mem);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value.i32, 48);

  pool.wait_idle();
  ASSERT_TRUE(target.jit_ready(0));
  const SimResult warm = target.run("pressure16", {Value::make_i32(0)}, mem);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.tier, 0);
  EXPECT_EQ(warm.value.i32, 48);
  EXPECT_EQ(cache.stats().get("cache.compiles"), 1);
}

TEST(TieredTarget, EagerLoadEqualsWarmTieredState) {
  // Eager load is the tier-1 request of every function, made at load: an
  // eager target and a tiered target whose every function was requested
  // hold the same image, footprint and JIT counters, and count calls the
  // same way.
  //
  // pressure16 overcommits some targets' registers, so there its tier-2
  // recompile switches allocator and replaces the tier-1 code.
  Module m = build_call_module();
  m.add_function(build_high_pressure());
  expect_verifies(m);
  const auto combine = m.find_function("combine");
  const auto pressure = m.find_function("pressure16");
  ASSERT_TRUE(combine.has_value() && pressure.has_value());
  const auto n = static_cast<uint32_t>(m.num_functions());
  const auto slots = [](const CodeImage& image) {
    std::vector<std::string> out;
    for (const auto& fn : image) out.push_back(fn ? fn->str() : "");
    return out;
  };
  const auto counters = [](const Statistics& stats) {
    // Per-pass wall timers differ from compile to compile; drop them.
    std::map<std::string, int64_t> out;
    for (const auto& [key, value] : stats.all()) {
      if (key.find("pass_us.") == std::string::npos) out.emplace(key, value);
    }
    return out;
  };
  const std::vector<Value> args = {Value::make_i32(5)};

  bool replaced = false;
  for (const TargetKind kind : all_targets()) {
    SCOPED_TRACE(target_desc(kind).name);
    OnlineTarget eager(kind);
    load_or_die(eager, m);
    OnlineTarget::Config config;
    config.tiers.mode = LoadMode::Tiered;
    config.tiers.profile = true;
    config.tiers.tier2_threshold = 1;
    OnlineTarget tiered(kind, {}, config);
    load_or_die(tiered, m);
    for (uint32_t f = 0; f < n; ++f) tiered.request_compile(f);

    const std::shared_ptr<const CodeImage> warm = tiered.code();
    const std::vector<std::string> warm_slots = slots(*warm);
    EXPECT_EQ(slots(*eager.code()), warm_slots);
    EXPECT_EQ(eager.code_bytes(), tiered.code_bytes());
    EXPECT_EQ(counters(eager.jit_stats()), counters(tiered.jit_stats()));
    for (OnlineTarget* target : {&eager, &tiered}) {
      EXPECT_TRUE(target->jit_ready(*combine));
      EXPECT_FALSE(target->jit_ready(n));
    }

    Memory mem(1 << 16);
    constexpr uint64_t kCalls = 3;
    for (uint64_t call = 0; call < kCalls; ++call) {
      const SimResult r = eager.run(*combine, args, mem);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.tier, 1);
      EXPECT_EQ(r.value.i32, 14);
    }
    const TierCounters eager_counters = eager.tier_counters();
    EXPECT_EQ(eager_counters.interpreted, 0u);
    EXPECT_EQ(eager_counters.jitted, kCalls);
    EXPECT_EQ(eager_counters.tier2, 0u);
    EXPECT_EQ(eager_counters.tier2_functions, 0u);

    // Threshold 1 and no pool: the first JIT call installs tier 2 on the
    // spot. The install swaps in a new image; the snapshot taken before
    // it keeps every slot.
    const SimResult hot = tiered.run(*pressure, {Value::make_i32(0)}, mem);
    ASSERT_TRUE(hot.ok());
    EXPECT_EQ(hot.tier, 2);
    EXPECT_EQ(hot.value.i32, 0);
    EXPECT_EQ(tiered.tier_counters().tier2_functions, 1u);
    EXPECT_EQ(slots(*warm), warm_slots);
    replaced = replaced || slots(*tiered.code()) != warm_slots;
  }
  EXPECT_TRUE(replaced) << "no target's tier-2 code differs from tier 1";
}

// --- Shared-cache Soc ----------------------------------------------------

TEST(SocCache, SameKindCoresCompileEachFunctionOnce) {
  const Module m = value_or_die(compile_module(fir_source()));  // fir4, gain, energy
  const int64_t fns = static_cast<int64_t>(m.num_functions());
  // Four cores, two kinds: compile count must be per kind, not per core.
  Soc soc({{TargetKind::X86Sim, false},
           {TargetKind::X86Sim, false},
           {TargetKind::PpcSim, false},
           {TargetKind::PpcSim, false}},
          1 << 20);
  load_or_die(soc, m);

  const Statistics stats = soc.code_cache().stats();
  EXPECT_EQ(stats.get("cache.compiles"), 2 * fns);
  EXPECT_EQ(stats.get("cache.misses"), 2 * fns);
  EXPECT_EQ(stats.get("cache.hits"), 2 * fns);  // second core of each kind
  EXPECT_EQ(stats.get("cache.evictions"), 0);

  // Same-kind cores run the same bits; different kinds differ.
  EXPECT_EQ(soc.core(0).code_bytes(), soc.core(1).code_bytes());
  EXPECT_EQ(soc.core(2).code_bytes(), soc.core(3).code_bytes());
  for (uint32_t i = 0; i < 64; ++i) {
    soc.memory().write_f32(256 + 4 * i, 1.0f);
  }
  const SimResult a = soc.run_on(0, "energy",
                                 {Value::make_i32(256), Value::make_i32(64)});
  const SimResult b = soc.run_on(1, "energy",
                                 {Value::make_i32(256), Value::make_i32(64)});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}

TEST(SocCache, PrefetchWarmsTopRankedCoreOnly) {
  const Module m = value_or_die(compile_module(fir_source()));
  SocOptions options;
  options.tiers.mode = LoadMode::Tiered;
  options.prefetch = true;
  options.pool_threads = 2;
  Soc soc({{TargetKind::PpcSim, false}, {TargetKind::SpuSim, true}}, 1 << 20,
          {}, options);
  load_or_die(soc, m);
  soc.wait_warmup();

  // Prefetch compiled each function exactly once, on one core.
  EXPECT_EQ(soc.code_cache().stats().get("cache.compiles"),
            static_cast<int64_t>(m.num_functions()));

  // The top-ranked core for each function answers its first call in JITed
  // code -- no first-call latency on the core the mapper picked.
  for (uint32_t f = 0; f < m.num_functions(); ++f) {
    const size_t best = choose_core(soc, m.function(f));
    EXPECT_TRUE(soc.core(best).jit_ready(f)) << m.function(f).name();
  }
}

TEST(SocCache, ConcurrentWarmupAndRunIsRaceFree) {
  // The TSan acceptance scenario: tiered load with background prefetch in
  // flight while several threads hammer run_on across cores -- with
  // tier-0 profiling on and tier-2 re-specialization racing the traffic,
  // so the profile merge and the copy-on-write code image are exercised
  // under contention too. pressure16 only reads memory, so concurrent
  // simulations share it safely.
  Module m;
  m.add_function(build_high_pressure());
  expect_verifies(m);

  SocOptions options;
  options.tiers.mode = LoadMode::Tiered;
  options.prefetch = true;
  options.tiers.profile = true;
  options.tiers.tier2_threshold = 3;
  options.pool_threads = 3;
  Soc soc({{TargetKind::X86Sim, false},
           {TargetKind::X86Sim, false},
           {TargetKind::PpcSim, false},
           {TargetKind::SpuSim, true}},
          1 << 16, {}, options);
  for (uint32_t i = 0; i < 16; ++i) soc.memory().write_i32(4 * i, 7);
  load_or_die(soc, m);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int call = 0; call < kCallsPerThread; ++call) {
        const size_t core = static_cast<size_t>(t) % soc.num_cores();
        const SimResult r =
            soc.run_on(core, "pressure16", {Value::make_i32(0)});
        if (!r.ok() || r.value.i32 != 16 * 7) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);

  soc.wait_warmup();
  // Steady state: every core answers in JITed code and the total call
  // count reconciles.
  uint64_t interpreted = 0, jitted = 0;
  for (size_t c = 0; c < soc.num_cores(); ++c) {
    const SimResult r = soc.run_on(c, "pressure16", {Value::make_i32(0)});
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r.tier, 0);
    const TierCounters counters = soc.core(c).tier_counters();
    interpreted += counters.interpreted;
    jitted += counters.jitted;
  }
  EXPECT_EQ(interpreted + jitted,
            static_cast<uint64_t>(kThreads * kCallsPerThread) +
                soc.num_cores());
}

TEST(SocCache, JitStatsPollRacesTierUpSafely) {
  // jit_stats() and jit_seconds() snapshot under the core's lock, so a
  // monitor may poll them while tier-up installs artifacts (and merges
  // their stats) on another thread. The TSan CI job runs this binary.
  constexpr int kFunctions = 40;
  std::string source;
  for (int f = 0; f < kFunctions; ++f) {
    source += "fn f" + std::to_string(f) + "(x: i32) -> i32 { return x * " +
              std::to_string(f + 2) + " + 1; }\n";
  }
  const Module m = value_or_die(compile_module(source));
  SocOptions options;
  options.tiers.mode = LoadMode::Tiered;
  Soc soc({{TargetKind::X86Sim, false}}, 1 << 12, {}, options);
  load_or_die(soc, m);

  std::atomic<bool> promoting{true};
  std::thread promoter([&] {
    // Threshold 1 and no pool: each first call compiles and installs.
    for (uint32_t f = 0; f < kFunctions; ++f) {
      (void)soc.run_on(0, f, {Value::make_i32(3)});
    }
    promoting.store(false, std::memory_order_release);
  });
  int64_t last_bytes = 0;
  bool monotone = true;
  while (promoting.load(std::memory_order_acquire)) {
    const int64_t bytes = soc.core(0).jit_stats().get("jit.code_bytes");
    monotone = monotone && bytes >= last_bytes;
    last_bytes = bytes;
    (void)soc.core(0).jit_seconds();
  }
  promoter.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(soc.core(0).jit_stats().get("jit.code_bytes"),
            static_cast<int64_t>(soc.core(0).code_bytes()));
  EXPECT_GT(soc.core(0).jit_seconds(), 0.0);
  EXPECT_EQ(soc.core(0).tier_counters().jitted,
            static_cast<uint64_t>(kFunctions));
}

TEST(SocCache, DestructionWithInFlightCompilesIsSafe) {
  // Tear a tiered Soc down immediately after prefetch enqueued background
  // jobs: ~OnlineTarget must drain them while the pool is still alive
  // (TSan/ASan would flag a use-after-free regression here).
  const Module m = value_or_die(compile_module(fir_source()));
  for (int round = 0; round < 5; ++round) {
    SocOptions options;
    options.tiers.mode = LoadMode::Tiered;
    options.prefetch = true;
    options.pool_threads = 2;
    Soc soc({{TargetKind::X86Sim, false}, {TargetKind::PpcSim, false}},
            1 << 16, {}, options);
    load_or_die(soc, m);
    // No wait_warmup(): the Soc dies with compiles in flight.
  }
}

TEST(TieredTarget, QueriesBeforeLoadAreSafe) {
  OnlineTarget::Config config;
  config.tiers.mode = LoadMode::Tiered;
  OnlineTarget target(TargetKind::X86Sim, {}, config);
  EXPECT_FALSE(target.jit_ready(0));
  target.request_compile(0);  // no-op, not UB
  EXPECT_EQ(target.code_bytes(), 0u);
}

TEST(SocCache, LoadFailsFastOnInvalidModule) {
  Module bad;
  Function broken("broken", {{}, Type::I32});
  broken.add_block();  // empty entry block: no terminator -> invalid
  bad.add_function(std::move(broken));

  // An invalid module is a Result failure (structured diagnostics), not a
  // fatal -- and the target never adopts it.
  OnlineTarget target(TargetKind::X86Sim);
  const Result<void> target_load = target.load_module(borrow_module(bad));
  EXPECT_FALSE(target_load.ok());
  EXPECT_NE(target_load.error_text().find("while loading module"),
            std::string::npos);
  EXPECT_FALSE(target.jit_ready(0));

  Soc soc({{TargetKind::X86Sim, false}}, 1 << 12);
  const Result<void> soc_load = soc.load_module(borrow_module(bad));
  EXPECT_FALSE(soc_load.ok());
  EXPECT_EQ(soc.module(), nullptr);
}

Module invalid_module() {
  Module bad;
  Function broken("broken", {{}, Type::I32});
  broken.add_block();  // empty entry block: no terminator -> invalid
  bad.add_function(std::move(broken));
  return bad;
}

TEST(SocCache, InvalidModuleFailsOnceWithTheTargetsDiagnostic) {
  // A Soc verifies a module once for all its cores, which then skip their
  // own check; the diagnostic is the one a lone target reports, whether
  // the module comes through Soc::load_module or Engine::deploy.
  const Module bad = invalid_module();
  OnlineTarget target(TargetKind::X86Sim);
  const Result<void> direct = target.load_module(borrow_module(bad));
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.error_text().find("while loading module"),
            std::string::npos);

  const std::vector<CoreSpec> cores = {{TargetKind::X86Sim, false},
                                       {TargetKind::X86Sim, false},
                                       {TargetKind::SparcSim, false}};
  Soc soc(cores, 1 << 12);
  const Result<void> soc_load = soc.load_module(borrow_module(bad));
  ASSERT_FALSE(soc_load.ok());
  EXPECT_EQ(soc_load.error_text(), direct.error_text());
  EXPECT_EQ(soc.module(), nullptr);
  for (size_t c = 0; c < soc.num_cores(); ++c) {
    EXPECT_TRUE(soc.core(c).code()->empty()) << "core " << c;
    EXPECT_FALSE(soc.core(c).jit_ready(0)) << "core " << c;
  }

  const Engine engine = value_or_die(Engine::Builder().build());
  const Result<Deployment> deployed =
      engine.deploy(ModuleHandle::adopt(invalid_module()), cores);
  ASSERT_FALSE(deployed.ok());
  EXPECT_EQ(deployed.error_text(), direct.error_text());

  // A Soc already serving a module keeps it on every core.
  const Module good = value_or_die(compile_module(fir_source()));
  load_or_die(soc, good);
  EXPECT_FALSE(soc.load_module(borrow_module(bad)).ok());
  EXPECT_EQ(soc.module(), &good);
  for (size_t c = 0; c < soc.num_cores(); ++c) {
    EXPECT_EQ(soc.core(c).code()->size(), good.num_functions());
    EXPECT_TRUE(soc.core(c).jit_ready(0)) << "core " << c;
  }
}

TEST(TieredTarget, InstallSharesTheCachedArtifact) {
  // An install copies no machine code: an image slot points into the
  // artifact the CodeCache holds. A tier-2 install swaps in a new vector of
  // pointers, so an earlier code() snapshot keeps the tier-1 code.
  Module m = build_call_module();
  m.add_function(build_high_pressure());
  expect_verifies(m);
  const auto pressure = m.find_function("pressure16");
  ASSERT_TRUE(pressure.has_value());
  const auto n = static_cast<uint32_t>(m.num_functions());

  CodeCache cache;
  OnlineTarget::Config config;
  config.tiers.mode = LoadMode::Tiered;
  config.tiers.profile = true;
  config.tiers.tier2_threshold = 1;
  config.cache = &cache;
  OnlineTarget target(TargetKind::SparcSim, {}, config);
  load_or_die(target, m);
  for (uint32_t f = 0; f < n; ++f) target.request_compile(f);

  const std::shared_ptr<const CodeImage> before = target.code();
  ASSERT_EQ(before->size(), n);
  std::vector<std::string> before_text;
  for (uint32_t f = 0; f < n; ++f) {
    const CodeCache::Artifact cached = cache.peek(
        {m.id(), f, TargetKind::SparcSim, JitOptions{}.cache_key(), 1, 0});
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ((*before)[f].get(), &cached->code) << "function " << f;
    before_text.push_back((*before)[f]->str());
  }

  Memory mem(1 << 16);
  const SimResult hot = target.run(*pressure, {Value::make_i32(0)}, mem);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.tier, 2);

  const std::shared_ptr<const CodeImage> after = target.code();
  for (uint32_t f = 0; f < n; ++f) {
    EXPECT_EQ((*before)[f]->str(), before_text[f]) << "function " << f;
    if (f == *pressure) {
      EXPECT_NE((*after)[f].get(), (*before)[f].get());
    } else {
      EXPECT_EQ((*after)[f].get(), (*before)[f].get()) << "function " << f;
    }
  }
  EXPECT_EQ(target.jit_stats().get("jit.tier2_installs"), 1);
}

}  // namespace
}  // namespace svc
