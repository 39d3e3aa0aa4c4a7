// The JIT translation shared across the cores of a Soc. stack_to_reg and
// the first peephole do not depend on the target, so compilers sharing a
// TranslationMemo run them once per function and continue from a copy:
//  - the shared path yields the standalone compile's code, parameter,
//    call-site and local registers and non-timer counters, with the same
//    timer keys, for the Table 1 kernels and the committed corpus on every
//    target, under the tier-1 default pipeline and the tier-2 pipeline
//    derive_tier2_options builds;
//  - an eager 4-ISA Soc translates each function exactly once;
//  - a redeploy served from a warm persistent store translates nothing;
//  - tiered cores racing request_compile on a pool install identical code
//    (the TSan CI job runs this binary).
// SVC_CORPUS_DIR is injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "api/svc.h"
#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "fuzz/generator.h"
#include "jit/jit_compiler.h"
#include "runtime/profile_guided.h"
#include "runtime/soc.h"
#include "targets/target_registry.h"
#include "test_util.h"

namespace svc {
namespace {

using namespace ::svc::testing;
namespace fs = std::filesystem;

constexpr std::string_view kTimerPrefix = "jit.pass_us.";

std::vector<Module> table1_and_corpus() {
  std::vector<Module> out;
  for (const KernelInfo& k : table1_kernels()) {
    out.push_back(value_or_die(compile_module(k.source)));
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(SVC_CORPUS_DIR)) {
    if (entry.path().extension() == ".minic") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto program = fuzz::parse_corpus_file(ss.str());
    if (!program) fatal("unreadable corpus file " + path.string());
    out.push_back(value_or_die(compile_module(program->source)));
  }
  return out;
}

/// The counters of `stats` without the pass timers, and the timer keys.
std::pair<Statistics, std::vector<std::string>> split_timers(
    const JitCounters& stats) {
  Statistics all;
  stats.add_to(all);
  Statistics counters;
  std::vector<std::string> timers;
  for (const auto& [key, value] : all.all()) {
    if (key.starts_with(kTimerPrefix)) {
      timers.push_back(key);
    } else {
      counters.set(key, value);
    }
  }
  return {counters, timers};
}

void expect_same_artifact(const JitArtifact& shared,
                          const JitArtifact& standalone,
                          const std::string& where) {
  EXPECT_EQ(shared.code.str(), standalone.code.str()) << where;
  EXPECT_EQ(shared.code.param_regs, standalone.code.param_regs) << where;
  EXPECT_EQ(shared.code.call_sites, standalone.code.call_sites) << where;
  EXPECT_EQ(shared.code.local_regs, standalone.code.local_regs) << where;
  const auto [shared_counters, shared_timers] = split_timers(shared.stats);
  const auto [counters, timers] = split_timers(standalone.stats);
  EXPECT_EQ(shared_counters.all(), counters.all()) << where;
  EXPECT_EQ(shared_timers, timers) << where;
}

TEST(SharedTranslation, MatchesStandaloneCompileOnEveryTargetAndTier) {
  size_t compiles = 0;
  for (const Module& m : table1_and_corpus()) {
    // One memo per module, as a Soc has: every target and both tiers
    // compile from the one translation of each function.
    TranslationMemo memo;
    for (const TargetKind kind : all_targets()) {
      const MachineDesc& desc = target_desc(kind);
      const JitCompiler tier1(desc);
      for (uint32_t f = 0; f < m.num_functions(); ++f) {
        const std::string where = m.name() + "/" + m.function(f).name() +
                                  " on " + desc.name;
        expect_same_artifact(tier1.compile(m, f, &memo), tier1.compile(m, f),
                             where + " (tier 1)");
        const JitCompiler tier2(
            desc, derive_tier2_options(tier1.options(), desc, m.function(f),
                                       ProfileInfo{}));
        expect_same_artifact(tier2.compile(m, f, &memo), tier2.compile(m, f),
                             where + " (tier 2)");
        compiles += 2;
      }
    }
    EXPECT_EQ(memo.builds(), m.num_functions()) << m.name();
    EXPECT_EQ(memo.size(), m.num_functions()) << m.name();
  }
  EXPECT_GT(compiles, 0u);
}

TEST(SharedTranslation, ReusedPassesAreMarkedRunWithZeroTime) {
  const Module m = value_or_die(compile_module(fir_source()));
  TranslationMemo memo;
  const JitCompiler sparc(target_desc(TargetKind::SparcSim));
  const JitCompiler x86(target_desc(TargetKind::X86Sim));
  (void)sparc.compile(m, 0, &memo);
  // x86sim's chain runs no pass after the translation but regalloc.
  const JitArtifact reused = x86.compile(m, 0, &memo);
  for (const char* pass : {"stack_to_reg", "peephole"}) {
    const std::string key = std::string(kTimerPrefix) + pass;
    EXPECT_TRUE(reused.stats.has(key)) << key;
    EXPECT_EQ(reused.stats.get(key), 0) << key;
  }
  EXPECT_EQ(memo.builds(), 1u);
}

TEST(SharedTranslation, OtherPipelinesRunFromTheStart) {
  const Module m = value_or_die(compile_module(fir_source()));
  TranslationMemo memo;
  JitOptions options;
  options.pipeline = PipelineSpec::parse("stack_to_reg,regalloc");
  const JitCompiler jit(target_desc(TargetKind::X86Sim), options);
  expect_same_artifact(jit.compile(m, 0, &memo), jit.compile(m, 0),
                       "stack_to_reg,regalloc");
  EXPECT_EQ(memo.builds(), 0u);
}

const std::vector<CoreSpec> kFourIsas = {{TargetKind::X86Sim, false},
                                         {TargetKind::SparcSim, false},
                                         {TargetKind::PpcSim, false},
                                         {TargetKind::SpuSim, true}};

/// A generated program with calls, spilled call-site arguments on
/// sparcsim and de-vectorized locals.
Module test_module() {
  return value_or_die(compile_module(fuzz::generate_program(7).source));
}

TEST(SharedTranslation, EagerFourIsaSocTranslatesEachFunctionOnce) {
  const Module m = test_module();
  Soc soc(kFourIsas, 1 << 16);
  load_or_die(soc, m);
  EXPECT_EQ(soc.translations().builds(), m.num_functions());
  EXPECT_EQ(soc.code_cache().stats().get("cache.compiles"),
            static_cast<int64_t>(4 * m.num_functions()));

  // Each core holds what a lone target (with its own memo) compiles, and
  // reports the same counters and timer keys.
  for (size_t c = 0; c < soc.num_cores(); ++c) {
    OnlineTarget lone(soc.core_spec(c).kind);
    load_or_die(lone, m);
    for (uint32_t f = 0; f < m.num_functions(); ++f) {
      EXPECT_EQ((*soc.core(c).code())[f]->str(), (*lone.code())[f]->str())
          << "core " << c << " function " << f;
    }
    Statistics got = soc.core(c).jit_stats();
    Statistics want = lone.jit_stats();
    for (Statistics* s : {&got, &want}) {
      for (const auto& [key, value] : s->all()) {
        if (key.starts_with(kTimerPrefix)) s->set(key, 0);
      }
    }
    EXPECT_EQ(got.all(), want.all()) << "core " << c;
  }
}

/// Fresh store directory, removed on destruction.
struct TempStore {
  TempStore() {
    dir = (fs::temp_directory_path() /
           ("svc_sttest_" + std::to_string(static_cast<long long>(
#ifdef _WIN32
                                _getpid()
#else
                                getpid()
#endif
                                ))))
              .string();
    fs::remove_all(dir);
  }
  ~TempStore() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string dir;
};

TEST(SharedTranslation, WarmStoreRedeployTranslatesNothing) {
  const Module m = test_module();
  const TempStore store;
  SocOptions options;
  options.persistent_cache = std::make_shared<const PersistentCache>(
      value_or_die(PersistentCache::open(store.dir)));
  {
    Soc cold(kFourIsas, 1 << 16, {}, options);
    load_or_die(cold, m);
    EXPECT_EQ(cold.translations().builds(), m.num_functions());
  }
  Soc warm(kFourIsas, 1 << 16, {}, options);
  load_or_die(warm, m);
  const Statistics stats = warm.code_cache().stats();
  EXPECT_EQ(stats.get("cache.disk_hits"),
            static_cast<int64_t>(4 * m.num_functions()));
  EXPECT_EQ(stats.get("cache.compiles"), 0);
  EXPECT_EQ(warm.translations().builds(), 0u);
}

TEST(SharedTranslation, ConcurrentTieredRequestsInstallIdenticalCode) {
  const Module m = test_module();
  const auto n = static_cast<uint32_t>(m.num_functions());
  SocOptions options;
  options.tiers.mode = LoadMode::Tiered;
  options.pool_threads = 3;
  std::vector<CoreSpec> cores = kFourIsas;
  cores.push_back({TargetKind::SparcSim, false});
  Soc soc(cores, 1 << 16, {}, options);
  load_or_die(soc, m);

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < soc.num_cores(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (uint32_t f = 0; f < n; ++f) soc.core(c).request_compile(f);
    });
  }
  go = true;
  for (auto& t : threads) t.join();
  soc.wait_warmup();

  EXPECT_EQ(soc.translations().builds(), n);
  for (size_t c = 0; c < soc.num_cores(); ++c) {
    const JitCompiler standalone(target_desc(soc.core_spec(c).kind));
    for (uint32_t f = 0; f < n; ++f) {
      ASSERT_TRUE(soc.core(c).jit_ready(f)) << "core " << c;
      EXPECT_EQ((*soc.core(c).code())[f]->str(),
                standalone.compile(m, f).code.str())
          << "core " << c << " function " << f;
    }
  }
}

}  // namespace
}  // namespace svc
