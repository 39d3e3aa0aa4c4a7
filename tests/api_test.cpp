// The embeddable API surface (api/svc.h): Builder validation, structured
// diagnostics through Result<T>, ModuleHandle ownership, the
// compile -> deploy -> profile -> recompile loop, and the module-id
// cache keying.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "api/svc.h"
#include "test_util.h"

namespace svc {
namespace {

using ::svc::testing::value_or_die;

const char* kGoodSource = R"(
  fn triple(x: *f32, n: i32) {
    var i: i32 = 0;
    while (i < n) {
      x[i] = 3.0 * x[i];
      i = i + 1;
    }
  }
)";

// --- Builder validation ------------------------------------------------------

TEST(EngineBuilder, DefaultConfigurationBuilds) {
  const Result<Engine> engine = Engine::Builder().build();
  ASSERT_TRUE(engine.ok()) << engine.error_text();
  EXPECT_EQ(engine.value().options().runtime.tiers.mode, LoadMode::Eager);
}

TEST(EngineBuilder, RejectsUnknownOfflinePass) {
  const Result<Engine> engine =
      Engine::Builder().offline_pipeline("fold,warp_drive,dce").build();
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.error_text().find("warp_drive"), std::string::npos);
}

TEST(EngineBuilder, RejectsMalformedPipelineString) {
  const Result<Engine> engine =
      Engine::Builder().offline_pipeline("fold,,dce").build();
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.error_text().find("not a valid pass list"),
            std::string::npos);
}

TEST(EngineBuilder, RejectsJitPipelineWithoutStackToReg) {
  const Result<Engine> engine =
      Engine::Builder().jit_pipeline("peephole,regalloc").build();
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.error_text().find("stack_to_reg"), std::string::npos);
}

TEST(EngineBuilder, RejectsTieredKnobsOnEagerEngine) {
  const Result<Engine> engine =
      Engine::Builder().prefetch().profiling().tier2(4).build();
  ASSERT_FALSE(engine.ok());
  // Every problem is reported, not just the first.
  EXPECT_EQ(engine.error().size(), 3u);
  EXPECT_NE(engine.error_text().find("prefetch"), std::string::npos);
  EXPECT_NE(engine.error_text().find("profiling"), std::string::npos);
  EXPECT_NE(engine.error_text().find("tier2"), std::string::npos);
}

TEST(EngineBuilder, RejectsZeroPromoteThresholdAndZeroMemory) {
  EXPECT_FALSE(Engine::Builder().tiered(0).build().ok());
  EXPECT_FALSE(Engine::Builder().memory_bytes(0).build().ok());
}

TEST(EngineBuilder, AcceptsFullTieredConfiguration) {
  const Result<Engine> engine = Engine::Builder()
                                    .tiered(2)
                                    .prefetch()
                                    .profiling()
                                    .tier2(8)
                                    .pool_threads(2)
                                    .cache_budget(1 << 20)
                                    .build();
  ASSERT_TRUE(engine.ok()) << engine.error_text();
}

// --- diagnostics through Result ---------------------------------------------

TEST(EngineCompile, SyntaxErrorRoundTripsStructuredDiagnostics) {
  const Engine engine = value_or_die(Engine::Builder().build());
  const Result<ModuleHandle> module = engine.compile(R"(
    fn broken(x: *f32) {
      x[0] = ;
    }
  )");
  ASSERT_FALSE(module.ok());
  ASSERT_FALSE(module.error().empty());
  const Diagnostic& first = module.error().front();
  EXPECT_EQ(first.severity, Severity::Error);
  EXPECT_TRUE(first.loc.valid());
  EXPECT_EQ(first.loc.line, 3u);  // the `x[0] = ;` line
}

TEST(EngineCompile, UnknownPipelinePassSurfacesInResult) {
  // Engine validates at build(); the raw driver reports the same problem
  // through its own Result.
  const Result<Module> module = compile_module(
      kGoodSource,
      [] {
        OfflineOptions opts;
        opts.pipeline = *PipelineSpec::parse("fold,warp_drive");
        return opts;
      }());
  ASSERT_FALSE(module.ok());
  EXPECT_NE(module.error_text().find("warp_drive"), std::string::npos);
}

TEST(EngineLoadBytecode, RejectsCorruptImage) {
  const Engine engine = value_or_die(Engine::Builder().build());
  std::vector<uint8_t> image =
      Engine::save_bytecode(value_or_die(engine.compile(kGoodSource)));
  image[image.size() / 2] ^= 0xff;  // flip a byte inside the payload
  const Result<ModuleHandle> loaded = engine.load_bytecode(image);
  EXPECT_FALSE(loaded.ok());
}

TEST(EngineDeploy, ValidatesHandleAndCores) {
  const Engine engine = value_or_die(Engine::Builder().build());
  const ModuleHandle module = value_or_die(engine.compile(kGoodSource));
  EXPECT_FALSE(engine.deploy(ModuleHandle(), {{TargetKind::X86Sim, false}})
                   .ok());
  EXPECT_FALSE(engine.deploy(module, {}).ok());
}

TEST(Deployment, RunReportsUnknownFunctionAndBadCore) {
  const Engine engine = value_or_die(Engine::Builder().build());
  const ModuleHandle module = value_or_die(engine.compile(kGoodSource));
  Deployment dep = value_or_die(
      engine.deploy(module, {{TargetKind::X86Sim, false}}));
  EXPECT_FALSE(dep.run("no_such_fn", {}).ok());
  EXPECT_FALSE(dep.run_on(7, "triple", {}).ok());
}

// --- ownership ---------------------------------------------------------------

TEST(ModuleHandle, KeepsModuleAliveAfterEngineDestruction) {
  ModuleHandle module;
  {
    const Engine engine = value_or_die(Engine::Builder().build());
    module = value_or_die(engine.compile(kGoodSource));
  }  // engine gone
  ASSERT_TRUE(static_cast<bool>(module));
  EXPECT_EQ(module->num_functions(), 1u);

  // A fresh engine deploys the surviving handle.
  const Engine engine2 = value_or_die(Engine::Builder().build());
  Deployment dep = value_or_die(
      engine2.deploy(module, {{TargetKind::X86Sim, false}}));
  dep.memory().write_f32(64, 2.0f);
  const SimResult r = value_or_die(
      dep.run("triple", {Value::make_i32(64), Value::make_i32(1)}));
  EXPECT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(dep.memory().read_f32(64), 6.0f);
}

TEST(ModuleHandle, RecordsWhetherTheEngineVerifiedIt) {
  // Handles the engine produced passed verify_module, so deploy() loads
  // them without verifying again; a caller's module is verified there.
  const Engine engine = value_or_die(Engine::Builder().build());
  const ModuleHandle compiled = value_or_die(engine.compile(kGoodSource));
  EXPECT_TRUE(compiled.verified());
  const ModuleHandle loaded =
      value_or_die(engine.load_bytecode(Engine::save_bytecode(compiled)));
  EXPECT_TRUE(loaded.verified());
  const ModuleHandle copy = loaded;
  EXPECT_TRUE(copy.verified());
  const ModuleHandle adopted = ModuleHandle::adopt(Module(*compiled));
  EXPECT_FALSE(adopted.verified());
  EXPECT_FALSE(ModuleHandle(compiled.shared()).verified());
  EXPECT_FALSE(ModuleHandle().verified());

  for (const ModuleHandle* handle : {&compiled, &loaded, &adopted}) {
    Deployment dep = value_or_die(
        engine.deploy(*handle, {{TargetKind::X86Sim, false}}));
    dep.memory().write_f32(64, 2.0f);
    EXPECT_TRUE(value_or_die(
        dep.run("triple", {Value::make_i32(64), Value::make_i32(1)})).ok());
    EXPECT_FLOAT_EQ(dep.memory().read_f32(64), 6.0f);
  }
}

TEST(Deployment, KeepsModuleAliveAfterHandleDropped) {
  const Engine engine = value_or_die(Engine::Builder().build());
  Deployment dep = [&engine] {
    const ModuleHandle module = value_or_die(engine.compile(kGoodSource));
    return value_or_die(engine.deploy(module, {{TargetKind::PpcSim, false}}));
  }();  // every external handle is gone; the deployment co-owns the module
  dep.memory().write_f32(128, 1.5f);
  const SimResult r = value_or_die(
      dep.run("triple", {Value::make_i32(128), Value::make_i32(1)}));
  EXPECT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(dep.memory().read_f32(128), 4.5f);
}

// --- stable module ids (the CodeCache lifetime fix) --------------------------

TEST(ModuleId, MonotonicFreshForCopiesTransferredByMoves) {
  Module a;
  Module b;
  EXPECT_NE(a.id(), 0u);
  EXPECT_LT(a.id(), b.id());

  const Module copy = a;  // a copy is a distinct module
  EXPECT_NE(copy.id(), a.id());

  const uint64_t a_id = a.id();
  const Module moved = std::move(a);  // a move transfers the identity
  EXPECT_EQ(moved.id(), a_id);
  EXPECT_EQ(a.id(), 0u);  // NOLINT(bugprone-use-after-move): asserted husk
}

TEST(ModuleId, FreedModuleNeverAliasesCacheArtifacts) {
  // The freed-then-reallocated hazard the id keying fixes: with address
  // keys, `second` allocated where `first` died would inherit artifacts
  // of a dead module. With Module::id() keys the second load is a miss.
  CodeCache cache;
  OnlineTarget::Config config;
  config.cache = &cache;

  auto first = std::make_unique<Module>(
      value_or_die(compile_module(kGoodSource)));
  const uint64_t first_id = first->id();
  {
    OnlineTarget target(TargetKind::X86Sim, {}, config);
    value_or_die(target.load_module(borrow_module(*first)));
  }
  EXPECT_EQ(cache.stats().get("cache.compiles"), 1);
  first.reset();

  auto second = std::make_unique<Module>(
      value_or_die(compile_module(kGoodSource)));
  EXPECT_NE(second->id(), first_id);
  {
    OnlineTarget target(TargetKind::X86Sim, {}, config);
    value_or_die(target.load_module(borrow_module(*second)));
  }
  // Same content, different module identity: a fresh compile, never the
  // stale artifact.
  EXPECT_EQ(cache.stats().get("cache.compiles"), 2);
  EXPECT_EQ(cache.stats().get("cache.hits"), 0);
}

// --- the feedback loop through the facade ------------------------------------

TEST(EngineLoop, ProfileExportFeedsWithProfile) {
  // promote_threshold 2: call 1 interprets at tier 0 (collecting the
  // profile), call 2 promotes (no pool: the compile installs
  // synchronously) and runs JITed.
  const Engine engine = value_or_die(
      Engine::Builder().tiered(2).profiling().pool_threads(0).build());
  const ModuleHandle module =
      value_or_die(engine.compile(branchy_max_kernel().source));
  Deployment dep = value_or_die(
      engine.deploy(module, {{TargetKind::X86Sim, false}}));

  for (int i = 0; i < 128; ++i) {
    dep.memory().store_u8(2048 + static_cast<uint32_t>(i),
                          static_cast<uint8_t>(i));
  }
  const std::vector<Value> args{Value::make_i32(2048), Value::make_i32(128)};
  const SimResult cold = value_or_die(
      dep.run(branchy_max_kernel().fn_name, args));
  const SimResult hot = value_or_die(
      dep.run(branchy_max_kernel().fn_name, args));
  EXPECT_EQ(cold.tier, 0);
  EXPECT_NE(hot.tier, 0);
  EXPECT_EQ(cold.value, hot.value);
  const TierCounters tiers = dep.tier_counters();
  EXPECT_EQ(tiers.interpreted, 1u);
  EXPECT_EQ(tiers.jitted, 1u);

  const ModuleHandle profiled = dep.export_profile();
  ASSERT_TRUE(static_cast<bool>(profiled));
  EXPECT_TRUE(has_profile(*profiled));

  // with_profile keeps the profile alive inside the new engine even after
  // `profiled` and the deployment are gone, and seeds the compile.
  Engine tuned = value_or_die(
      Engine::Builder().with_profile(profiled).build());
  const Result<ModuleHandle> recompiled =
      tuned.compile(branchy_max_kernel().source);
  ASSERT_TRUE(recompiled.ok()) << recompiled.error_text();
  EXPECT_TRUE(has_profile(*recompiled.value()));
}

TEST(Deployment, WarmUpFutureFullyPromotes) {
  const Engine engine = value_or_die(
      Engine::Builder().tiered(1000000).pool_threads(2).build());
  const ModuleHandle module = value_or_die(engine.compile(kGoodSource));
  Deployment dep = value_or_die(
      engine.deploy(module, {{TargetKind::X86Sim, false},
                             {TargetKind::SparcSim, false}}));
  dep.warm_up().get();
  // The threshold is unreachable, so only warm_up can have compiled; both
  // cores now serve JITed code immediately.
  for (size_t c = 0; c < dep.num_cores(); ++c) {
    EXPECT_TRUE(dep.soc().core(c).jit_ready(0)) << c;
  }
  dep.memory().write_f32(64, 1.0f);
  const SimResult r = value_or_die(
      dep.run_on(0, "triple", {Value::make_i32(64), Value::make_i32(1)}));
  EXPECT_EQ(r.tier, 1);
  EXPECT_NE(r.tier, 0);
}

}  // namespace
}  // namespace svc
