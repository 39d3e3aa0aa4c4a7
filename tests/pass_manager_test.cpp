// The unified pass-pipeline subsystem: PipelineSpec string round-trips,
// registration and ordered execution with per-pass timing, rejection of
// unknown pass names, and -- the load-bearing part -- proof that the
// offline and JIT default pipelines run through the PassManager produce
// exactly the modules/machine code the pre-refactor hard-wired chains
// produced.
#include <gtest/gtest.h>

#include "bytecode/serializer.h"
#include "driver/kernels.h"
#include "frontend/irgen.h"
#include "frontend/parser.h"
#include "ir/ir_pipeline.h"
#include "jit/jit_pipeline.h"
#include "runtime/iterative.h"
#include "support/pass_manager.h"
#include "test_util.h"

namespace svc {
namespace {

using ::svc::testing::expect_verifies;
using ::svc::testing::value_or_die;

// --- PipelineSpec ----------------------------------------------------------

TEST(PipelineSpec, ParseAndRoundtrip) {
  const auto spec = PipelineSpec::parse("fold,simplify,dce,if_convert,vectorize");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->size(), 5u);
  EXPECT_EQ(spec->names()[0], "fold");
  EXPECT_EQ(spec->names()[4], "vectorize");
  EXPECT_EQ(spec->str(), "fold,simplify,dce,if_convert,vectorize");
  EXPECT_EQ(PipelineSpec::parse(spec->str()), *spec);
}

TEST(PipelineSpec, TrimsWhitespace) {
  const auto spec = PipelineSpec::parse(" fold , dce ");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->str(), "fold,dce");
}

TEST(PipelineSpec, EmptyStringIsEmptySpec) {
  const auto spec = PipelineSpec::parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->empty());
  EXPECT_EQ(spec->str(), "");
}

TEST(PipelineSpec, RejectsMalformedInput) {
  EXPECT_FALSE(PipelineSpec::parse("fold,,dce").has_value());
  EXPECT_FALSE(PipelineSpec::parse(",fold").has_value());
  EXPECT_FALSE(PipelineSpec::parse("fold,").has_value());
  EXPECT_FALSE(PipelineSpec::parse("fold dce").has_value());
  EXPECT_FALSE(PipelineSpec::parse("f*ld").has_value());
}

TEST(PipelineSpec, ContainsAndAppend) {
  PipelineSpec spec;
  spec.append("fold");
  spec.append(*PipelineSpec::parse("dce,licm"));
  EXPECT_TRUE(spec.contains("dce"));
  EXPECT_FALSE(spec.contains("vectorize"));
  EXPECT_EQ(spec.str(), "fold,dce,licm");
}

// --- PassManager machinery ---------------------------------------------------

struct TestCtx {
  int multiplier = 2;
  Statistics stats;
};

TEST(PassManagerGeneric, RunsInOrderWithStatsAndTiming) {
  PassManager<int, TestCtx> pm("t.");
  std::vector<std::string> order;
  pm.register_pass("double", "x *= ctx.multiplier",
                   [&](int& x, TestCtx& ctx) {
                     x *= ctx.multiplier;
                     ctx.stats.add("doubled", 1);
                     order.push_back("double");
                   });
  pm.register_pass("inc", "x += 1", [&](int& x, TestCtx& ctx) {
    x += 1;
    ctx.stats.add("incremented", 1);
    order.push_back("inc");
  });
  pm.register_pass("unused", "never in the spec", [](int&, TestCtx&) {});

  EXPECT_TRUE(pm.has_pass("double"));
  EXPECT_FALSE(pm.has_pass("triple"));
  EXPECT_EQ(pm.pass_names(),
            (std::vector<std::string>{"double", "inc", "unused"}));

  int unit = 3;
  TestCtx ctx;
  PassTimes times;
  const ResolvedPipeline pipeline =
      pm.resolve(*PipelineSpec::parse("inc,double,double"));
  EXPECT_EQ(pipeline.passes, (std::vector<uint8_t>{1, 0, 0}));
  pm.run(pipeline, unit, ctx, &times);

  EXPECT_EQ(unit, 16);  // (3+1)*2*2
  EXPECT_EQ(order, (std::vector<std::string>{"inc", "double", "double"}));
  EXPECT_EQ(ctx.stats.get("doubled"), 2);
  EXPECT_EQ(ctx.stats.get("incremented"), 1);
  // Per-pass wall time renders under the manager's prefix, for the passes
  // that ran only.
  Statistics rendered;
  pm.add_times(times, rendered);
  EXPECT_TRUE(rendered.has("t.double"));
  EXPECT_TRUE(rendered.has("t.inc"));
  EXPECT_FALSE(rendered.has("t.unused"));
  EXPECT_EQ(pm.timer_pass("t.inc"), std::optional<size_t>(1));
  EXPECT_EQ(pm.timer_pass("t.triple"), std::nullopt);
  EXPECT_EQ(pm.timer_pass("inc"), std::nullopt);
}

TEST(PassManagerGeneric, FirstUnknownFindsBadName) {
  PassManager<int, TestCtx> pm;
  pm.register_pass("a", "", [](int&, TestCtx&) {});
  EXPECT_FALSE(pm.first_unknown(*PipelineSpec::parse("a,a")).has_value());
  const auto unknown = pm.first_unknown(*PipelineSpec::parse("a,b,a"));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(*unknown, "b");
}

TEST(StatisticsTimers, ScopedTimerAccumulatesIntoCounter) {
  Statistics stats;
  {
    StatTimer t(stats, "scoped_us");
  }
  EXPECT_TRUE(stats.has("scoped_us"));
  EXPECT_GE(stats.get("scoped_us"), 0);
  {
    StatTimer t(stats, "scoped_us");  // second scope adds to the same key
  }
  EXPECT_TRUE(stats.has("scoped_us"));
}

// --- registries --------------------------------------------------------------

TEST(IrPipeline, RegistryHasAllDocumentedPasses) {
  for (const char* name :
       {"coalesce", "fold", "simplify", "dce", "licm", "if_convert",
        "cleanup", "cleanup_nosimp", "vectorize"}) {
    EXPECT_TRUE(ir_pass_manager().has_pass(name)) << name;
  }
  EXPECT_FALSE(ir_pass_manager().has_pass("regalloc"));
}

TEST(JitPipeline, RegistryHasAllDocumentedPasses) {
  for (const char* name :
       {"stack_to_reg", "peephole", "fma", "devectorize", "regalloc"}) {
    EXPECT_TRUE(jit_pass_manager().has_pass(name)) << name;
  }
  EXPECT_FALSE(jit_pass_manager().has_pass("vectorize"));
}

TEST(IrPipeline, DefaultSpecsRoundtripThroughStrings) {
  for (bool vectorize : {false, true}) {
    for (bool if_convert : {false, true}) {
      for (bool simplify : {false, true}) {
        PassOptions passes;
        passes.if_convert = if_convert;
        passes.simplify = simplify;
        const PipelineSpec spec = default_ir_pipeline(passes, vectorize);
        const auto reparsed = PipelineSpec::parse(spec.str());
        ASSERT_TRUE(reparsed.has_value()) << spec.str();
        EXPECT_EQ(*reparsed, spec);
        EXPECT_FALSE(ir_pass_manager().first_unknown(spec).has_value())
            << spec.str();
      }
    }
  }
}

TEST(JitPipeline, DefaultSpecsRoundtripForEveryTarget) {
  for (TargetKind kind : all_targets()) {
    const MachineDesc& desc = target_desc(kind);
    const PipelineSpec spec = default_jit_pipeline(desc);
    const auto reparsed = PipelineSpec::parse(spec.str());
    ASSERT_TRUE(reparsed.has_value()) << desc.name;
    EXPECT_EQ(*reparsed, spec) << desc.name;
    EXPECT_FALSE(jit_pass_manager().first_unknown(spec).has_value());
    EXPECT_EQ(spec.names().front(), "stack_to_reg");
    EXPECT_EQ(spec.names().back(), "regalloc");
  }
}

// --- unknown-name / bad-shape rejection --------------------------------------

TEST(JitPipeline, CompileRejectsPipelineWithoutTranslation) {
  const Module module = value_or_die(compile_module(table1_kernels()[0].source));
  JitOptions opts;
  opts.pipeline = *PipelineSpec::parse("peephole,regalloc");
  JitCompiler jit(target_desc(TargetKind::X86Sim), opts);
  EXPECT_DEATH((void)jit.compile(module, 0), "must start with stack_to_reg");
}

TEST(IrPipeline, CompileRejectsUnknownPassName) {
  OfflineOptions opts;
  opts.pipeline = *PipelineSpec::parse("cleanup,licm,warp_drive");
  const Result<Module> module =
      compile_module(table1_kernels()[0].source, opts);
  EXPECT_FALSE(module.ok());
  EXPECT_NE(module.error_text().find("warp_drive"), std::string::npos);
}

// --- equivalence with the pre-refactor chains --------------------------------

// The manager-driven spec for a knob setting must transform IR exactly as
// the legacy run_passes(...) [+ vectorize + run_passes] sequence did.
TEST(IrPipeline, SpecMatchesLegacyScheduleOnIr) {
  for (bool vectorize : {false, true}) {
    for (bool if_convert : {false, true}) {
      for (bool simplify : {false, true}) {
        PassOptions passes;
        passes.if_convert = if_convert;
        passes.simplify = simplify;

        DiagnosticEngine diags;
        auto program = parse_program(table1_kernels()[1].source, diags);
        ASSERT_TRUE(program.has_value()) << diags.dump();
        auto fns = generate_ir(*program, diags);
        ASSERT_TRUE(fns.has_value()) << diags.dump();
        ASSERT_EQ(fns->size(), 1u);

        IRFunction legacy = (*fns)[0];
        IRFunction piped = (*fns)[0];

        run_passes(legacy, passes);
        if (vectorize) {
          svc::vectorize(legacy);
          run_passes(legacy, passes);
        }

        Statistics stats;
        IRPipelineContext ctx{stats, {}};
        ir_pass_manager().run(
            ir_pass_manager().resolve(default_ir_pipeline(passes, vectorize)),
            piped, ctx);

        EXPECT_EQ(piped.str(), legacy.str())
            << "vec=" << vectorize << " ifcvt=" << if_convert
            << " simp=" << simplify;
      }
    }
  }
}

// Explicit-pipeline compilation must produce byte-identical modules to the
// boolean-knob default path, for every knob setting and kernel.
TEST(IrPipeline, ExplicitSpecCompilesIdenticalModules) {
  for (const KernelInfo& k : table1_kernels()) {
    for (bool vectorize : {false, true}) {
      OfflineOptions knob_opts;
      knob_opts.vectorize = vectorize;

      OfflineOptions spec_opts;
      spec_opts.pipeline = default_ir_pipeline(knob_opts.passes, vectorize);

      const Module via_knobs = value_or_die(compile_module(k.source, knob_opts));
      const Module via_spec = value_or_die(compile_module(k.source, spec_opts));
      expect_verifies(via_spec);
      EXPECT_EQ(serialize_module(via_spec), serialize_module(via_knobs))
          << k.name << " vectorize=" << vectorize;
    }
  }
}

// A JIT given its own default pipeline explicitly must emit exactly the
// machine code of the implicit default, on every target.
TEST(JitPipeline, ExplicitSpecProducesIdenticalMachineCode) {
  const Module module = value_or_die(compile_module(table1_kernels()[1].source));
  for (TargetKind kind : all_targets()) {
    const MachineDesc& desc = target_desc(kind);

    JitCompiler implicit_jit(desc);
    JitOptions opts;
    opts.pipeline = default_jit_pipeline(desc);
    JitCompiler explicit_jit(desc, opts);

    const JitArtifact a = implicit_jit.compile(module, 0);
    const JitArtifact b = explicit_jit.compile(module, 0);
    EXPECT_EQ(b.code.str(), a.code.str()) << desc.name;
    EXPECT_EQ(b.stats.get("jit.spilled_vregs"),
              a.stats.get("jit.spilled_vregs"));
  }
}

// --- per-pass timing through the drivers --------------------------------------

TEST(IrPipeline, CompileReportsPerPassTimes) {
  Statistics stats;
  const Result<Module> module =
      compile_module(table1_kernels()[0].source, {}, &stats);
  ASSERT_TRUE(module.ok()) << module.error_text();
  EXPECT_TRUE(stats.has("offline.pass_us.cleanup"));
  EXPECT_TRUE(stats.has("offline.pass_us.vectorize"));
  EXPECT_TRUE(stats.has("offline.pass_us.licm"));
}

TEST(JitPipeline, JitReportsPerPassTimes) {
  const Module module = value_or_die(compile_module(table1_kernels()[0].source));
  for (TargetKind kind : all_targets()) {
    const MachineDesc& desc = target_desc(kind);
    JitCompiler jit(desc);
    const JitArtifact artifact = jit.compile(module, 0);
    EXPECT_TRUE(artifact.stats.has("jit.pass_us.stack_to_reg"));
    EXPECT_TRUE(artifact.stats.has("jit.pass_us.peephole"));
    EXPECT_TRUE(artifact.stats.has("jit.pass_us.regalloc"));
    // A pass the target's chain leaves out has no timer at all.
    EXPECT_EQ(artifact.stats.has("jit.pass_us.fma"), desc.has_fma);
    EXPECT_EQ(artifact.stats.has("jit.pass_us.devectorize"), !desc.has_simd);
  }
}

TEST(JitPipeline, DefaultPassesAreTheResolvedDefaultSpec) {
  for (TargetKind kind : all_targets()) {
    const MachineDesc& desc = target_desc(kind);
    EXPECT_EQ(default_jit_passes(desc).passes,
              jit_pass_manager().resolve(default_jit_pipeline(desc)).passes)
        << desc.name;
  }
}

TEST(JitPipeline, CountersRoundTripThroughStatistics) {
  const Module module =
      value_or_die(compile_module(table1_kernels()[1].source));
  JitCompiler jit(target_desc(TargetKind::SparcSim));
  const JitArtifact artifact = jit.compile(module, 0);
  Statistics rendered;
  artifact.stats.add_to(rendered);
  EXPECT_TRUE(rendered.has("jit.code_bytes"));
  EXPECT_TRUE(rendered.has("jit.spilled_vregs"));
  EXPECT_TRUE(rendered.has("jit.pass_us.devectorize"));
  EXPECT_FALSE(rendered.has("jit.fma_formed"));  // sparcsim has no FMA
  for (const auto& [key, value] : rendered.all()) {
    EXPECT_TRUE(artifact.stats.has(key)) << key;
    EXPECT_EQ(artifact.stats.get(key), value) << key;
  }

  const auto back = JitCounters::from_statistics(rendered);
  ASSERT_TRUE(back.has_value());
  Statistics again;
  back->add_to(again);
  EXPECT_EQ(again.all(), rendered.all());

  rendered.add("jit.not_a_counter", 1);
  EXPECT_FALSE(JitCounters::from_statistics(rendered).has_value());
}

// --- tuner over pipeline specs -------------------------------------------------

TEST(TunePresets, Classic8MatchesLegacySpace) {
  const std::vector<TuneConfig> space = classic8_preset();
  ASSERT_EQ(space.size(), 8u);
  // Legacy evaluation order: vectorize outermost, simplify innermost.
  EXPECT_EQ(space[0].str(), "novec+nosimp");
  EXPECT_EQ(space[1].str(), "novec+simp");
  EXPECT_EQ(space[2].str(), "novec+ifcvt+nosimp");
  EXPECT_EQ(space[7].str(), "vec+ifcvt+simp");
  for (const TuneConfig& config : space) {
    EXPECT_EQ(PipelineSpec::parse(config.pipeline.str()), config.pipeline);
    EXPECT_FALSE(
        ir_pass_manager().first_unknown(config.pipeline).has_value());
  }
  EXPECT_TRUE(space[7].uses("vectorize"));
  EXPECT_FALSE(space[0].uses("vectorize"));

  EXPECT_EQ(tune_preset("classic8").size(), 8u);
  EXPECT_EQ(tune_preset("vectorize4").size(), 4u);
  EXPECT_TRUE(tune_preset("nope").empty());
}

TEST(TunePresets, CustomSpaceIsSearchable) {
  // A two-point custom space: default pipeline vs. scalar-only. On the
  // SIMD-capable x86 core the vectorized schedule must win for dscal.
  const KernelInfo& k = table1_kernels()[2];
  std::vector<TuneConfig> space;
  space.push_back({"full", default_ir_pipeline({}, true)});
  space.push_back({"scalar", default_ir_pipeline({}, false)});

  const TuneResult result =
      tune(k.source, TargetKind::X86Sim, [&](OnlineTarget& target) {
        Memory mem(1 << 20);
        for (int i = 0; i < 512; ++i) {
          mem.write_f32(1024 + 4 * static_cast<uint32_t>(i), 1.0f);
        }
        const SimResult r = target.run(
            k.fn_name,
            {Value::make_f32(0.5f), Value::make_i32(1024),
             Value::make_i32(512)},
            mem);
        return r.ok() ? r.stats.cycles : UINT64_MAX;
      }, space);
  ASSERT_EQ(result.all.size(), 2u);
  EXPECT_EQ(result.best.config.str(), "full");
}

}  // namespace
}  // namespace svc
