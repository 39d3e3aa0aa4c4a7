// Self-test of the differential fuzz harness (src/fuzz/, docs/FUZZING.md):
// generator determinism and well-formedness, cell canonicalization and
// matrix bounding, zero divergence on the real runtime, the planted
// miscompile caught and shrunk to a tiny committed-style reproducer,
// corpus round-trips, frontend robustness under near-miss mutants, and
// serializer byte-identity over fuzzed (and profile-annotated) modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/serializer.h"
#include "driver/offline_compiler.h"
#include "fuzz/cells.h"
#include "fuzz/differ.h"
#include "fuzz/generator.h"
#include "fuzz/shrink.h"
#include "vm/interpreter.h"
#include "vm/profile.h"

namespace svc::fuzz {
namespace {

// ------------------------------------------------------------ generator --

TEST(FuzzGenerator, DeterministicPerSeed) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const GeneratedProgram a = generate_program(seed);
    const GeneratedProgram b = generate_program(seed);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.fill_seed, b.fill_seed);
    ASSERT_EQ(a.args.size(), b.args.size());
    EXPECT_EQ(a.features.est_cost, b.features.est_cost);
  }
  EXPECT_NE(generate_program(1).source, generate_program(2).source);
}

TEST(FuzzGenerator, ProgramsCompileAndTerminateTrapFree) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const GeneratedProgram p = generate_program(seed);
    Result<Module> m = compile_module(p.source);
    ASSERT_TRUE(m.ok()) << "seed " << seed << ":\n"
                        << m.error_text() << "\n"
                        << p.source;
    Memory mem(1u << 20);
    p.init_memory(mem);
    Interpreter interp(m.value(), mem);
    interp.set_dispatch(DispatchKind::Switch);
    interp.set_step_budget(uint64_t{1} << 24);
    const ExecResult r = interp.run(p.entry, p.arg_values());
    EXPECT_EQ(r.trap, TrapKind::None) << "seed " << seed << "\n" << p.source;
    // The static cost model is an upper bound on real dynamic steps.
    EXPECT_LE(r.steps, GenOptions{}.cost_budget) << "seed " << seed;
  }
}

TEST(FuzzGenerator, MemoryFillIsDeterministic) {
  const GeneratedProgram p = generate_program(3);
  Memory a(1u << 20);
  Memory b(1u << 20);
  p.init_memory(a);
  p.init_memory(b);
  ASSERT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                         b.bytes().begin(), b.bytes().end()));
}

// ---------------------------------------------------------------- cells --

TEST(FuzzCells, CanonicalizeCollapsesDegenerateAxes) {
  Cell e;
  e.target = TargetKind::PpcSim;
  e.tier = TierMode::Eager;
  e.dispatch = DispatchKind::Threaded;  // no tier 0 -> no dispatch axis
  const Cell ce = canonicalize(e);
  EXPECT_EQ(ce.dispatch, DispatchKind::Switch);

  Cell w;
  w.target = TargetKind::SpuSim;
  w.tier = TierMode::Tiered;
  w.warm_boot = true;  // warm cells exercise the AOT story: eager
  EXPECT_EQ(canonicalize(w).tier, TierMode::Eager);

  Cell p;
  p.target = TargetKind::X86Sim;
  p.tier = TierMode::Eager;
  p.offline_pipeline = "fold,fold,dce,cleanup,cleanup";
  EXPECT_EQ(canonicalize(p).offline_pipeline, "fold,dce,cleanup");
}

TEST(FuzzCells, KeyParsesBackToItself) {
  ProgramFeatures features;
  features.loops = 2;
  features.kernel_loops = 1;
  features.stmts = 9;
  for (const Cell& c : build_cell_matrix(11, features, 16)) {
    const auto parsed = parse_cell(c.key());
    ASSERT_TRUE(parsed.has_value()) << c.key();
    EXPECT_EQ(parsed->key(), c.key());
  }
  EXPECT_FALSE(parse_cell("x86sim/eager").has_value());
  EXPECT_FALSE(parse_cell("nosuch/eager/linear/-/off=default/jit=default")
                   .has_value());
}

TEST(FuzzCells, MatrixDeterministicDedupedAndBounded) {
  ProgramFeatures features;
  features.loops = 1;
  features.stmts = 7;
  features.est_cost = 1u << 12;
  const std::vector<Cell> a = build_cell_matrix(7, features, 12);
  const std::vector<Cell> b = build_cell_matrix(7, features, 12);
  EXPECT_EQ(render_cell_list(a), render_cell_list(b));
  EXPECT_LE(a.size(), 12u);
  std::vector<std::string> keys;
  for (const Cell& c : a) keys.push_back(c.key());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate cell keys in " << render_cell_list(a);

  // Feature-driven pruning: loop-free programs buy no pipeline cells,
  // expensive ones no tier-2 cells.
  ProgramFeatures costly;
  costly.loops = 3;
  costly.est_cost = 1u << 20;
  for (const Cell& c : build_cell_matrix(7, costly, 32)) {
    EXPECT_NE(c.tier, TierMode::Tier2) << c.key();
  }
}

// --------------------------------------------------------- differential --

TEST(FuzzDiffer, ZeroDivergenceOnRealRuntime) {
  DiffRunner runner;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const GeneratedProgram p = generate_program(seed);
    const std::vector<Cell> cells = build_cell_matrix(seed, p.features, 8);
    const DiffResult r = runner.run(p, cells);
    EXPECT_TRUE(r.ok()) << "seed " << seed << " cell " << r.cell_key << ": "
                        << r.detail << "\n"
                        << p.source;
  }
}

TEST(FuzzDiffer, PlantedMiscompileIsCaughtAndShrunk) {
  DiffOptions opts;
  opts.plant_miscompile = true;
  DiffRunner planted(opts);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const GeneratedProgram p = generate_program(seed);
    const std::vector<Cell> cells = build_cell_matrix(seed, p.features, 8);
    const DiffResult r = planted.run(p, cells);
    ASSERT_FALSE(r.internal_error) << r.detail;
    if (!r.diverged) continue;  // some programs never exercise a signed <

    const auto shrunk = shrink(p, cells, planted);
    ASSERT_TRUE(shrunk.has_value());
    EXPECT_LE(shrunk->lines_after, 15u) << shrunk->reduced.source;
    EXPECT_LT(shrunk->lines_after, shrunk->lines_before);
    EXPECT_FALSE(shrunk->detail.empty());

    // The reproducer is a corpus file that replays standalone.
    const std::string repro = render_reproducer(*shrunk);
    const auto parsed = parse_corpus_file(repro);
    ASSERT_TRUE(parsed.has_value());
    const auto hint = parse_cell_list(parsed->cells_hint);
    ASSERT_TRUE(hint.has_value());
    EXPECT_TRUE(planted.run_cell(*parsed, hint->front()).has_value());
    // ...and the un-planted runtime agrees with the oracle on it.
    DiffRunner clean;
    EXPECT_FALSE(clean.run_cell(*parsed, hint->front()).has_value());
    return;  // one full catch-and-shrink cycle is the contract
  }
  FAIL() << "no seed in 1..20 tripped the planted miscompile";
}

TEST(FuzzDiffer, RunawayProgramsAreOutOfContract) {
  // A shrink-candidate-shaped infinite loop: the differ must classify it
  // as out of contract (oracle step budget), not hang or "diverge".
  GeneratedProgram p = generate_program(1);
  p.source =
      "fn entry(x: i32) -> i32 {\n"
      "  var a: i32 = x;\n"
      "  var i0: i32 = 0;\n"
      "  while (i0 < 10) {\n"
      "    a = a + 1;\n"
      "  }\n"
      "  return a;\n"
      "}\n";
  p.entry = "entry";
  p.args.clear();
  ArgSpec arg;
  arg.value = Value::make_i32(1);
  p.args.push_back(arg);
  DiffOptions opts;
  opts.step_budget = 1u << 16;
  DiffRunner runner(opts);
  Cell cell;
  cell.target = TargetKind::X86Sim;
  cell.tier = TierMode::Eager;
  EXPECT_FALSE(runner.run_cell(p, canonicalize(cell)).has_value());
  const DiffResult r = runner.run(p, {canonicalize(cell)});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.cells_run, 0u) << "out-of-contract program reached a cell";
}

// --------------------------------------------------------------- corpus --

TEST(FuzzCorpus, RenderParseRoundTrip) {
  GeneratedProgram p = generate_program(9);
  p.cells_hint = "x86sim/eager/linear/-/off=default/jit=default";
  const std::string file = render_corpus_file(p);
  const auto q = parse_corpus_file(file);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->seed, p.seed);
  EXPECT_EQ(q->fill_seed, p.fill_seed);
  EXPECT_EQ(q->entry, p.entry);
  EXPECT_EQ(q->source, p.source);
  EXPECT_EQ(q->cells_hint, p.cells_hint);
  ASSERT_EQ(q->args.size(), p.args.size());
  for (size_t i = 0; i < p.args.size(); ++i) {
    EXPECT_EQ(q->args[i].is_ptr, p.args[i].is_ptr);
    EXPECT_EQ(q->args[i].value.type, p.args[i].value.type);
  }
  // Round-trip is a fixed point: re-rendering is byte-identical.
  EXPECT_EQ(render_corpus_file(*q), file);
  EXPECT_FALSE(parse_corpus_file("// seed: not-a-number\n// ---\n")
                   .has_value());
}

// ------------------------------------------------------------- frontend --

TEST(FuzzFrontend, NearMissMutantsAreRejectedGracefully) {
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const GeneratedProgram p = generate_program(seed);
    for (uint64_t m = 0; m < 4; ++m) {
      const std::string mutant = mutate_source(p.source, seed * 16 + m);
      // Must never crash; either outcome (compile or diagnostic) is fine.
      const Result<Module> r = compile_module(mutant);
      if (!r.ok()) {
        ++rejected;
        EXPECT_FALSE(r.error_text().empty());
      }
    }
  }
  // Near-miss damage should usually be caught -- if nothing is ever
  // rejected the mutator is not actually damaging programs.
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzFrontend, PathologicalNestingIsRejectedNotOverflowed) {
  // 300 levels beats the parser's depth guard; the required outcome is a
  // diagnostic, not a recursion-driven stack overflow.
  std::string deep_expr = "fn f() -> i32 { return ";
  for (int i = 0; i < 300; ++i) deep_expr += '(';
  deep_expr += '1';
  for (int i = 0; i < 300; ++i) deep_expr += ')';
  deep_expr += "; }\n";
  const Result<Module> a = compile_module(deep_expr);
  EXPECT_FALSE(a.ok());

  std::string deep_block = "fn g() -> i32 {\n";
  for (int i = 0; i < 300; ++i) deep_block += "if (1 < 2) {\n";
  deep_block += "return 1;\n";
  for (int i = 0; i < 300; ++i) deep_block += "}\n";
  deep_block += "return 0;\n}\n";
  const Result<Module> b = compile_module(deep_block);
  EXPECT_FALSE(b.ok());
}

// ----------------------------------------------------------- serializer --

TEST(FuzzSerializer, RoundTripIsByteIdenticalOnFuzzedModules) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const GeneratedProgram p = generate_program(seed);
    Result<Module> m = compile_module(p.source);
    ASSERT_TRUE(m.ok()) << m.error_text();

    const std::vector<uint8_t> image = serialize_module(m.value());
    DeserializeResult back = deserialize_module(image);
    ASSERT_TRUE(back.module.has_value()) << "seed " << seed << ": "
                                         << back.error;
    EXPECT_EQ(serialize_module(*back.module), image) << "seed " << seed;
  }
}

TEST(FuzzSerializer, RoundTripPreservesProfileAnnotations) {
  const GeneratedProgram p = generate_program(4);
  Result<Module> m = compile_module(p.source);
  ASSERT_TRUE(m.ok()) << m.error_text();

  // Collect a real profile by running the program under the oracle.
  Memory mem(1u << 20);
  p.init_memory(mem);
  ProfileData profile(m.value().num_functions());
  Interpreter interp(m.value(), mem);
  interp.set_dispatch(DispatchKind::Switch);
  interp.set_profile(&profile);
  ASSERT_EQ(interp.run(p.entry, p.arg_values()).trap, TrapKind::None);
  ASSERT_FALSE(profile.empty());

  const Module annotated = attach_profile(m.value(), profile);
  ASSERT_TRUE(has_profile(annotated));
  const std::vector<uint8_t> image = serialize_module(annotated);
  DeserializeResult back = deserialize_module(image);
  ASSERT_TRUE(back.module.has_value()) << back.error;
  EXPECT_TRUE(has_profile(*back.module));
  EXPECT_EQ(serialize_module(*back.module), image);
}

}  // namespace
}  // namespace svc::fuzz
