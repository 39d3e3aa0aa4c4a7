// The profile feedback loop (ISSUE 3): ProfileInfo annotation round-trip
// and version skew, interpreter collection, tier-2 re-specialization, and
// the run -> export -> re-import -> seeded-tuner cycle. Acceptance
// properties:
//  - bit-identity across tier 0 / tier 1 / tier 2 on all simulator
//    targets;
//  - run with profiling -> export a profile-annotated module -> re-import
//    offline -> the iterative tuner's first evaluated config matches the
//    profile-derived seed;
//  - an old reader rejects a newer Profile payload cleanly, and unknown
//    annotation kinds are skipped, not fatal.
#include <gtest/gtest.h>

#include "bytecode/disassembler.h"
#include "bytecode/serializer.h"
#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "jit/jit_pipeline.h"
#include "runtime/iterative.h"
#include "runtime/profile_guided.h"
#include "runtime/soc.h"
#include "support/crc32.h"
#include "support/rng.h"
#include "support/varint.h"
#include "test_util.h"
#include "vm/profile.h"

namespace svc {
namespace {

using namespace ::svc::testing;

ProfileInfo rich_profile() {
  ProfileInfo info;
  info.calls = 42;
  info.scalar_ops = 100000;
  info.lane16_ops = 7;
  info.lane8_ops = 0;
  info.lane4_ops = 512;
  info.branches[1] = {900, 100};
  info.branches[4] = {33, 35};
  info.loops[1][trip_bucket(100)] = 10;
  info.loops[2][0] = 3;
  return info;
}

TEST(ProfileInfo, EncodeDecodeRoundtrip) {
  const ProfileInfo info = rich_profile();
  const Annotation ann = info.encode();
  EXPECT_EQ(ann.kind, AnnotationKind::Profile);

  const auto decoded = ProfileInfo::decode(ann.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, info);

  // The empty profile round-trips too.
  const auto empty = ProfileInfo::decode(ProfileInfo{}.encode().payload);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(ProfileInfo, HashIsContentDerived) {
  const ProfileInfo a = rich_profile();
  ProfileInfo b = rich_profile();
  EXPECT_EQ(a.hash(), b.hash());
  b.calls += 1;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(ProfileInfo, RejectsCorruptPayload) {
  Annotation ann = rich_profile().encode();
  ann.payload[2] ^= 0x40;  // body flip: CRC must catch it
  EXPECT_FALSE(ProfileInfo::decode(ann.payload).has_value());
  EXPECT_FALSE(ProfileInfo::decode({}).has_value());

  Annotation truncated = rich_profile().encode();
  truncated.payload.pop_back();
  EXPECT_FALSE(ProfileInfo::decode(truncated.payload).has_value());
}

TEST(ProfileInfo, RejectsVersionSkewCleanly) {
  // A well-formed payload from a hypothetical newer format: valid CRC,
  // higher version. An old reader must reject it (nullopt), not crash or
  // misparse.
  std::vector<uint8_t> payload;
  write_uleb(payload, kProfileVersion + 1);
  for (int i = 0; i < 5; ++i) write_uleb(payload, 0);  // counters
  write_uleb(payload, 0);                              // branches
  write_uleb(payload, 0);                              // loops
  write_uleb(payload, 12345);  // extra field a newer writer might add
  const uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<uint8_t>((crc >> (8 * i)) & 0xff));
  }
  EXPECT_FALSE(ProfileInfo::decode(payload).has_value());
}

TEST(ProfileInfo, MergeAccumulates) {
  ProfileInfo a = rich_profile();
  a.merge(rich_profile());
  EXPECT_EQ(a.calls, 84u);
  EXPECT_EQ(a.branches[1].taken, 1800u);
  EXPECT_EQ(a.loops[1][trip_bucket(100)], 20u);
  EXPECT_EQ(a.widest_lanes(), 16u);
}

TEST(TripBuckets, PowersOfTwo) {
  EXPECT_EQ(trip_bucket(1), 0u);
  EXPECT_EQ(trip_bucket(2), 1u);
  EXPECT_EQ(trip_bucket(3), 1u);
  EXPECT_EQ(trip_bucket(8), 3u);
  EXPECT_EQ(trip_bucket(9), 3u);
  // The last bucket is open-ended.
  EXPECT_EQ(trip_bucket(uint64_t{1} << 40), kProfileTripBuckets - 1);
  EXPECT_EQ(trip_bucket_floor(3), 8u);
}

// --- Interpreter collection ----------------------------------------------

TEST(ProfileCollector, RecordsCallsBranchesLoopsAndWidths) {
  Module m;
  m.add_function(build_scalar_saxpy());    // 0: scalar loop
  m.add_function(build_vector_dot_f32());  // 1: f32x4 loop
  expect_verifies(m);

  Memory mem(1 << 20);
  for (uint32_t i = 0; i < 64; ++i) {
    mem.write_f32(1024 + 4 * i, 1.0f);
    mem.write_f32(4096 + 4 * i, 2.0f);
  }
  Interpreter interp(m, mem);
  ProfileData profile(m.num_functions());
  interp.set_profile(&profile);

  constexpr int kTrips = 8;
  const ExecResult saxpy = interp.run(
      "saxpy", {Value::make_f32(2.0f), Value::make_i32(1024),
                Value::make_i32(4096), Value::make_i32(kTrips)});
  ASSERT_TRUE(saxpy.ok());

  const ProfileInfo& sp = profile.function(0);
  EXPECT_EQ(sp.calls, 1u);
  EXPECT_GT(sp.scalar_ops, 0u);
  EXPECT_EQ(sp.vector_ops(), 0u);
  // Loop-head branch (block 1): taken once per iteration, not-taken once
  // on exit.
  ASSERT_TRUE(sp.branches.contains(1));
  EXPECT_EQ(sp.branches.at(1).taken, static_cast<uint64_t>(kTrips));
  EXPECT_EQ(sp.branches.at(1).not_taken, 1u);
  EXPECT_FALSE(sp.branches.at(1).is_mixed());
  // One completed loop run of kTrips+1 header visits -> bucket [8,16).
  ASSERT_TRUE(sp.loops.contains(1));
  EXPECT_EQ(sp.loops.at(1)[trip_bucket(kTrips + 1)], 1u);

  const ExecResult dot = interp.run(
      "vdot_f32",
      {Value::make_i32(1024), Value::make_i32(4096), Value::make_i32(4)});
  ASSERT_TRUE(dot.ok());
  EXPECT_GT(profile.function(1).lane4_ops, 0u);
  EXPECT_EQ(profile.function(1).widest_lanes(), 4u);

  // No collector attached: execution identical, nothing recorded.
  Interpreter bare(m, mem);
  const ExecResult again = bare.run(
      "vdot_f32",
      {Value::make_i32(1024), Value::make_i32(4096), Value::make_i32(4)});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value->f32, dot.value->f32);
}

TEST(ProfileCollector, AttributesCalleesAndMerges) {
  const Module m = build_call_module();
  expect_verifies(m);
  Memory mem(1 << 16);
  Interpreter interp(m, mem);
  ProfileData profile(m.num_functions());
  interp.set_profile(&profile);
  ASSERT_TRUE(interp.run("combine", {Value::make_i32(5)}).ok());

  const auto add2 = m.find_function("add2");
  const auto combine = m.find_function("combine");
  ASSERT_TRUE(add2 && combine);
  EXPECT_EQ(profile.function(*combine).calls, 1u);
  EXPECT_EQ(profile.function(*add2).calls, 3u);  // three nested calls

  ProfileData other(m.num_functions());
  other.record_call(*add2);
  profile.merge(other);
  EXPECT_EQ(profile.function(*add2).calls, 4u);
  EXPECT_FALSE(profile.empty());
}

// --- Module attach / extract / serializer --------------------------------

TEST(ProfileModule, AttachSerializeExtractRoundtrip) {
  Module m;
  m.add_function(build_scalar_saxpy());
  m.add_function(build_high_pressure());
  expect_verifies(m);
  EXPECT_FALSE(has_profile(m));

  ProfileData profile(2);
  profile.function(0) = rich_profile();
  // Function 1 stays empty: no annotation should be attached for it.

  const Module annotated = attach_profile(m, profile);
  EXPECT_TRUE(has_profile(annotated));
  EXPECT_NE(find_annotation(annotated.function(0).annotations(),
                            AnnotationKind::Profile),
            nullptr);
  EXPECT_EQ(find_annotation(annotated.function(1).annotations(),
                            AnnotationKind::Profile),
            nullptr);

  // Attaching again replaces, never duplicates.
  const Module twice = attach_profile(annotated, profile);
  size_t records = 0;
  for (const Annotation& a : twice.function(0).annotations()) {
    records += a.kind == AnnotationKind::Profile ? 1 : 0;
  }
  EXPECT_EQ(records, 1u);

  const std::vector<uint8_t> image = serialize_module(annotated);
  const DeserializeResult loaded = deserialize_module(image);
  ASSERT_TRUE(loaded.module.has_value()) << loaded.error;
  const ProfileData back = extract_profile(*loaded.module);
  EXPECT_EQ(back.function(0), rich_profile());
  EXPECT_TRUE(back.function(1).empty());
}

TEST(ProfileModule, UnknownAndSkewedAnnotationsAreSkipped) {
  Module m;
  m.add_function(build_scalar_saxpy());

  // An annotation kind this reader has never heard of survives the
  // serializer byte-exactly and is simply not consumed.
  Annotation unknown{static_cast<AnnotationKind>(777), {1, 2, 3}};
  m.function(0).annotations().push_back(unknown);
  // A Profile record from a newer format version: the module still loads;
  // extract_profile just skips the record.
  Annotation skewed = rich_profile().encode();
  skewed.payload[0] = static_cast<uint8_t>(kProfileVersion + 1);
  m.function(0).annotations().push_back(skewed);

  const DeserializeResult loaded =
      deserialize_module(serialize_module(m));
  ASSERT_TRUE(loaded.module.has_value()) << loaded.error;
  EXPECT_EQ(loaded.module->function(0).annotations().size(), 2u);
  EXPECT_EQ(loaded.module->function(0).annotations()[0], unknown);
  EXPECT_TRUE(extract_profile(*loaded.module).empty());
  EXPECT_FALSE(has_profile(*loaded.module));

  // The disassembler reports rather than chokes.
  EXPECT_NE(disassemble(unknown).find("unknown"), std::string::npos);
  EXPECT_NE(disassemble(skewed).find("skipped"), std::string::npos);
  EXPECT_NE(disassemble(rich_profile().encode()).find("profile v1"),
            std::string::npos);
}

// --- Tier 2 ---------------------------------------------------------------

TEST(Tier2, DerivedOptionsRespectTargetAndPressure) {
  Module m;
  m.add_function(build_high_pressure());   // 17 int locals
  m.add_function(build_vector_dot_f32());  // vector + f32

  const JitOptions base;
  const ProfileInfo empty;

  // 17 int locals > 14 int regs on x86sim: the hot recompile upgrades to
  // the offline-quality allocator.
  const JitOptions hot = derive_tier2_options(
      base, target_desc(TargetKind::X86Sim), m.function(0), empty);
  EXPECT_EQ(hot.alloc_policy, AllocPolicy::OfflineChaitin);
  ASSERT_TRUE(hot.pipeline.has_value());
  EXPECT_EQ(hot.pipeline->names().front(), "stack_to_reg");
  EXPECT_NE(hot.cache_key(), base.cache_key());
  // The tier-2 chain always differs from the tier-1 default, so the two
  // tiers never alias in the cache even for unpressured functions.
  EXPECT_NE(hot.pipeline->str(),
            default_jit_pipeline(target_desc(TargetKind::X86Sim)).str());

  // vdot on ppcsim (24 f regs, no SIMD, FMA): scalarization + fma stay,
  // allocator stays the fast one.
  const JitOptions vec = derive_tier2_options(
      base, target_desc(TargetKind::PpcSim), m.function(1), empty);
  ASSERT_TRUE(vec.pipeline.has_value());
  EXPECT_TRUE(vec.pipeline->contains("devectorize"));
  EXPECT_TRUE(vec.pipeline->contains("fma"));
  EXPECT_EQ(vec.alloc_policy, base.alloc_policy);

  // On the SIMD-capable x86sim no scalarization is derived (and no FMA:
  // the target has none).
  const JitOptions simd = derive_tier2_options(
      base, target_desc(TargetKind::X86Sim), m.function(1), empty);
  EXPECT_FALSE(simd.pipeline->contains("devectorize"));
  EXPECT_FALSE(simd.pipeline->contains("fma"));

  // Observed width feeds the demand estimate: vmax_u8 holds one v128
  // accumulator local; on a scalar target it scalarizes to the widest
  // observed lane count (16 x u8 -> 16 integer registers, on top of the
  // three scalar i32 locals).
  const uint32_t vmax = m.add_function(build_vector_max_u8());
  ProfileInfo wide;
  wide.lane16_ops = 10;
  const auto demand = estimate_register_demand(
      m.function(vmax), target_desc(TargetKind::PpcSim), wide);
  EXPECT_EQ(demand[static_cast<size_t>(RegClass::Int)], 19u);
  EXPECT_EQ(demand[static_cast<size_t>(RegClass::Flt)], 0u);
  // Unobserved vector width defaults to 4 lanes (and the f32 class).
  const auto blind = estimate_register_demand(
      m.function(vmax), target_desc(TargetKind::PpcSim), ProfileInfo{});
  EXPECT_EQ(blind[static_cast<size_t>(RegClass::Int)], 3u);
  EXPECT_EQ(blind[static_cast<size_t>(RegClass::Flt)], 4u);
}

/// Runs `name` on `target` and compares value and memory against the
/// reference interpreter.
void expect_matches_interpreter(OnlineTarget& target, const Module& m,
                                std::string_view name,
                                const std::vector<Value>& args,
                                const std::function<void(Memory&)>& setup,
                                uint8_t expected_tier) {
  Memory ref_mem(1 << 20);
  setup(ref_mem);
  Interpreter interp(m, ref_mem);
  const ExecResult ref = interp.run(name, args);
  ASSERT_TRUE(ref.ok()) << ref.trap_message();

  Memory mem(1 << 20);
  setup(mem);
  const SimResult got = target.run(name, args, mem);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.tier, expected_tier) << target.desc().name;
  if (ref.value.has_value() && ref.value->type != Type::Void) {
    EXPECT_EQ(*ref.value, got.value) << target.desc().name;
  }
  EXPECT_TRUE(std::equal(ref_mem.bytes().begin(), ref_mem.bytes().end(),
                         mem.bytes().begin()))
      << target.desc().name << ": memory diverged at tier "
      << int(expected_tier);
}

TEST(Tier2, BitIdenticalAcrossAllTiersOnEveryTarget) {
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
    OnlineTarget::Config config;
    config.tiers.mode = LoadMode::Tiered;
    config.tiers.promote_threshold = 2;  // call 1 interprets (and profiles)
    config.tiers.profile = true;
    config.tiers.tier2_threshold = 2;  // second JITed call re-specializes
    OnlineTarget target(kind, {}, config);
    load_or_die(target, m);

    for (const char* fn : {"saxpy", "vdot_f32"}) {
      const auto& args =
          std::string_view(fn) == "saxpy" ? saxpy_args : dot_args;
      // Tier 0 -> tier 1 -> tier 2, every call checked against the
      // reference interpreter.
      expect_matches_interpreter(target, m, fn, args, setup, 0);
      expect_matches_interpreter(target, m, fn, args, setup, 1);
      expect_matches_interpreter(target, m, fn, args, setup, 2);
      expect_matches_interpreter(target, m, fn, args, setup, 2);
    }
    const TierCounters counters = target.tier_counters();
    EXPECT_EQ(counters.tier2_functions, 2u) << target_desc(kind).name;
    EXPECT_EQ(counters.interpreted, 2u);
    EXPECT_EQ(counters.jitted, 6u);
    EXPECT_EQ(counters.tier2, 4u);
    // The tier-0 runs actually profiled: the re-specialization had data.
    EXPECT_FALSE(target.profile().empty());
  }
}

TEST(Tier2, ArtifactsCoexistInCacheAndAreShared) {
  Module m;
  m.add_function(build_scalar_saxpy());
  expect_verifies(m);
  CodeCache cache;
  OnlineTarget::Config config;
  config.tiers.mode = LoadMode::Tiered;
  // Straight to tier 1 (the profile stays empty).
  config.tiers.promote_threshold = 1;
  config.tiers.tier2_threshold = 2;
  config.cache = &cache;

  const auto setup = [](Memory& mem) {
    for (uint32_t i = 0; i < 8; ++i) mem.write_f32(1024 + 4 * i, 1.0f);
  };
  const std::vector<Value> args = {Value::make_f32(2.0f),
                                   Value::make_i32(1024),
                                   Value::make_i32(4096), Value::make_i32(8)};

  OnlineTarget first(TargetKind::X86Sim, {}, config);
  load_or_die(first, m);
  Memory mem(1 << 20);
  setup(mem);
  ASSERT_TRUE(first.run("saxpy", args, mem).ok());  // tier-1 compile
  ASSERT_TRUE(first.run("saxpy", args, mem).ok());  // tier-2 compile
  EXPECT_EQ(first.tier_counters().tier2_functions, 1u);
  // Two distinct entries: the keys differ in tier, so the artifacts
  // coexist (and would evict independently).
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_EQ(cache.stats().get("cache.compiles"), 2);

  // A same-kind, same-config core reuses *both* tiers from the cache:
  // identical empty profile -> identical profile hash -> identical keys.
  OnlineTarget second(TargetKind::X86Sim, {}, config);
  load_or_die(second, m);
  ASSERT_TRUE(second.run("saxpy", args, mem).ok());
  ASSERT_TRUE(second.run("saxpy", args, mem).ok());
  EXPECT_EQ(second.tier_counters().tier2_functions, 1u);
  EXPECT_EQ(cache.stats().get("cache.compiles"), 2);
  EXPECT_EQ(cache.stats().get("cache.hits"), 2);
}

// --- The full loop: run -> export -> re-import -> seeded tuner ------------

TEST(ProfileLoop, ExportReimportSeedsIterativeTuner) {
  const KernelInfo& kernel = branchy_max_kernel();
  constexpr int kN = 512;

  const auto workload = [&](OnlineTarget& target) -> uint64_t {
    Memory mem(1 << 20);
    Rng rng(7);
    for (int i = 0; i < kN; ++i) {
      mem.store_u8(1024 + static_cast<uint32_t>(i),
                   static_cast<uint8_t>(rng.next_u32()));
    }
    const SimResult r = target.run(
        kernel.fn_name, {Value::make_i32(1024), Value::make_i32(kN)}, mem);
    return r.ok() ? r.stats.cycles : UINT64_MAX;
  };

  // 1. Deploy tiered with profiling; stay at tier 0 so the interpreter
  //    observes the workload.
  const Module deployed = value_or_die(compile_module(kernel.source));
  OnlineTarget::Config config;
  config.tiers.mode = LoadMode::Tiered;
  config.tiers.promote_threshold = 1u << 30;
  config.tiers.profile = true;
  OnlineTarget device(TargetKind::X86Sim, {}, config);
  load_or_die(device, deployed);
  Memory mem(1 << 20);
  Rng rng(7);
  for (int i = 0; i < kN; ++i) {
    mem.store_u8(1024 + static_cast<uint32_t>(i),
                 static_cast<uint8_t>(rng.next_u32()));
  }
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(device
                    .run(kernel.fn_name,
                         {Value::make_i32(1024), Value::make_i32(kN)}, mem)
                    .ok());
  }

  // 2. Export and round-trip through the deployment image format.
  const Module exported = device.export_profiled_module();
  EXPECT_TRUE(has_profile(exported));
  const DeserializeResult imported =
      deserialize_module(serialize_module(exported));
  ASSERT_TRUE(imported.module.has_value()) << imported.error;

  // 3. The tuner's first evaluated config is the profile-derived seed.
  const TuneConfig seed = profile_seed_config(*imported.module);
  EXPECT_EQ(seed.name.rfind("pgo:", 0), 0u);
  const TuneResult result = tune_with_profile(
      kernel.source, TargetKind::X86Sim, workload, *imported.module);
  ASSERT_FALSE(result.all.empty());
  EXPECT_EQ(result.all.front().config.pipeline, seed.pipeline);
  EXPECT_EQ(result.all.front().config.str(), seed.str());
  // Seeding never loses the winner's quality class: the best candidate
  // was evaluated on the real simulator either way.
  EXPECT_LE(result.best.cycles, result.all.front().cycles);

  // 4. compile_module re-ingests: the next offline cycle carries the
  //    profile forward on the recompiled functions.
  OfflineOptions next_cycle;
  next_cycle.profile = &*imported.module;
  const auto recompiled = compile_module(kernel.source, next_cycle);
  ASSERT_TRUE(recompiled.ok()) << recompiled.error_text();
  EXPECT_TRUE(has_profile(*recompiled));
}

TEST(ProfileLoop, SpaceIsPrunedByObservedBehavior) {
  // A synthetic profile: scalar work only, short loops, fully biased
  // branches -> the seed disables vectorize and if-convert, and the
  // guided space drops the arms that use them.
  Module m;
  m.add_function(build_scalar_saxpy());
  ProfileData profile(1);
  profile.function(0).calls = 50;
  profile.function(0).scalar_ops = 5000;
  profile.function(0).branches[1] = {1000, 2};  // heavily biased
  profile.function(0).loops[1][trip_bucket(2)] = 50;  // short loops
  const Module profiled = attach_profile(m, profile);

  const TuneConfig seed = profile_seed_config(profiled);
  EXPECT_FALSE(seed.uses("vectorize"));
  EXPECT_FALSE(seed.uses("if_convert"));

  const std::vector<TuneConfig> space =
      profile_guided_space(profiled, classic8_preset());
  ASSERT_FALSE(space.empty());
  EXPECT_EQ(space.front().pipeline, seed.pipeline);
  for (const TuneConfig& config : space) {
    EXPECT_FALSE(config.uses("vectorize")) << config.str();
    EXPECT_FALSE(config.uses("if_convert")) << config.str();
  }
  // Classic8 collapses to the two surviving scalar arms plus the seed.
  EXPECT_LT(space.size(), classic8_preset().size());

  // An unprofiled module leaves the space untouched.
  Module bare;
  bare.add_function(build_scalar_saxpy());
  EXPECT_EQ(profile_guided_space(bare, classic8_preset()).size(),
            classic8_preset().size());
}

TEST(ProfileLoop, SocMergesAndExportsAcrossCores) {
  Module m;
  m.add_function(build_high_pressure());
  expect_verifies(m);

  SocOptions options;
  options.tiers.mode = LoadMode::Tiered;
  options.tiers.promote_threshold = 1u << 30;  // stay at tier 0: collect
  options.tiers.profile = true;
  Soc soc({{TargetKind::X86Sim, false}, {TargetKind::PpcSim, false}}, 1 << 16,
          {}, options);
  load_or_die(soc, m);
  for (uint32_t i = 0; i < 16; ++i) soc.memory().write_i32(4 * i, 3);
  ASSERT_TRUE(soc.run_on(0, "pressure16", {Value::make_i32(0)}).ok());
  ASSERT_TRUE(soc.run_on(1, "pressure16", {Value::make_i32(0)}).ok());

  const ProfileData merged = soc.profile();
  EXPECT_EQ(merged.function(0).calls, 2u);  // one per core, merged
  EXPECT_TRUE(has_profile(soc.export_profiled_module()));
}

}  // namespace
}  // namespace svc
