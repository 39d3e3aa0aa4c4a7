// The embeddable API, end to end, against exactly one header: compile ->
// deploy -> profile -> recompile. This is the ~10-line loop the facade
// exists for (see api/engine.h); it runs as a ctest smoke target, so the
// public surface stays sufficient for a real embedder on its own.
//
// Build & run:  ./build/example_embed_api
//
// Optional: --store <dir> persists JIT artifacts to an on-disk code
// cache, so a second invocation against the same directory warms up from
// disk instead of recompiling (docs/PERSISTENCE.md); --assert-warm makes
// that second invocation fail unless warm-up really was served entirely
// from the store (zero JIT compiles) -- the ctest warm-start smoke runs
// the example twice this way (tools/warm_start_smoke.cmake).
#include <cstdio>
#include <cstring>
#include <string>

#include "api/svc.h"

using namespace svc;

int main(int argc, char** argv) {
  std::string store_dir;
  bool assert_warm = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--assert-warm") == 0) {
      assert_warm = true;
    } else {
      std::fprintf(stderr, "usage: %s [--store <dir> [--assert-warm]]\n",
                   argv[0]);
      return 2;
    }
  }
  const char* source = R"(
    fn dot(x: *f32, y: *f32, n: i32) -> f32 {
      var acc: f32 = 0.0;
      var i: i32 = 0;
      while (i < n) {
        acc = acc + x[i] * y[i];
        i = i + 1;
      }
      return acc;
    }
  )";

  // One tiered, profiling engine; tier 2 re-specializes hot functions.
  // promote_threshold 2 keeps the first call in the tier-0 interpreter,
  // where the runtime profile is collected.
  Engine::Builder builder;
  builder.tiered(/*promote_threshold=*/2).profiling().tier2(/*threshold=*/8);
  // One extra line turns on restart persistence: JIT artifacts written
  // under store_dir survive this process and warm the next boot.
  if (!store_dir.empty()) builder.persistent_cache(store_dir);
  const Engine engine = builder.build().value();

  const ModuleHandle module = engine.compile(source).value();
  Deployment dep =
      engine.deploy(module, {{TargetKind::X86Sim, false}}).value();

  constexpr int kN = 256;
  for (int i = 0; i < kN; ++i) {
    dep.memory().write_f32(1024 + 4 * static_cast<uint32_t>(i), 0.5f);
    dep.memory().write_f32(8192 + 4 * static_cast<uint32_t>(i), 2.0f);
  }
  const std::vector<Value> args{Value::make_i32(1024), Value::make_i32(8192),
                                Value::make_i32(kN)};

  // First call interprets (tier 0) while the JIT warms up; warm_up()
  // finishes the promotion, later calls run JITed (tiers 1 then 2).
  const SimResult cold = dep.run("dot", args).value();
  dep.warm_up().get();
  if (!store_dir.empty()) {
    const Statistics cache = dep.cache_stats();
    std::printf("persistent store '%s': %lld compiles, %lld disk hits, "
                "%lld disk writes\n",
                store_dir.c_str(),
                static_cast<long long>(cache.get("cache.compiles")),
                static_cast<long long>(cache.get("cache.disk_hits")),
                static_cast<long long>(cache.get("cache.disk_writes")));
    if (assert_warm && (cache.get("cache.disk_hits") == 0 ||
                        cache.get("cache.compiles") != 0)) {
      std::fprintf(stderr, "--assert-warm: warm-up was not served from "
                           "the store\n");
      return 1;
    }
  }
  SimResult hot = cold;
  for (int i = 0; i < 16; ++i) hot = dep.run("dot", args).value();

  if (cold.value.f32 != hot.value.f32) {
    std::fprintf(stderr, "tier divergence: %g vs %g\n", cold.value.f32,
                 hot.value.f32);
    return 1;
  }
  const TierCounters tiers = dep.tier_counters();
  std::printf("dot = %g on tiers 0/%d; calls per tier: %llu interpreted, "
              "%llu jitted (%llu at tier 2)\n",
              hot.value.f32, hot.tier,
              static_cast<unsigned long long>(tiers.interpreted),
              static_cast<unsigned long long>(tiers.jitted),
              static_cast<unsigned long long>(tiers.tier2));

  // Close the loop: observed behavior seeds the next offline compile.
  const Engine tuned = Engine::Builder()
                           .with_profile(dep.export_profile())
                           .build()
                           .value();
  const ModuleHandle recompiled = tuned.compile(source).value();
  std::printf("profile-seeded recompile: %zu function(s), image %zu bytes\n",
              recompiled->num_functions(),
              Engine::save_bytecode(recompiled).size());
  return 0;
}
