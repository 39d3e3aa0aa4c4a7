// The persistent on-disk artifact store (runtime/persistent_cache.h) and
// its wiring under the shared CodeCache. Acceptance properties from the
// warm-start ISSUE:
//  - corruption never crashes: a byte flip, a mid-record truncation, and
//    a stale build fingerprint each load as a clean miss with
//    cache.disk_rejects incremented, then recompile and overwrite;
//  - disk-loaded artifacts are bit-identical to freshly compiled ones
//    (values, simulated cycles, step counts, memory effects) on all four
//    targets;
//  - the precomputed CodeCacheKey hash agrees with key equality;
//  - concurrent write-back of one key from racing threads is safe (the
//    TSan CI job runs this binary);
//  - a second Engine boot against a populated store warms up with zero
//    JIT compiles;
//  - an Engine opens its store once: warm deploys share it, create no
//    file in the store directory and count every probe as a disk hit;
//  - a CRC-valid entry still rejects when its fingerprint is foreign or a
//    counter key is unknown;
//  - Socs sharing one store may deploy concurrently (TSan CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "api/svc.h"
#include "driver/offline_compiler.h"
#include "fuzz/generator.h"
#include "support/crc32.h"
#include "targets/target_registry.h"
#include "test_util.h"

namespace svc {
namespace {

using namespace ::svc::testing;
namespace fs = std::filesystem;

/// Fresh store directory per test, removed on destruction.
struct TempStore {
  TempStore() {
    static std::atomic<int> counter{0};
    dir = (fs::temp_directory_path() /
           ("svc_pctest_" + std::to_string(static_cast<long long>(
#ifdef _WIN32
                                _getpid()
#else
                                getpid()
#endif
                                )) +
            "_" + std::to_string(counter.fetch_add(1))))
              .string();
    fs::remove_all(dir);
  }
  ~TempStore() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string dir;
};

Module build_suite_module() {
  Module m;
  m.set_name("persist_suite");
  m.add_function(build_scalar_saxpy());
  m.add_function(build_high_pressure());
  m.add_function(build_branchy_max_u8());
  m.add_function(build_vector_max_u8());
  m.add_function(build_vector_dot_f32());
  return m;
}

void fill_memory(Memory& mem) {
  Rng rng(7);
  for (uint32_t i = 0; i < 64; ++i) {
    mem.write_f32(0x1000 + 4 * i, rng.next_f32());
    mem.write_f32(0x2000 + 4 * i, rng.next_f32());
  }
  for (uint32_t i = 0; i < 256; ++i) {
    mem.store_u8(0x3000 + i, static_cast<uint8_t>(rng.next_u32()));
  }
}

std::vector<CoreSpec> all_cores() {
  std::vector<CoreSpec> cores;
  for (TargetKind kind : all_targets()) {
    cores.push_back({kind, kind == TargetKind::SpuSim});
  }
  return cores;
}

std::vector<uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Rewrites `path` with `bytes` and a fresh CRC trailer over them, so the
/// entry passes the checksum and validation has to look inside.
void write_sealed(const std::string& path, std::vector<uint8_t> bytes) {
  const uint32_t crc = crc32(bytes);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>((crc >> (8 * i)) & 0xff));
  }
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/// Args for each function of build_suite_module, by index.
std::vector<std::vector<Value>> suite_args() {
  return {
      {Value::make_f32(1.5f), Value::make_i32(0x1000), Value::make_i32(0x2000),
       Value::make_i32(16)},                              // saxpy
      {Value::make_i32(0x1000)},                          // pressure16
      {Value::make_i32(0x3000), Value::make_i32(64)},     // smax_u8
      {Value::make_i32(0x3000), Value::make_i32(4)},      // vmax_u8
      {Value::make_i32(0x1000), Value::make_i32(0x2000),
       Value::make_i32(4)},                               // vdot_f32
  };
}

// --- the precomputed key hash (hot-path micro-optimization) ---------------

TEST(CodeCacheKey, PrecomputedHashAgreesWithEquality) {
  const CodeCacheKey a{7, 3, TargetKind::SparcSim, "opts=x", 2, 99};
  const CodeCacheKey b{7, 3, TargetKind::SparcSim, "opts=x", 2, 99};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());  // equal keys MUST collide
  EXPECT_EQ(CodeCacheKeyHash{}(a), a.hash());

  // Copies carry the hash verbatim.
  const CodeCacheKey c = a;
  EXPECT_EQ(c.hash(), a.hash());
  EXPECT_EQ(c, a);

  // Any field difference breaks equality (hashes may collide in theory,
  // equality must not).
  EXPECT_FALSE(a == CodeCacheKey(8, 3, TargetKind::SparcSim, "opts=x", 2, 99));
  EXPECT_FALSE(a == CodeCacheKey(7, 4, TargetKind::SparcSim, "opts=x", 2, 99));
  EXPECT_FALSE(a == CodeCacheKey(7, 3, TargetKind::PpcSim, "opts=x", 2, 99));
  EXPECT_FALSE(a == CodeCacheKey(7, 3, TargetKind::SparcSim, "opts=y", 2, 99));
  EXPECT_FALSE(a == CodeCacheKey(7, 3, TargetKind::SparcSim, "opts=x", 1, 99));
  EXPECT_FALSE(a == CodeCacheKey(7, 3, TargetKind::SparcSim, "opts=x", 2, 98));
}

// --- the entry format -----------------------------------------------------

TEST(PersistentCache, EntryBytesStayFixedForMultiLaneLocalsAndSpilledArgs) {
  // The entry bytes of an artifact with de-vectorized (multi-lane) locals
  // and spilled call-site arguments, recorded when MFunction held its
  // register lists as vectors of vectors: the flat lists must write the
  // same bytes, or stores written by earlier builds would stop loading.
  const Module m =
      value_or_die(compile_module(fuzz::generate_program(7).source));
  const JitCompiler jit(target_desc(TargetKind::SparcSim));
  JitArtifact artifact;
  artifact.code = jit.compile(m, 2).code;
  artifact.stats.add(JitCounters::CodeBytes,
                     static_cast<int64_t>(artifact.code.code_bytes()));
  artifact.stats.add(JitCounters::SpilledVregs, 3);

  const MFunction& code = artifact.code;
  bool multi_lane_local = false;
  for (size_t l = 0; l < code.local_regs.size(); ++l) {
    multi_lane_local |= code.local_regs[l].size() > 1;
  }
  ASSERT_TRUE(multi_lane_local);
  ASSERT_TRUE(std::any_of(code.call_sites.all().begin(),
                          code.call_sites.all().end(),
                          [](const Reg& r) { return r.is_slot(); }));

  TempStore dir;
  const PersistentCache store = value_or_die(PersistentCache::open(dir.dir));
  const PersistentCacheKey key{0x5eed0007ull, 2, TargetKind::SparcSim,
                               jit.options().cache_key(), 1, 0};
  ASSERT_TRUE(store.store(key, artifact));
  std::ifstream in(store.entry_path(key), std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 5381u);
  EXPECT_EQ(crc32(bytes), 0x2144df1cu);

  const PersistentCache::LoadResult loaded = store.load(key);
  ASSERT_EQ(loaded.status, PersistentCache::LoadStatus::Hit);
  const MFunction& back = loaded.artifact->code;
  EXPECT_EQ(back.str(), code.str());
  EXPECT_EQ(back.param_regs, code.param_regs);
  EXPECT_EQ(back.call_sites, code.call_sites);
  EXPECT_EQ(back.local_regs, code.local_regs);
  EXPECT_EQ(back.ret_type, code.ret_type);
  EXPECT_EQ(back.allocated, code.allocated);
  Statistics want;
  Statistics got;
  artifact.stats.add_to(want);
  loaded.artifact->stats.add_to(got);
  EXPECT_EQ(got.all(), want.all());
}

// --- content hashing ------------------------------------------------------

TEST(PersistentCache, ContentHashTracksBodyAndInterface) {
  const Module m1 = build_call_module();  // add2 + combine (calls add2)
  const std::vector<uint64_t> h1 = PersistentCache::content_hashes(m1);
  ASSERT_EQ(h1.size(), 2u);

  // Identical module content (fresh process-local id): identical hashes.
  const std::vector<uint64_t> h1b =
      PersistentCache::content_hashes(build_call_module());
  EXPECT_EQ(h1, h1b);

  // Editing one body changes only that function's hash.
  Module m2;
  {
    m2.add_function(build_call_module().function(0));
    FunctionBuilder b("combine", {{Type::I32}, Type::I32});
    b.get(0).const_i32(5).call(0);  // different constant
    b.const_i32(3).const_i32(4).call(0);
    b.call(0).ret();
    m2.add_function(b.take());
  }
  const std::vector<uint64_t> h2 = PersistentCache::content_hashes(m2);
  EXPECT_EQ(h2[0], h1[0]);  // add2 untouched
  EXPECT_NE(h2[1], h1[1]);  // combine edited

  // Renaming the callee changes the module interface digest: EVERY hash
  // moves (call lowering depends on callee identity/signatures).
  Module m3;
  {
    FunctionBuilder b("add2_renamed", {{Type::I32, Type::I32}, Type::I32});
    b.get(0).get(1).op(Opcode::AddI32).ret();
    m3.add_function(b.take());
    m3.add_function(build_call_module().function(1));
  }
  const std::vector<uint64_t> h3 = PersistentCache::content_hashes(m3);
  EXPECT_NE(h3[0], h1[0]);
  EXPECT_NE(h3[1], h1[1]);
}

// --- corruption: every failure mode is a clean miss -----------------------

TEST(PersistentCache, CorruptEntriesRejectThenRecompileAndOverwrite) {
  const TempStore tmp;
  PersistentCache store = value_or_die(PersistentCache::open(tmp.dir));

  Module m;
  m.add_function(build_scalar_saxpy());
  const std::string options_key = JitOptions{}.cache_key();
  const PersistentCacheKey key{PersistentCache::content_hashes(m)[0], 0,
                               TargetKind::X86Sim, options_key, 1, 0};

  const JitCompiler jit(target_desc(TargetKind::X86Sim));
  const JitArtifact artifact = jit.compile(m, 0);
  ASSERT_TRUE(store.store(key, artifact));
  ASSERT_EQ(store.load(key).status, PersistentCache::LoadStatus::Hit);

  const std::string path = store.entry_path(key);
  ASSERT_TRUE(fs::exists(path));
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);

  // 1. Byte flip mid-file: CRC catches it.
  {
    std::vector<char> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    std::ofstream(path, std::ios::binary)
        .write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Reject);

  // 2. Mid-record truncation.
  {
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Reject);

  // 3. Stale build fingerprint (a store written by an incompatible
  // build): internally consistent, CRC-valid -- and still rejected.
  {
    const std::string stale = "schema=999;target=other;jit=old;compiler=v0";
    ASSERT_TRUE(store.store(key, artifact, &stale));
  }
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Reject);

  // Absent entry: a Miss, not a Reject.
  fs::remove(path);
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Miss);

  // Through the CodeCache: the stale entry rejects, the compile runs,
  // and the write-back overwrites the bad entry in place.
  {
    const std::string stale = "schema=999;target=other;jit=old;compiler=v0";
    ASSERT_TRUE(store.store(key, artifact, &stale));
  }
  CodeCache cache;
  cache.attach_persistent(&store);
  cache.register_module(m);
  int compiles = 0;
  const CodeCacheKey ck{m.id(), 0, TargetKind::X86Sim, options_key};
  const CodeCache::Artifact got = cache.get_or_compile(ck, [&] {
    ++compiles;
    return jit.compile(m, 0);
  });
  ASSERT_TRUE(got != nullptr);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(cache.stats().get("cache.disk_rejects"), 1);
  EXPECT_EQ(cache.stats().get("cache.disk_misses"), 1);
  EXPECT_EQ(cache.stats().get("cache.disk_writes"), 1);
  // The overwrite healed the entry: a fresh cache now loads it from disk
  // without compiling.
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Hit);
  CodeCache cache2;
  cache2.attach_persistent(&store);
  cache2.register_module(m);
  int compiles2 = 0;
  (void)cache2.get_or_compile(ck, [&] {
    ++compiles2;
    return jit.compile(m, 0);
  });
  EXPECT_EQ(compiles2, 0);
  EXPECT_EQ(cache2.stats().get("cache.disk_hits"), 1);
  EXPECT_EQ(cache2.stats().get("cache.disk_rejects"), 0);
}

TEST(PersistentCache, CrcValidEntriesRejectOnForeignFingerprintOrCounter) {
  const TempStore tmp;
  const PersistentCache store = value_or_die(PersistentCache::open(tmp.dir));
  Module m;
  m.add_function(build_scalar_saxpy());
  const std::string options_key = JitOptions{}.cache_key();
  const PersistentCacheKey key{PersistentCache::content_hashes(m)[0], 0,
                               TargetKind::X86Sim, options_key, 1, 0};
  const JitCompiler jit(target_desc(TargetKind::X86Sim));
  const JitArtifact artifact = jit.compile(m, 0);

  // Fingerprints that differ from the key's in one piece, or by one
  // character at the end.
  const std::string own =
      PersistentCache::build_fingerprint(TargetKind::X86Sim, options_key);
  const std::vector<std::string> foreign = {
      PersistentCache::build_fingerprint(TargetKind::PpcSim, options_key),
      PersistentCache::build_fingerprint(
          TargetKind::X86Sim, JitOptions(AllocPolicy::NaiveOnline, true)
                                  .cache_key()),
      own + "x",
      own.substr(0, own.size() - 1),
  };
  for (const std::string& fp : foreign) {
    ASSERT_TRUE(store.store(key, artifact, &fp));
    EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Reject)
        << fp;
  }
  ASSERT_TRUE(store.store(key, artifact, &own));
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Hit);

  // A counter key no JitCounters field has, in an entry whose CRC is
  // recomputed over the edit.
  const std::string path = store.entry_path(key);
  std::vector<uint8_t> body = read_bytes(path);
  body.resize(body.size() - 4);
  const std::string counter = "jit.code_bytes";
  const auto at = std::search(body.begin(), body.end(), counter.begin(),
                              counter.end());
  ASSERT_NE(at, body.end());
  uint8_t& last = *(at + static_cast<std::ptrdiff_t>(counter.size()) - 1);
  last = 'z';  // "jit.code_bytez"
  write_sealed(path, body);
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Reject);

  // Through a CodeCache the entry counts as a disk reject and recompiles.
  CodeCache cache;
  cache.attach_persistent(&store);
  cache.register_module(m);
  int compiles = 0;
  (void)cache.get_or_compile(
      CodeCacheKey{m.id(), 0, TargetKind::X86Sim, options_key}, [&] {
        ++compiles;
        return jit.compile(m, 0);
      });
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(cache.stats().get("cache.disk_rejects"), 1);
  EXPECT_EQ(cache.stats().get("cache.disk_hits"), 0);

  // The same re-sealing without the edit loads: the edit was the fault.
  std::vector<uint8_t> healed = read_bytes(path);
  healed.resize(healed.size() - 4);
  write_sealed(path, healed);
  EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Hit);
}

// --- bit identity on all four targets -------------------------------------

TEST(PersistentCache, WarmBootBitIdenticalOnAllTargets) {
  const TempStore tmp;
  const Module module = build_suite_module();
  const std::vector<std::vector<Value>> args = suite_args();

  const std::vector<CoreSpec> cores = all_cores();

  SocOptions options;
  options.tiers.mode = LoadMode::Eager;
  options.persistent_cache = std::make_shared<const PersistentCache>(
      value_or_die(PersistentCache::open(tmp.dir)));

  // Boot 1: compiles everything, writes everything back.
  Soc cold(cores, 1 << 20, {}, options);
  load_or_die(cold, module);
  const int64_t n_artifacts = cold.code_cache().stats().get("cache.compiles");
  EXPECT_EQ(n_artifacts,
            static_cast<int64_t>(cores.size() * module.num_functions()));
  EXPECT_EQ(cold.code_cache().stats().get("cache.disk_writes"), n_artifacts);
  fill_memory(cold.memory());

  // Boot 2: a fresh Soc against the same store loads everything from
  // disk -- zero CompileFn invocations.
  Soc warm(cores, 1 << 20, {}, options);
  load_or_die(warm, module);
  EXPECT_EQ(warm.code_cache().stats().get("cache.compiles"), 0);
  EXPECT_EQ(warm.code_cache().stats().get("cache.disk_hits"), n_artifacts);
  EXPECT_EQ(warm.code_cache().stats().get("cache.disk_rejects"), 0);
  fill_memory(warm.memory());

  // Identical runs, bit for bit: values, simulated cycles, step counts,
  // and the full memory image, per core kind and function.
  for (size_t c = 0; c < cores.size(); ++c) {
    for (uint32_t f = 0; f < module.num_functions(); ++f) {
      const SimResult expect = cold.run_on(c, f, args[f]);
      const SimResult got = warm.run_on(c, f, args[f]);
      ASSERT_TRUE(expect.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value, expect.value)
          << module.function(f).name() << " on core " << c;
      EXPECT_EQ(got.stats.cycles, expect.stats.cycles)
          << module.function(f).name() << " on core " << c;
      EXPECT_EQ(got.stats.instructions, expect.stats.instructions)
          << module.function(f).name() << " on core " << c;
      EXPECT_EQ(got.tier, expect.tier);
    }
  }
  EXPECT_TRUE(std::equal(cold.memory().bytes().begin(),
                         cold.memory().bytes().end(),
                         warm.memory().bytes().begin()))
      << "memory effects diverged between fresh and disk-loaded code";
}

// --- concurrent write-back (exercised under TSan in CI) -------------------

TEST(PersistentCache, ConcurrentWriteBackOneStoreIsSafe) {
  const TempStore tmp;
  PersistentCache store = value_or_die(PersistentCache::open(tmp.dir));
  Module m;
  m.add_function(build_scalar_saxpy());
  m.add_function(build_high_pressure());
  const std::string options_key = JitOptions{}.cache_key();
  const JitCompiler jit(target_desc(TargetKind::X86Sim));

  // Two independent caches (two "processes") race write-back of the same
  // keys into one store: readers must only ever see complete entries.
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    CodeCache cache_a, cache_b;
    cache_a.attach_persistent(&store);
    cache_b.attach_persistent(&store);
    cache_a.register_module(m);
    cache_b.register_module(m);
    std::thread ta([&] {
      for (uint32_t f = 0; f < 2; ++f) {
        (void)cache_a.get_or_compile(
            CodeCacheKey{m.id(), f, TargetKind::X86Sim, options_key},
            [&, f] { return jit.compile(m, f); });
      }
    });
    std::thread tb([&] {
      for (uint32_t f = 0; f < 2; ++f) {
        (void)cache_b.get_or_compile(
            CodeCacheKey{m.id(), f, TargetKind::X86Sim, options_key},
            [&, f] { return jit.compile(m, f); });
      }
    });
    ta.join();
    tb.join();
  }

  // Whoever won, the published entries are valid.
  const std::vector<uint64_t> hashes = PersistentCache::content_hashes(m);
  for (uint32_t f = 0; f < 2; ++f) {
    const PersistentCacheKey key{hashes[f], f, TargetKind::X86Sim,
                                 options_key, 1, 0};
    EXPECT_EQ(store.load(key).status, PersistentCache::LoadStatus::Hit);
  }
  // No leftover temp files from the racing writers.
  for (const fs::directory_entry& e : fs::directory_iterator(tmp.dir)) {
    EXPECT_EQ(e.path().extension(), ".svcc")
        << "unexpected file in store: " << e.path();
  }
}

// --- the Engine facade ----------------------------------------------------

/// Name, size and modification time of every file in `dir`, sorted.
std::vector<std::string> listing(const std::string& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    out.push_back(
        e.path().filename().string() + " " +
        std::to_string(e.file_size()) + " " +
        std::to_string(e.last_write_time().time_since_epoch().count()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PersistentCache, WarmDeploysShareTheEngineStoreAndCreateNoFile) {
  const TempStore tmp;
  const Engine engine =
      value_or_die(Engine::Builder().eager().persistent_cache(tmp.dir).build());
  const PersistentCache* store = engine.options().runtime.persistent_cache.get();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(listing(tmp.dir).empty()) << "build() left its write probe";

  const ModuleHandle module = ModuleHandle::adopt(build_suite_module());
  const std::vector<CoreSpec> cores = all_cores();
  const auto n_artifacts =
      static_cast<int64_t>(cores.size() * module->num_functions());
  {
    Deployment cold = value_or_die(engine.deploy(module, cores));
    EXPECT_EQ(cold.cache_stats().get("cache.disk_writes"), n_artifacts);
  }
  const std::vector<std::string> before = listing(tmp.dir);
  ASSERT_EQ(static_cast<int64_t>(before.size()), n_artifacts);
  // Creating or removing any file, even a write probe removed again,
  // moves the directory's own modification time.
  const fs::file_time_type dir_time = fs::last_write_time(tmp.dir);

  constexpr int kWarmDeploys = 4;
  for (int i = 0; i < kWarmDeploys; ++i) {
    Deployment warm = value_or_die(engine.deploy(module, cores));
    EXPECT_EQ(warm.soc().persistent_cache(), store);
    const Statistics stats = warm.cache_stats();
    EXPECT_EQ(stats.get("cache.compiles"), 0);
    EXPECT_EQ(stats.get("cache.disk_hits"), n_artifacts);
    EXPECT_EQ(stats.get("cache.disk_misses"), 0);
    EXPECT_EQ(stats.get("cache.disk_writes"), 0);
    EXPECT_EQ(listing(tmp.dir), before) << "warm deploy " << i;
    EXPECT_EQ(fs::last_write_time(tmp.dir), dir_time) << "warm deploy " << i;
  }
  for (const std::string& entry : listing(tmp.dir)) {
    EXPECT_FALSE(entry.starts_with(".probe.")) << entry;
  }
}

TEST(PersistentCache, SocsSharingOneStoreDeployConcurrently) {
  // Threads deploy the same module from one Engine at once, twice: the
  // first round races compiles and write-backs into the shared store,
  // the second races disk probes. The TSan CI job runs this binary.
  const TempStore tmp;
  const Engine engine =
      value_or_die(Engine::Builder().eager().persistent_cache(tmp.dir).build());
  const ModuleHandle module = ModuleHandle::adopt(build_suite_module());
  const std::vector<CoreSpec> cores = all_cores();
  const auto n_artifacts =
      static_cast<int64_t>(cores.size() * module->num_functions());
  constexpr int kThreads = 3;
  for (const bool warm : {false, true}) {
    std::vector<Statistics> stats(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Deployment dep = value_or_die(engine.deploy(module, cores));
        stats[t] = dep.cache_stats();
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Statistics& s : stats) {
      EXPECT_EQ(s.get("cache.disk_hits") + s.get("cache.compiles"),
                n_artifacts);
      EXPECT_EQ(s.get("cache.disk_rejects"), 0);
      if (warm) {
        EXPECT_EQ(s.get("cache.compiles"), 0);
      }
    }
  }
  for (const fs::directory_entry& e : fs::directory_iterator(tmp.dir)) {
    EXPECT_EQ(e.path().extension(), ".svcc")
        << "unexpected file in store: " << e.path();
  }
}

TEST(PersistentCache, BuilderRejectsUnusablePath) {
  const TempStore tmp;
  fs::create_directories(tmp.dir);
  const std::string file_path = tmp.dir + "/not_a_directory";
  std::ofstream(file_path) << "occupied";

  const Result<Engine> engine =
      Engine::Builder().persistent_cache(file_path).build();
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.error_text().find("persistent_cache"), std::string::npos);
}

TEST(PersistentCache, EngineSecondBootWarmsUpWithZeroCompiles) {
  const TempStore tmp;
  const std::vector<CoreSpec> cores = {{TargetKind::X86Sim, false},
                                       {TargetKind::SparcSim, false}};
  const std::vector<std::vector<Value>> args = suite_args();

  const auto make_engine = [&] {
    return value_or_die(Engine::Builder()
                            .tiered(/*promote_threshold=*/1)
                            .persistent_cache(tmp.dir)
                            .build());
  };

  Value first_value;
  {
    const Engine engine = make_engine();
    Deployment dep = value_or_die(
        engine.deploy(ModuleHandle::adopt(build_suite_module()), cores));
    dep.warm_up().get();
    const Statistics stats = dep.cache_stats();
    EXPECT_GT(stats.get("cache.compiles"), 0);
    EXPECT_EQ(stats.get("cache.disk_writes"), stats.get("cache.compiles"));
    fill_memory(dep.memory());
    const SimResult r = value_or_die(dep.run("vdot_f32", args[4]));
    ASSERT_TRUE(r.ok());
    first_value = r.value;
  }

  // Second boot: fresh Engine, fresh Deployment, same store.
  const Engine engine = make_engine();
  Deployment dep = value_or_die(
      engine.deploy(ModuleHandle::adopt(build_suite_module()), cores));
  dep.warm_up().get();
  const Statistics stats = dep.cache_stats();
  EXPECT_EQ(stats.get("cache.compiles"), 0);
  EXPECT_GT(stats.get("cache.disk_hits"), 0);
  EXPECT_EQ(stats.get("cache.disk_rejects"), 0);
  fill_memory(dep.memory());
  const SimResult r = value_or_die(dep.run("vdot_f32", args[4]));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, first_value);
  EXPECT_GE(r.tier, 1);  // warm deployment serves JITed code immediately
}

}  // namespace
}  // namespace svc
