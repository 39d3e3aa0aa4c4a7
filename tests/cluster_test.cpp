// The sharded serving layer (serve/cluster.h) and its support pieces
// (LatencyHistogram::Snapshot::merge, aggregate_server_stats,
// merge_profiles):
//
//   - a submit storm through a Cluster produces bit-identical results to
//     sequential Deployment::run, on every simulated target, under both
//     routing policies -- routing affects placement, never results,
//   - the aggregation identities hold: summed per-shard totals equal the
//     cluster totals, merged latency percentiles stay within bucket
//     resolution,
//   - consistent-hash keeps a function on one shard and re-routes it
//     when that shard drains; least-loaded spreads same-function traffic
//     near-evenly,
//   - drain(shard) under live traffic loses nothing, and restart(shard)
//     re-warms from the persistent store with zero JIT compiles,
//   - cross-shard profile merging aggregates fleet traffic exactly once
//     (repeated merges do not double-count the seeded baseline).
//
// This suite runs under ThreadSanitizer in CI; sizes are kept small.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "api/svc.h"
#include "support/latency_histogram.h"
#include "test_util.h"
#include "vm/profile.h"

namespace svc {
namespace {

using svc::testing::value_or_die;
namespace fs = std::filesystem;

// --- support pieces --------------------------------------------------------

TEST(LatencyHistogramMergeTest, MergeEqualsCombinedStream) {
  LatencyHistogram a, b, combined;
  for (uint64_t v : {100u, 120u, 90u, 100000u}) {
    a.record(v);
    combined.record(v);
  }
  for (uint64_t v : {7u, 3000u, 100u}) {
    b.record(v);
    combined.record(v);
  }
  LatencyHistogram::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const LatencyHistogram::Snapshot expect = combined.snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_EQ(merged.sum, expect.sum);
  EXPECT_EQ(merged.min, expect.min);
  EXPECT_EQ(merged.max, expect.max);
  for (size_t bkt = 0; bkt < LatencyHistogram::kBuckets; ++bkt) {
    EXPECT_EQ(merged.buckets[bkt], expect.buckets[bkt]) << "bucket " << bkt;
  }
  // Position-aligned buckets make merged percentiles exactly the
  // combined stream's percentiles, not an approximation of them.
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.percentile(q), expect.percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramMergeTest, MergeWithEmptySidesIsIdentity) {
  LatencyHistogram a;
  a.record(42);
  LatencyHistogram::Snapshot merged = a.snapshot();
  merged.merge(LatencyHistogram().snapshot());
  EXPECT_EQ(merged.count, 1u);
  EXPECT_EQ(merged.min, 42u);
  EXPECT_EQ(merged.max, 42u);

  LatencyHistogram::Snapshot empty = LatencyHistogram().snapshot();
  empty.merge(a.snapshot());
  EXPECT_EQ(empty.count, 1u);
  EXPECT_EQ(empty.min, 42u) << "an empty left side must adopt min";
}

TEST(MergeProfilesTest, UnionOfFunctionRangesNullsSkipped) {
  ProfileData small(1);
  small.record_call(0);
  small.record_call(0);
  ProfileData big(3);
  big.record_call(0);
  big.record_call(2);

  const std::vector<const ProfileData*> parts = {&small, nullptr, &big};
  const ProfileData merged = merge_profiles(parts);
  ASSERT_EQ(merged.num_functions(), 3u);
  EXPECT_EQ(merged.function(0).calls, 3u);
  EXPECT_EQ(merged.function(1).calls, 0u);
  EXPECT_EQ(merged.function(2).calls, 1u);

  EXPECT_EQ(merge_profiles({}).num_functions(), 0u);
}

TEST(AggregateServerStatsTest, TotalsSumAndFunctionsMergeByName) {
  ServerStats a;
  a.submitted = 10;
  a.accepted = 9;
  a.rejected = 1;
  a.completed = 9;
  a.batches = 3;
  a.sim_cycles = 900;
  a.wall_seconds = 2.0;
  a.latency.count = 9;
  a.latency.sum = 900;
  a.latency.min = 50;
  a.latency.max = 200;
  a.functions.push_back({"reduce", 0, 6, 1, 6, 2, 4, 0, {}});
  a.functions.push_back({"scale", 1, 3, 0, 3, 3, 0, 0, {}});

  ServerStats b;
  b.submitted = 4;
  b.accepted = 4;
  b.completed = 4;
  b.batches = 2;
  b.sim_cycles = 400;
  b.wall_seconds = 4.0;
  b.latency.count = 4;
  b.latency.sum = 400;
  b.latency.min = 10;
  b.latency.max = 500;
  b.functions.push_back({"reduce", 2, 4, 0, 4, 0, 2, 2, {}});

  const std::vector<ServerStats> shards = {a, b};
  const ServerStats total = aggregate_server_stats(shards);
  EXPECT_EQ(total.submitted, 14u);
  EXPECT_EQ(total.accepted, 13u);
  EXPECT_EQ(total.rejected, 1u);
  EXPECT_EQ(total.completed, 13u);
  EXPECT_EQ(total.batches, 5u);
  EXPECT_EQ(total.sim_cycles, 1300u);
  EXPECT_DOUBLE_EQ(total.wall_seconds, 4.0) << "shards serve concurrently";
  EXPECT_DOUBLE_EQ(total.requests_per_sec, 13.0 / 4.0);
  EXPECT_EQ(total.latency.count, 13u);
  EXPECT_EQ(total.latency.sum, 1300u);
  EXPECT_EQ(total.latency.min, 10u);
  EXPECT_EQ(total.latency.max, 500u);
  EXPECT_TRUE(total.cores.empty())
      << "core indices are per-server; the fold must not invent a fleet "
         "core table";

  ASSERT_EQ(total.functions.size(), 2u);
  const FunctionServeStats& reduce = total.functions[0];
  EXPECT_EQ(reduce.name, "reduce");
  EXPECT_EQ(reduce.accepted, 10u);
  EXPECT_EQ(reduce.completed, 10u);
  EXPECT_EQ(reduce.tier0, 2u);
  EXPECT_EQ(reduce.tier1, 6u);
  EXPECT_EQ(reduce.tier2, 2u);
  EXPECT_EQ(total.functions[1].name, "scale");
}

// --- serving fixtures ------------------------------------------------------

constexpr uint32_t kDataBase = 4096;
constexpr int kElems = 256;

ModuleHandle build_reduce_suite() {
  Module suite;
  suite.set_name("serve_suite");
  for (const KernelInfo& k : table1_kernels()) {
    if (k.shape != KernelShape::ReduceU8 && k.shape != KernelShape::ReduceU16) {
      continue;
    }
    Module m = value_or_die(compile_module(k.source));
    suite.add_function(m.function(0));
  }
  return ModuleHandle::adopt(std::move(suite));
}

void fill_data(Memory& mem) {
  for (uint32_t i = 0; i < 2 * kElems; ++i) {
    mem.store_u8(kDataBase + i, static_cast<uint8_t>(i * 37 + 11));
  }
}

std::vector<Value> reduce_args() {
  return {Value::make_i32(kDataBase), Value::make_i32(kElems)};
}

std::vector<CoreSpec> all_target_cores() {
  std::vector<CoreSpec> cores;
  for (TargetKind kind : all_targets()) {
    cores.push_back({kind, kind == TargetKind::SpuSim});
  }
  return cores;
}

/// Fresh persistent-store directory per test, removed on destruction.
struct TempStore {
  TempStore() {
    static std::atomic<int> counter{0};
    dir = (fs::temp_directory_path() /
           ("svc_cluster_test_" +
            std::to_string(static_cast<long long>(getpid())) + "_" +
            std::to_string(counter.fetch_add(1))))
              .string();
    fs::remove_all(dir);
  }
  ~TempStore() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string dir;
};

std::vector<Value> sequential_reference(const Engine& engine,
                                        const ModuleHandle& suite) {
  Deployment reference =
      value_or_die(engine.deploy(suite, all_target_cores()));
  fill_data(reference.memory());
  std::vector<Value> expected;
  for (uint32_t f = 0; f < suite->num_functions(); ++f) {
    const SimResult r = value_or_die(
        reference.run(suite->function(f).name(), reduce_args()));
    EXPECT_TRUE(r.ok());
    expected.push_back(r.value);
  }
  return expected;
}

// --- the cluster -----------------------------------------------------------

TEST(ClusterTest, StormBitIdenticalToSequentialRunAllTargetsBothPolicies) {
  const ModuleHandle suite = build_reduce_suite();
  ASSERT_EQ(suite->num_functions(), 3u);
  const Engine engine = value_or_die(Engine::Builder()
                                         .tiered(/*promote_threshold=*/2)
                                         .profiling()
                                         .tier2(/*threshold=*/4)
                                         .pool_threads(2)
                                         .serving({.workers = 0,
                                                   .queue_depth = 1024,
                                                   .batch_max = 8})
                                         .build());
  const std::vector<Value> expected = sequential_reference(engine, suite);

  for (const RoutingPolicy policy :
       {RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded}) {
    ClusterOptions opts;
    opts.shards = 2;
    opts.routing = policy;
    opts.memory_init = fill_data;
    Cluster cluster = value_or_die(
        Cluster::create(engine, suite, all_target_cores(), opts));
    ASSERT_EQ(cluster.num_shards(), 2u);

    constexpr int kClients = 4;
    constexpr int kPerClientPerFn = 6;
    std::vector<std::future<Result<SimResult>>> futures(
        kClients * kPerClientPerFn * 3);
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (int i = 0; i < kPerClientPerFn * 3; ++i) {
            const uint32_t f = static_cast<uint32_t>(i % 3);
            futures[static_cast<size_t>(t) * kPerClientPerFn * 3 + i] =
                cluster.submit(suite->function(f).name(), reduce_args());
          }
        });
      }
      for (auto& t : clients) t.join();
    }
    for (size_t slot = 0; slot < futures.size(); ++slot) {
      Result<SimResult> r = futures[slot].get();
      ASSERT_TRUE(r.ok()) << r.error_text();
      ASSERT_TRUE(r->ok());
      const uint32_t f = static_cast<uint32_t>(slot % 3);
      EXPECT_EQ(r->value, expected[f])
          << "cluster result diverged from sequential run for '"
          << suite->function(f).name() << "'";
    }

    // Aggregation identities after quiescing: the fleet-wide fold equals
    // the sum of the shards, and the cluster-level routing counters
    // reconcile with what the shards accepted.
    cluster.drain();
    const ClusterStats stats = cluster.stats();
    const uint64_t total = futures.size();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.routed, total);
    EXPECT_EQ(stats.rejected_unroutable, 0u);
    EXPECT_EQ(stats.aggregate.submitted, total);
    EXPECT_EQ(stats.aggregate.completed, total);
    EXPECT_EQ(stats.aggregate.latency.count, total);
    uint64_t shard_completed = 0, shard_routed = 0, shard_cycles = 0;
    for (const ShardStats& ss : stats.shards) {
      shard_completed += ss.server.completed;
      shard_routed += ss.routed;
      shard_cycles += ss.server.sim_cycles;
      EXPECT_EQ(ss.server.submitted, ss.routed)
          << "every request a shard saw came through the cluster";
    }
    EXPECT_EQ(shard_completed, total);
    EXPECT_EQ(shard_routed, total);
    EXPECT_EQ(shard_cycles, stats.aggregate.sim_cycles);
    EXPECT_GT(stats.aggregate.sim_cycles, 0u);
    // Merged percentiles stay within the observed range (bucket
    // resolution -- see LatencyHistogram::Snapshot::merge).
    const LatencyHistogram::Snapshot& lat = stats.aggregate.latency;
    EXPECT_GE(lat.percentile(0.50), lat.min);
    EXPECT_LE(lat.percentile(0.50), lat.max);
    EXPECT_GE(lat.percentile(0.99), lat.min);
    EXPECT_LE(lat.percentile(0.99), lat.max);
  }
}

TEST(ClusterTest, ConsistentHashPinsFunctionAndRedrainsReroute) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder().build());
  ClusterOptions opts;
  opts.shards = 3;
  opts.memory_init = fill_data;
  Cluster cluster = value_or_die(Cluster::create(
      engine, suite, {{TargetKind::X86Sim, false}}, opts));

  const std::string fn(suite->function(0).name());
  const size_t home = value_or_die(cluster.routed_shard(fn));
  for (int i = 0; i < 6; ++i) {
    Result<SimResult> r = cluster.submit(fn, reduce_args()).get();
    ASSERT_TRUE(r.ok()) << r.error_text();
  }
  cluster.drain();
  ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.shards[home].routed, 6u)
      << "consistent hash must pin a function to its home shard";

  // Drain the home shard: traffic must re-route to a peer, not be lost.
  value_or_die(cluster.drain(home));
  EXPECT_EQ(value_or_die(cluster.shard_health(home)),
            ShardHealth::Draining);
  for (int i = 0; i < 4; ++i) {
    Result<SimResult> r = cluster.submit(fn, reduce_args()).get();
    ASSERT_TRUE(r.ok()) << r.error_text();
  }
  cluster.drain();
  stats = cluster.stats();
  EXPECT_EQ(stats.shards[home].routed, 6u)
      << "a Draining shard must receive no new cluster traffic";
  EXPECT_EQ(stats.routed, 10u);
  EXPECT_EQ(stats.rejected_unroutable, 0u);
  // The static ring answer is unchanged -- re-routing is a health
  // overlay, not a ring rebuild.
  EXPECT_EQ(value_or_die(cluster.routed_shard(fn)), home);
}

TEST(ClusterTest, LeastLoadedSpreadsSameFunctionTraffic) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder().build());
  ClusterOptions opts;
  opts.shards = 4;
  opts.routing = RoutingPolicy::LeastLoaded;
  opts.memory_init = fill_data;
  Cluster cluster = value_or_die(Cluster::create(
      engine, suite, {{TargetKind::X86Sim, false}}, opts));

  // routed_shard has no static answer under least-loaded routing.
  EXPECT_FALSE(cluster.routed_shard(suite->function(0).name()).ok());

  constexpr uint64_t kRequests = 64;
  const std::string fn(suite->function(0).name());
  for (uint64_t i = 0; i < kRequests; ++i) {
    Result<SimResult> r = cluster.submit(fn, reduce_args()).get();
    ASSERT_TRUE(r.ok()) << r.error_text();
    // A reply can arrive before its shard's in-flight count drops; drain
    // so every pick sees settled counts instead of racing the worker.
    cluster.drain();
  }
  const ClusterStats stats = cluster.stats();
  uint64_t min_routed = UINT64_MAX, max_routed = 0;
  for (const ShardStats& ss : stats.shards) {
    min_routed = std::min(min_routed, ss.routed);
    max_routed = std::max(max_routed, ss.routed);
  }
  EXPECT_GE(min_routed, kRequests / 8)
      << "least-loaded must not starve a shard";
  EXPECT_LE(max_routed, kRequests / 2)
      << "least-loaded must not pile same-function traffic onto one "
         "shard (consistent hash would)";
}

TEST(ClusterTest, DrainUnderLiveTrafficLosesNothingRestartZeroCompiles) {
  const TempStore store;
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder()
                                         .tiered(/*promote_threshold=*/1)
                                         .pool_threads(2)
                                         .persistent_cache(store.dir)
                                         .serving({.workers = 0,
                                                   .queue_depth = 1024,
                                                   .batch_max = 4})
                                         .build());
  ClusterOptions opts;
  opts.shards = 2;
  opts.routing = RoutingPolicy::LeastLoaded;
  opts.memory_init = fill_data;
  Cluster cluster = value_or_die(Cluster::create(
      engine, suite, {{TargetKind::X86Sim, false}}, opts));

  // Populate the persistent store (and the shards' own caches).
  cluster.warm_up();

  // Live traffic across the drain + restart: every submitted request
  // must resolve with a bit-correct result -- none lost, none broken.
  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        const uint32_t f = static_cast<uint32_t>(i % 3);
        Result<SimResult> r =
            cluster.submit(suite->function(f).name(), reduce_args()).get();
        if (!r.ok() || !r->ok()) {
          failures.fetch_add(1);
        } else {
          completed.fetch_add(1);
        }
      }
    });
  }

  ASSERT_TRUE(cluster.drain(0).ok());
  EXPECT_EQ(value_or_die(cluster.shard_health(0)), ShardHealth::Draining);
  ASSERT_TRUE(cluster.restart(0).ok());
  EXPECT_EQ(value_or_die(cluster.shard_health(0)), ShardHealth::Serving);

  for (auto& t : clients) t.join();
  cluster.drain();
  EXPECT_EQ(failures.load(), 0)
      << "drain/restart under live traffic must lose nothing";
  EXPECT_EQ(completed.load(),
            static_cast<uint64_t>(kClients) * kPerClient);

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.rejected_unroutable, 0u)
      << "the peer shard must cover while shard 0 is out";
  EXPECT_EQ(stats.shards[0].restarts, 1u);
  // The restarted shard re-warmed from the persistent store: artifacts
  // installed from disk, the JIT never invoked.
  EXPECT_EQ(stats.shards[0].server.cache.get("cache.compiles"), 0)
      << "a warm persistent store must make restart compile-free";
  EXPECT_GT(stats.shards[0].server.cache.get("cache.disk_hits"), 0);
}

TEST(ClusterTest, NoServingShardRejectsUnroutable) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder().build());
  ClusterOptions opts;
  opts.shards = 1;
  opts.memory_init = fill_data;
  Cluster cluster = value_or_die(Cluster::create(
      engine, suite, {{TargetKind::X86Sim, false}}, opts));
  ASSERT_TRUE(cluster.drain(0).ok());

  Result<SimResult> r =
      cluster.submit(suite->function(0).name(), reduce_args()).get();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("no Serving shard"), std::string::npos);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.rejected_unroutable, 1u);
  EXPECT_EQ(stats.routed, 0u);

  EXPECT_FALSE(cluster.drain(7).ok());
  EXPECT_FALSE(cluster.restart(7).ok());
  EXPECT_FALSE(cluster.shard_health(7).ok());
}

TEST(ClusterTest, ProfileMergeAggregatesFleetTrafficWithoutDoubleCount) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder()
                                         .tiered(/*promote_threshold=*/1000)
                                         .profiling()
                                         .build());
  ClusterOptions opts;
  opts.shards = 2;
  opts.routing = RoutingPolicy::LeastLoaded;
  opts.memory_init = fill_data;
  Cluster cluster = value_or_die(Cluster::create(
      engine, suite, {{TargetKind::X86Sim, false}}, opts));

  constexpr uint64_t kPerFn = 8;
  for (uint32_t f = 0; f < suite->num_functions(); ++f) {
    for (uint64_t i = 0; i < kPerFn; ++i) {
      ASSERT_TRUE(
          cluster.submit(suite->function(f).name(), reduce_args()).get().ok());
    }
  }
  cluster.drain();

  // The fleet aggregate covers every shard's slice of the traffic.
  const ProfileData merged = cluster.merge_profiles();
  ASSERT_EQ(merged.num_functions(), suite->num_functions());
  for (uint32_t f = 0; f < suite->num_functions(); ++f) {
    EXPECT_EQ(merged.function(f).calls, kPerFn)
        << "fleet profile must see every shard's calls of function " << f;
  }
  EXPECT_EQ(cluster.stats().profile_merges, 1u);

  // Seeding must not leak into the shards' own observations: a second
  // merge round over quiesced traffic reports identical counts (a
  // naive implementation would re-absorb the seed and double them).
  const ProfileData again = cluster.merge_profiles();
  for (uint32_t f = 0; f < suite->num_functions(); ++f) {
    EXPECT_EQ(again.function(f).calls, kPerFn)
        << "repeated merges must stay idempotent on quiesced traffic";
  }

  // The exported module carries the fleet profile as annotations.
  const ModuleHandle exported = cluster.export_profile();
  EXPECT_TRUE(has_profile(*exported));
  const ProfileData reread = extract_profile(*exported);
  ASSERT_EQ(reread.num_functions(), suite->num_functions());
  EXPECT_EQ(reread.function(0).calls, kPerFn);
}

TEST(ClusterTest, AutomaticMergeCadenceFires) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(
      Engine::Builder().tiered(/*promote_threshold=*/1000).profiling().build());
  ClusterOptions opts;
  opts.shards = 2;
  opts.routing = RoutingPolicy::LeastLoaded;
  opts.profile_merge_interval = 4;
  opts.memory_init = fill_data;
  Cluster cluster = value_or_die(Cluster::create(
      engine, suite, {{TargetKind::X86Sim, false}}, opts));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        cluster.submit(suite->function(0).name(), reduce_args()).get().ok());
  }
  cluster.drain();
  EXPECT_EQ(cluster.stats().profile_merges, 2u)
      << "a merge round every profile_merge_interval accepted requests";
}

TEST(ClusterTest, OptionValidationListsEveryProblem) {
  ClusterOptions bad;
  bad.shards = 0;
  bad.virtual_nodes = 0;
  bad.load_ewma_alpha = 0.0;

  const Result<Engine> built = Engine::Builder().cluster(bad).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().size(), 3u);

  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder().build());
  const Result<Cluster> cluster =
      Cluster::create(engine, suite, {{TargetKind::X86Sim, false}}, bad);
  ASSERT_FALSE(cluster.ok());
  EXPECT_EQ(cluster.error().size(), 3u);
}

TEST(ClusterTest, ServeClusterUsesEngineOptions) {
  const ModuleHandle suite = build_reduce_suite();
  ClusterOptions opts;
  opts.shards = 3;
  opts.memory_init = fill_data;
  const Engine engine =
      value_or_die(Engine::Builder().cluster(opts).build());
  Cluster cluster = value_or_die(
      serve_cluster(engine, suite, {{TargetKind::X86Sim, false}}));
  EXPECT_EQ(cluster.num_shards(), 3u);
  Result<SimResult> r =
      cluster.submit(suite->function(0).name(), reduce_args()).get();
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_TRUE(r->ok());
}

}  // namespace
}  // namespace svc
