// The serving layer (serve/server.h) and its support pieces
// (support/mpmc_queue.h, support/latency_histogram.h):
//
//   - an N-thread submit storm produces bit-identical results to
//     sequential Deployment::run on a SoC with every simulated target,
//   - admission control rejects (with a Result error, not unbounded
//     queue growth) when a core's queue is at its watermark,
//   - batched serving promotes a function to tier 1 and re-specializes
//     it at tier 2 from *aggregate* traffic no single client would
//     trigger alone,
//   - the ServerStats identities hold once traffic has quiesced,
//   - destruction resolves every accepted future (none are broken),
//   - tier-counter snapshots stay consistent while traffic runs,
//   - the Deployment::warm_up contract: jobs never dangle, and the
//     returned future stays waitable past the Deployment.
//
// This suite (with tests/code_cache_test.cpp and tests/runtime_test.cpp)
// runs under ThreadSanitizer in CI; sizes are kept small.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/svc.h"
#include "support/latency_histogram.h"
#include "support/mpmc_queue.h"
#include "test_util.h"

namespace svc {
namespace {

using svc::testing::value_or_die;

// --- support pieces --------------------------------------------------------

TEST(MpmcQueueTest, PushPopBatchCapacityClose) {
  BoundedMpmcQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_FALSE(q.try_push(1).has_value());
  EXPECT_FALSE(q.try_push(2).has_value());
  EXPECT_FALSE(q.try_push(3).has_value());
  EXPECT_TRUE(q.try_push(4).has_value())
      << "push past capacity must be refused";
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.peak_depth(), 3u);

  std::vector<int> batch;
  EXPECT_EQ(q.try_pop_batch(batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));

  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);

  EXPECT_FALSE(q.try_push(5).has_value());
  q.close();
  EXPECT_TRUE(q.try_push(6).has_value())
      << "push after close must be refused";
  EXPECT_TRUE(q.pop(v)) << "items accepted before close stay poppable";
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(q.pop(v)) << "closed and drained";
}

TEST(MpmcQueueTest, MoveOnlyItemsComeBackOnRefusedPush) {
  BoundedMpmcQueue<std::unique_ptr<int>> q(1);
  EXPECT_FALSE(q.try_push(std::make_unique<int>(7)).has_value());
  std::optional<std::unique_ptr<int>> refused =
      q.try_push(std::make_unique<int>(8));
  ASSERT_TRUE(refused.has_value())
      << "a full queue must hand the item back";
  ASSERT_NE(*refused, nullptr);
  EXPECT_EQ(**refused, 8);
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedMpmcQueue<int> q(16);
  std::atomic<int> popped{0};
  std::atomic<long long> sum{0};

  std::vector<std::thread> consumers;
  consumers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    consumers.emplace_back([&] {
      int v = 0;
      while (q.pop(v)) {
        sum.fetch_add(v, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&q, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Spin on a full queue: the bound sheds load, the test wants
        // every item through.
        while (q.try_push(t * kPerProducer + i).has_value()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const int n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(LatencyHistogramTest, CountsAndPercentileBuckets) {
  LatencyHistogram hist;
  // 90 fast samples around 100, 10 slow ones around 100000.
  for (int i = 0; i < 90; ++i) hist.record(100);
  for (int i = 0; i < 10; ++i) hist.record(100000);
  const LatencyHistogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 90u * 100 + 10u * 100000);
  EXPECT_EQ(snap.min, 100u);
  EXPECT_EQ(snap.max, 100000u);
  // Bucket resolution: p50 must land in 100's bucket [64, 127], p99 in
  // 100000's bucket [65536, 131071] (both clamped to observed min/max).
  EXPECT_GE(snap.percentile(0.50), 100u);
  EXPECT_LE(snap.percentile(0.50), 127u);
  EXPECT_GE(snap.percentile(0.99), 65536u);
  EXPECT_LE(snap.percentile(0.99), 100000u);
  EXPECT_EQ(snap.percentile(0.0), 100u);
  EXPECT_EQ(LatencyHistogram().snapshot().percentile(0.5), 0u);
}

TEST(LatencyHistogramTest, TopBitValuesClampToLastBucket) {
  // bit_width is 64 for these; they must land in the last bucket, not
  // index past the array.
  LatencyHistogram hist;
  hist.record(UINT64_MAX);
  hist.record(uint64_t{1} << 63);
  const LatencyHistogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max, UINT64_MAX);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kBuckets - 1], 2u);
  EXPECT_GE(snap.percentile(0.99), uint64_t{1} << 62);
  EXPECT_LE(snap.percentile(0.99), UINT64_MAX);
}

// --- serving fixtures ------------------------------------------------------

constexpr uint32_t kDataBase = 4096;
constexpr int kElems = 256;

/// One module with the three read-only Table 1 reductions: ideal
/// concurrent-serving traffic, because any number of in-flight requests
/// may share the deployment's linear memory.
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

// --- the server ------------------------------------------------------------

TEST(ServerTest, SubmitStormBitIdenticalToSequentialRunAllTargets) {
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

  // Sequential reference: same engine, same cores, same memory image.
  Deployment reference =
      value_or_die(engine.deploy(suite, all_target_cores()));
  fill_data(reference.memory());
  std::vector<Value> expected;
  for (uint32_t f = 0; f < suite->num_functions(); ++f) {
    const SimResult r = value_or_die(
        reference.run(suite->function(f).name(), reduce_args()));
    ASSERT_TRUE(r.ok());
    expected.push_back(r.value);
  }

  Server server = value_or_die(serve(engine, suite, all_target_cores()));
  fill_data(server.deployment().memory());

  constexpr int kClients = 4;
  constexpr int kPerClientPerFn = 8;
  std::vector<std::future<Result<SimResult>>> futures(
      kClients * kPerClientPerFn * 3);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kPerClientPerFn * 3; ++i) {
          const uint32_t f = static_cast<uint32_t>(i % 3);
          const size_t slot =
              static_cast<size_t>(t) * kPerClientPerFn * 3 + i;
          futures[slot] =
              server.submit(suite->function(f).name(), reduce_args());
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
        << "storm result diverged from sequential run for '"
        << suite->function(f).name() << "'";
  }

  // Stats identities after quiescing.
  server.drain();
  const ServerStats stats = server.stats();
  const uint64_t total = futures.size();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.accepted, total);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.latency.count, total);
  EXPECT_GT(stats.batches, 0u);

  uint64_t fn_completed = 0;
  uint64_t tier_sum = 0;
  for (const FunctionServeStats& fs : stats.functions) {
    fn_completed += fs.completed;
    tier_sum += fs.tier0 + fs.tier1 + fs.tier2;
    EXPECT_EQ(fs.completed, fs.latency.count);
    EXPECT_EQ(fs.accepted, fs.completed);
    // Every request of a function executes on its routed core.
    EXPECT_EQ(fs.core, value_or_die(server.routed_core(fs.name)));
  }
  EXPECT_EQ(fn_completed, total);
  EXPECT_EQ(tier_sum, total);

  uint64_t core_executed = 0;
  for (const CoreServeStats& cs : stats.cores) core_executed += cs.executed;
  EXPECT_EQ(core_executed, total);

  // The per-shard runtime counters agree with the deployment's sum.
  const TierCounters tiers = server.deployment().tier_counters();
  uint64_t interp = 0, jitted = 0;
  for (size_t c = 0; c < server.num_cores(); ++c) {
    const TierCounters shard =
        value_or_die(server.deployment().tier_counters_on(c));
    interp += shard.interpreted;
    jitted += shard.jitted;
  }
  EXPECT_EQ(interp, tiers.interpreted);
  EXPECT_EQ(jitted, tiers.jitted);
}

TEST(ServerTest, AdmissionControlRejectsAtWatermark) {
  const ModuleHandle suite = build_reduce_suite();
  // Never promote: every request interprets (slow), so a 1-deep queue
  // with 1 worker must shed most of a 64-request burst.
  const Engine engine = value_or_die(
      Engine::Builder()
          .tiered(/*promote_threshold=*/1000000)
          .serving({.workers = 1, .queue_depth = 1, .batch_max = 1})
          .build());
  Server server = value_or_die(
      serve(engine, suite, {{TargetKind::X86Sim, false}}));
  fill_data(server.deployment().memory());

  constexpr int kBurst = 64;
  std::vector<std::future<Result<SimResult>>> futures;
  futures.reserve(kBurst);
  const std::string fn(suite->function(0).name());
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(server.submit(fn, reduce_args()));
  }

  uint64_t completed = 0;
  uint64_t rejected = 0;
  for (auto& f : futures) {
    Result<SimResult> r = f.get();
    if (r.ok()) {
      ++completed;
    } else {
      ++rejected;
      EXPECT_NE(r.error_text().find("admission control"), std::string::npos)
          << r.error_text();
    }
  }
  EXPECT_GE(completed, 1u);
  EXPECT_GE(rejected, 1u) << "a 1-deep queue must shed a 64-request burst";

  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(stats.accepted + stats.rejected + stats.invalid,
            stats.submitted);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_LE(stats.cores[0].peak_queue_depth, 1u);
}

TEST(ServerTest, BatchedAggregateTrafficPromotesToTier2) {
  const ModuleHandle suite = build_reduce_suite();
  // No background pool: promotion (4 calls) and tier-2 re-specialization
  // (8 tier-1 calls) compile synchronously at their thresholds, so the
  // tier sequence is deterministic. No single client's 8 calls would
  // cross both thresholds; the aggregate 64-call stream must.
  const Engine engine = value_or_die(Engine::Builder()
                                         .tiered(/*promote_threshold=*/4)
                                         .profiling()
                                         .tier2(/*threshold=*/8)
                                         .pool_threads(0)
                                         .build());
  Server server = value_or_die(
      serve(engine, suite, {{TargetKind::X86Sim, false}}));
  fill_data(server.deployment().memory());

  const std::string fn(suite->function(0).name());
  constexpr int kClients = 8;
  constexpr int kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        Result<SimResult> r = server.submit(fn, reduce_args()).get();
        if (!r.ok() || !r->ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.stats();
  const FunctionServeStats* served = nullptr;
  for (const FunctionServeStats& fs : stats.functions) {
    if (fs.name == fn) served = &fs;
  }
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GT(served->tier0, 0u) << "first calls interpret";
  EXPECT_GT(served->tier2, 0u)
      << "aggregate traffic must reach tier 2 (no client crossed the "
         "thresholds alone)";
  EXPECT_GT(stats.cores[0].tiers.tier2, 0u);
  EXPECT_EQ(server.deployment().tier_counters().tier2_functions, 1u);
}

TEST(ServerTest, UnknownFunctionFailsFastAndCounts) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder().build());
  Server server = value_or_die(
      serve(engine, suite, {{TargetKind::X86Sim, false}}));

  Result<SimResult> r = server.submit("nope", {}).get();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_text().find("no function 'nope'"), std::string::npos);
  EXPECT_FALSE(server.routed_core("nope").ok());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(ServerTest, DestructionResolvesEveryAcceptedFuture) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(
      Engine::Builder().tiered(/*promote_threshold=*/1000000).build());
  std::vector<std::future<Result<SimResult>>> futures;
  {
    Server server = value_or_die(
        serve(engine, suite, {{TargetKind::X86Sim, false}}));
    fill_data(server.deployment().memory());
    const std::string fn(suite->function(1).name());
    futures.reserve(32);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(server.submit(fn, reduce_args()));
    }
    // Destroyed here, mid-traffic: the server must finish every accepted
    // request before the workers join.
  }
  for (auto& f : futures) {
    EXPECT_NO_THROW({
      Result<SimResult> r = f.get();  // resolved: result or rejection
      (void)r;
    });
  }
}

TEST(ServerTest, OptionValidationListsEveryProblem) {
  const Result<Engine> built =
      Engine::Builder().serving({.workers = 0, .queue_depth = 0,
                                 .batch_max = 0}).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.error().size(), 2u);

  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(Engine::Builder().build());
  Deployment dep = value_or_die(
      engine.deploy(suite, {{TargetKind::X86Sim, false}}));
  Result<Server> server = Server::create(
      std::move(dep), {.workers = 0, .queue_depth = 0, .batch_max = 0});
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.error().size(), 2u);
}

TEST(ServerTest, WorkerCountClampsToCores) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(
      Engine::Builder()
          .serving({.workers = 64, .queue_depth = 8, .batch_max = 2})
          .build());
  Server server = value_or_die(
      serve(engine, suite,
            {{TargetKind::X86Sim, false}, {TargetKind::PpcSim, false}}));
  EXPECT_EQ(server.num_cores(), 2u);
  EXPECT_EQ(server.num_workers(), 2u)
      << "each core is drained by exactly one worker";
}

// --- tier counters under traffic -------------------------------------------

TEST(DeploymentTierCountersTest, SnapshotNeverTearsUnderTraffic) {
  // Every call counts as interpreted or jitted, and every tier-2 call is
  // also a jitted one, so tier2 <= jitted must hold in each snapshot --
  // also one taken while other threads are mid-call. With tier2(1) all
  // but the first jitted call run at tier 2, so a snapshot assembled from
  // separately locked reads breaks the rule within milliseconds.
  const Engine engine =
      value_or_die(Engine::Builder().tiered(1).tier2(1).build());
  const ModuleHandle module =
      value_or_die(engine.compile("fn f(x: i32) -> i32 { return x + 1; }"));
  Deployment dep =
      value_or_die(engine.deploy(module, {{TargetKind::X86Sim, false}}));

  constexpr int kThreads = 3;
  constexpr int kCallsPerThread = 4000;
  std::atomic<int> running{kThreads};
  std::atomic<int> wrong{0};
  std::vector<std::thread> traffic;
  traffic.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    traffic.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const Result<SimResult> r =
            dep.run_on(0, "f", {Value::make_i32(t * kCallsPerThread + i)});
        if (!r.ok() || r->value.i32 != t * kCallsPerThread + i + 1) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  uint64_t polls = 0, torn = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    const TierCounters c = value_or_die(dep.tier_counters_on(0));
    ++polls;
    if (c.tier2 > c.jitted) ++torn;
  }
  for (auto& t : traffic) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(torn, 0u) << "of " << polls << " snapshots showed tier2 > jitted";

  const TierCounters done = value_or_die(dep.tier_counters_on(0));
  EXPECT_EQ(done.interpreted + done.jitted,
            static_cast<uint64_t>(kThreads * kCallsPerThread));
  EXPECT_LE(done.tier2, done.jitted);
  EXPECT_EQ(done.tier2_functions, 1u);
}

// --- the warm_up contract (api/deployment.h fix) ---------------------------

TEST(DeploymentWarmupTest, FutureStaysWaitablePastDeployment) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(
      Engine::Builder().tiered(1).pool_threads(2).build());
  std::future<void> warm;
  {
    Deployment dep = value_or_die(
        engine.deploy(suite, all_target_cores()));
    warm = dep.warm_up();
    // ~Deployment waits the job out, so the future is ready afterwards.
  }
  EXPECT_NO_THROW(warm.get());
}

TEST(DeploymentWarmupTest, DroppedFutureDoesNotDangle) {
  const ModuleHandle suite = build_reduce_suite();
  const Engine engine = value_or_die(
      Engine::Builder().tiered(1).pool_threads(2).build());
  Deployment dep = value_or_die(
      engine.deploy(suite, all_target_cores()));
  fill_data(dep.memory());
  (void)dep.warm_up();  // dropped immediately; the job must not dangle
  (void)dep.warm_up();  // concurrent with the first
  const SimResult r = value_or_die(
      dep.run(suite->function(0).name(), reduce_args()));
  EXPECT_TRUE(r.ok());
  // dep destroyed here while jobs may still be in flight.
}

}  // namespace
}  // namespace svc
