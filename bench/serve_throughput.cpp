// Closed-loop multi-client serving bench: C client threads drive a
// svc::Server over a 4-core heterogeneous SoC, each submitting the next
// request only after the previous one resolved -- the classic
// closed-loop load model. Three runtime configurations are compared:
//
//   eager           install-time JIT of everything (batch precompile)
//   tiered          interpret first, background-promote to tier 1
//   tiered+profile  tiered + runtime profiling + tier-2 re-specialization
//
// Reported per configuration: steady-state wall throughput
// (requests/sec), steady-state p50/p99 end-to-end latency (measured by
// the clients, warm-up excluded), mean simulated cycles per request (the
// deterministic number: tiered+profile must match or beat eager here at
// steady state, since tier-2 code is profile-specialized), the tier mix,
// and the shared-cache counters. Every result is checked bit-for-bit
// against a sequential reference; any divergence aborts, so this doubles
// as the serving smoke test (registered in ctest).
//
// The workload is the three read-only Table 1 reductions: requests can
// share the deployment's linear memory without coordination, which is
// exactly the traffic shape the serving layer batches per core.
//
// A second section measures the svc::Cluster scaling curve, 1 -> N
// shards (each shard one 4-core Deployment, least-loaded routing):
//   closed loop   the same client model as above; the scaling number is
//                 deterministic -- critical-path simulated cycles
//                 (max per-shard sim_cycles) against the 1-shard run --
//                 because wall-clock scaling is host-dependent (on a
//                 1-CPU host the shards timeshare one core).
//   open loop     Poisson arrivals at a rate overloading one shard
//                 (offered = kOverloadFactor x the measured 1-shard
//                 closed-loop throughput): p50/p99 under overload and
//                 admission rejections per shard count.
// Every cluster result is bit-checked against the same sequential
// reference. `--max-shards K` truncates the shard sweep (the ctest
// smoke runs with --max-shards 2).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "support/latency_histogram.h"
#include "support/rng.h"

namespace {

using namespace svc;
using namespace svc::bench;

constexpr int kElems = 256;
constexpr uint32_t kDataBase = 4096;
constexpr int kClients = 4;
constexpr int kWarmRounds = 12;   // per client, per kernel
constexpr int kSteadyRounds = 16; // per client, per kernel

// Cluster scaling sections.
constexpr int kClusterClients = 8;  // closed-loop clients
constexpr int kClusterRounds = 12;  // per client, per kernel
constexpr int kOpenRequests = 600;  // open-loop arrivals per shard count
constexpr double kOverloadFactor = 2.0;  // offered / 1-shard capacity

ModuleHandle build_suite() {
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

std::vector<CoreSpec> soc_cores() {
  return {{TargetKind::X86Sim, false},
          {TargetKind::X86Sim, false},
          {TargetKind::PpcSim, false},
          {TargetKind::SpuSim, true}};
}

void fill_data(Memory& mem) {
  for (uint32_t i = 0; i < 2 * kElems; ++i) {
    mem.store_u8(kDataBase + i, static_cast<uint8_t>(i * 37 + 11));
  }
}

std::vector<Value> reduce_args() {
  return {Value::make_i32(kDataBase), Value::make_i32(kElems)};
}

struct ConfigReport {
  std::string name;
  double steady_ms = 0.0;
  double requests_per_sec = 0.0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  double mean_cycles = 0.0;  // simulated cycles per steady-state request
  uint64_t tier0 = 0, tier1 = 0, tier2 = 0;
  uint64_t rejected = 0;
  int64_t compiles = 0;
  uint64_t batches = 0;
  // Cold start: wall time from Server creation until the first response
  // served by JITed code (tier >= 1), and how many requests that took --
  // the restart-under-traffic number (near-zero requests_to_tier1 for
  // eager, promote-threshold-shaped for tiered).
  double cold_start_ms = 0.0;
  uint64_t requests_to_tier1 = 0;
};

/// One client: closed-loop rounds over every kernel; verifies each
/// result against `expected` and accumulates into the shared steady
/// meters when `measure` is set.
void run_client(Server& server, const ModuleHandle& suite,
                const std::vector<Value>& expected, int rounds, bool measure,
                LatencyHistogram* latency, std::atomic<uint64_t>* cycles,
                std::atomic<uint64_t>* count) {
  using Clock = std::chrono::steady_clock;
  for (int r = 0; r < rounds; ++r) {
    for (uint32_t f = 0; f < suite->num_functions(); ++f) {
      const auto t0 = Clock::now();
      Result<SimResult> result =
          server.submit(suite->function(f).name(), reduce_args()).get();
      const auto t1 = Clock::now();
      if (!result.ok() || !result->ok()) {
        std::fprintf(stderr, "serve_throughput: request failed: %s\n",
                     result.ok() ? "trap" : result.error_text().c_str());
        std::abort();
      }
      if (!(result->value == expected[f])) {
        std::fprintf(stderr,
                     "serve_throughput: BIT DIVERGENCE on '%s' (tier %d)\n",
                     std::string(suite->function(f).name()).c_str(),
                     result->tier);
        std::abort();
      }
      if (measure) {
        latency->record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        cycles->fetch_add(result->stats.cycles, std::memory_order_relaxed);
        count->fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void run_phase(Server& server, const ModuleHandle& suite,
               const std::vector<Value>& expected, int rounds, bool measure,
               LatencyHistogram* latency, std::atomic<uint64_t>* cycles,
               std::atomic<uint64_t>* count) {
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      run_client(server, suite, expected, rounds, measure, latency, cycles,
                 count);
    });
  }
  for (auto& t : clients) t.join();
  server.drain();
}

ConfigReport run_config(const std::string& name, const Engine& engine,
                        const ModuleHandle& suite,
                        const std::vector<Value>& expected) {
  ConfigReport report;
  report.name = name;

  const auto t_create = std::chrono::steady_clock::now();
  Server server = value_or_die(serve(engine, suite, soc_cores()));
  fill_data(server.deployment().memory());

  // Cold start: single closed-loop probe client until the first response
  // comes back from JITed code. Wall time includes Server creation
  // (install-time JIT for eager configs pays its bill here).
  for (uint32_t f = 0; report.requests_to_tier1 < 100000; f =
           (f + 1) % static_cast<uint32_t>(suite->num_functions())) {
    Result<SimResult> result =
        server.submit(suite->function(f).name(), reduce_args()).get();
    if (!result.ok() || !result->ok()) {
      std::fprintf(stderr, "serve_throughput: cold-start request failed\n");
      std::abort();
    }
    ++report.requests_to_tier1;
    if (result->tier >= 1) break;
  }
  report.cold_start_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t_create)
                             .count();

  // Warm up: enough aggregate closed-loop traffic to cross the tiered
  // thresholds (and, with profiling, install tier-2 artifacts).
  run_phase(server, suite, expected, kWarmRounds, /*measure=*/false, nullptr,
            nullptr, nullptr);
  server.deployment().wait_warmup();

  // Steady state: the measured phase.
  LatencyHistogram latency;
  std::atomic<uint64_t> cycles{0};
  std::atomic<uint64_t> count{0};
  const auto t0 = std::chrono::steady_clock::now();
  run_phase(server, suite, expected, kSteadyRounds, /*measure=*/true,
            &latency, &cycles, &count);
  const auto t1 = std::chrono::steady_clock::now();

  report.steady_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const uint64_t n = count.load();
  report.requests_per_sec =
      report.steady_ms > 0.0
          ? static_cast<double>(n) / (report.steady_ms / 1000.0)
          : 0.0;
  const LatencyHistogram::Snapshot lat = latency.snapshot();
  report.p50_ns = lat.percentile(0.50);
  report.p99_ns = lat.percentile(0.99);
  report.mean_cycles =
      n > 0 ? static_cast<double>(cycles.load()) / static_cast<double>(n) : 0.0;

  const ServerStats stats = server.stats();
  for (const FunctionServeStats& fs : stats.functions) {
    report.tier0 += fs.tier0;
    report.tier1 += fs.tier1;
    report.tier2 += fs.tier2;
  }
  report.rejected = stats.rejected;
  report.compiles = stats.cache.get("cache.compiles");
  report.batches = stats.batches;
  return report;
}

// ---------------------------------------------------------- cluster --

struct ClusterReport {
  size_t shards = 0;
  // Closed loop.
  double requests_per_sec = 0.0;       // aggregate wall throughput
  double per_shard_rps = 0.0;          // req/s-per-shard efficiency column
  double critical_cycles = 0.0;        // max per-shard sim_cycles
  double sim_speedup = 0.0;            // vs the 1-shard critical path
  uint64_t routed_min = 0, routed_max = 0;
  uint64_t p50_ns = 0, p99_ns = 0;     // server-side submit -> resolve
  // Open loop (Poisson arrivals at overload).
  double offered_rps = 0.0;
  double open_completed_rps = 0.0;
  uint64_t open_p50_ns = 0, open_p99_ns = 0;
  uint64_t open_rejected = 0;          // admission-control refusals
};

Cluster make_cluster(const Engine& engine, const ModuleHandle& suite,
                     size_t shards) {
  ClusterOptions opts;
  opts.shards = shards;
  // Least-loaded: the consistent-hash policy pins each function to one
  // shard, so same-function traffic could never scale past 1.
  opts.routing = RoutingPolicy::LeastLoaded;
  opts.memory_init = fill_data;
  return value_or_die(Cluster::create(engine, suite, soc_cores(), opts));
}

void verify_or_die(const Result<SimResult>& result, const Value& expected) {
  if (!result.ok() || !result->ok()) {
    std::fprintf(stderr, "serve_throughput: cluster request failed: %s\n",
                 result.ok() ? "trap" : result.error_text().c_str());
    std::abort();
  }
  if (!(result->value == expected)) {
    std::fprintf(stderr, "serve_throughput: cluster BIT DIVERGENCE\n");
    std::abort();
  }
}

/// Closed-loop scaling point: kClusterClients clients drive the fleet;
/// throughput and latency come from the cluster's own stats, and the
/// deterministic scaling number is the critical-path simulated cycles
/// (the busiest shard's sim_cycles).
void run_cluster_closed(const Engine& engine, const ModuleHandle& suite,
                        const std::vector<Value>& expected,
                        ClusterReport& report) {
  Cluster cluster = make_cluster(engine, suite, report.shards);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClusterClients);
  for (int t = 0; t < kClusterClients; ++t) {
    clients.emplace_back([&] {
      for (int r = 0; r < kClusterRounds; ++r) {
        for (uint32_t f = 0; f < suite->num_functions(); ++f) {
          verify_or_die(
              cluster.submit(suite->function(f).name(), reduce_args()).get(),
              expected[f]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  cluster.drain();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  const ClusterStats stats = cluster.stats();
  report.requests_per_sec =
      wall_s > 0.0 ? static_cast<double>(stats.aggregate.completed) / wall_s
                   : 0.0;
  report.per_shard_rps =
      report.requests_per_sec / static_cast<double>(report.shards);
  report.p50_ns = stats.aggregate.latency.percentile(0.50);
  report.p99_ns = stats.aggregate.latency.percentile(0.99);
  report.routed_min = UINT64_MAX;
  for (const ShardStats& ss : stats.shards) {
    report.critical_cycles = std::max(
        report.critical_cycles, static_cast<double>(ss.server.sim_cycles));
    report.routed_min = std::min(report.routed_min, ss.routed);
    report.routed_max = std::max(report.routed_max, ss.routed);
  }
}

/// Open-loop overload point: one generator submits kOpenRequests with
/// exponential inter-arrival gaps at `offered_rps` and never waits;
/// latency (including queueing) comes from the servers' own histograms.
void run_cluster_open(const Engine& engine, const ModuleHandle& suite,
                      const std::vector<Value>& expected, double offered_rps,
                      ClusterReport& report) {
  Cluster cluster = make_cluster(engine, suite, report.shards);
  report.offered_rps = offered_rps;
  const double mean_gap_s = offered_rps > 0.0 ? 1.0 / offered_rps : 0.0;
  Rng rng(/*seed=*/123);
  std::vector<std::future<Result<SimResult>>> futures;
  std::vector<uint32_t> fns;
  futures.reserve(kOpenRequests);
  fns.reserve(kOpenRequests);
  const auto t0 = std::chrono::steady_clock::now();
  auto next_arrival = t0;
  for (int i = 0; i < kOpenRequests; ++i) {
    const uint32_t f =
        static_cast<uint32_t>(i) % static_cast<uint32_t>(suite->num_functions());
    fns.push_back(f);
    futures.push_back(
        cluster.submit(suite->function(f).name(), reduce_args()));
    const double u = std::min(rng.next_f32(), 0.999999f);
    next_arrival += std::chrono::nanoseconds(static_cast<int64_t>(
        -mean_gap_s * std::log(1.0 - u) * 1e9));
    std::this_thread::sleep_until(next_arrival);
  }
  cluster.drain();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  uint64_t completed = 0;
  for (int i = 0; i < kOpenRequests; ++i) {
    Result<SimResult> result = futures[static_cast<size_t>(i)].get();
    if (!result.ok()) continue;  // admission-control rejection under overload
    verify_or_die(result, expected[fns[static_cast<size_t>(i)]]);
    ++completed;
  }
  const ClusterStats stats = cluster.stats();
  report.open_p50_ns = stats.aggregate.latency.percentile(0.50);
  report.open_p99_ns = stats.aggregate.latency.percentile(0.99);
  report.open_rejected = stats.aggregate.rejected;
  report.open_completed_rps =
      wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t max_shards = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--max-shards") == 0) {
      max_shards = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
  }

  const ModuleHandle suite = build_suite();

  // Sequential reference values (eager, single core): the bits every
  // configuration and tier must reproduce.
  const Engine ref_engine = value_or_die(Engine::Builder().build());
  Deployment reference = value_or_die(
      ref_engine.deploy(suite, {{TargetKind::X86Sim, false}}));
  fill_data(reference.memory());
  std::vector<Value> expected;
  for (uint32_t f = 0; f < suite->num_functions(); ++f) {
    const SimResult r = value_or_die(
        reference.run(suite->function(f).name(), reduce_args()));
    if (!r.ok()) {
      std::fprintf(stderr, "reference run trapped\n");
      return 1;
    }
    expected.push_back(r.value);
  }

  const ServerOptions serving{.workers = 0, .queue_depth = 256,
                              .batch_max = 8};
  const Engine eager = value_or_die(
      Engine::Builder().serving(serving).build());
  const Engine tiered = value_or_die(Engine::Builder()
                                         .tiered(/*promote_threshold=*/4)
                                         .pool_threads(2)
                                         .serving(serving)
                                         .build());
  const Engine profiled = value_or_die(Engine::Builder()
                                           .tiered(/*promote_threshold=*/4)
                                           .profiling()
                                           .tier2(/*threshold=*/8)
                                           .pool_threads(2)
                                           .serving(serving)
                                           .build());

  const std::vector<ConfigReport> reports = {
      run_config("eager", eager, suite, expected),
      run_config("tiered", tiered, suite, expected),
      run_config("tiered+profile", profiled, suite, expected),
  };

  std::printf("closed-loop serving on a 4-core SoC (2x x86sim, ppcsim, "
              "spusim accel)\n%d clients x %d steady rounds x %zu read-only "
              "kernels, n=%d\n",
              kClients, kSteadyRounds, suite->num_functions(), kElems);
  std::printf("%-16s %9s %10s %9s %9s %11s %6s %6s %6s %8s %8s %8s\n",
              "config", "steady ms", "req/s", "p50 us", "p99 us", "cyc/req",
              "tier0", "tier1", "tier2", "batches", "cold ms", "req->t1");
  print_rule(118);
  for (const ConfigReport& r : reports) {
    std::printf("%-16s %9.2f %10.0f %9.1f %9.1f %11.1f %6llu %6llu %6llu "
                "%8llu %8.2f %8llu\n",
                r.name.c_str(), r.steady_ms, r.requests_per_sec,
                static_cast<double>(r.p50_ns) / 1000.0,
                static_cast<double>(r.p99_ns) / 1000.0, r.mean_cycles,
                static_cast<unsigned long long>(r.tier0),
                static_cast<unsigned long long>(r.tier1),
                static_cast<unsigned long long>(r.tier2),
                static_cast<unsigned long long>(r.batches), r.cold_start_ms,
                static_cast<unsigned long long>(r.requests_to_tier1));
  }
  print_rule(118);

  const double eager_cyc = reports[0].mean_cycles;
  const double profiled_cyc = reports[2].mean_cycles;
  std::printf(
      "steady-state simulated throughput, tiered+profile vs eager: %.2fx\n"
      "(mean cycles/request %0.1f vs %0.1f; tier-2 code is "
      "profile-specialized, so >= 1.00x is expected)\n",
      profiled_cyc > 0.0 ? eager_cyc / profiled_cyc : 0.0, profiled_cyc,
      eager_cyc);
  std::printf("every result verified bit-identical to the sequential "
              "reference across all configs and tiers; rejected: "
              "%llu/%llu/%llu\n",
              static_cast<unsigned long long>(reports[0].rejected),
              static_cast<unsigned long long>(reports[1].rejected),
              static_cast<unsigned long long>(reports[2].rejected));

  // --- cluster scaling curve: 1 -> N shards -----------------------------
  std::vector<size_t> shard_counts;
  for (const size_t n : {size_t{1}, size_t{2}, size_t{4}}) {
    if (n <= max_shards) shard_counts.push_back(n);
  }
  std::vector<ClusterReport> cluster_reports;
  std::string shard_list;
  for (const size_t n : shard_counts) {
    ClusterReport cr;
    cr.shards = n;
    run_cluster_closed(eager, suite, expected, cr);
    cluster_reports.push_back(cr);
    if (!shard_list.empty()) shard_list += ',';
    shard_list += std::to_string(n);
  }
  // The deterministic scaling number: critical-path simulated cycles of
  // the busiest shard, against the 1-shard run. Requests cost identical
  // cycles on every shard (same eager engine, same kernels), so this
  // measures routing spread, not host parallelism.
  const double base_critical = cluster_reports[0].critical_cycles;
  for (ClusterReport& cr : cluster_reports) {
    cr.sim_speedup =
        cr.critical_cycles > 0.0 ? base_critical / cr.critical_cycles : 0.0;
  }
  // Open-loop overload: offered load is a fixed multiple of the measured
  // 1-shard closed-loop throughput, held constant across shard counts.
  const double offered =
      kOverloadFactor * cluster_reports[0].requests_per_sec;
  for (ClusterReport& cr : cluster_reports) {
    run_cluster_open(eager, suite, expected, offered, cr);
  }

  std::printf("\ncluster scaling, least-loaded routing, %d closed-loop "
              "clients (x%d rounds), then %d open-loop Poisson arrivals at "
              "%.0f req/s offered\n",
              kClusterClients, kClusterRounds, kOpenRequests, offered);
  std::printf("%-7s %10s %11s %13s %9s %13s %10s %10s %9s\n", "shards",
              "req/s", "req/s/shard", "crit Mcycles", "speedup",
              "routed min/max", "open p50us", "open p99us", "open rej");
  print_rule(100);
  for (const ClusterReport& cr : cluster_reports) {
    std::printf("%-7zu %10.0f %11.0f %13.2f %8.2fx %6llu/%-6llu %10.1f "
                "%10.1f %9llu\n",
                cr.shards, cr.requests_per_sec, cr.per_shard_rps,
                cr.critical_cycles / 1e6, cr.sim_speedup,
                static_cast<unsigned long long>(cr.routed_min),
                static_cast<unsigned long long>(cr.routed_max),
                static_cast<double>(cr.open_p50_ns) / 1000.0,
                static_cast<double>(cr.open_p99_ns) / 1000.0,
                static_cast<unsigned long long>(cr.open_rejected));
  }
  print_rule(100);
  const ClusterReport& last = cluster_reports.back();
  std::printf("%zu-shard critical-path speedup vs 1 shard: %.2fx "
              "(deterministic simulated cycles; wall req/s is "
              "host-dependent)\n",
              last.shards, last.sim_speedup);
  if (last.shards >= 4 && last.sim_speedup < 2.5) {
    std::fprintf(stderr, "serve_throughput: 4-shard scaling below 2.5x\n");
    return 1;
  }

  // Machine-readable trajectory (docs/BENCHMARKS.md). Wall-clock numbers
  // are host-dependent; mean_cycles is the deterministic column.
  std::vector<BenchMetric> metrics;
  for (const ConfigReport& r : reports) {
    metrics.emplace_back(r.name + ".requests_per_sec", r.requests_per_sec);
    metrics.emplace_back(r.name + ".p50_us",
                         static_cast<double>(r.p50_ns) / 1000.0);
    metrics.emplace_back(r.name + ".p99_us",
                         static_cast<double>(r.p99_ns) / 1000.0);
    metrics.emplace_back(r.name + ".cycles_per_request", r.mean_cycles);
    metrics.emplace_back(r.name + ".tier0", static_cast<double>(r.tier0));
    metrics.emplace_back(r.name + ".tier1", static_cast<double>(r.tier1));
    metrics.emplace_back(r.name + ".tier2", static_cast<double>(r.tier2));
    metrics.emplace_back(r.name + ".batches", static_cast<double>(r.batches));
    metrics.emplace_back(r.name + ".cold_start_ms", r.cold_start_ms);
    metrics.emplace_back(r.name + ".requests_to_tier1",
                         static_cast<double>(r.requests_to_tier1));
  }
  for (const ClusterReport& cr : cluster_reports) {
    const std::string key = "cluster_closed.shards" + std::to_string(cr.shards);
    metrics.emplace_back(key + ".requests_per_sec", cr.requests_per_sec);
    metrics.emplace_back(key + ".requests_per_sec_per_shard",
                         cr.per_shard_rps);
    metrics.emplace_back(key + ".p50_us",
                         static_cast<double>(cr.p50_ns) / 1000.0);
    metrics.emplace_back(key + ".p99_us",
                         static_cast<double>(cr.p99_ns) / 1000.0);
    metrics.emplace_back(key + ".critical_cycles", cr.critical_cycles);
    metrics.emplace_back(key + ".sim_speedup_vs_1", cr.sim_speedup);
    metrics.emplace_back(key + ".routed_min",
                         static_cast<double>(cr.routed_min));
    metrics.emplace_back(key + ".routed_max",
                         static_cast<double>(cr.routed_max));
    const std::string open = "cluster_open.shards" + std::to_string(cr.shards);
    metrics.emplace_back(open + ".offered_rps", cr.offered_rps);
    metrics.emplace_back(open + ".completed_rps", cr.open_completed_rps);
    metrics.emplace_back(open + ".p50_us",
                         static_cast<double>(cr.open_p50_ns) / 1000.0);
    metrics.emplace_back(open + ".p99_us",
                         static_cast<double>(cr.open_p99_ns) / 1000.0);
    metrics.emplace_back(open + ".rejected",
                         static_cast<double>(cr.open_rejected));
  }
  bench_report("serve",
               {{"clients", std::to_string(kClients)},
                {"steady_rounds", std::to_string(kSteadyRounds)},
                {"cluster_clients", std::to_string(kClusterClients)},
                {"cluster_rounds", std::to_string(kClusterRounds)},
                {"shard_counts", shard_list},
                {"open_requests", std::to_string(kOpenRequests)},
                {"overload_factor", std::to_string(kOverloadFactor)},
                {"routing", "least_loaded"}},
               metrics);
  return 0;
}
