// The serving layer, end to end, against only api/svc.h: build a tiered
// profiling engine, deploy one module onto a heterogeneous SoC, wrap it
// in a svc::Server, and let concurrent clients drive it. The server
// routes every function to its mapper-chosen core, batches same-function
// requests so aggregate traffic crosses the tier-promotion thresholds,
// sheds overload at a bounded queue, and reports per-function /
// per-core-shard stats.
//
// Build & run:  ./build/example_serve_demo
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/svc.h"

using namespace svc;

int main() {
  const char* source = R"(
    fn checksum(p: *u8, n: i32) -> i32 {
      var acc: i32 = 0;
      var i: i32 = 0;
      while (i < n) {
        acc = acc * 31 + p[i];
        i = i + 1;
      }
      return acc;
    }
  )";

  // Tiered + profiling + tier-2, with serving knobs on the same Builder:
  // 2 workers, a 32-deep queue per core, batches of up to 8 requests.
  const Engine engine =
      Engine::Builder()
          .tiered(/*promote_threshold=*/4)
          .profiling()
          .tier2(/*threshold=*/8)
          .pool_threads(2)
          .serving({.workers = 2, .queue_depth = 32, .batch_max = 8})
          .build()
          .value();
  const ModuleHandle module = engine.compile(source).value();

  Server server = serve(engine, module,
                        {{TargetKind::X86Sim, false},
                         {TargetKind::PpcSim, false}})
                      .value();

  constexpr int kN = 256;
  for (int i = 0; i < kN; ++i) {
    server.deployment().memory().store_u8(
        4096 + static_cast<uint32_t>(i), static_cast<uint8_t>(i * 7 + 3));
  }
  const std::vector<Value> args{Value::make_i32(4096), Value::make_i32(kN)};

  // Four closed-loop clients; no single one would cross the tier-2
  // threshold, the aggregate stream does.
  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&server, &args] {
      for (int i = 0; i < kPerClient; ++i) {
        const Result<SimResult> r = server.submit("checksum", args).get();
        if (!r.ok()) std::printf("rejected: %s\n", r.error_text().c_str());
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();

  const ServerStats stats = server.stats();
  std::printf("served %llu/%llu requests at %.0f req/s "
              "(p50 %.1f us, p99 %.1f us)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.submitted),
              stats.requests_per_sec,
              static_cast<double>(stats.latency.percentile(0.50)) / 1000.0,
              static_cast<double>(stats.latency.percentile(0.99)) / 1000.0);
  for (const FunctionServeStats& fs : stats.functions) {
    std::printf("  fn %-10s -> core %zu: tiers %llu/%llu/%llu, "
                "mean latency %.1f us\n",
                fs.name.c_str(), fs.core,
                static_cast<unsigned long long>(fs.tier0),
                static_cast<unsigned long long>(fs.tier1),
                static_cast<unsigned long long>(fs.tier2),
                fs.latency.mean() / 1000.0);
  }
  for (const CoreServeStats& cs : stats.cores) {
    std::printf("  core %zu: %llu requests in %llu batches, peak queue %llu, "
                "rejected %llu\n",
                cs.core, static_cast<unsigned long long>(cs.executed),
                static_cast<unsigned long long>(cs.batches),
                static_cast<unsigned long long>(cs.peak_queue_depth),
                static_cast<unsigned long long>(cs.rejected));
  }
  const TierCounters tiers = server.deployment().tier_counters();
  std::printf("runtime: %llu interpreted, %llu jitted (%llu at tier 2), "
              "%llu tier-2 function(s)\n",
              static_cast<unsigned long long>(tiers.interpreted),
              static_cast<unsigned long long>(tiers.jitted),
              static_cast<unsigned long long>(tiers.tier2),
              static_cast<unsigned long long>(tiers.tier2_functions));
  return 0;
}
