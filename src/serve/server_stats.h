// ServerStats: the observable state of a svc::Server, split three ways --
// server-wide totals, per-function rows (latency + tier mix per served
// kernel), and per-core shard rows (queue pressure + the runtime's own
// per-shard tier counters). Produced by Server::stats() as a plain-data
// snapshot: everything here is copyable, printable, and detached from the
// live server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "driver/online_compiler.h"
#include "support/latency_histogram.h"
#include "support/statistics.h"

namespace svc {

/// One served function: where it routes, how much traffic it saw, which
/// tiers answered, and its end-to-end latency distribution (submit ->
/// future resolved, in nanoseconds).
struct FunctionServeStats {
  std::string name;
  size_t core = 0;  // the mapper-chosen core all its requests route to
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // admission-control refusals
  uint64_t completed = 0;
  // Completed requests answered per tier (tier0 + tier1 + tier2 ==
  // completed; tier2 counts calls served by the re-specialized artifact).
  uint64_t tier0 = 0;
  uint64_t tier1 = 0;
  uint64_t tier2 = 0;
  LatencyHistogram::Snapshot latency;
};

/// One core shard: its queue pressure and what its OnlineTarget ran.
/// `tiers` comes from the runtime itself (OnlineTarget::tier_counters),
/// so it also includes traffic that bypassed the server (e.g. a direct
/// Deployment::run_on).
struct CoreServeStats {
  size_t core = 0;
  uint64_t executed = 0;  // requests this shard completed
  uint64_t batches = 0;   // drains (executed / batches = mean batch size)
  uint64_t rejected = 0;  // admission-control refusals at this shard
  uint64_t peak_queue_depth = 0;
  // Simulated cycles of the requests this shard completed: the
  // deterministic busy-time of the core, host-independent. A scaling
  // bench's bottleneck shard is max(sim_cycles) over shards.
  uint64_t sim_cycles = 0;
  TierCounters tiers;
};

/// Snapshot of a server's counters. Identities (exact once traffic has
/// quiesced, e.g. after Server::drain):
///   submitted == accepted + rejected + invalid
///   completed == accepted         (after drain)
///   sum(functions[i].X) == the matching total
///   sum(cores[i].executed) == completed
struct ServerStats {
  uint64_t submitted = 0;  // every submit() call
  uint64_t accepted = 0;   // enqueued past admission control
  uint64_t rejected = 0;   // refused: queue at its watermark
  uint64_t invalid = 0;    // refused: unknown function name
  uint64_t completed = 0;  // futures resolved with a SimResult
  uint64_t batches = 0;
  // Simulated cycles summed over completed requests (deterministic,
  // host-independent; == sum(cores[i].sim_cycles)).
  uint64_t sim_cycles = 0;

  /// Wall-clock seconds since the server started serving.
  double wall_seconds = 0.0;
  /// completed / wall_seconds.
  double requests_per_sec = 0.0;

  /// End-to-end latency over all completed requests (nanoseconds).
  LatencyHistogram::Snapshot latency;

  std::vector<FunctionServeStats> functions;
  std::vector<CoreServeStats> cores;

  /// Shared CodeCache counters of the underlying deployment (cache.hits,
  /// cache.misses, cache.compiles, cache.coalesced, cache.evictions,
  /// cache.bytes).
  Statistics cache;
};

/// Folds any number of per-server snapshots (e.g. a cluster's shards)
/// into one fleet-wide view: totals and cache counters sum, latency
/// histograms merge bucket-wise (exact for the combined stream -- see
/// LatencyHistogram::Snapshot::merge), per-function rows merge by name
/// (a function served by several shards becomes one row; its `core` is
/// the routed core on the first shard that served it), wall_seconds is
/// the max (shards serve concurrently), and requests_per_sec is
/// recomputed from the merged totals. Per-core rows are NOT aggregated
/// -- core indices only mean something within one server, so the result
/// carries no `cores`; per-shard detail stays with the inputs.
[[nodiscard]] ServerStats aggregate_server_stats(
    std::span<const ServerStats> shards);

}  // namespace svc
