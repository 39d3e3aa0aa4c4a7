// The two serving workloads over the 11-function suite (suite.h):
//
//   serve_hot     the suite compiled eagerly during set-up, served warm by
//                 a 2-shard least-loaded Cluster (1 worker per shard; each
//                 shard a 4-core SoC). One generator thread sends
//                 open-loop Poisson arrivals at a fixed rate, then keeps a
//                 fixed window of requests outstanding to measure
//                 capacity. The simulator and serving do all the work;
//                 the measured phase must show 0 compiles.
//   serve_tierup  restart-under-traffic episodes: each deploys the suite
//                 fresh as a tiered Server (profiling, tier 2, 1 background
//                 JIT thread, 2 workers, no store) and takes a Zipf mix
//                 until every function has answered from JIT code. Tier-0
//                 dispatch, the background JIT and code-cache writes sit
//                 on the critical path.
//
// Both first roll the suite out through the shared rollout pipeline, so
// they report the same compile-side metrics as `rollout` for their own
// module.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <thread>

#include "suite.h"
#include "workload.h"

namespace perfbench {
namespace {

using svc::Value;

// --- fixed workload constants (see NOTES.md for how they were chosen) ---
// serve_hot's offered rate: about two-thirds of its capacity_rps measured
// when the benchmark landed. A constant, so the load does not move with
// the change under test.
constexpr double kHotRate = 8000.0;
// serve_tierup's offered rate during an episode.
constexpr double kTierRate = 5000.0;
// Goodput counts correct responses within this latency.
constexpr double kLatencyLimitUs = 10000.0;
// Requests kept outstanding by the saturating (capacity) phases.
constexpr size_t kWindow = 8;
// Share of serve_hot's traffic time spent at the fixed rate; the rest
// measures capacity.
constexpr double kOpenShare = 0.6;
// Zipf exponent of serve_tierup's function mix.
constexpr double kZipf = 0.8;
// An episode that has not tiered up after this many seconds fails.
constexpr double kEpisodeTimeout = 5.0;
// Tiered runtime settings of serve_tierup.
constexpr uint32_t kPromoteThreshold = 1;
constexpr uint32_t kTier2Threshold = 16;
// A measured phase is a series of rounds of about kRoundSeconds, so every
// metric is sampled across the whole run (the host's speed drifts over
// seconds). Each round spends kProbeShare of its time on suite rollouts
// (the compile-side metrics), the rest on traffic.
constexpr double kRoundSeconds = 1.0;
constexpr double kProbeShare = 0.25;
// Requests of the mix run directly on JIT code and at tier 0 as probes.
constexpr size_t kDirectProbes = 512;
// The size the probe rollouts' checked runs use.
constexpr size_t kProbeSizeIdx = 10;
// The process's thread budget: load generator, workers and JIT pool.
constexpr size_t kMaxThreads = 4;

std::vector<svc::CoreSpec> shard_cores() {
  return {{svc::TargetKind::X86Sim, false},
          {svc::TargetKind::X86Sim, false},
          {svc::TargetKind::PpcSim, false},
          {svc::TargetKind::SpuSim, true}};
}

svc::ServerOptions server_options(size_t workers) {
  svc::ServerOptions o;
  o.workers = workers;
  // Deep enough that the workloads' bursts are never refused.
  o.queue_depth = 4096;
  o.batch_max = 8;
  return o;
}

int64_t to_ns(double s) { return static_cast<int64_t>(s * 1e9); }

// Threads of this process, not counting one that was joined but is still
// being torn down by the kernel (which can take milliseconds when the
// host steals the CPU it exits on): a count over budget is re-read for up
// to 20 ms, and only a thread still there then counts.
size_t live_threads() {
  size_t n = thread_count();
  for (int i = 0; i < 4 && n > kMaxThreads; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = std::min(n, thread_count());
  }
  return n;
}

// The seeded request stream: which function, which size. Sizes are
// log-uniform over the suite's grid; functions uniform, or Zipf with the
// suite's own order as the popularity ranking (a fixed ranking, so the
// mix's make-up does not change from seed to seed).
class Mix {
 public:
  struct Request {
    uint32_t fn;
    uint32_t size_idx;
  };

  Mix(size_t functions, uint64_t seed, bool zipf) : rng_(svc::Rng(seed).fork(1)) {
    double total = 0.0;
    for (size_t k = 0; k < functions; ++k) {
      total += zipf ? 1.0 / std::pow(static_cast<double>(k + 1), kZipf) : 1.0;
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Request next() {
    const double u = rng_.next_f64();
    const size_t k = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return {static_cast<uint32_t>(std::min(k, cdf_.size() - 1)),
            static_cast<uint32_t>(rng_.next_below(Suite::kSizes))};
  }

 private:
  svc::Rng rng_;
  std::vector<double> cdf_;
};

// What a stretch of traffic produced.
struct Traffic {
  Samples latency_us, late_us, submit_us;
  uint64_t sent = 0, completed = 0, good = 0, tier0 = 0;
  uint64_t cycles = 0, spill_loads = 0;
  double end = 0.0;  // last completion
  double busy_s = 0.0;  // summed over run() calls: first submit to last completion
  // CPU time of every thread but the load generator's during the run()
  // calls: the serving stack's own work (workers, background JIT).
  double serving_cpu_s = 0.0;
  std::vector<bool> tier1;  // per function: seen at tier >= 1
  size_t tier1_count = 0;
  double all_tier1_at = 0.0;
  size_t peak_threads = 0;
};

using Submit = std::function<std::future<svc::Result<svc::SimResult>>(
    const std::string&, std::vector<Value>)>;

// The load generator: one thread that sends requests on a schedule (open
// loop) or keeps a window outstanding (closed loop), and busy-polls the
// futures so each response is timed when it is first seen ready. Every
// response is checked against the oracle.
class LoadGen {
 public:
  LoadGen(const Suite& suite, Ledger& ledger, Tracer& tracer, uint64_t seed,
          bool zipf)
      : suite_(suite),
        ledger_(ledger),
        tracer_(tracer),
        mix_(suite.num_functions(), seed, zipf),
        arrivals_(svc::Rng(seed).fork(3)) {}

  /// Open loop at `rate`: request k is due at the k-th Poisson arrival;
  /// latency runs from the due time. Stops sending once `stop` holds,
  /// then waits for every outstanding response.
  void open_loop(double rate, const Submit& submit,
                 const std::function<bool(const Traffic&)>& stop, Traffic& t) {
    run(rate, 0, submit, stop, t);
  }

  /// Closed loop: keeps `window` requests outstanding until `stop`.
  void closed_window(size_t window, const Submit& submit,
                     const std::function<bool(const Traffic&)>& stop,
                     Traffic& t) {
    run(0.0, window, submit, stop, t);
  }

 private:
  struct Pending {
    std::future<svc::Result<svc::SimResult>> future;
    double due;
    double submit_end;
    uint64_t index;
    Mix::Request req;
    uint64_t span;
  };

  void run(double rate, size_t window, const Submit& submit,
           const std::function<bool(const Traffic&)>& stop, Traffic& t) {
    if (t.tier1.empty()) t.tier1.assign(suite_.num_functions(), false);
    std::vector<Pending> pending;
    const double started = wall_s();
    const double process0 = process_cpu_s();
    const double generator0 = thread_cpu_s();
    const uint64_t completed_before = t.completed;
    double next_due = started;
    bool stopping = false;
    uint64_t spins = 0;
    while (true) {
      if (!stopping && stop(t)) stopping = true;
      if (!stopping) {
        if (rate > 0.0) {
          const double now = wall_s();
          while (next_due <= now) {
            pending.push_back(issue(next_due, submit, t));
            next_due += -std::log(1.0 - arrivals_.next_f64()) / rate;
          }
        } else {
          while (pending.size() < window) {
            pending.push_back(issue(wall_s(), submit, t));
          }
        }
      }
      poll(pending, t);
      if (stopping && pending.empty()) break;
      if ((++spins & 0xfff) == 0) {
        t.peak_threads = std::max(t.peak_threads, live_threads());
      }
    }
    if (t.completed > completed_before) t.busy_s += t.end - started;
    t.serving_cpu_s +=
        (process_cpu_s() - process0) - (thread_cpu_s() - generator0);
  }

  Pending issue(double due, const Submit& submit, Traffic& t) {
    const Mix::Request req = mix_.next();
    std::vector<Value> args = suite_.args(req.fn, req.size_idx);
    const double s0 = wall_s();
    std::future<svc::Result<svc::SimResult>> f =
        submit(suite_.name(req.fn), std::move(args));
    const double s1 = wall_s();
    ++t.sent;
    t.late_us.add((s0 - due) * 1e6);
    t.submit_us.add((s1 - s0) * 1e6);
    const uint64_t index = index_++;
    const uint64_t span = tracer_.enabled() ? tracer_.next_id() : 0;
    if (span) {
      tracer_.record("submit", "serve", span, index, to_ns(s0), to_ns(s1));
    }
    return {std::move(f), due, s1, index, req, span};
  }

  void poll(std::vector<Pending>& pending, Traffic& t) {
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      complete(p, wall_s(), t);
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  }

  void complete(Pending& p, double ready, Traffic& t) {
    const double latency_us = (ready - p.due) * 1e6;
    if (p.span) {
      tracer_.record("future_ready", "serve", p.span, p.index,
                     to_ns(p.submit_end), to_ns(ready));
      tracer_.record("request", "loadgen", 0, p.index, to_ns(p.due),
                     to_ns(ready), p.span);
    }
    ledger_.attempt();
    t.end = ready;
    svc::Result<svc::SimResult> r = p.future.get();
    if (!r.ok()) {
      ledger_.fail("request " + suite_.name(p.req.fn) + " failed: " +
                   r.error_text());
      return;
    }
    ++t.completed;
    const Suite::Expected& want = suite_.expected(p.req.fn, p.req.size_idx);
    const std::string diff = diff_result(r->value, r->trap, want.value, want.trap);
    if (!diff.empty()) {
      ledger_.fail("response mismatch in " + suite_.name(p.req.fn) + " (tier " +
                   std::to_string(r->tier) + "): " + diff);
      return;
    }
    t.latency_us.add(latency_us);
    if (latency_us <= kLatencyLimitUs) ++t.good;
    t.cycles += r->stats.cycles;
    t.spill_loads += r->stats.spill_loads;
    if (r->tier == 0) {
      ++t.tier0;
    } else if (!t.tier1[p.req.fn]) {
      t.tier1[p.req.fn] = true;
      if (++t.tier1_count == t.tier1.size()) t.all_tier1_at = ready;
    }
  }

  const Suite& suite_;
  Ledger& ledger_;
  Tracer& tracer_;
  Mix mix_;
  svc::Rng arrivals_;
  uint64_t index_ = 0;
};

// The suite's checked runs in a rollout: every function once on every
// core at the probe size, against the oracle table; memory must end as
// the fixed-point image.
CheckedRuns suite_runs(const Suite& suite, Ledger& ledger) {
  return [&suite, &ledger](svc::Deployment& dep, RunTotals& totals,
                           Tracer& tracer, uint64_t parent) {
    suite.init_memory(dep.memory());
    for (size_t c = 0; c < dep.num_cores(); ++c) {
      for (size_t f = 0; f < suite.num_functions(); ++f) {
        ledger.attempt();
        const double t0 = thread_cpu_s();
        svc::Result<svc::SimResult> r = [&] {
          Scope span(tracer, "run_on", "targets", parent);
          return dep.run_on(c, suite.name(f), suite.args(f, kProbeSizeIdx));
        }();
        totals.seconds += thread_cpu_s() - t0;
        if (!r.ok()) {
          ledger.fail("suite run_on failed: " + r.error_text());
          continue;
        }
        ++totals.runs;
        totals.cycles += r->stats.cycles;
        totals.instructions += r->stats.instructions;
        totals.spill_loads += r->stats.spill_loads;
        const Suite::Expected& want = suite.expected(f, kProbeSizeIdx);
        const std::string diff =
            diff_result(r->value, r->trap, want.value, want.trap);
        if (!diff.empty()) {
          ledger.fail("suite mismatch in " + suite.name(f) + " on core " +
                      std::to_string(c) + ": " + diff);
        }
      }
    }
    const std::string diff = diff_memory(dep.memory().bytes(), suite.image());
    if (!diff.empty()) ledger.fail("suite memory after runs: " + diff);
  };
}

// Direct runs of the first `n` requests of a mix on one deployment, each
// checked; times are wall (the serving layers' clock).
struct DirectRuns {
  Samples us;
  uint64_t cycles = 0, instructions = 0;
  double seconds = 0.0;
};

DirectRuns run_direct(const Suite& suite, svc::Deployment& dep, uint64_t seed,
                      bool zipf, size_t n, Ledger& ledger, Tracer& tracer) {
  DirectRuns out;
  suite.init_memory(dep.memory());
  Mix mix(suite.num_functions(), seed, zipf);
  for (size_t i = 0; i < n; ++i) {
    const Mix::Request req = mix.next();
    const std::vector<Value> args = suite.args(req.fn, req.size_idx);
    ledger.attempt();
    const double t0 = wall_s();
    svc::Result<svc::SimResult> r = [&] {
      Scope span(tracer, "run", "targets", 0, i);
      return dep.run(suite.name(req.fn), args);
    }();
    const double dt = wall_s() - t0;
    if (!r.ok()) {
      ledger.fail("direct run failed: " + r.error_text());
      continue;
    }
    const Suite::Expected& want = suite.expected(req.fn, req.size_idx);
    const std::string diff = diff_result(r->value, r->trap, want.value, want.trap);
    if (!diff.empty()) {
      ledger.fail("direct run mismatch in " + suite.name(req.fn) + ": " + diff);
      continue;
    }
    out.us.add(dt * 1e6);
    out.seconds += dt;
    out.cycles += r->stats.cycles;
    out.instructions += r->stats.instructions;
  }
  const std::string diff = diff_memory(dep.memory().bytes(), suite.image());
  if (!diff.empty()) ledger.fail("memory after direct runs: " + diff);
  return out;
}

// Simulated cycles per request of the suite on JIT code: every function
// at every size once (the uniform mix's expectation), mapper-routed and
// checked. Deterministic for a seed (the data image is seeded).
double suite_cycles_per_request(const Suite& suite, svc::Deployment& jit,
                                Ledger& ledger) {
  suite.init_memory(jit.memory());
  uint64_t cycles = 0;
  for (size_t f = 0; f < suite.num_functions(); ++f) {
    for (size_t s = 0; s < Suite::kSizes; ++s) {
      ledger.attempt();
      svc::Result<svc::SimResult> r = jit.run(suite.name(f), suite.args(f, s));
      const Suite::Expected& want = suite.expected(f, s);
      if (!r.ok() || !diff_result(r->value, r->trap, want.value, want.trap).empty()) {
        ledger.fail("suite cost run of " + suite.name(f) + " failed or mismatched");
        continue;
      }
      cycles += r->stats.cycles;
    }
  }
  const std::string diff = diff_memory(jit.memory().bytes(), suite.image());
  if (!diff.empty()) ledger.fail("memory after suite cost runs: " + diff);
  return static_cast<double>(cycles) /
         static_cast<double>(suite.num_functions() * Suite::kSizes);
}

// Per-layer metrics from the direct probes: the request mix on JIT code
// (serve.exec_us, sim.ns_per_cycle) and at tier 0 (vm.ns_per_step).
// Returns the median direct execution time.
double report_probes(const Suite& suite, svc::Deployment& jit, uint64_t seed,
                     bool zipf, Ledger& ledger, Tracer& tracer, Report& l) {
  const DirectRuns on_jit =
      run_direct(suite, jit, seed, zipf, kDirectProbes, ledger, tracer);
  const svc::Engine tier0 = must(
      svc::Engine::Builder().tiered(UINT32_MAX).build(), "tier-0 engine");
  svc::Deployment interp =
      must(tier0.deploy(suite.module(), shard_cores()), "tier-0 deploy");
  const DirectRuns on_tier0 =
      run_direct(suite, interp, seed, zipf, kDirectProbes, ledger, tracer);
  l.add("serve.exec_us", on_jit.us.median(), "us");
  l.add("sim.ns_per_cycle",
        on_jit.cycles ? on_jit.seconds * 1e9 / static_cast<double>(on_jit.cycles)
                      : 0.0,
        "ns");
  l.add("vm.ns_per_step",
        on_tier0.instructions ? on_tier0.seconds * 1e9 /
                                    static_cast<double>(on_tier0.instructions)
                              : 0.0,
        "ns");
  return on_jit.us.median();
}

// The probes' metrics in an untraced phase, which runs no probes.
double report_no_probes(Report& l) {
  l.add("serve.exec_us", 0.0, "us");
  l.add("sim.ns_per_cycle", 0.0, "ns");
  l.add("vm.ns_per_step", 0.0, "ns");
  return 0.0;
}

// What both serving workloads report from their traffic. End to end:
// the suite's simulated cycles per request and cpu_us_per_req. Per layer:
// the wall-clock latencies and goodput (on a shared host they swing with
// other tenants' load far more than any bound could allow), the tier mix,
// the simulator per request, the submit/exec/wait split (exec from the
// traced direct-run probes of `jit`) and the generator.
void report_serving(const Suite& suite, svc::Deployment& jit,
                    const Options& options, bool zipf, double rate,
                    const Traffic& open, const Traffic& window, Ledger& ledger,
                    Tracer& tracer, Outcome& out) {
  Report& l = out.layers;
  const uint64_t done = open.completed + window.completed;
  const auto per_request = [done](double total) {
    return total / static_cast<double>(std::max<uint64_t>(done, 1));
  };
  out.e2e.add("sim_cycles_per_req", suite_cycles_per_request(suite, jit, ledger),
              "cycles");
  out.e2e.add("cpu_us_per_req",
              host_speed().time_factor() *
                  per_request((open.serving_cpu_s + window.serving_cpu_s) * 1e6),
              "us");
  l.add("latency_us_p50", open.latency_us.median(), "us");
  l.add_tail("latency_us_tail", open.latency_us.tail(), "us");
  l.add("goodput_rps",
        rate * static_cast<double>(open.good) /
            static_cast<double>(std::max<uint64_t>(open.sent, 1)),
        "1/s");
  l.add("vm.tier0_frac",
        per_request(static_cast<double>(open.tier0 + window.tier0)), "ratio");
  const double exec_us =
      tracer.enabled()
          ? report_probes(suite, jit, options.seed, zipf, ledger, tracer, l)
          : report_no_probes(l);
  l.add("sim.cycles", per_request(static_cast<double>(open.cycles + window.cycles)),
        "cycles");
  l.add("sim.spill_loads",
        per_request(static_cast<double>(open.spill_loads + window.spill_loads)),
        "count");
  const double submit_us = open.submit_us.median();
  l.add("serve.submit_us", submit_us, "us");
  l.add("serve.wait_us", open.latency_us.median() - submit_us - exec_us, "us");
  l.add("loadgen.offered_rps", static_cast<double>(open.sent) / open.busy_s,
        "1/s");
  l.add_tail("loadgen.late_us_tail", open.late_us.tail(), "us");
  out.deterministic["image_bytes"] = out.e2e.get("image_bytes");
  out.deterministic["code_bytes"] = out.e2e.get("code_bytes");
  out.deterministic["sim_cycles_per_req"] = out.e2e.get("sim_cycles_per_req");
}

svc::Statistics minus(const svc::Statistics& a, const svc::Statistics& b) {
  svc::Statistics d;
  for (const auto& [k, v] : a.all()) d.set(k, v - b.get(k));
  return d;
}

void check_threads(size_t peak, Ledger& ledger) {
  if (peak > kMaxThreads) {
    ledger.fail("process ran " + std::to_string(peak) + " threads, budget " +
                std::to_string(kMaxThreads));
  }
}

// Fills the serving workloads' persistent store with the suite's code
// for the four ISAs and returns its path; the probes' warm redeploys read
// it. (Their cold deploys run in memory, as the deployments they serve
// do.)
std::string fill_suite_store(const Suite& suite, const Options& options) {
  const std::string path = options.work_dir + "/suite-store";
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  const svc::Engine engine = must(
      svc::Engine::Builder().eager().persistent_cache(path).build(),
      "suite store engine");
  (void)must(engine.deploy(suite.module(), isa_cores()), "suite store deploy");
  return path;
}

// The suite's rollouts at the start of every round (the very first counts
// toward the deterministic metrics): the serving workloads' compile-side
// metrics, spread over the whole run.
class SuiteProbes {
 public:
  SuiteProbes(const Suite& suite, const Options& options, Ledger& ledger)
      : pipeline_(options.work_dir, ledger, fill_suite_store(suite, options)),
        runs_(suite_runs(suite, ledger)),
        source_(Suite::source()) {}

  /// Rolls the suite out until `until` (at least once).
  void round(double until, Tracer& tracer) {
    do {
      pipeline_.run(source_, isa_cores(), runs_, first_, 0, tracer);
      first_ = false;
    } while (wall_s() < until);
  }

  [[nodiscard]] const RolloutPipeline::Stats& stats() const {
    return pipeline_.stats();
  }

 private:
  RolloutPipeline pipeline_;
  CheckedRuns runs_;
  std::string source_;
  bool first_ = true;
};

// ----------------------------------------------------------- serve_hot --

class ServeHot final : public Workload {
 public:
  ServeHot(const Options& options, Ledger& ledger)
      : options_(options), ledger_(ledger) {
    svc::ClusterOptions cluster;
    cluster.shards = 2;
    cluster.routing = svc::RoutingPolicy::LeastLoaded;
    cluster.memory_init = [this](svc::Memory& mem) {
      suite_->init_memory(mem);
      shard_memory_.push_back(&mem);
    };
    engine_ = std::make_unique<svc::Engine>(must(svc::Engine::Builder()
                                                     .eager()
                                                     .serving(server_options(1))
                                                     .cluster(cluster)
                                                     .build(),
                                                 "serve_hot engine"));
    suite_ = std::make_unique<Suite>(must(Suite::create(*engine_, options.seed),
                                          "suite"));
    if (options.corrupt_expected) suite_->corrupt_expected();
    cluster_ = std::make_unique<svc::Cluster>(must(
        svc::Cluster::create(*engine_, suite_->module(), shard_cores(), cluster),
        "cluster"));
    // Warm the serving path: every function of every size once, checked.
    for (size_t f = 0; f < suite_->num_functions(); ++f) {
      for (size_t s = 0; s < Suite::kSizes; ++s) {
        svc::Result<svc::SimResult> r =
            cluster_->submit(suite_->name(f), suite_->args(f, s)).get();
        ledger_.attempt();
        const Suite::Expected& want = suite_->expected(f, s);
        if (!r.ok() || !diff_result(r->value, r->trap, want.value, want.trap).empty()) {
          ledger_.fail("warm-up request " + suite_->name(f) + " failed");
        }
      }
    }
  }

  Outcome measure(double seconds, Tracer& tracer) override {
    const double t_begin = wall_s();
    Outcome out;
    Report& e = out.e2e;
    Report& l = out.layers;
    SuiteProbes probes(*suite_, options_, ledger_);
    svc::Deployment jit =
        must(engine_->deploy(suite_->module(), shard_cores()), "eager deploy");

    const svc::ClusterStats before = cluster_->stats();
    const CpuTimes cpu0 = read_cpu_times();
    LoadGen gen(*suite_, ledger_, tracer, options_.seed, /*zipf=*/false);
    const Submit submit = [this](const std::string& fn, std::vector<Value> args) {
      return cluster_->submit(fn, std::move(args));
    };
    Traffic open, window;
    const int rounds = std::max(2, static_cast<int>(std::lround(seconds / kRoundSeconds)));
    for (int r = 0; r < rounds; ++r) {
      const double round_start = wall_s();
      const double round_end = t_begin + seconds * (r + 1) / rounds;
      probes.round(round_start + kProbeShare * (round_end - round_start), tracer);
      const double left = std::max(round_end - wall_s(), 0.05);
      const double open_until = wall_s() + kOpenShare * left;
      gen.open_loop(kHotRate, submit,
                    [&](const Traffic&) { return wall_s() >= open_until; }, open);
      const double window_until = std::max(round_end, wall_s() + 0.02);
      gen.closed_window(kWindow, submit,
                        [&](const Traffic&) { return wall_s() >= window_until; },
                        window);
    }
    cluster_->drain();
    const double steal = steal_fraction(cpu0, read_cpu_times());
    const svc::ClusterStats after = cluster_->stats();
    check_threads(std::max(open.peak_threads, window.peak_threads), ledger_);

    for (const svc::Memory* mem : shard_memory_) {
      const std::string diff = diff_memory(mem->bytes(), suite_->image());
      if (!diff.empty()) ledger_.fail("shard memory after traffic: " + diff);
    }
    const svc::Statistics cache = minus(after.aggregate.cache, before.aggregate.cache);
    if (cache.get("cache.compiles") != 0) {
      ledger_.fail("serve_hot's measured phase compiled " +
                   std::to_string(cache.get("cache.compiles")) + " times");
    }
    report_rollout(probes.stats(), out);
    e.add("time_to_tier1_ms",
          host_speed().time_factor() * probes.stats().tier1_ms.median(), "ms");
    report_serving(*suite_, jit, options_, /*zipf=*/false, kHotRate, open,
                   window, ledger_, tracer, out);
    l.add("capacity_rps", static_cast<double>(window.completed) / window.busy_s,
          "1/s");
    l.add("runtime.time_to_tier1_ms", 0.0, "ms");
    l.add("runtime.tier2_installs", 0.0, "count");
    report_cache(cache, l);
    uint64_t executed = 0, batches = 0, peak_depth = 0;
    double routed_max = 0.0, routed_min = 1e300;
    for (size_t s = 0; s < after.shards.size(); ++s) {
      const svc::ServerStats& a = after.shards[s].server;
      const svc::ServerStats& b = before.shards[s].server;
      executed += a.completed - b.completed;
      batches += a.batches - b.batches;
      for (const svc::CoreServeStats& c : a.cores) {
        peak_depth = std::max(peak_depth, c.peak_queue_depth);
      }
      const double routed =
          static_cast<double>(after.shards[s].routed - before.shards[s].routed);
      routed_max = std::max(routed_max, routed);
      routed_min = std::min(routed_min, routed);
    }
    l.add("serve.batch_mean",
          static_cast<double>(executed) / static_cast<double>(std::max<uint64_t>(batches, 1)),
          "count");
    l.add("serve.peak_queue_depth", static_cast<double>(peak_depth), "count");
    l.add("serve.rejected",
          static_cast<double>(after.aggregate.rejected - before.aggregate.rejected +
                              after.rejected_unroutable - before.rejected_unroutable),
          "count");
    l.add("cluster.route_imbalance", routed_min > 0 ? routed_max / routed_min : 0.0,
          "ratio");
    l.add("host.steal_frac", steal, "ratio");
    return out;
  }

 private:
  const Options& options_;
  Ledger& ledger_;
  std::unique_ptr<svc::Engine> engine_;
  std::unique_ptr<Suite> suite_;
  std::vector<svc::Memory*> shard_memory_;  // owned by the cluster's shards
  std::unique_ptr<svc::Cluster> cluster_;
};

// --------------------------------------------------------- serve_tierup --

class ServeTierup final : public Workload {
 public:
  ServeTierup(const Options& options, Ledger& ledger)
      : options_(options),
        ledger_(ledger),
        engine_(must(svc::Engine::Builder()
                         .tiered(kPromoteThreshold)
                         .profiling()
                         .tier2(kTier2Threshold)
                         .pool_threads(1)
                         .serving(server_options(2))
                         .build(),
                     "serve_tierup engine")),
        eager_(must(svc::Engine::Builder().eager().build(), "eager engine")),
        suite_(must(Suite::create(engine_, options.seed), "suite")),
        image_(svc::Engine::save_bytecode(suite_.module())) {
    if (options.corrupt_expected) suite_.corrupt_expected();
  }

  Outcome measure(double seconds, Tracer& tracer) override {
    const double t_begin = wall_s();
    Outcome out;
    Report& e = out.e2e;
    Report& l = out.layers;
    SuiteProbes probes(suite_, options_, ledger_);
    svc::Deployment jit =
        must(eager_.deploy(suite_.module(), shard_cores()), "eager deploy");

    const CpuTimes cpu0 = read_cpu_times();
    LoadGen gen(suite_, ledger_, tracer, options_.seed, /*zipf=*/true);
    Episodes ep;
    uint64_t episode = 0;
    const int rounds =
        std::max(2, static_cast<int>(std::lround(seconds / kRoundSeconds)));
    for (int r = 0; r < rounds; ++r) {
      const double round_start = wall_s();
      const double round_end = t_begin + seconds * (r + 1) / rounds;
      probes.round(round_start + kProbeShare * (round_end - round_start),
                   tracer);
      // At least one episode of each kind per round.
      for (const uint64_t first = episode;
           episode < first + 2 || wall_s() < round_end; ++episode) {
        run_episode(episode, gen, tracer, ep);
      }
    }
    const double steal = steal_fraction(cpu0, read_cpu_times());
    check_threads(ep.peak_threads, ledger_);

    report_rollout(probes.stats(), out);
    e.add("time_to_tier1_ms",
          host_speed().time_factor() * probes.stats().tier1_ms.median(), "ms");
    report_serving(suite_, jit, options_, /*zipf=*/true, kTierRate, ep.open,
                   ep.window, ledger_, tracer, out);
    l.add("capacity_rps", ep.capacity.median(), "1/s");
    l.add("runtime.time_to_tier1_ms", ep.tier1_ms.median(), "ms");
    l.add("runtime.tier2_installs", static_cast<double>(ep.tier2_installs),
          "count");
    report_cache(ep.cache, l);
    l.add("serve.batch_mean",
          static_cast<double>(ep.executed) /
              static_cast<double>(std::max<uint64_t>(ep.batches, 1)),
          "count");
    l.add("serve.peak_queue_depth", static_cast<double>(ep.peak_depth), "count");
    l.add("serve.rejected", static_cast<double>(ep.rejected), "count");
    l.add("cluster.route_imbalance", 1.0, "ratio");
    l.add("host.steal_frac", steal, "ratio");
    std::printf("  %zu tier-up episodes (%zu open-loop, %zu saturating)\n",
                ep.tier1_ms.size() + ep.capacity.size(), ep.tier1_ms.size(),
                ep.capacity.size());
    return out;
  }

 private:
  // What the episodes of a measured phase produced.
  struct Episodes {
    Traffic open, window;  // the open-loop and the saturating episodes
    Samples tier1_ms, capacity;
    svc::Statistics cache;
    uint64_t tier2_installs = 0, executed = 0, batches = 0, peak_depth = 0;
    uint64_t rejected = 0;
    size_t peak_threads = 0;
  };

  // One restart under traffic: a fresh tiered deployment and Server, then
  // traffic until every function has answered from JIT code. Odd
  // episodes keep a window outstanding (capacity during tier-up), even
  // ones take the open-loop mix (tier-up time, latency).
  void run_episode(uint64_t episode, LoadGen& gen, Tracer& tracer,
                   Episodes& ep) {
    const bool saturate = episode % 2 == 1;
    Scope span(tracer, saturate ? "episode_window" : "episode", "bench", 0,
               episode);
    const double t_deploy = wall_s();
    svc::Result<svc::ModuleHandle> loaded = [&] {
      Scope s(tracer, "load_bytecode", "bytecode", span.id(), episode);
      return engine_.load_bytecode(image_);
    }();
    if (!loaded.ok()) {
      ledger_.fail("episode load failed: " + loaded.error_text());
      return;
    }
    svc::Result<svc::Deployment> dep = [&] {
      Scope s(tracer, "deploy", "runtime", span.id(), episode);
      return engine_.deploy(*loaded, shard_cores());
    }();
    if (!dep.ok()) {
      ledger_.fail("episode deploy failed: " + dep.error_text());
      return;
    }
    suite_.init_memory(dep->memory());
    svc::Server server = must(
        svc::Server::create(std::move(dep).value(), engine_.options().server),
        "episode server");
    const Submit submit = [&server](const std::string& fn,
                                    std::vector<Value> args) {
      return server.submit(fn, std::move(args));
    };
    const auto all_tiered = [&](const Traffic& t) {
      if (wall_s() - t_deploy > kEpisodeTimeout) {
        ledger_.fail("episode did not tier up within its time limit");
        return true;
      }
      return t.tier1_count == t.tier1.size();
    };
    Traffic t;
    if (saturate) {
      gen.closed_window(kWindow, submit, all_tiered, t);
      ep.capacity.add(static_cast<double>(t.completed) / t.busy_s);
    } else {
      gen.open_loop(kTierRate, submit, all_tiered, t);
      ep.tier1_ms.add((t.all_tier1_at - t_deploy) * 1e3);
    }
    server.drain();
    const std::string diff =
        diff_memory(server.deployment().memory().bytes(), suite_.image());
    if (!diff.empty()) ledger_.fail("episode memory after traffic: " + diff);
    const svc::ServerStats stats = server.stats();
    ep.cache.merge(stats.cache);
    ep.tier2_installs += server.deployment().tier_counters().tier2_functions;
    ep.executed += stats.completed;
    ep.batches += stats.batches;
    ep.rejected += stats.rejected;
    for (const svc::CoreServeStats& c : stats.cores) {
      ep.peak_depth = std::max(ep.peak_depth, c.peak_queue_depth);
    }
    ep.peak_threads = std::max(ep.peak_threads, t.peak_threads);
    Traffic& into = saturate ? ep.window : ep.open;
    into.latency_us.append(t.latency_us);
    into.late_us.append(t.late_us);
    into.submit_us.append(t.submit_us);
    into.sent += t.sent;
    into.busy_s += t.busy_s;
    into.serving_cpu_s += t.serving_cpu_s;
    into.completed += t.completed;
    into.good += t.good;
    into.tier0 += t.tier0;
    into.cycles += t.cycles;
    into.spill_loads += t.spill_loads;
  }

  const Options& options_;
  Ledger& ledger_;
  svc::Engine engine_;
  svc::Engine eager_;
  Suite suite_;
  std::vector<uint8_t> image_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_hot(const Options& options, Ledger& ledger) {
  return std::make_unique<ServeHot>(options, ledger);
}

std::unique_ptr<Workload> make_serve_tierup(const Options& options,
                                            Ledger& ledger) {
  return std::make_unique<ServeTierup>(options, ledger);
}

}  // namespace perfbench
