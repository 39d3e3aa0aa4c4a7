#include "serve/server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "runtime/mapper.h"
#include "support/latency_histogram.h"
#include "support/mpmc_queue.h"
#include "support/thread_pool.h"

namespace svc {

namespace {
using Clock = std::chrono::steady_clock;
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

struct Server::Impl {
  /// One queued request: everything a worker needs to execute it and
  /// resolve the caller's future.
  struct Request {
    uint32_t func = 0;
    std::vector<Value> args;
    std::promise<Result<SimResult>> promise;
    Clock::time_point enqueued;
  };

  /// Per-function counters; elements live at stable addresses for the
  /// server's lifetime (the vector is sized once, never resized).
  struct FuncShard {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> completed{0};
    std::array<std::atomic<uint64_t>, 3> tiers{};
    LatencyHistogram latency;
  };

  /// Per-core shard: the bounded request queue plus its counters.
  struct CoreShard {
    explicit CoreShard(size_t depth) : queue(depth) {}
    BoundedMpmcQueue<Request> queue;
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> sim_cycles{0};
  };

  /// Per-worker wake-up state: the epoch advances under `mu` on every
  /// accepted submit routed to one of the worker's cores (and at
  /// shutdown), so a worker that swept its queues empty sleeps only if
  /// nothing arrived since it captured the epoch. Per worker -- not one
  /// global -- so a submit wakes exactly the worker that owns the routed
  /// core instead of herding all of them.
  struct WorkerWake {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t epoch = 0;
    bool stopping = false;
  };

  Impl(Deployment deployment, ServerOptions options)
      : dep_(std::move(deployment)),
        opts_(options),
        module_(dep_.module().get()),
        funcs_(module_->num_functions()),
        start_(Clock::now()) {
    const size_t ncores = dep_.num_cores();
    num_workers_ =
        opts_.workers == 0 ? ncores : std::min(opts_.workers, ncores);
    cores_.reserve(ncores);
    for (size_t c = 0; c < ncores; ++c) {
      cores_.push_back(std::make_unique<CoreShard>(opts_.queue_depth));
    }
    wakes_.reserve(num_workers_);
    for (size_t w = 0; w < num_workers_; ++w) {
      wakes_.push_back(std::make_unique<WorkerWake>());
    }
    // Routing is fixed up front: core affinity depends only on the
    // functions' HardwareHints annotations and the core specs, both
    // immutable once deployed.
    const Soc& soc = dep_.soc();
    route_.reserve(module_->num_functions());
    for (uint32_t f = 0; f < module_->num_functions(); ++f) {
      route_.push_back(choose_core(soc, module_->function(f)));
    }
  }

  ~Impl() { shutdown(); }

  void start() {
    pool_ = std::make_unique<ThreadPool>(num_workers_);
    for (size_t w = 0; w < num_workers_; ++w) {
      pool_->submit([this, w] { worker_loop(w); });
    }
  }

  /// Closes the intake, lets the workers finish every accepted request,
  /// joins them. Idempotent.
  void shutdown() {
    if (!pool_) return;
    // Order matters: queues close before any worker can observe
    // `stopping`, so a worker that sees it and then sweeps its queues
    // empty knows no further push can ever succeed.
    for (auto& core : cores_) core->queue.close();
    for (auto& wake : wakes_) {
      {
        std::lock_guard<std::mutex> lock(wake->mu);
        wake->stopping = true;
        ++wake->epoch;
      }
      wake->cv.notify_all();
    }
    pool_.reset();  // ThreadPool dtor finishes the worker_loop jobs
  }

  std::future<Result<SimResult>> submit(std::string_view name,
                                        std::vector<Value> args) {
    submitted_.fetch_add(1, kRelaxed);
    const auto idx = module_->find_function(name);
    if (!idx) {
      invalid_.fetch_add(1, kRelaxed);
      std::promise<Result<SimResult>> reply;
      reply.set_value(Result<SimResult>::failure(
          "Server::submit: no function '" + std::string(name) +
          "' in module '" + module_->name() + "'"));
      return reply.get_future();
    }

    const size_t core = route_[*idx];
    Request req;
    req.func = *idx;
    req.args = std::move(args);
    req.enqueued = Clock::now();
    std::future<Result<SimResult>> future = req.promise.get_future();

    // Counted as pending *before* the push so a concurrent drain() that
    // starts right after the push cannot return while this request runs.
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      ++pending_;
    }
    if (std::optional<Request> refused =
            cores_[core]->queue.try_push(std::move(req))) {
      // Admission control: the routed core's queue is at its watermark
      // (or the server is shutting down). The request came back; resolve
      // its future with the rejection instead of queueing.
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        --pending_;
        if (pending_ == 0) idle_cv_.notify_all();
      }
      rejected_.fetch_add(1, kRelaxed);
      funcs_[*idx].rejected.fetch_add(1, kRelaxed);
      cores_[core]->rejected.fetch_add(1, kRelaxed);
      refused->promise.set_value(Result<SimResult>::failure(
          "Server::submit: admission control rejected '" + std::string(name) +
          "': core " + std::to_string(core) + " queue at its watermark (" +
          std::to_string(opts_.queue_depth) + " requests)"));
      return future;
    }
    accepted_.fetch_add(1, kRelaxed);
    funcs_[*idx].accepted.fetch_add(1, kRelaxed);
    // Wake exactly the worker that owns the routed core.
    WorkerWake& wake = *wakes_[core % num_workers_];
    {
      std::lock_guard<std::mutex> lock(wake.mu);
      ++wake.epoch;
    }
    wake.cv.notify_one();
    return future;
  }

  void drain() {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  /// Worker `w` owns cores {c : c % num_workers_ == w}: every core is
  /// drained by exactly one worker, so per-core execution is serialized
  /// (and per-function FIFO, since a function routes to one core).
  void worker_loop(size_t w) {
    WorkerWake& wake = *wakes_[w];
    for (;;) {
      uint64_t epoch = 0;
      bool stopping = false;
      {
        std::lock_guard<std::mutex> lock(wake.mu);
        epoch = wake.epoch;
        stopping = wake.stopping;
      }
      bool did_work = false;
      for (size_t c = w; c < cores_.size(); c += num_workers_) {
        did_work = drain_core(c) || did_work;
      }
      if (did_work) continue;
      // Safe exit: once `stopping` was observed true, every push that
      // will ever succeed committed before the queues closed, i.e.
      // before this sweep -- and the sweep found nothing.
      if (stopping) break;
      std::unique_lock<std::mutex> lock(wake.mu);
      wake.cv.wait(lock,
                   [&] { return wake.stopping || wake.epoch != epoch; });
    }
  }

  /// Pops one batch from core `c` and runs it, same-function requests
  /// back-to-back. Returns whether anything was executed.
  bool drain_core(size_t c) {
    CoreShard& shard = *cores_[c];
    std::vector<Request> batch;
    if (shard.queue.try_pop_batch(batch, opts_.batch_max) == 0) return false;
    shard.batches.fetch_add(1, kRelaxed);
    // Coalesce: group the batch by function (stable, so per-function
    // arrival order is preserved). Same-function requests then hit the
    // tiered runtime consecutively, advancing its promotion and
    // re-specialization counters as one aggregate stream.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Request& a, const Request& b) {
                       return a.func < b.func;
                     });
    for (Request& req : batch) execute(c, req);
    return true;
  }

  void execute(size_t core, Request& req) {
    // By index: submit() already resolved and bounds-checked the
    // function, so the hot path skips the by-name lookup entirely.
    SimResult sim = dep_.soc().run_on(core, req.func, req.args);
    const auto ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             req.enqueued)
            .count());
    FuncShard& shard = funcs_[req.func];
    shard.completed.fetch_add(1, kRelaxed);
    shard.tiers[std::min<size_t>(sim.tier, 2)].fetch_add(1, kRelaxed);
    shard.latency.record(ns);
    latency_.record(ns);
    cores_[core]->executed.fetch_add(1, kRelaxed);
    cores_[core]->sim_cycles.fetch_add(sim.stats.cycles, kRelaxed);
    completed_.fetch_add(1, kRelaxed);
    // Resolve the caller's future before releasing drain(): when drain
    // returns, every accepted future is ready.
    req.promise.set_value(Result<SimResult>(std::move(sim)));
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      --pending_;
      if (pending_ == 0) idle_cv_.notify_all();
    }
  }

  [[nodiscard]] ServerStats stats() const {
    ServerStats s;
    s.submitted = submitted_.load(kRelaxed);
    s.accepted = accepted_.load(kRelaxed);
    s.rejected = rejected_.load(kRelaxed);
    s.invalid = invalid_.load(kRelaxed);
    s.completed = completed_.load(kRelaxed);
    s.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    s.requests_per_sec =
        s.wall_seconds > 0.0
            ? static_cast<double>(s.completed) / s.wall_seconds
            : 0.0;
    s.latency = latency_.snapshot();

    const Soc& soc = dep_.soc();
    s.cores.reserve(cores_.size());
    for (size_t c = 0; c < cores_.size(); ++c) {
      const CoreShard& shard = *cores_[c];
      CoreServeStats cs;
      cs.core = c;
      cs.executed = shard.executed.load(kRelaxed);
      cs.batches = shard.batches.load(kRelaxed);
      cs.rejected = shard.rejected.load(kRelaxed);
      cs.peak_queue_depth = shard.queue.peak_depth();
      cs.sim_cycles = shard.sim_cycles.load(kRelaxed);
      cs.tiers = soc.core(c).tier_counters();
      s.batches += cs.batches;
      s.sim_cycles += cs.sim_cycles;
      s.cores.push_back(cs);
    }

    s.functions.reserve(funcs_.size());
    for (size_t f = 0; f < funcs_.size(); ++f) {
      const FuncShard& shard = funcs_[f];
      FunctionServeStats fs;
      fs.name = module_->function(static_cast<uint32_t>(f)).name();
      fs.core = route_[f];
      fs.accepted = shard.accepted.load(kRelaxed);
      fs.rejected = shard.rejected.load(kRelaxed);
      fs.completed = shard.completed.load(kRelaxed);
      fs.tier0 = shard.tiers[0].load(kRelaxed);
      fs.tier1 = shard.tiers[1].load(kRelaxed);
      fs.tier2 = shard.tiers[2].load(kRelaxed);
      fs.latency = shard.latency.snapshot();
      s.functions.push_back(std::move(fs));
    }
    s.cache = dep_.cache_stats();
    return s;
  }

  Deployment dep_;
  ServerOptions opts_;
  size_t num_workers_ = 0;
  // The deployed module: shared-owned by dep_, so the raw pointer is
  // stable and outlives the server.
  const Module* module_ = nullptr;
  std::vector<size_t> route_;  // function index -> core
  std::vector<std::unique_ptr<CoreShard>> cores_;
  std::vector<std::unique_ptr<WorkerWake>> wakes_;  // one per worker
  std::vector<FuncShard> funcs_;
  Clock::time_point start_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> completed_{0};
  LatencyHistogram latency_;

  // drain(): accepted-but-not-completed requests.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  uint64_t pending_ = 0;

  std::unique_ptr<ThreadPool> pool_;
};

Result<Server> Server::create(Deployment deployment, ServerOptions options) {
  std::vector<Diagnostic> problems;
  validate_server_options(options, problems);
  if (!problems.empty()) return Result<Server>::failure(std::move(problems));

  auto impl = std::make_unique<Impl>(std::move(deployment), options);
  impl->start();
  return Server(std::move(impl));
}

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;
Server::~Server() = default;

std::future<Result<SimResult>> Server::submit(std::string_view function,
                                              std::vector<Value> args) {
  return impl_->submit(function, std::move(args));
}

void Server::drain() { impl_->drain(); }

ServerStats Server::stats() const { return impl_->stats(); }

uint64_t Server::inflight() const {
  std::lock_guard<std::mutex> lock(impl_->idle_mu_);
  return impl_->pending_;
}

Result<size_t> Server::routed_core(std::string_view function) const {
  const auto idx = impl_->module_->find_function(function);
  if (!idx) {
    return Result<size_t>::failure("Server::routed_core: no function '" +
                                   std::string(function) + "' in module '" +
                                   impl_->module_->name() + "'");
  }
  return impl_->route_[*idx];
}

size_t Server::num_workers() const { return impl_->num_workers_; }
size_t Server::num_cores() const { return impl_->cores_.size(); }
const ServerOptions& Server::options() const { return impl_->opts_; }
Deployment& Server::deployment() { return impl_->dep_; }
const Deployment& Server::deployment() const { return impl_->dep_; }

Result<Server> serve(const Engine& engine, const ModuleHandle& module,
                     std::vector<CoreSpec> cores) {
  Result<Deployment> deployment = engine.deploy(module, std::move(cores));
  if (!deployment.ok()) return Result<Server>::failure(deployment.error());
  return Server::create(std::move(deployment).value(), engine.options().server);
}

}  // namespace svc
