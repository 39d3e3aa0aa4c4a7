// The rollout pipeline (shared by every workload) and the `rollout`
// workload: seeded-order passes over a fixed pool of generated MiniC
// modules, with one of the six Table 1 kernels in every 32nd slot, each
// taken on one thread from source to a verified, stored and redeployed
// deployment on all four ISAs.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "fuzz/generator.h"
#include "workload.h"

namespace perfbench {
namespace {

using svc::Value;

// The module pool: kPoolSize modules, every kKernelEvery-th slot one of
// the six Table 1 kernels and the rest generated MiniC programs with
// generator seeds kPoolBaseSeed + slot. The pool is the same for every
// seed; the seed sets the order in which each pass visits it. (Module
// times vary widely -- the median module deploys in ~9 ms, the p95 one in
// ~80 ms -- so a per-seed draw of a few hundred modules moved the medians
// by 13% and the tails by 33% from seed to seed.)
constexpr size_t kPoolSize = 192;
constexpr size_t kKernelEvery = 32;
constexpr uint64_t kPoolBaseSeed = 1000;
// Latency limit of one module's whole rollout, for goodput_rps.
constexpr double kRolloutLimitMs = 50.0;
// Oracle step bound; generated programs stay far below it.
constexpr uint64_t kOracleSteps = uint64_t{1} << 24;

double us_since(double t0) { return (thread_cpu_s() - t0) * 1e6; }

// The switch oracle's answer for one module: value, trap kind, and the
// bytes its run changed relative to the initial memory.
struct Oracle {
  Value value;
  svc::TrapKind trap = svc::TrapKind::None;
  std::vector<std::pair<uint32_t, uint8_t>> writes;
};

// One rollout module: its source, entry point, arguments and initial
// memory.
struct ModuleInput {
  std::string source;
  std::string entry;
  std::vector<Value> args;
  std::function<void(svc::Memory&)> init;
};

ModuleInput kernel_input(const svc::KernelInfo& k) {
  constexpr uint32_t kA = 0x1000, kB = 0x5000, kC = 0x9000, kN = 1024;
  ModuleInput in;
  in.source = std::string(k.source);
  in.entry = std::string(k.fn_name);
  const Value n = Value::make_i32(kN);
  const auto addr = [](uint32_t a) { return Value::make_i32(static_cast<int32_t>(a)); };
  switch (k.shape) {
    case svc::KernelShape::MapF32:
      in.args = k.fn_name == "saxpy"
                    ? std::vector<Value>{Value::make_f32(1.25f), addr(kA), addr(kB), n}
                    : std::vector<Value>{addr(kC), addr(kA), addr(kB), n};
      break;
    case svc::KernelShape::ScaleF32:
      in.args = {Value::make_f32(1.25f), addr(kA), n};
      break;
    case svc::KernelShape::ReduceU8:
    case svc::KernelShape::ReduceU16:
      in.args = {addr(kA), n};
      break;
  }
  in.init = [](svc::Memory& mem) {
    svc::Rng rng(kPoolBaseSeed);
    for (uint32_t i = 0; i < 3 * 0x4000; i += 4) {
      mem.write_f32(kA + i, rng.next_f32());
    }
  };
  return in;
}

ModuleInput pool_input(size_t slot) {
  if (slot % kKernelEvery == kKernelEvery - 1) {
    const auto kernels = svc::table1_kernels();
    return kernel_input(kernels[(slot / kKernelEvery) % kernels.size()]);
  }
  svc::fuzz::GeneratedProgram p = svc::fuzz::generate_program(kPoolBaseSeed + slot);
  ModuleInput in;
  in.source = p.source;
  in.entry = p.entry;
  in.args = p.arg_values();
  in.init = [p = std::move(p)](svc::Memory& mem) { p.init_memory(mem); };
  return in;
}

void reset_memory(svc::Memory& mem, const ModuleInput& in) {
  const auto bytes = mem.bytes();
  std::fill(bytes.begin(), bytes.end(), uint8_t{0});
  in.init(mem);
}

Oracle run_oracle(const svc::Module& module, const ModuleInput& in,
                  size_t memory_bytes) {
  svc::Memory initial(memory_bytes);
  in.init(initial);
  svc::Memory mem(memory_bytes);
  in.init(mem);
  svc::Interpreter interp(module, mem);
  interp.set_dispatch(svc::DispatchKind::Switch);
  interp.set_fusion(false);
  interp.set_step_budget(kOracleSteps);
  const svc::ExecResult r = interp.run(in.entry, in.args);
  Oracle o;
  o.trap = r.trap;
  if (r.value) o.value = *r.value;
  const auto before = initial.bytes();
  const auto after = mem.bytes();
  for (size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) o.writes.emplace_back(static_cast<uint32_t>(i), after[i]);
  }
  return o;
}

// Runs a module's entry once on every core of a deployment, each from
// the module's initial memory, against the switch oracle's value, trap
// kind and final memory. The oracle runs once per pool slot.
class EntryCheck {
 public:
  EntryCheck(const ModuleInput& input, std::shared_ptr<const Oracle>& oracle,
             Ledger& ledger)
      : input_(input), oracle_(oracle), ledger_(ledger) {}

  void operator()(svc::Deployment& dep, RunTotals& totals, Tracer& tracer,
                  uint64_t parent) {
    const size_t bytes = dep.memory().size();
    if (!oracle_) {
      oracle_ = std::make_shared<const Oracle>(run_oracle(*dep.module(), input_, bytes));
    }
    if (expected_.size() != bytes) {
      svc::Memory want(bytes);
      in_init(want);
      for (const auto& [addr, byte] : oracle_->writes) want.store_u8(addr, byte);
      const auto b = want.bytes();
      expected_.assign(b.begin(), b.end());
    }
    for (size_t c = 0; c < dep.num_cores(); ++c) {
      reset_memory(dep.memory(), input_);
      ledger_.attempt();
      const double t0 = thread_cpu_s();
      svc::Result<svc::SimResult> r = [&] {
        Scope span(tracer, "run_on", "targets", parent);
        return dep.run_on(c, input_.entry, input_.args);
      }();
      totals.seconds += thread_cpu_s() - t0;
      if (!r.ok()) {
        ledger_.fail("rollout run_on failed: " + r.error_text());
        continue;
      }
      ++totals.runs;
      totals.cycles += r->stats.cycles;
      totals.instructions += r->stats.instructions;
      totals.spill_loads += r->stats.spill_loads;
      std::string diff = diff_result(r->value, r->trap, oracle_->value,
                                     oracle_->trap);
      if (diff.empty()) diff = diff_memory(dep.memory().bytes(), expected_);
      if (!diff.empty()) {
        ledger_.fail("rollout mismatch in " + input_.entry + " on core " +
                     std::to_string(c) + ": " + diff);
      }
    }
  }

 private:
  void in_init(svc::Memory& mem) const { input_.init(mem); }

  const ModuleInput& input_;
  std::shared_ptr<const Oracle>& oracle_;
  Ledger& ledger_;
  std::vector<uint8_t> expected_;
};

class RolloutWorkload final : public Workload {
 public:
  // Set-up: generates the pool's sources and inputs.
  RolloutWorkload(const Options& options, Ledger& ledger)
      : options_(options), ledger_(ledger), oracles_(kPoolSize) {
    pool_.reserve(kPoolSize);
    for (size_t slot = 0; slot < kPoolSize; ++slot) pool_.push_back(pool_input(slot));
  }

  Outcome measure(double seconds, Tracer& tracer) override {
    RolloutPipeline pipeline(options_.work_dir, ledger_);
    const CpuTimes cpu0 = read_cpu_times();
    const double t0 = wall_s();
    uint64_t done = 0;
    // Whole passes over the pool in seeded orders until the time is up;
    // the first pass forms the deterministic metrics.
    for (uint64_t pass = 0; pass == 0 || wall_s() - t0 < seconds; ++pass) {
      std::vector<size_t> order(kPoolSize);
      for (size_t k = 0; k < kPoolSize; ++k) order[k] = k;
      svc::Rng rng = svc::Rng(options_.seed).fork(pass);
      for (size_t k = kPoolSize; k > 1; --k) std::swap(order[k - 1], order[rng.next_below(k)]);
      for (size_t k = 0; k < kPoolSize && (pass == 0 || wall_s() - t0 < seconds); ++k) {
        const size_t slot = order[k];
        if (options_.corrupt_expected && slot == 0 && !oracles_[0]) {
          corrupt_first_oracle();
        }
        EntryCheck check(pool_[slot], oracles_[slot], ledger_);
        pipeline.run(pool_[slot].source, isa_cores(), std::ref(check), pass == 0,
                     slot, tracer);
        ++done;
      }
    }
    const double wall = wall_s() - t0;
    const RolloutPipeline::Stats& s = pipeline.stats();

    Outcome out;
    report_rollout(s, out);
    Report& e = out.e2e;
    const double f = host_speed().time_factor();
    e.add("time_to_tier1_ms", f * s.tier1_ms.median(), "ms");
    e.add("sim_cycles_per_req",
          static_cast<double>(s.fixed_runs.cycles) /
              static_cast<double>(std::max<uint64_t>(s.fixed_runs.runs, 1)),
          "cycles");
    e.add("cpu_us_per_req",
          f * s.runs.seconds * 1e6 /
              static_cast<double>(std::max<uint64_t>(s.runs.runs, 1)),
          "us");

    Report& l = out.layers;
    l.add("latency_us_p50", f * s.latency_us.median(), "us");
    l.add_tail("latency_us_tail", s.latency_us.tail(), "us", f);
    l.add("capacity_rps", static_cast<double>(done) / (f * s.cpu_s), "1/s");
    l.add("goodput_rps", static_cast<double>(s.good) / (f * s.cpu_s), "1/s");
    l.add("runtime.time_to_tier1_ms", 0.0, "ms");
    report_cache(s.cache, l);
    l.add("runtime.tier2_installs", 0.0, "count");
    l.add("vm.tier0_frac", 0.0, "ratio");
    l.add("vm.ns_per_step",
          s.tier0.instructions
              ? s.tier0.seconds * 1e9 / static_cast<double>(s.tier0.instructions)
              : 0.0,
          "ns");
    l.add("sim.ns_per_cycle",
          s.runs.cycles ? s.runs.seconds * 1e9 / static_cast<double>(s.runs.cycles)
                        : 0.0,
          "ns");
    l.add("sim.cycles",
          static_cast<double>(s.runs.cycles) /
              static_cast<double>(std::max<uint64_t>(s.runs.runs, 1)),
          "cycles");
    l.add("sim.spill_loads",
          static_cast<double>(s.runs.spill_loads) /
              static_cast<double>(std::max<uint64_t>(s.runs.runs, 1)),
          "count");
    // Rollout serves no traffic: the serving layers report zero.
    for (const char* k : {"serve.submit_us", "serve.exec_us", "serve.wait_us"}) {
      l.add(k, 0.0, "us");
    }
    l.add("serve.batch_mean", 0.0, "count");
    l.add("serve.peak_queue_depth", 0.0, "count");
    l.add("serve.rejected", 0.0, "count");
    l.add("cluster.route_imbalance", 0.0, "ratio");
    // A closed loop: the next module starts when one is done.
    l.add("loadgen.offered_rps", static_cast<double>(done) / wall, "1/s");
    l.add("loadgen.late_us_tail", 0.0, "us");
    l.add("host.steal_frac", steal_fraction(cpu0, read_cpu_times()), "ratio");

    out.deterministic["image_bytes"] = static_cast<double>(s.image_bytes);
    out.deterministic["code_bytes"] = static_cast<double>(s.code_bytes);
    out.deterministic["sim_cycles_per_req"] = e.get("sim_cycles_per_req");
    return out;
  }

 private:
  // The self-test: a wrong oracle answer for slot 0 must be caught.
  void corrupt_first_oracle() {
    const svc::Engine compiler =
        must(svc::Engine::Builder().eager().build(), "compile engine");
    const svc::ModuleHandle m = must(compiler.compile(pool_[0].source), "compile");
    Oracle o = run_oracle(*m, pool_[0], std::max(compiler.options().memory_bytes,
                                                 static_cast<size_t>(m->memory_hint())));
    o.value.i64 ^= 1;
    oracles_[0] = std::make_shared<const Oracle>(std::move(o));
  }

  const Options& options_;
  Ledger& ledger_;
  std::vector<ModuleInput> pool_;
  std::vector<std::shared_ptr<const Oracle>> oracles_;  // per slot, lazily
};

}  // namespace

std::vector<svc::CoreSpec> isa_cores() {
  return {{svc::TargetKind::X86Sim, false},
          {svc::TargetKind::SparcSim, false},
          {svc::TargetKind::PpcSim, false},
          {svc::TargetKind::SpuSim, true}};
}

RolloutPipeline::RolloutPipeline(std::string store_root, Ledger& ledger,
                                 const std::string& warm_store)
    : store_root_(std::move(store_root)),
      ledger_(ledger),
      compiler_(must(svc::Engine::Builder().eager().build(), "compile engine")),
      tier0_(must(svc::Engine::Builder().tiered(UINT32_MAX).build(),
                  "tier-0 engine")) {
  if (!warm_store.empty()) {
    warm_engine_.emplace(must(
        svc::Engine::Builder().eager().persistent_cache(warm_store).build(),
        "warm-store engine"));
  }
}

void RolloutPipeline::run(const std::string& source,
                          const std::vector<svc::CoreSpec>& cores,
                          const CheckedRuns& runs, bool fixed, uint64_t module,
                          Tracer& tracer) {
  Stats& s = stats_;
  const uint64_t id = ++next_store_;
  Scope rollout(tracer, "rollout", "bench", 0, id);
  ledger_.attempt();

  // 1. Offline.
  svc::Statistics offline;
  double t = thread_cpu_s();
  svc::Result<svc::ModuleHandle> compiled = [&] {
    Scope span(tracer, "compile", "offline", rollout.id(), id);
    return compiler_.compile(source, &offline);
  }();
  const double offline_us = us_since(t);
  if (!compiled.ok()) {
    ledger_.fail("compile failed:\n" + compiled.error_text());
    return;
  }

  // 2. The image.
  t = thread_cpu_s();
  const std::vector<uint8_t> image = [&] {
    Scope span(tracer, "save_bytecode", "bytecode", rollout.id(), id);
    return svc::Engine::save_bytecode(*compiled);
  }();
  const double save_us = us_since(t);

  // 3. Cold online step: verified load, then eager deploy (in memory, so
  // the time is the online compile's, not the disk's).
  t = thread_cpu_s();
  svc::Result<svc::ModuleHandle> loaded = [&] {
    Scope span(tracer, "load_bytecode", "bytecode", rollout.id(), id);
    return compiler_.load_bytecode(image);
  }();
  const double load_us = us_since(t);
  if (!loaded.ok()) {
    ledger_.fail("load_bytecode failed:\n" + loaded.error_text());
    return;
  }
  t = thread_cpu_s();
  svc::Result<svc::Deployment> cold = [&] {
    Scope span(tracer, "deploy", "runtime", rollout.id(), id);
    return compiler_.deploy(*loaded, cores);
  }();
  const double deploy_us = us_since(t);
  if (!cold.ok()) {
    ledger_.fail("cold deploy failed:\n" + cold.error_text());
    return;
  }

  // JIT time inside the deploy: the phase timers of the first core of
  // each ISA (same-ISA cores share the cached artifact and its stats).
  svc::Statistics jit;
  {
    std::vector<svc::TargetKind> seen;
    for (size_t c = 0; c < cold->num_cores(); ++c) {
      const svc::TargetKind kind = cold->soc().core_spec(c).kind;
      if (std::find(seen.begin(), seen.end(), kind) != seen.end()) continue;
      seen.push_back(kind);
      jit.merge(cold->soc().core(c).jit_stats());
    }
  }
  double jit_us = 0.0;
  for (const auto& [key, v] : jit.all()) {
    if (key.rfind("jit.pass_us.", 0) == 0) jit_us += static_cast<double>(v);
  }

  // 4. The checked runs.
  RunTotals totals;
  {
    Scope span(tracer, "checked_runs", "bench", rollout.id(), id);
    runs(*cold, totals, tracer, span.id());
  }
  uint64_t code_bytes = 0;
  for (size_t c = 0; c < cold->num_cores(); ++c) {
    code_bytes += cold->soc().core(c).code_bytes();
  }
  s.cache.merge(cold->cache_stats());

  // 5. The module's store: unless a populated shared store is given, a
  // second cold deploy writes a fresh one.
  std::string store;
  std::optional<svc::Engine> fresh;
  std::error_code ec;
  double store_deploy_us = 0.0;
  if (!warm_engine_) {
    store = store_root_ + "/store-" + std::to_string(id);
    std::filesystem::remove_all(store, ec);
    fresh.emplace(must(
        svc::Engine::Builder().eager().persistent_cache(store).build(),
        "store engine"));
    t = thread_cpu_s();
    svc::Result<svc::Deployment> writer = [&] {
      Scope span(tracer, "store_deploy", "runtime", rollout.id(), id);
      return fresh->deploy(*loaded, cores);
    }();
    store_deploy_us = us_since(t);
    if (!writer.ok()) {
      ledger_.fail("store-writing deploy failed:\n" + writer.error_text());
      return;
    }
    s.cache.merge(writer->cache_stats());
  }
  const svc::Engine& warm_engine = fresh ? *fresh : *warm_engine_;

  // 6. Warm redeploy from the store.
  t = thread_cpu_s();
  svc::Result<svc::ModuleHandle> reloaded = warm_engine.load_bytecode(image);
  svc::Result<svc::Deployment> warm = [&] {
    Scope span(tracer, "warm_deploy", "runtime", rollout.id(), id);
    return reloaded.ok() ? warm_engine.deploy(*reloaded, cores)
                         : svc::Result<svc::Deployment>::failure(reloaded.error());
  }();
  const double warm_us = us_since(t);
  if (!warm.ok()) {
    ledger_.fail("warm deploy failed:\n" + warm.error_text());
    return;
  }
  const svc::Statistics warm_cache = warm->cache_stats();
  if (warm_cache.get("cache.compiles") != 0 ||
      warm_cache.get("cache.disk_hits") == 0) {
    ledger_.fail("warm redeploy was not served from the store (" +
                 std::to_string(warm_cache.get("cache.compiles")) +
                 " compiles)");
  }
  s.cache.merge(warm_cache);
  RunTotals warm_totals;
  {
    Scope span(tracer, "checked_runs", "bench", rollout.id(), id);
    runs(*warm, warm_totals, tracer, span.id());
  }

  // Traced only: every function on every ISA through JitCompiler, and
  // the module once more at tier 0.
  if (tracer.enabled()) {
    const svc::Module& m = **loaded;
    for (const svc::CoreSpec& core : isa_cores()) {
      const svc::JitCompiler jc(svc::target_desc(core.kind),
                                compiler_.options().jit);
      for (uint32_t f = 0; f < m.num_functions(); ++f) {
        const double c0 = thread_cpu_s();
        {
          Scope span(tracer, "JitCompiler::compile", "jit", rollout.id(), id);
          (void)jc.compile(m, f);
        }
        s.jit_compile_us.add(us_since(c0));
      }
    }
    svc::Result<svc::Deployment> t0dep = tier0_.deploy(*loaded, cores);
    if (t0dep.ok()) {
      Scope span(tracer, "tier0_runs", "bench", rollout.id(), id);
      runs(*t0dep, s.tier0, tracer, span.id());
    } else {
      ledger_.fail("tier-0 deploy failed:\n" + t0dep.error_text());
    }
  }
  if (!store.empty()) std::filesystem::remove_all(store, ec);
  host_speed().probe();

  const double online_us = load_us + deploy_us;
  const double latency_us = offline_us + save_us + online_us +
                            totals.seconds * 1e6 + store_deploy_us + warm_us +
                            warm_totals.seconds * 1e6;
  s.offline_ms.add(offline_us * 1e-3);
  s.save_us.add(save_us);
  s.load_us.add(load_us);
  s.online_ms.add(online_us * 1e-3);
  s.online_ms_by_module[module].add(online_us * 1e-3);
  s.warm_online_ms.add(warm_us * 1e-3);
  s.tier1_ms.add((deploy_us + totals.seconds * 1e6) * 1e-3);
  s.latency_us.add(latency_us);
  s.deploy_overhead_us.add(deploy_us - jit_us);
  if (store_deploy_us > 0.0) s.store_deploy_ms.add(store_deploy_us * 1e-3);
  s.cpu_s += latency_us * 1e-6;
  if (latency_us <= kRolloutLimitMs * 1e3) ++s.good;
  s.offline.merge(offline);
  s.jit.merge(jit);
  s.runs.runs += totals.runs;
  s.runs.cycles += totals.cycles;
  s.runs.instructions += totals.instructions;
  s.runs.spill_loads += totals.spill_loads;
  s.runs.seconds += totals.seconds;
  if (fixed) {
    s.image_bytes += image.size();
    s.code_bytes += code_bytes;
    s.fixed_runs.runs += totals.runs;
    s.fixed_runs.cycles += totals.cycles;
    s.fixed_offline.merge(offline);
    s.fixed_jit.merge(jit);
  }
}

void report_cache(const svc::Statistics& c, Report& l) {
  for (const char* k : {"hits", "misses", "compiles", "coalesced", "disk_hits",
                        "disk_writes", "disk_rejects"}) {
    l.add(std::string("cache.") + k,
          static_cast<double>(c.get(std::string("cache.") + k)), "count");
  }
  const double probes =
      static_cast<double>(c.get("cache.hits") + c.get("cache.misses"));
  l.add("cache.hit_ratio",
        probes > 0 ? static_cast<double>(c.get("cache.hits")) / probes : 0.0,
        "ratio");
  l.add("jit.compiles", static_cast<double>(c.get("cache.compiles")), "count");
}

void report_rollout(const RolloutPipeline::Stats& s, Outcome& out) {
  Report& e = out.e2e;
  const double f = host_speed().time_factor();
  e.add("offline_ms_p50", f * s.offline_ms.median(), "ms");
  e.add("online_ms_p50", f * s.online_ms.median(), "ms");
  // The tail across modules, of each module's median time in the run
  // (a single module rolled out repeatedly: the tail of its samples).
  Samples online_per_module;
  for (const auto& [module, samples] : s.online_ms_by_module) {
    online_per_module.add(samples.median());
  }
  e.add_tail("online_ms_tail",
             online_per_module.size() > 1 ? online_per_module.tail()
                                          : s.online_ms.tail(),
             "ms", f);
  e.add("warm_online_ms_p50", f * s.warm_online_ms.median(), "ms");
  e.add("image_bytes", static_cast<double>(s.image_bytes), "bytes");
  e.add("code_bytes", static_cast<double>(s.code_bytes), "bytes");

  Report& l = out.layers;
  const double modules = static_cast<double>(std::max<size_t>(s.offline_ms.size(), 1));
  double pass_us = 0.0;
  for (const char* pass : {"cleanup", "licm", "vectorize"}) {
    const double v =
        static_cast<double>(s.offline.get(std::string("offline.pass_us.") + pass));
    pass_us += v;
    l.add(std::string("offline.pass_us.") + pass, v / modules, "us");
  }
  l.add("offline.frontend_us",
        (static_cast<double>(s.offline.get("offline.compile_us")) - pass_us) /
            modules,
        "us");
  l.add("offline.loops_vectorized",
        static_cast<double>(s.fixed_offline.get("offline.loops_vectorized")),
        "count");
  l.add("bytecode.save_us", s.save_us.median(), "us");
  l.add("bytecode.load_us", s.load_us.median(), "us");
  l.add("jit.compile_us_p50", s.jit_compile_us.median(), "us");
  l.add_tail("jit.compile_us_tail", s.jit_compile_us.tail(), "us");
  for (const char* pass :
       {"stack_to_reg", "peephole", "fma", "devectorize", "regalloc"}) {
    l.add(std::string("jit.pass_us.") + pass,
          static_cast<double>(s.jit.get(std::string("jit.pass_us.") + pass)) /
              modules,
          "us");
  }
  l.add("regalloc.work_units",
        static_cast<double>(s.fixed_jit.get("jit.alloc_work_units")), "count");
  l.add("regalloc.spilled_vregs",
        static_cast<double>(s.fixed_jit.get("jit.spilled_vregs")), "count");
  l.add("regalloc.static_spills",
        static_cast<double>(s.fixed_jit.get("jit.static_spill_loads") +
                            s.fixed_jit.get("jit.static_spill_stores")),
        "count");
  l.add("deploy.overhead_us", s.deploy_overhead_us.median(), "us");
  l.add("runtime.store_deploy_ms", s.store_deploy_ms.median(), "ms");

  // The paper's split, per module rolled out (means over modules; the JIT
  // summed over the four ISAs).
  double jit_us = 0.0;
  for (const auto& [key, v] : s.jit.all()) {
    if (key.rfind("jit.pass_us.", 0) == 0) jit_us += static_cast<double>(v);
  }
  std::printf("  split: offline compile %.0f us/module, online JIT %.0f us/module "
              "(peephole %.0f us)\n",
              static_cast<double>(s.offline.get("offline.compile_us")) / modules,
              jit_us / modules,
              static_cast<double>(s.jit.get("jit.pass_us.peephole")) / modules);
}

std::unique_ptr<Workload> make_rollout(const Options& options, Ledger& ledger) {
  return std::make_unique<RolloutWorkload>(options, ledger);
}

}  // namespace perfbench
