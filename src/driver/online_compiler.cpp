#include "driver/online_compiler.h"

#include <cassert>
#include <chrono>

#include "bytecode/verifier.h"
#include "runtime/profile_guided.h"
#include "support/diagnostics.h"
#include "vm/interpreter.h"

namespace svc {

namespace {

/// Direct-callee adjacency per function (callee indices are in range by
/// verification). Scanned once so per-root closures below walk the graph,
/// not the instruction stream.
std::vector<std::vector<uint32_t>> callee_graph(const Module& module) {
  std::vector<std::vector<uint32_t>> callees(module.num_functions());
  for (uint32_t f = 0; f < module.num_functions(); ++f) {
    for (const BasicBlock& block : module.function(f).blocks()) {
      for (const Instruction& inst : block.insts) {
        if (inst.op == Opcode::Call) callees[f].push_back(inst.a);
      }
    }
  }
  return callees;
}

/// `root` plus every function transitively callable from it, i.e. every
/// function the simulator may execute when `root` runs.
std::vector<uint32_t> reachable_functions(
    const std::vector<std::vector<uint32_t>>& callees, uint32_t root) {
  std::vector<bool> seen(callees.size(), false);
  std::vector<uint32_t> stack{root};
  std::vector<uint32_t> out;
  seen[root] = true;
  while (!stack.empty()) {
    const uint32_t f = stack.back();
    stack.pop_back();
    out.push_back(f);
    for (const uint32_t callee : callees[f]) {
      if (!seen[callee]) {
        seen[callee] = true;
        stack.push_back(callee);
      }
    }
  }
  return out;
}

}  // namespace

OnlineTarget::~OnlineTarget() { drain_pending(); }

void OnlineTarget::drain_pending() {
  // In-flight background jobs capture `this` (and read module_ without the
  // state mutex), so both destruction and re-load must wait them out. The
  // futures are collected under the lock but waited on outside it: pool
  // workers never take our mutex, but holding it while blocked would stall
  // concurrent run() callers needlessly.
  std::vector<std::shared_future<CodeCache::Artifact>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (FuncState& st : states_) {
      if (st.pending.valid()) pending.push_back(st.pending);
      if (st.tier2_pending.valid()) pending.push_back(st.tier2_pending);
    }
  }
  for (const auto& future : pending) future.wait();
}

Result<void> OnlineTarget::load_module(std::shared_ptr<const Module> module) {
  if (!module) {
    return Result<void>::failure("OnlineTarget::load_module: null module");
  }
  assert(module->id() != 0 && "loading a moved-from module");
  DiagnosticEngine diags;
  if (!verify_module(*module, diags)) {
    diags.note({}, "while loading module '" + module->name() + "'");
    return Result<void>::failure(diags.all());
  }

  // Re-loading while compiles of the previous module are in flight would
  // hand them a dangling module pointer; finish them first.
  drain_pending();

  // Registration computes the restart-stable content hashes the shared
  // cache's on-disk tier keys by (no-op without a persistent store).
  if (config_.cache) config_.cache->register_module(*module);

  std::lock_guard<std::mutex> lock(mutex_);
  module_ = std::move(module);
  const Module& mod = *module_;
  jit_stats_.clear();
  jit_seconds_ = 0.0;
  counters_ = {};
  code_.clear();
  states_.clear();
  image_.reset();
  profile_.reset(config_.tiers.profile ? mod.num_functions() : 0);

  const uint32_t n = static_cast<uint32_t>(mod.num_functions());
  if (config_.tiers.mode == LoadMode::Tiered) {
    // No compilation now: empty slots are filled as artifacts install.
    code_.resize(n);
    states_.resize(n);
    image_ = std::make_shared<std::vector<MFunction>>(code_);
    const auto callees = callee_graph(mod);
    for (uint32_t i = 0; i < n; ++i) {
      states_[i].reachable = reachable_functions(callees, i);
    }
    return {};
  }

  const auto t0 = std::chrono::steady_clock::now();
  code_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const CodeCache::Artifact artifact = compile_artifact(i);
    jit_stats_.merge(artifact->stats);
    code_.push_back(artifact->code);
  }
  const auto t1 = std::chrono::steady_clock::now();
  jit_seconds_ = std::chrono::duration<double>(t1 - t0).count();
  return {};
}

SimResult OnlineTarget::run(std::string_view name,
                            const std::vector<Value>& args, Memory& memory,
                            uint64_t step_budget) {
  if (!module_) fatal("OnlineTarget::run before load");
  const auto idx = module_->find_function(name);
  if (!idx) fatal("OnlineTarget::run: unknown function");
  return run(*idx, args, memory, step_budget);
}

SimResult OnlineTarget::run(uint32_t func_idx, const std::vector<Value>& args,
                            Memory& memory, uint64_t step_budget) {
  if (!module_) fatal("OnlineTarget::run before load");
  assert(func_idx < module_->num_functions());

  if (config_.tiers.mode == LoadMode::Tiered) {
    bool use_jit = true;
    uint8_t tier = 1;
    std::shared_ptr<const std::vector<MFunction>> image;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FuncState& st = states_[func_idx];
      ++st.calls;
      if (!st.requested && st.calls >= config_.tiers.promote_threshold) {
        request_compile_locked(func_idx);
      }
      for (const uint32_t r : st.reachable) {
        poll_install_locked(r);
        use_jit = use_jit && states_[r].installed;
      }
      if (use_jit) {
        ++counters_.jitted;
        ++st.jit_calls;
        if (config_.tiers.tier2_threshold > 0 && !st.tier2_requested &&
            st.jit_calls >= config_.tiers.tier2_threshold) {
          request_tier2_locked(func_idx);
        }
        poll_tier2_locked(func_idx);
        if (st.tier2_installed) {
          tier = 2;
          ++counters_.tier2;
        }
        image = image_;
      } else {
        ++counters_.interpreted;
      }
    }
    // Execution happens outside the lock on the snapshot taken inside it:
    // tier-1 installs only fill slots this run cannot reach yet, and a
    // tier-2 install swaps in a *new* image rather than mutating ours.
    if (!use_jit) return interpret(func_idx, args, memory, step_budget);
    Simulator sim(desc_, *image, memory);
    sim.set_step_budget(step_budget);
    SimResult result = sim.run(func_idx, args);
    result.tier = tier;
    return result;
  }

  Simulator sim(desc_, code_, memory);
  sim.set_step_budget(step_budget);
  return sim.run(func_idx, args);
}

void OnlineTarget::request_compile(uint32_t func_idx) {
  if (config_.tiers.mode != LoadMode::Tiered || !module_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (func_idx >= states_.size()) return;
  request_compile_locked(func_idx);
}

bool OnlineTarget::jit_ready(uint32_t func_idx) {
  if (config_.tiers.mode != LoadMode::Tiered) return module_ != nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (func_idx >= states_.size()) return false;
  bool ready = true;
  for (const uint32_t r : states_[func_idx].reachable) {
    poll_install_locked(r);
    ready = ready && states_[r].installed;
  }
  return ready;
}

Statistics OnlineTarget::jit_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jit_stats_;
}

double OnlineTarget::jit_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jit_seconds_;
}

TierCounters OnlineTarget::tier_counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

ProfileData OnlineTarget::profile() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profile_;
}

void OnlineTarget::seed_profile(const ProfileData& seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_profile_ = seed;
}

Module OnlineTarget::export_profiled_module() const {
  if (!module_) fatal("OnlineTarget::export_profiled_module before load");
  std::lock_guard<std::mutex> lock(mutex_);
  return attach_profile(*module_, profile_);
}

size_t OnlineTarget::code_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const MFunction& fn : code_) total += fn.code_bytes();
  return total;
}

CodeCache::Artifact OnlineTarget::compile_artifact(uint32_t func_idx) const {
  if (config_.cache) {
    const CodeCacheKey key{module_->id(), func_idx, desc_.kind,
                           jit_.options().cache_key()};
    return config_.cache->get_or_compile(
        key, [this, func_idx] { return jit_.compile(*module_, func_idx); });
  }
  return std::make_shared<const JitArtifact>(jit_.compile(*module_, func_idx));
}

void OnlineTarget::request_compile_locked(uint32_t func_idx) {
  // Requesting a function requests its whole reachable set: tier-up needs
  // every callee installed before the simulator may run the caller.
  for (const uint32_t r : states_[func_idx].reachable) {
    FuncState& st = states_[r];
    if (st.requested) continue;
    st.requested = true;
    if (config_.pool) {
      st.pending =
          config_.pool->submit([this, r] { return compile_artifact(r); })
              .share();
    } else {
      install_locked(r, *compile_artifact(r));
    }
  }
}

void OnlineTarget::request_tier2_locked(uint32_t func_idx) {
  FuncState& st = states_[func_idx];
  st.tier2_requested = true;
  // Freeze the profile the re-specialization is derived from: the hash
  // keys the cache entry, so later observations produce a *different*
  // tier-2 artifact instead of silently aliasing this one. Own
  // observations plus the externally seeded baseline (seed_profile), so
  // a cluster-seeded target specializes for fleet traffic.
  ProfileInfo profile = func_idx < profile_.num_functions()
                            ? profile_.function(func_idx)
                            : ProfileInfo{};
  if (func_idx < seed_profile_.num_functions()) {
    profile.merge(seed_profile_.function(func_idx));
  }
  const JitOptions tier2 = derive_tier2_options(
      jit_.options(), desc_, module_->function(func_idx), profile);
  const uint64_t profile_hash = profile.hash();
  const auto compile_job = [this, func_idx, tier2,
                            profile_hash]() -> CodeCache::Artifact {
    const JitCompiler tier2_jit(desc_, tier2);
    if (config_.cache) {
      const CodeCacheKey key{module_->id(),     func_idx, desc_.kind,
                             tier2.cache_key(), 2,        profile_hash};
      return config_.cache->get_or_compile(key, [&] {
        return tier2_jit.compile(*module_, func_idx);
      });
    }
    return std::make_shared<const JitArtifact>(
        tier2_jit.compile(*module_, func_idx));
  };
  if (config_.pool) {
    st.tier2_pending = config_.pool->submit(compile_job).share();
  } else {
    install_tier2_locked(func_idx, *compile_job());
  }
}

void OnlineTarget::poll_install_locked(uint32_t func_idx) {
  FuncState& st = states_[func_idx];
  if (st.installed || !st.requested || !st.pending.valid()) return;
  if (st.pending.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return;
  }
  install_locked(func_idx, *st.pending.get());
  st.pending = {};
}

void OnlineTarget::poll_tier2_locked(uint32_t func_idx) {
  FuncState& st = states_[func_idx];
  if (st.tier2_installed || !st.tier2_requested || !st.tier2_pending.valid()) {
    return;
  }
  if (st.tier2_pending.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return;
  }
  install_tier2_locked(func_idx, *st.tier2_pending.get());
  st.tier2_pending = {};
}

void OnlineTarget::install_locked(uint32_t func_idx,
                                  const JitArtifact& artifact) {
  code_[func_idx] = artifact.code;
  // In-place image write: this slot is empty and unreachable by any run
  // in flight (tier-up requires the whole reachable set installed), so no
  // snapshot holder can be reading it.
  (*image_)[func_idx] = artifact.code;
  jit_stats_.merge(artifact.stats);
  jit_seconds_ += artifact.compile_seconds;
  states_[func_idx].installed = true;
}

void OnlineTarget::install_tier2_locked(uint32_t func_idx,
                                        const JitArtifact& artifact) {
  code_[func_idx] = artifact.code;
  // Copy-on-write: the replaced slot may be executing right now in a run
  // that snapshotted the current image, so swap in a fresh vector instead
  // of mutating the shared one. Tier-2 installs are rare (once per hot
  // function), so the full copy amortizes to nothing.
  image_ = std::make_shared<std::vector<MFunction>>(code_);
  jit_stats_.merge(artifact.stats);
  jit_stats_.add("jit.tier2_installs", 1);
  jit_seconds_ += artifact.compile_seconds;
  states_[func_idx].tier2_installed = true;
  ++counters_.tier2_functions;
}

SimResult OnlineTarget::interpret(uint32_t func_idx,
                                  const std::vector<Value>& args,
                                  Memory& memory, uint64_t step_budget) {
  Interpreter interp(*module_, memory);
  interp.set_step_budget(step_budget);
  interp.set_dispatch(config_.tiers.tier0_dispatch);
  // Tier-0 pre-decoded streams persist across the per-call Interpreter:
  // lowering happens once per (module, function), not once per request.
  interp.set_predecode_cache(config_.predecode ? config_.predecode
                                               : &predecode_);
  // Concurrent tier-0 calls collect into a per-call local and merge under
  // the lock afterwards; the collector itself is not thread-safe.
  ProfileData local;
  if (config_.tiers.profile) {
    local.reset(module_->num_functions());
    interp.set_profile(&local);
  }
  const ExecResult r = interp.run(func_idx, args);
  if (config_.tiers.profile) {
    std::lock_guard<std::mutex> lock(mutex_);
    profile_.merge(local);
  }
  SimResult out;
  out.tier = 0;
  out.trap = r.trap;
  if (r.value) out.value = *r.value;
  out.stats.instructions = r.steps;
  out.stats.cycles = r.steps * kInterpreterCyclesPerStep;
  return out;
}

}  // namespace svc
