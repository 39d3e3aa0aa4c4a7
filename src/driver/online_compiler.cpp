#include "driver/online_compiler.h"

#include <cassert>
#include <chrono>
#include <span>

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
    for (const FuncState& st : states_) {
      for (const TierSlot& slot : st.tiers) {
        if (slot.pending.valid()) pending.push_back(slot.pending);
      }
    }
  }
  for (const auto& future : pending) future.wait();
}

Result<void> OnlineTarget::load_module(std::shared_ptr<const Module> module) {
  if (!module) {
    return Result<void>::failure("OnlineTarget::load_module: null module");
  }
  DiagnosticEngine diags;
  if (!verify_module(*module, diags)) {
    diags.note({}, "while loading module '" + module->name() + "'");
    return Result<void>::failure(diags.all());
  }
  load_verified_module(std::move(module));
  return {};
}

void OnlineTarget::load_verified_module(
    std::shared_ptr<const Module> module) {
  assert(module->id() != 0 && "loading a moved-from module");
  // Re-loading while compiles of the previous module are in flight would
  // hand them a dangling module pointer; finish them first.
  drain_pending();

  // Registration computes the restart-stable content hashes the shared
  // cache's on-disk tier keys by (no-op without a persistent store).
  if (config_.cache) config_.cache->register_module(*module);

  std::lock_guard<std::mutex> lock(mutex_);
  module_ = std::move(module);
  const Module& mod = *module_;
  const uint32_t n = static_cast<uint32_t>(mod.num_functions());
  counters_ = {};
  states_.assign(n, FuncState{});
  image_ = std::make_shared<CodeImage>(n);
  profile_.reset(config_.tiers.profile ? n : 0);
  const auto callees = callee_graph(mod);
  for (uint32_t i = 0; i < n; ++i) {
    states_[i].reachable = reachable_functions(callees, i);
  }

  // Eager: every tier-1 slot is requested now and compiled on the calling
  // thread, so load returns with the whole image installed.
  if (config_.tiers.mode == LoadMode::Eager) {
    for (uint32_t i = 0; i < n; ++i) request_locked(i, 1, nullptr);
  }
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

  uint8_t tier = 0;
  std::shared_ptr<const CodeImage> image;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FuncState& st = states_[func_idx];
    ++st.calls;
    if (st.calls >= config_.tiers.promote_threshold) {
      request_locked(func_idx, 1, config_.pool);
    }
    if (tier1_ready_locked(func_idx)) {
      tier = 1;
      ++counters_.jitted;
      ++st.jit_calls;
      if (config_.tiers.tier2_threshold > 0 &&
          st.jit_calls >= config_.tiers.tier2_threshold) {
        request_locked(func_idx, 2, config_.pool);
      }
      poll_locked(func_idx, 2);
      if (st.tiers[1].installed) {
        tier = 2;
        ++counters_.tier2;
      }
      image = image_;
    } else {
      ++counters_.interpreted;
    }
  }
  // Execution happens outside the lock on the snapshot taken inside it:
  // tier-1 installs only fill slots this run cannot reach, and a tier-2
  // install swaps in a *new* image rather than mutating ours.
  if (tier == 0) return interpret(func_idx, args, memory, step_budget);
  Simulator sim(desc_, *image, memory);
  sim.set_step_budget(step_budget);
  SimResult result = sim.run(func_idx, args);
  result.tier = tier;
  return result;
}

void OnlineTarget::request_compile(uint32_t func_idx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (func_idx >= states_.size()) return;
  request_locked(func_idx, 1, config_.pool);
}

bool OnlineTarget::jit_ready(uint32_t func_idx) {
  std::lock_guard<std::mutex> lock(mutex_);
  return func_idx < states_.size() && tier1_ready_locked(func_idx);
}

Statistics OnlineTarget::jit_stats() const {
  JitCounters sum;
  int64_t tier2_installs = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const FuncState& st : states_) {
      for (const TierSlot& slot : st.tiers) {
        if (slot.installed) sum += slot.installed->stats;
      }
      if (st.tiers[1].installed) ++tier2_installs;
    }
  }
  Statistics out;
  sum.add_to(out);
  if (tier2_installs > 0) out.add("jit.tier2_installs", tier2_installs);
  return out;
}

double OnlineTarget::jit_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double seconds = 0.0;
  for (const FuncState& st : states_) {
    for (const TierSlot& slot : st.tiers) {
      if (slot.installed) seconds += slot.installed->compile_seconds;
    }
  }
  return seconds;
}

std::shared_ptr<const CodeImage> OnlineTarget::code() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return image_;
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
  for (const auto& fn : *image_) {
    if (fn) total += fn->code_bytes();
  }
  return total;
}

CodeCache::Artifact OnlineTarget::compile(const Compiler& compiler,
                                          uint32_t func_idx, uint32_t tier,
                                          uint64_t profile_hash) const {
  TranslationMemo* translations =
      config_.translations ? config_.translations : &translations_;
  const auto jit = [&] {
    return compiler.jit.compile(*module_, func_idx, translations);
  };
  if (config_.cache) {
    const CodeCacheKey key{module_->id(),        func_idx, desc_.kind,
                           compiler.options_key, tier,     profile_hash};
    return config_.cache->get_or_compile(key, jit);
  }
  return std::make_shared<const JitArtifact>(jit());
}

void OnlineTarget::request_locked(uint32_t func_idx, uint32_t tier,
                                  ThreadPool* pool) {
  // A requested slot implies its whole request was made: a tier-1 request
  // covers the function's reachable set, whose members' own reachable sets
  // it contains.
  if (states_[func_idx].tiers[tier - 1].requested) return;
  uint64_t profile_hash = 0;
  // Tier 1 requests the whole reachable set: the simulator may only run a
  // function once every callee has code. Tier 2 re-specializes just the
  // hot function, over callees that already have theirs.
  std::span<const uint32_t> funcs = states_[func_idx].reachable;
  std::shared_ptr<const Compiler> tier2;
  if (tier == 2) {
    funcs = std::span<const uint32_t>(&func_idx, 1);
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
    tier2 = std::make_shared<const Compiler>(
        desc_, derive_tier2_options(options(), desc_,
                                    module_->function(func_idx), profile));
    profile_hash = profile.hash();
  }
  for (const uint32_t f : funcs) {
    TierSlot& slot = states_[f].tiers[tier - 1];
    if (slot.requested) continue;
    slot.requested = true;
    if (pool) {
      slot.pending = pool->submit([this, f, tier, profile_hash, tier2] {
                           return compile(tier2 ? *tier2 : tier1_, f, tier,
                                          profile_hash);
                         }).share();
    } else {
      install_locked(f, tier,
                     compile(tier2 ? *tier2 : tier1_, f, tier, profile_hash));
    }
  }
}

void OnlineTarget::poll_locked(uint32_t func_idx, uint32_t tier) {
  TierSlot& slot = states_[func_idx].tiers[tier - 1];
  if (slot.installed || !slot.pending.valid() ||
      slot.pending.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
    return;
  }
  install_locked(func_idx, tier, slot.pending.get());
  slot.pending = {};
}

void OnlineTarget::install_locked(uint32_t func_idx, uint32_t tier,
                                  CodeCache::Artifact artifact) {
  // The image slot points into the artifact and keeps it alive.
  std::shared_ptr<const MFunction> code(artifact, &artifact->code);
  if (tier == 1) {
    // In-place image write: this slot is empty and unreachable by any run
    // in flight (serving from JITed code requires the whole reachable set
    // installed), so no snapshot holder can be reading it.
    (*image_)[func_idx] = std::move(code);
  } else {
    // Copy-on-write: the replaced slot may be executing right now in a run
    // that snapshotted the current image, so swap in a fresh vector instead
    // of mutating the shared one. It copies pointers, not code.
    auto image = std::make_shared<CodeImage>(*image_);
    (*image)[func_idx] = std::move(code);
    image_ = std::move(image);
    ++counters_.tier2_functions;
  }
  states_[func_idx].tiers[tier - 1].installed = std::move(artifact);
}

bool OnlineTarget::tier1_ready_locked(uint32_t func_idx) {
  bool ready = true;
  for (const uint32_t r : states_[func_idx].reachable) {
    poll_locked(r, 1);
    ready = ready && states_[r].tiers[0].installed;
  }
  return ready;
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
