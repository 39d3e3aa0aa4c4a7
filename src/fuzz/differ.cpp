#include "fuzz/differ.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "api/engine.h"
#include "bytecode/opcode.h"
#include "driver/offline_compiler.h"
#include "vm/interpreter.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace svc::fuzz {

namespace {

const char* trap_name(TrapKind t) {
  switch (t) {
    case TrapKind::None: return "none";
    case TrapKind::OutOfBoundsMemory: return "oob";
    case TrapKind::DivideByZero: return "div0";
    case TrapKind::IntegerOverflow: return "overflow";
    case TrapKind::CallStackOverflow: return "stack";
    case TrapKind::StepBudgetExceeded: return "steps";
    case TrapKind::ExplicitTrap: return "trap";
  }
  return "?";
}

std::string value_str(const Value& v) {
  char buf[64];
  switch (v.type) {
    case Type::I32:
      std::snprintf(buf, sizeof buf, "i32:%d", v.i32);
      break;
    case Type::I64:
      std::snprintf(buf, sizeof buf, "i64:%" PRId64, v.i64);
      break;
    case Type::F32:
      std::snprintf(buf, sizeof buf, "f32:%g(bits %08x)",
                    static_cast<double>(v.f32),
                    std::bit_cast<uint32_t>(v.f32));
      break;
    case Type::F64:
      std::snprintf(buf, sizeof buf, "f64:%g", v.f64);
      break;
    default:
      std::snprintf(buf, sizeof buf, "void");
      break;
  }
  return buf;
}

// Bit-level equality: the differential contract is exact, so float NaN
// payloads and signed zeros must match too.
bool values_equal(const Value& a, const Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case Type::I32: return a.i32 == b.i32;
    case Type::I64: return a.i64 == b.i64;
    case Type::F32:
      return std::bit_cast<uint32_t>(a.f32) == std::bit_cast<uint32_t>(b.f32);
    case Type::F64:
      return std::bit_cast<uint64_t>(a.f64) == std::bit_cast<uint64_t>(b.f64);
    case Type::V128: return a.v128 == b.v128;
    default: return true;
  }
}

struct Expected {
  TrapKind trap = TrapKind::None;
  Value value;
  std::vector<uint8_t> memory;
  uint64_t steps = 0;  // oracle interpreter steps actually spent
};

// A program is outside the differential contract when the oracle hit the
// step budget -- or came close enough that a cell's different step
// accounting (machine instructions vs bytecode steps) could trip the
// same budget on a semantically identical run. Such programs are skipped
// rather than diffed; the generator's cost model keeps real programs far
// below this, so the rule only bites runaway shrink candidates.
bool oracle_out_of_contract(const Expected& e, const DiffOptions& options) {
  return e.trap == TrapKind::StepBudgetExceeded ||
         e.steps > options.step_budget / 8;
}

void reset_memory(Memory& mem, const GeneratedProgram& program) {
  auto bytes = mem.bytes();
  std::fill(bytes.begin(), bytes.end(), uint8_t{0});
  program.init_memory(mem);
}

std::optional<std::string> diff_memory(std::span<const uint8_t> got,
                                       std::span<const uint8_t> want) {
  const size_t n = std::min(got.size(), want.size());
  if (std::memcmp(got.data(), want.data(), n) != 0) {
    for (size_t i = 0; i < n; ++i) {
      if (got[i] != want[i]) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "memory[%zu]: got 0x%02x, oracle 0x%02x", i, got[i],
                      want[i]);
        return std::string(buf);
      }
    }
  }
  // Size skew is fine as long as the overhang holds nothing.
  const auto longer = got.size() >= want.size() ? got : want;
  for (size_t i = n; i < longer.size(); ++i) {
    if (longer[i] != 0) {
      return "memory size skew with non-zero overhang at byte " +
             std::to_string(i);
    }
  }
  return std::nullopt;
}

// The planted "flipped-condition peephole": the first signed < in the
// module becomes <= -- one extra loop iteration, the classic off-by-one
// a real backend bug produces. Returns false when the module has no <.
bool plant_flip(Module& m) {
  for (Function& fn : m.functions()) {
    for (BasicBlock& bb : fn.blocks()) {
      for (Instruction& inst : bb.insts) {
        if (inst.op == Opcode::LtSI32) {
          inst.op = Opcode::LeSI32;
          return true;
        }
      }
    }
  }
  return false;
}

struct CellRun {
  std::optional<std::string> problem;
  bool internal = false;
  size_t runs = 0;
};

// Compares one executed result against the oracle; nullopt on agreement.
std::optional<std::string> diff_result(const SimResult& got,
                                       const Expected& want,
                                       const Memory& mem,
                                       const char* run_label) {
  if (got.trap != want.trap) {
    return std::string(run_label) + ": trap " + trap_name(got.trap) +
           ", oracle " + trap_name(want.trap);
  }
  if (got.trap == TrapKind::None && !values_equal(got.value, want.value)) {
    return std::string(run_label) + ": value " + value_str(got.value) +
           ", oracle " + value_str(want.value);
  }
  if (auto d = diff_memory(mem.bytes(), want.memory)) {
    return std::string(run_label) + ": " + *d;
  }
  return std::nullopt;
}

class CellExecutor {
 public:
  CellExecutor(const DiffOptions& options, uint64_t& store_counter,
               const GeneratedProgram& program, const ModuleHandle& oracle,
               std::map<std::string, ModuleHandle>& modules)
      : options_(options),
        store_counter_(store_counter),
        program_(program),
        oracle_(oracle),
        modules_(modules) {}

  CellRun run(const Cell& cell, const Expected& expected) {
    CellRun out;
    std::string store_dir;
    if (cell.warm_boot) store_dir = make_store_dir();

    Result<Engine> engine = build_engine(cell, store_dir);
    if (!engine.ok()) {
      out.internal = true;
      out.problem = "engine build failed: " + engine.error_text();
      cleanup_store(store_dir);
      return out;
    }

    ModuleHandle module = cell_module(*engine, cell, out);
    if (!module) {
      cleanup_store(store_dir);
      return out;  // problem already recorded
    }

    const size_t boots = cell.warm_boot ? 2 : 1;
    for (size_t boot = 0; boot < boots && !out.problem; ++boot) {
      run_boot(cell, *engine, module, expected, boot, out);
    }
    cleanup_store(store_dir);
    return out;
  }

 private:
  Result<Engine> build_engine(const Cell& cell,
                              const std::string& store_dir) const {
    Engine::Builder b;
    b.pool_threads(0).memory_bytes(options_.memory_bytes);
    b.alloc_policy(cell.alloc);
    if (!cell.offline_pipeline.empty()) {
      b.offline_pipeline(cell.offline_pipeline);
    }
    if (!cell.jit_pipeline.empty()) b.jit_pipeline(cell.jit_pipeline);
    switch (cell.tier) {
      case TierMode::Eager:
        b.eager();
        break;
      case TierMode::Tiered:
        b.tiered(2).tier0_dispatch(cell.dispatch);
        break;
      case TierMode::Tier2:
        b.tiered(1).profiling(true).tier2(2).tier0_dispatch(cell.dispatch);
        break;
    }
    if (!store_dir.empty()) b.persistent_cache(store_dir);
    return b.build();
  }

  // The module a cell executes: the oracle's when the offline pipeline
  // is the default, a per-pipeline compile otherwise; with the plant
  // enabled, a flipped copy either way (the oracle stays intact).
  ModuleHandle cell_module(const Engine& engine, const Cell& cell,
                           CellRun& out) {
    const std::string& key = cell.offline_pipeline;
    if (const auto it = modules_.find(key); it != modules_.end()) {
      return it->second;
    }
    ModuleHandle handle;
    if (key.empty() && !options_.plant_miscompile) {
      handle = oracle_;
    } else {
      Result<ModuleHandle> compiled = engine.compile(program_.source);
      if (!compiled.ok()) {
        out.internal = true;
        out.problem = "cell compile failed (off=" +
                      (key.empty() ? std::string("default") : key) +
                      "):\n" + compiled.error_text();
        return {};
      }
      handle = std::move(compiled).value();
      if (options_.plant_miscompile) {
        Module flipped = *handle.get();  // fresh id; mutable copy
        plant_flip(flipped);
        handle = ModuleHandle::adopt(std::move(flipped));
      }
    }
    modules_.emplace(key, handle);
    return handle;
  }

  void run_boot(const Cell& cell, const Engine& engine,
                const ModuleHandle& module, const Expected& expected,
                size_t boot, CellRun& out) {
    Result<Deployment> dep =
        engine.deploy(module, {CoreSpec{.kind = cell.target}});
    if (!dep.ok()) {
      out.internal = true;
      out.problem = "deploy failed: " + dep.error_text();
      return;
    }
    Deployment d = std::move(dep).value();

    size_t n_runs = 1;
    if (cell.tier == TierMode::Tiered) n_runs = 3;   // cross promotion
    if (cell.tier == TierMode::Tier2) n_runs = 5;    // cross both tiers
    const std::vector<Value> args = program_.arg_values();
    uint64_t first_cycles = 0;

    for (size_t r = 0; r < n_runs; ++r) {
      reset_memory(d.memory(), program_);
      Result<SimResult> res =
          d.run_on(0, program_.entry, args, options_.step_budget);
      ++out.runs;
      if (!res.ok()) {
        out.internal = true;
        out.problem = "run failed: " + res.error_text();
        return;
      }
      char label[48];
      std::snprintf(label, sizeof label, "boot %zu run %zu (tier %u)", boot,
                    r, res.value().tier);
      if (auto d2 = diff_result(res.value(), expected, d.memory(), label)) {
        out.problem = std::move(d2);
        return;
      }
      if (r == 0) first_cycles = res.value().stats.cycles;
    }

    // Cycle determinism: an eager deployment is a pure function of
    // (module, memory image), including its simulated cycles.
    if (options_.check_cycles && cell.tier == TierMode::Eager) {
      reset_memory(d.memory(), program_);
      Result<SimResult> res =
          d.run_on(0, program_.entry, args, options_.step_budget);
      ++out.runs;
      if (res.ok() && res.value().stats.cycles != first_cycles) {
        out.problem = "cycle nondeterminism: " +
                      std::to_string(res.value().stats.cycles) + " vs " +
                      std::to_string(first_cycles) + " simulated cycles";
      }
    }
  }

  std::string make_store_dir() {
#ifdef __unix__
    const long pid = static_cast<long>(getpid());
#else
    const long pid = 0;
#endif
    const std::filesystem::path root =
        options_.store_root.empty()
            ? std::filesystem::temp_directory_path()
            : std::filesystem::path(options_.store_root);
    const std::filesystem::path dir =
        root / ("svc_fuzz_store_" + std::to_string(pid) + "_" +
                std::to_string(store_counter_++));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // stale leftovers
    return dir.string();
  }

  static void cleanup_store(const std::string& dir) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  const DiffOptions& options_;
  uint64_t& store_counter_;
  const GeneratedProgram& program_;
  const ModuleHandle& oracle_;
  std::map<std::string, ModuleHandle>& modules_;
};

// The oracle: the portable switch interpreter over the default-pipeline
// module -- the simplest implementation in the repo, differential-tested
// since PR 1, deliberately free of every axis the cells vary.
Expected run_oracle(const GeneratedProgram& program, const Module& module,
                    const DiffOptions& options) {
  Memory mem(std::max<size_t>(options.memory_bytes, module.memory_hint()));
  program.init_memory(mem);
  Interpreter interp(module, mem);
  interp.set_dispatch(DispatchKind::Switch);
  interp.set_fusion(false);
  interp.set_step_budget(options.step_budget);
  const ExecResult r = interp.run(program.entry, program.arg_values());
  Expected e;
  e.trap = r.trap;
  if (r.value) e.value = *r.value;
  e.memory.assign(mem.bytes().begin(), mem.bytes().end());
  e.steps = r.steps;
  return e;
}

}  // namespace

DiffRunner::DiffRunner(DiffOptions options) : options_(std::move(options)) {}

DiffResult DiffRunner::run(const GeneratedProgram& program,
                           const std::vector<Cell>& cells) {
  DiffResult result;
  Result<Module> oracle = compile_module(program.source);
  if (!oracle.ok()) {
    result.internal_error = true;
    result.detail =
        "generated program failed to compile:\n" + oracle.error_text();
    return result;
  }
  const ModuleHandle oracle_handle =
      ModuleHandle::adopt(std::move(oracle).value());
  const Expected expected =
      run_oracle(program, *oracle_handle.get(), options_);
  if (oracle_out_of_contract(expected, options_)) {
    result.detail = "skipped: oracle hit the step budget";
    return result;  // ok(): out of contract, not a divergence
  }

  std::map<std::string, ModuleHandle> modules;
  CellExecutor exec(options_, store_counter_, program, oracle_handle,
                    modules);
  for (const Cell& cell : cells) {
    const CellRun r = exec.run(cell, expected);
    ++result.cells_run;
    result.runs += r.runs;
    if (r.problem) {
      result.diverged = !r.internal;
      result.internal_error = r.internal;
      result.cell_key = cell.key();
      result.detail = *r.problem;
      return result;
    }
  }
  return result;
}

std::optional<std::string> DiffRunner::run_cell(
    const GeneratedProgram& program, const Cell& cell) {
  Result<Module> oracle = compile_module(program.source);
  if (!oracle.ok()) return std::nullopt;  // not a divergence: no oracle
  const ModuleHandle oracle_handle =
      ModuleHandle::adopt(std::move(oracle).value());
  const Expected expected =
      run_oracle(program, *oracle_handle.get(), options_);
  if (oracle_out_of_contract(expected, options_)) return std::nullopt;
  std::map<std::string, ModuleHandle> modules;
  CellExecutor exec(options_, store_counter_, program, oracle_handle,
                    modules);
  CellRun r = exec.run(cell, expected);
  if (r.internal) return std::nullopt;  // harness problem, not a diff
  return r.problem;
}

}  // namespace svc::fuzz
