#include "suite.h"

#include <cmath>
#include <cstring>

#include "support/rng.h"

namespace perfbench {
namespace {

using svc::Value;

// Function f owns [kRegion * (f + 1), kRegion * (f + 2)); array j of a
// function starts kArray * j into its region (4097 f32 elements fit, the
// extra one for fir4's in[i + 1]).
constexpr uint32_t kRegion = 0x10000;
constexpr uint32_t kArray = 0x4100;
constexpr size_t kMemoryBytes = size_t{1} << 20;

constexpr const char* kNames[] = {
    "vecadd",         "saxpy",      "dscal", "max_u8", "sum_u8", "sum_u16",
    "max_u8_branchy", "count_runs", "fir4",  "gain",   "energy"};
constexpr size_t kFunctions = std::size(kNames);

uint32_t array_addr(size_t f, uint32_t j) {
  return kRegion * static_cast<uint32_t>(f + 1) + kArray * j;
}

Value ptr(size_t f, uint32_t j) {
  return Value::make_i32(static_cast<int32_t>(array_addr(f, j)));
}

Value i32(uint32_t v) { return Value::make_i32(static_cast<int32_t>(v)); }

}  // namespace

std::string Suite::source() {
  std::string src;
  for (const svc::KernelInfo& k : svc::table1_kernels()) src += k.source;
  src += svc::branchy_max_kernel().source;
  src += svc::control_kernel().source;
  src += svc::fir_source();
  return src;
}

uint32_t Suite::size(size_t size_idx) {
  const double t = static_cast<double>(size_idx) / (kSizes - 1);
  return static_cast<uint32_t>(std::lround(
      kMinElems * std::pow(static_cast<double>(kMaxElems) / kMinElems, t)));
}

std::vector<Value> Suite::args(size_t f, size_t size_idx) const {
  const Value n = i32(size(size_idx));
  const std::string& fn = names_[f];
  if (fn == "vecadd") return {ptr(f, 2), ptr(f, 0), ptr(f, 1), n};
  if (fn == "saxpy") return {Value::make_f32(1e-10f), ptr(f, 0), ptr(f, 1), n};
  if (fn == "dscal") return {Value::make_f32(1.0f), ptr(f, 0), n};
  if (fn == "count_runs") return {ptr(f, 0), n, i32(128)};
  if (fn == "fir4") {
    return {ptr(f, 1), ptr(f, 0), n, Value::make_f32(0.75f),
            Value::make_f32(0.25f)};
  }
  if (fn == "gain") return {ptr(f, 0), n, Value::make_f32(1.0f)};
  return {ptr(f, 0), n};  // the reductions: max/sum/energy
}

void Suite::init_memory(svc::Memory& mem) const {
  const auto bytes = mem.bytes();
  std::memcpy(bytes.data(), image_.data(), std::min(bytes.size(), image_.size()));
}

void Suite::corrupt_expected() {
  for (Expected& e : expected_) {
    if (e.value.type == svc::Type::I32) {
      e.value.i32 ^= 1;
      return;
    }
  }
}

svc::Result<Suite> Suite::create(const svc::Engine& engine, uint64_t seed) {
  svc::Result<svc::ModuleHandle> compiled = engine.compile(source());
  if (!compiled.ok()) return svc::Result<Suite>::failure(compiled.error());
  Suite suite;
  suite.module_ = std::move(compiled).value();
  for (const char* name : kNames) {
    if (!suite.module_->find_function(name)) {
      return svc::Result<Suite>::failure(std::string("suite lacks ") + name);
    }
    suite.names_.emplace_back(name);
  }

  // Input data: f32 in [0.5, 2) (finite, positive, no signed zeros),
  // u8/u16 uniform. Every array of every region is filled; the output
  // arrays are overwritten with the oracle's results below.
  svc::Memory mem(std::max(kMemoryBytes, suite.module_->memory_hint()));
  svc::Rng rng(svc::Rng::mix(seed ^ 0x5e7e5u));
  for (size_t f = 0; f < kFunctions; ++f) {
    const bool bytes = suite.names_[f].find("u8") != std::string::npos ||
                       suite.names_[f] == "count_runs";
    const bool halves = suite.names_[f] == "sum_u16";
    for (uint32_t j = 0; j < 3; ++j) {
      const uint32_t base = array_addr(f, j);
      for (uint32_t i = 0; i <= kMaxElems; ++i) {
        if (bytes) {
          mem.store_u8(base + i, static_cast<uint8_t>(rng.next_u32()));
        } else if (halves) {
          mem.store_u16(base + 2 * i, static_cast<uint16_t>(rng.next_u32()));
        } else {
          mem.write_f32(base + 4 * i, 0.5f + 1.5f * rng.next_f32());
        }
      }
    }
  }

  // The oracle: the portable switch interpreter, unfused.
  svc::Interpreter oracle(*suite.module_, mem);
  oracle.set_dispatch(svc::DispatchKind::Switch);
  oracle.set_fusion(false);
  for (size_t f = 0; f < kFunctions; ++f) {
    const svc::ExecResult r = oracle.run(suite.names_[f], suite.args(f, kSizes - 1));
    if (!r.ok()) {
      return svc::Result<Suite>::failure("oracle trapped in set-up run of " +
                                         suite.names_[f]);
    }
  }
  const auto bytes = mem.bytes();
  suite.image_.assign(bytes.begin(), bytes.end());

  suite.expected_.resize(kFunctions * kSizes);
  for (size_t f = 0; f < kFunctions; ++f) {
    for (size_t s = 0; s < kSizes; ++s) {
      const svc::ExecResult r = oracle.run(suite.names_[f], suite.args(f, s));
      Expected& e = suite.expected_[f * kSizes + s];
      e.trap = r.trap;
      if (r.value) e.value = *r.value;
      if (!r.ok()) {
        return svc::Result<Suite>::failure("oracle trapped on " +
                                           suite.names_[f]);
      }
    }
  }
  if (std::memcmp(bytes.data(), suite.image_.data(), bytes.size()) != 0) {
    return svc::Result<Suite>::failure(
        "suite memory image is not a fixed point of its requests");
  }
  return suite;
}

}  // namespace perfbench
