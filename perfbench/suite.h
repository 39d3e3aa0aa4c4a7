// The serving suite: the six Table 1 kernels, max_u8_branchy, count_runs
// and the fir4/gain/energy chain compiled as one 11-function module, each
// function with its own disjoint memory region, plus the tier-0 switch
// interpreter's answer for every (function, request size) the serving
// workloads can draw.
//
// The memory image is a fixed point of every request: output regions are
// pre-filled with the oracle's own output at the largest size, and the
// in-place kernels get identity coefficients (dscal and gain scale by 1,
// saxpy adds 1e-10 * x, which is below half an ulp of every y). So a
// correct response leaves memory bit-identical to the image whatever the
// order, shard or tier it ran in, and the final memory of every
// deployment can be checked against the oracle after the traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/svc.h"

namespace perfbench {

class Suite {
 public:
  static constexpr uint32_t kMinElems = 64;
  static constexpr uint32_t kMaxElems = 4096;
  /// Request sizes form a log-uniform grid from kMinElems to kMaxElems.
  static constexpr size_t kSizes = 32;

  struct Expected {
    svc::Value value;
    svc::TrapKind trap = svc::TrapKind::None;
  };

  /// The suite's MiniC source (all 11 functions in one module).
  static std::string source();

  /// Compiles the suite with `engine`, seeds the data regions from
  /// `seed`, builds the fixed-point image and runs the oracle on every
  /// (function, size). Any oracle trap or a non-fixed-point image is a
  /// set-up failure.
  static svc::Result<Suite> create(const svc::Engine& engine, uint64_t seed);

  [[nodiscard]] size_t num_functions() const { return names_.size(); }
  [[nodiscard]] const std::string& name(size_t f) const { return names_[f]; }
  [[nodiscard]] static uint32_t size(size_t size_idx);
  [[nodiscard]] std::vector<svc::Value> args(size_t f, size_t size_idx) const;
  [[nodiscard]] const Expected& expected(size_t f, size_t size_idx) const {
    return expected_[f * kSizes + size_idx];
  }
  /// Flips one bit of one expected value: the benchmark's self-test that
  /// a wrong answer is caught.
  void corrupt_expected();

  [[nodiscard]] const std::vector<uint8_t>& image() const { return image_; }
  /// Copies the fixed-point image into `mem`.
  void init_memory(svc::Memory& mem) const;

  [[nodiscard]] const svc::ModuleHandle& module() const { return module_; }

 private:
  svc::ModuleHandle module_;
  std::vector<std::string> names_;
  std::vector<uint8_t> image_;
  std::vector<Expected> expected_;
};

}  // namespace perfbench
