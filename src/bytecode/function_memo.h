// Build-once values derived from one function of a module: the tier-0
// pre-decoded streams (vm/predecode.h) and the JIT's target-neutral
// translation (jit/jit_compiler.h) are both pure functions of the
// bytecode, so every core of a Soc can share one copy of each instead of
// deriving its own.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bytecode/module.h"

namespace svc {

/// Thread-safe memo keyed by (module id, function index, variant). A value
/// is built on its first request, under the memo's lock, and shared after
/// (holders keep theirs through the shared_ptr). Asking for another module
/// drops the previous module's values: a memo serves the one module its
/// owner has loaded.
template <typename T, size_t kVariants = 1>
class FunctionMemo {
 public:
  FunctionMemo() = default;
  FunctionMemo(const FunctionMemo&) = delete;
  FunctionMemo& operator=(const FunctionMemo&) = delete;

  /// The value of `module`.function(fn_idx) in `variant`, from `build()`
  /// (which returns a T) the first time it is asked for.
  template <typename Build>
  [[nodiscard]] std::shared_ptr<const T> get(const Module& module,
                                             uint32_t fn_idx, size_t variant,
                                             Build&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (module.id() != module_id_) {
      module_id_ = module.id();
      slots_.assign(module.num_functions(), {});
    }
    std::shared_ptr<const T>& slot = slots_[fn_idx][variant];
    if (!slot) {
      slot = std::make_shared<const T>(build());
      ++builds_;
    }
    return slot;
  }

  /// Values currently held (each variant counted separately).
  [[nodiscard]] size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& variants : slots_) {
      for (const auto& slot : variants) n += slot ? 1 : 0;
    }
    return n;
  }

  /// Values built since construction, over every module asked for.
  [[nodiscard]] uint64_t builds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
  }

 private:
  mutable std::mutex mutex_;
  uint64_t module_id_ = 0;
  uint64_t builds_ = 0;
  std::vector<std::array<std::shared_ptr<const T>, kVariants>> slots_;
};

}  // namespace svc
