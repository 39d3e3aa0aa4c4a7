// ModuleHandle: owned handle to a deployable SVIL module -- the unit the
// embeddable API (api/svc.h) passes between compile, serialize, deploy,
// and the profile feedback loop. It wraps std::shared_ptr<const Module>,
// so targets, Socs, Deployments, and the CodeCache share ownership: the
// module stays alive as long as anything references it, including past
// the destruction of the Engine that produced it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "bytecode/module.h"

namespace svc {

/// Owned, shared handle to an immutable module.
///
/// Thread-safety: the referenced Module is const and never mutated, so
/// any number of threads may read through any number of handles; copying
/// a handle is a shared_ptr copy (thread-safe refcount). One handle
/// *object* is a plain value: don't mutate (assign/reset) the same
/// handle from two threads.
/// Lifetime: the module lives until the last owner -- handle, target,
/// Soc, Deployment, or Server -- is gone; the CodeCache keys artifacts
/// by the stable Module::id(), never by address.
class ModuleHandle {
 public:
  /// Empty handle (boolean-false); produced only by default construction.
  ModuleHandle() = default;

  /// Shares ownership of an existing module.
  explicit ModuleHandle(std::shared_ptr<const Module> module)
      : module_(std::move(module)) {}

  /// Takes ownership of a freshly produced module (what Engine::compile
  /// and Deployment::export_profile do internally).
  [[nodiscard]] static ModuleHandle adopt(Module module) {
    return ModuleHandle(std::make_shared<const Module>(std::move(module)));
  }

  [[nodiscard]] explicit operator bool() const { return module_ != nullptr; }

  [[nodiscard]] const Module& operator*() const { return *module_; }
  [[nodiscard]] const Module* operator->() const { return module_.get(); }
  [[nodiscard]] const Module* get() const { return module_.get(); }

  /// The underlying shared ownership, for handing to load_module() and
  /// friends directly.
  [[nodiscard]] const std::shared_ptr<const Module>& shared() const {
    return module_;
  }

  /// The module's stable identity (Module::id()); 0 for an empty handle.
  [[nodiscard]] uint64_t id() const { return module_ ? module_->id() : 0; }

  [[nodiscard]] const std::string& name() const {
    static const std::string kEmpty;
    return module_ ? module_->name() : kEmpty;
  }

  /// True when the module passed verify_module as this handle was made:
  /// Engine::compile and Engine::load_bytecode verify what they return,
  /// so Engine::deploy does not verify it again. A handle made from a
  /// caller's module (the constructor, adopt) is not marked, and deploy
  /// verifies it.
  [[nodiscard]] bool verified() const { return verified_; }

 private:
  friend class Engine;
  [[nodiscard]] static ModuleHandle adopt_verified(Module module) {
    ModuleHandle handle = adopt(std::move(module));
    handle.verified_ = true;
    return handle;
  }

  std::shared_ptr<const Module> module_;
  bool verified_ = false;
};

}  // namespace svc
