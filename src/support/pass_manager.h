// The unified pass-pipeline subsystem: both halves of the split pipeline
// (offline IR passes and online JIT phases) are named, registrable passes
// run by a PassManager from a PipelineSpec -- the pipeline is *data*, not
// hard-wired code. This is what lets the iterative-compilation driver
// search pipeline specs, benches report per-pass wall time, and later work
// cache or parallelize per-configuration compilation.
//
// A PipelineSpec is an ordered list of pass names and round-trips through
// its string form ("fold,simplify,dce,if_convert,vectorize"). A
// PassManager<Unit, Context> owns the registry for one pipeline family
// (Unit = IRFunction offline, MFunction online). A spec is resolved to
// pass indices once (resolve()); running the resolved pipeline over a
// unit then looks nothing up by name and builds no string: passes report
// their counters through the Context, and the runner adds each pass's
// wall time to a fixed PassTimes array, rendered as "<prefix><pass>"
// counters only when a caller asks (add_times()).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/diagnostics.h"
#include "support/statistics.h"

namespace svc {

/// An ordered pipeline of pass names. Parsed from / rendered to a
/// comma-separated string; `parse(s.str()) == s` for every valid spec.
class PipelineSpec {
 public:
  PipelineSpec() = default;
  explicit PipelineSpec(std::vector<std::string> names)
      : names_(std::move(names)) {}

  /// Parses "a,b,c" (whitespace around names is trimmed). Returns nullopt
  /// on empty segments ("a,,b") or names with characters outside
  /// [A-Za-z0-9_.-]. The empty string parses to the empty spec.
  static std::optional<PipelineSpec> parse(std::string_view text);

  /// Comma-joined names; inverse of parse().
  [[nodiscard]] std::string str() const;

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] bool empty() const { return names_.empty(); }
  [[nodiscard]] size_t size() const { return names_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const;

  void append(std::string name) { names_.push_back(std::move(name)); }
  void append(const PipelineSpec& tail);

  friend bool operator==(const PipelineSpec& a, const PipelineSpec& b) {
    return a.names_ == b.names_;
  }

 private:
  std::vector<std::string> names_;
};

/// Wall time of the passes that pipeline runs executed, indexed by the
/// manager's pass index, in whole microseconds (each run rounded to the
/// nearest, as StatTimer does). `ran` has bit i set once pass i ran, so a
/// pass that never ran renders as no counter rather than as 0.
struct PassTimes {
  static constexpr size_t kMaxPasses = 16;
  std::array<int64_t, kMaxPasses> us{};
  uint32_t ran = 0;

  void add(size_t pass, int64_t micros) {
    us[pass] += micros;
    ran |= uint32_t{1} << pass;
  }
  PassTimes& operator+=(const PassTimes& other) {
    for (size_t i = 0; i < kMaxPasses; ++i) us[i] += other.us[i];
    ran |= other.ran;
    return *this;
  }
};

/// A PipelineSpec resolved against one registry: the indices of its
/// passes, in run order.
struct ResolvedPipeline {
  std::vector<uint8_t> passes;
};

/// Registry + runner for one pipeline family. `Unit` is the object being
/// transformed (IRFunction, MFunction); `Context` carries the immutable
/// surroundings (target description, source function, options) plus any
/// cross-pass outputs (e.g. the vectorizer's loop annotations).
template <typename Unit, typename Context>
class PassManager {
 public:
  /// A pass mutates `unit`; it reports counters through `ctx`.
  using PassFn = std::function<void(Unit& unit, Context& ctx)>;

  /// `timer_prefix` namespaces the per-pass wall-time counters add_times()
  /// renders ("<prefix><pass>", microseconds).
  explicit PassManager(std::string timer_prefix = "pass_us.")
      : timer_prefix_(std::move(timer_prefix)) {}

  void register_pass(std::string name, std::string description, PassFn fn) {
    if (index_.count(name) != 0) {
      fatal("PassManager: duplicate pass '" + name + "'");
    }
    if (passes_.size() == PassTimes::kMaxPasses) {
      fatal("PassManager: too many passes");
    }
    index_[name] = passes_.size();
    passes_.push_back({std::move(name), std::move(description),
                       std::move(fn)});
  }

  [[nodiscard]] bool has_pass(std::string_view name) const {
    return index_.contains(name);
  }

  /// Registered pass names, in registration order.
  [[nodiscard]] std::vector<std::string> pass_names() const {
    std::vector<std::string> out;
    out.reserve(passes_.size());
    for (const auto& p : passes_) out.push_back(p.name);
    return out;
  }

  [[nodiscard]] std::string_view pass_description(
      std::string_view name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) fatal("PassManager: unknown pass");
    return passes_[it->second].description;
  }

  /// First name in `spec` with no registered pass, if any. Callers turn
  /// this into a DiagnosticEngine error; resolve() treats unknown names
  /// as an internal invariant break.
  [[nodiscard]] std::optional<std::string> first_unknown(
      const PipelineSpec& spec) const {
    for (const std::string& name : spec.names()) {
      if (!has_pass(name)) return name;
    }
    return std::nullopt;
  }

  /// Resolves `spec` to pass indices. A name may appear any number of
  /// times; unknown names are fatal -- validate with first_unknown() on
  /// untrusted specs.
  [[nodiscard]] ResolvedPipeline resolve(const PipelineSpec& spec) const {
    ResolvedPipeline out;
    out.passes.reserve(spec.size());
    for (const std::string& name : spec.names()) {
      const auto it = index_.find(name);
      if (it == index_.end()) {
        fatal("PassManager: unknown pass '" + name + "' in pipeline");
      }
      out.passes.push_back(static_cast<uint8_t>(it->second));
    }
    return out;
  }

  /// Runs `pipeline` over `unit` in order from its pass `first` on,
  /// adding every pass's wall time to `times` (when given).
  void run(const ResolvedPipeline& pipeline, Unit& unit, Context& ctx,
           PassTimes* times = nullptr, size_t first = 0) const {
    for (size_t i = first; i < pipeline.passes.size(); ++i) {
      const uint8_t pass = pipeline.passes[i];
      const auto start = std::chrono::steady_clock::now();
      passes_[pass].fn(unit, ctx);
      if (times) {
        times->add(pass, round_to_us(std::chrono::steady_clock::now() - start));
      }
    }
  }

  /// Adds "<timer_prefix><pass>" for every pass that ran in `times`.
  void add_times(const PassTimes& times, Statistics& out) const {
    for (size_t i = 0; i < passes_.size(); ++i) {
      if (times.ran & (uint32_t{1} << i)) {
        out.add(timer_prefix_ + passes_[i].name, times.us[i]);
      }
    }
  }

  /// The pass a "<timer_prefix><pass>" counter key names, if any: the
  /// inverse of add_times' keys.
  [[nodiscard]] std::optional<size_t> timer_pass(std::string_view key) const {
    if (!key.starts_with(timer_prefix_)) return std::nullopt;
    const auto it = index_.find(key.substr(timer_prefix_.size()));
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

 private:
  struct Entry {
    std::string name;
    std::string description;
    PassFn fn;
  };

  std::vector<Entry> passes_;
  // Transparent, so lookups by string_view build no string.
  std::map<std::string, size_t, std::less<>> index_;
  std::string timer_prefix_;
};

}  // namespace svc
