// Lightweight named counters/timers shared by the compiler passes, the JIT
// and the simulators. Collected per-pipeline-run and dumped into bench
// tables (e.g. "spills", "jit_cycles", "annotation_bytes").
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace svc {

class Statistics {
 public:
  void add(const std::string& key, int64_t delta) { counters_[key] += delta; }
  void set(const std::string& key, int64_t value) { counters_[key] = value; }

  [[nodiscard]] int64_t get(const std::string& key) const {
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return counters_.count(key) != 0;
  }

  [[nodiscard]] const std::map<std::string, int64_t>& all() const {
    return counters_;
  }

  /// "key=value" lines, sorted by key.
  [[nodiscard]] std::string dump() const;

  void merge(const Statistics& other);
  void clear() { counters_.clear(); }

 private:
  std::map<std::string, int64_t> counters_;
};

/// A duration in whole microseconds, rounded to the nearest (half up):
/// truncating would drop up to 1 us from every short timed span.
[[nodiscard]] inline int64_t round_to_us(std::chrono::nanoseconds d) {
  return (d.count() + 500) / 1000;
}

/// Scoped wall-clock timer: adds the elapsed microseconds (rounded to the
/// nearest) to the counter `key` on destruction, so timer keys read as
/// plain counters.
class StatTimer {
 public:
  StatTimer(Statistics& stats, std::string key)
      : stats_(stats),
        key_(std::move(key)),
        start_(std::chrono::steady_clock::now()) {}
  ~StatTimer() {
    const auto end = std::chrono::steady_clock::now();
    stats_.add(key_, round_to_us(end - start_));
  }
  StatTimer(const StatTimer&) = delete;
  StatTimer& operator=(const StatTimer&) = delete;

 private:
  Statistics& stats_;
  std::string key_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace svc
