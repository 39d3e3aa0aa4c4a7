// Shared plumbing of the perfbench program: clocks, exact sample
// statistics, the failure ledger, the metric report, the span tracer and
// the host readings (speed, steal, threads, memory). Everything the
// workloads measure goes through these types, so every workload reports
// its numbers the same way.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/svc.h"
#include "support/rng.h"

namespace perfbench {

// ------------------------------------------------------------- clocks --

/// Monotonic wall clock, seconds.
double wall_s();

/// CPU time of the calling thread, seconds. Used for the single-threaded
/// rollout pipeline: it excludes hypervisor steal and time the thread
/// spends descheduled, which wall time on a shared host does not.
double thread_cpu_s();

/// CPU time of the whole process (every thread), seconds.
double process_cpu_s();

/// The value of a set-up step that cannot fail on the benchmark's fixed
/// inputs; aborts with the diagnostics if it does.
template <typename T>
T must(svc::Result<T> r, const char* what) {
  if (!r.ok()) svc::fatal(std::string(what) + ":\n" + r.error_text());
  return std::move(r).value();
}

// ------------------------------------------------------------ samples --

/// A timing reported as "the highest percentile with at least ten
/// samples beyond it", together with that percentile and the count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;  // total samples
  size_t beyond = 0;   // samples above the reported percentile
};

/// Raw samples with exact (nearest-rank) percentiles. No bucketing: the
/// median and the tail are read off the sorted samples themselves.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] Tail tail() const;

 private:
  std::vector<double> values_;
};

// ------------------------------------------------------------ failures --

/// Counts attempted operations and every failure among them: errors,
/// refusals, traps and oracle mismatches. The first few messages are
/// kept for the report; any failure makes the run exit non-zero.
class Ledger {
 public:
  void attempt(uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& message);
  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ------------------------------------------------------------- report --

/// Named metrics with units, printed one per line and as the JSON
/// result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds a tail metric, noting which percentile it is and how many
  /// samples stand beyond it.
  void add_tail(const std::string& name, const Tail& tail,
                const std::string& unit, double scale = 1.0);
  [[nodiscard]] double get(const std::string& name) const;
  void print_lines() const;
  /// Prints one metric's line, if present.
  void print_line(const std::string& name) const;
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::string note;  // e.g. which percentile a tail is
  };
  std::map<std::string, Entry> values_;
  std::vector<std::string> order_;
};

// -------------------------------------------------------------- tracer --

/// Spans recorded by the benchmark around its own calls into the
/// system: name, layer, start/end, the causing span and the request (or
/// module) id. Kept in memory; written as Chrome trace-event JSON at
/// exit. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    uint32_t thread;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Nanoseconds on the tracer's timeline (steady clock).
  [[nodiscard]] static int64_t now_ns();

  /// Fresh span id (ids are never 0; 0 means "no parent").
  uint64_t next_id() { return last_id_.fetch_add(1) + 1; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t record(const char* name, const char* layer, uint64_t parent,
                  uint64_t request, int64_t start_ns, int64_t end_ns,
                  uint64_t id = 0);

  /// Per-layer self time in microseconds: each span's duration minus the
  /// part of it its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_time_us() const;

  /// Writes {"traceEvents": [...]} (Perfetto / chrome://tracing).
  bool write_chrome_json(const std::string& path) const;

  [[nodiscard]] size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::atomic<uint64_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread: records [construction, destruction)
/// into the tracer. Nested scopes name their parent explicitly.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const char* layer,
        uint64_t parent = 0, uint64_t request = 0)
      : tracer_(tracer),
        name_(name),
        layer_(layer),
        parent_(parent),
        request_(request),
        id_(tracer.enabled() ? tracer.next_id() : 0),
        start_ns_(tracer.enabled() ? Tracer::now_ns() : 0) {}
  ~Scope() {
    if (id_ != 0) {
      tracer_.record(name_, layer_, parent_, request_, start_ns_,
                     Tracer::now_ns(), id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  const char* layer_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_;
  int64_t start_ns_;
};

// --------------------------------------------------------------- host --

/// The host's current speed, sampled by a fixed reference task that the
/// benchmark runs between its own measurements. On a shared host the
/// speed of memory-heavy code drifts by +-20% over minutes, for every
/// process at once; single-thread CPU times scaled by time_factor() read
/// as if measured at the nominal speed, which removes most of that drift
/// (the reference shares no code, allocator or data with the system).
class HostSpeed {
 public:
  /// Median reference time on the host the benchmark was calibrated on:
  /// a 4-vCPU Intel Xeon VM.
  static constexpr double kNominalUs = 800.0;

  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs the reference task once on the calling thread (about a
  /// millisecond of CPU) and records its CPU time.
  void probe();
  /// Median reference CPU time so far, microseconds.
  [[nodiscard]] double reference_us() const;
  /// kNominalUs / reference_us(): multiply a CPU time by this.
  [[nodiscard]] double time_factor() const;

 private:
  std::vector<uint32_t> keys_, work_;
  std::vector<std::byte> arena_;
  Samples samples_;
  uint64_t sink_ = 0;
};

/// The process's host-speed sampler.
HostSpeed& host_speed();

/// Cumulative CPU jiffies from /proc/stat: total and steal.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Steal share of all CPU time between two readings (0 when unknown).
double steal_fraction(const CpuTimes& before, const CpuTimes& after);

/// Threads of this process right now (/proc/self/status).
size_t thread_count();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Bit equality of two results' value and trap kind; describes the first
/// difference, or returns an empty string when they agree.
std::string diff_result(const svc::Value& got_value, svc::TrapKind got_trap,
                        const svc::Value& want_value, svc::TrapKind want_trap);

/// First differing byte of two memory images, or an empty string.
std::string diff_memory(std::span<const uint8_t> got,
                        std::span<const uint8_t> want);

}  // namespace perfbench
