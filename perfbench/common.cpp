#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory_resource>
#include <unordered_map>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ samples --

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

Tail Samples::tail() const {
  static constexpr double kLadder[] = {99.99, 99.9, 99.5, 99.0,
                                       95.0,  90.0, 75.0, 50.0};
  Tail t;
  t.samples = values_.size();
  if (values_.empty()) return t;
  const auto beyond = [&](double p) {
    const auto n = static_cast<double>(values_.size());
    const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    return values_.size() - std::min(rank, values_.size());
  };
  t.percentile = 50.0;
  for (double p : kLadder) {
    if (beyond(p) >= 10) {
      t.percentile = p;
      break;
    }
  }
  t.value = percentile(t.percentile);
  t.beyond = beyond(t.percentile);
  return t;
}

// ------------------------------------------------------------ failures --

void Ledger::fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(message);
}

// ------------------------------------------------------------- report --

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {value, unit, {}};
}

void Report::add_tail(const std::string& name, const Tail& tail,
                      const std::string& unit, double scale) {
  add(name, scale * tail.value, unit);
  char note[96];
  std::snprintf(note, sizeof note, "(p%g of %zu samples, %zu beyond)",
                tail.percentile, tail.samples, tail.beyond);
  values_[name].note = note;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void Report::print_lines() const {
  for (const std::string& name : order_) print_line(name);
}

void Report::print_line(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return;
  const Entry& e = it->second;
  std::printf("  %-28s %.6g %s %s\n", name.c_str(), e.value, e.unit.c_str(),
              e.note.c_str());
}

std::string Report::json() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = values_.at(name);
    char buf[96];
    // %.17g keeps every digit; non-finite values cannot appear in JSON.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

// -------------------------------------------------------------- tracer --

int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::record(const char* name, const char* layer, uint64_t parent,
                        uint64_t request, int64_t start_ns, int64_t end_ns,
                        uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = next_id();
  static thread_local const uint32_t thread =
      static_cast<uint32_t>(gettid());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, id, parent, request, thread, start_ns,
                    end_ns});
  return id;
}

std::map<std::string, double> Tracer::self_time_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child intervals per parent, clipped to the parent and merged so
  // overlapping children are not subtracted twice.
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans_[it->second];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[s.parent].emplace_back(a, b);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = iv[0].first;
      int64_t cur_b = iv[0].second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_b) {
          covered += cur_b - cur_a;
          cur_a = iv[i].first;
          cur_b = iv[i].second;
        } else {
          cur_b = std::max(cur_b, iv[i].second);
        }
      }
      covered += cur_b - cur_a;
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3;
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"request\": %" PRIu64 "}}%s\n",
                 s.name, s.layer, static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.thread,
                 s.id, s.parent, s.request, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- host --

HostSpeed::HostSpeed() {
  svc::Rng rng(0x5eed);
  keys_.resize(3000);
  for (uint32_t& k : keys_) k = rng.next_u32();
  work_.resize(keys_.size());
  arena_.resize(size_t{1} << 20);
}

// Node-based maps, hashing and a sort: the allocation-heavy, pointer-
// chasing mix the compilers themselves run, allocated from a private
// arena so the reference shares no heap state with the system.
void HostSpeed::probe() {
  const double t0 = thread_cpu_s();
  std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint32_t, uint32_t> hashed(&arena);
  std::pmr::map<uint32_t, uint32_t> ordered(&arena);
  for (uint32_t i = 0; i < keys_.size(); ++i) {
    hashed[keys_[i]] = i;
    if (i % 3 == 0) ordered[keys_[i]] = i;
  }
  uint64_t found = 0;
  for (uint32_t k : keys_) found += ordered.count(k) + hashed.count(k ^ 1);
  std::copy(keys_.begin(), keys_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  sink_ += found + work_[work_.size() / 2];
  samples_.add((thread_cpu_s() - t0) * 1e6);
}

double HostSpeed::reference_us() const { return samples_.median(); }

double HostSpeed::time_factor() const {
  return samples_.empty() ? 1.0 : kNominalUs / samples_.median();
}

HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t v[8] = {};
  for (uint64_t& x : v) {
    if (!(in >> x)) return t;
  }
  for (uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_fraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

size_t thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
const char* trap_name(svc::TrapKind t) {
  switch (t) {
    case svc::TrapKind::None: return "none";
    case svc::TrapKind::OutOfBoundsMemory: return "out-of-bounds";
    case svc::TrapKind::DivideByZero: return "divide-by-zero";
    case svc::TrapKind::IntegerOverflow: return "integer-overflow";
    case svc::TrapKind::CallStackOverflow: return "call-stack-overflow";
    case svc::TrapKind::StepBudgetExceeded: return "step-budget";
    case svc::TrapKind::ExplicitTrap: return "explicit-trap";
  }
  return "?";
}
}  // namespace

std::string diff_result(const svc::Value& got_value, svc::TrapKind got_trap,
                        const svc::Value& want_value,
                        svc::TrapKind want_trap) {
  if (got_trap != want_trap) {
    return std::string("trap ") + trap_name(got_trap) + ", oracle " +
           trap_name(want_trap);
  }
  if (got_trap == svc::TrapKind::None && !(got_value == want_value)) {
    return "value " + got_value.str() + ", oracle " + want_value.str();
  }
  return {};
}

std::string diff_memory(std::span<const uint8_t> got,
                        std::span<const uint8_t> want) {
  if (got.size() != want.size()) {
    return "memory size " + std::to_string(got.size()) + ", oracle " +
           std::to_string(want.size());
  }
  if (std::memcmp(got.data(), want.data(), got.size()) == 0) return {};
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      char buf[80];
      std::snprintf(buf, sizeof buf, "memory[%zu] = 0x%02x, oracle 0x%02x", i,
                    got[i], want[i]);
      return buf;
    }
  }
  return {};
}

}  // namespace perfbench
