// perfbench: the repository benchmark. Runs one named workload with one
// seed, reaching the system through api/svc.h only, checks every output
// against the tier-0 switch-interpreter oracle, and prints every metric
// with its unit; the last line is the JSON result. See NOTES.md.
//
//   perfbench --workload rollout|serve_hot|serve_tierup --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-file F]
//             [--corrupt-expected]
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures half the
// time untraced and half traced, and reports the per-layer metrics (from
// the traced half, with its extra probes) and the tracing overhead.
// --corrupt-expected flips one oracle answer: the run must then fail.
// Exit status: 0 on success, 1 when any check failed, 2 on bad usage.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "workload.h"

namespace {

using namespace perfbench;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--corrupt-expected") {
      o.corrupt_expected = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || o.trace;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !have_trace || !(o.seconds > 0.0)) return std::nullopt;
  return o;
}

// FNV-1a of this executable: deterministic metrics are recorded per
// build, so a rebuilt program starts a fresh record.
uint64_t build_id() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  uint64_t h = 0xcbf29ce484222325ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<uint8_t>(buf[i])) * 0x100000001b3ull;
    }
  }
  return h;
}

// Checks the deterministic metrics against the record of an earlier run
// of this build with the same workload and seed, or writes the record.
void check_determinism(const Options& o,
                       const std::map<std::string, double>& values,
                       Ledger& ledger) {
  char name[160];
  std::snprintf(name, sizeof name, "%s/deterministic-%s-%" PRIu64 "-%016" PRIx64,
                o.work_dir.c_str(), o.workload.c_str(), o.seed, build_id());
  std::ifstream in(name);
  if (in) {
    std::string key;
    double want = 0.0;
    while (in >> key >> want) {
      const auto it = values.find(key);
      if (it == values.end() || it->second != want) {
        ledger.fail("deterministic metric " + key + " differs from an earlier run: " +
                    std::to_string(it == values.end() ? 0.0 : it->second) +
                    " vs " + std::to_string(want));
      }
    }
    return;
  }
  std::ofstream out(name);
  for (const auto& [key, v] : values) {
    char line[128];
    std::snprintf(line, sizeof line, "%s %.17g\n", key.c_str(), v);
    out << line;
  }
}

void compare_phases(const Outcome& a, const Outcome& b, Ledger& ledger) {
  for (const auto& [key, v] : a.deterministic) {
    const auto it = b.deterministic.find(key);
    if (it == b.deterministic.end() || it->second != v) {
      ledger.fail("deterministic metric " + key + " differs between phases");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rollout|serve_hot|serve_tierup "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--trace-file FILE] [--corrupt-expected]\n");
    return 2;
  }
  Options opts = std::move(*parsed);
  std::unique_ptr<Workload> (*make)(const Options&, Ledger&) = nullptr;
  if (opts.workload == "rollout") make = make_rollout;
  if (opts.workload == "serve_hot") make = make_serve_hot;
  if (opts.workload == "serve_tierup") make = make_serve_tierup;
  if (!make) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  if (opts.work_dir.empty()) opts.work_dir = ".bench_build/perfbench-work";
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  const std::string records = opts.work_dir;
  opts.work_dir += "/run-" + std::to_string(getpid());
  std::filesystem::remove_all(opts.work_dir, ec);
  std::filesystem::create_directories(opts.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", opts.work_dir.c_str());
    return 2;
  }

  std::printf("perfbench: workload %s, seed %" PRIu64 ", %.1f s, trace %d, "
              "host nproc %u\n",
              opts.workload.c_str(), opts.seed, opts.seconds, opts.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  Ledger ledger;

  // Set-up, kSetups times; the last one is measured. Timed in process
  // CPU time (all threads), which hypervisor steal does not inflate.
  Samples setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    const double t0 = process_cpu_s();
    workload = make(opts, ledger);
    setup_s.add(process_cpu_s() - t0);
  }

  Tracer tracer(false);
  Outcome outcome;
  double overhead = 0.0;
  if (!opts.trace) {
    outcome = workload->measure(opts.seconds, tracer);
  } else {
    const Outcome untraced = workload->measure(opts.seconds / 2, tracer);
    tracer.set_enabled(true);
    outcome = workload->measure(opts.seconds / 2, tracer);
    tracer.set_enabled(false);
    compare_phases(untraced, outcome, ledger);
    overhead = outcome.layers.get("latency_us_p50") /
                   untraced.layers.get("latency_us_p50") - 1.0;
  }
  workload.reset();
  // A run that already failed neither checks nor writes the record: its
  // figures may have skipped the failing requests.
  if (ledger.failed() == 0) {
    Options record_opts = opts;
    record_opts.work_dir = records;
    check_determinism(record_opts, outcome.deterministic, ledger);
  }
  std::filesystem::remove_all(opts.work_dir, ec);

  outcome.e2e.add("setup_s", host_speed().time_factor() * setup_s.median(), "s");
  outcome.e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  outcome.layers.add("trace.overhead_frac", overhead, "ratio");
  outcome.layers.add("host.ref_us", host_speed().reference_us(), "us");

  std::printf("host speed: reference task %.1f us (median of the run), "
              "CPU times scaled by %.4f\n",
              host_speed().reference_us(), host_speed().time_factor());
  std::printf("end-to-end:\n");
  outcome.e2e.print_lines();
  std::printf("  failed_frac                  %.6g ratio (%" PRIu64 " of %" PRIu64
              " operations)\n",
              static_cast<double>(ledger.failed()) /
                  static_cast<double>(std::max<uint64_t>(ledger.attempted(), 1)),
              ledger.failed(), ledger.attempted());
  if (!opts.trace) {
    std::printf("wall-clock serving numbers (per-layer metrics, not gated):\n");
    for (const char* name : {"latency_us_p50", "latency_us_tail", "goodput_rps",
                             "capacity_rps", "runtime.time_to_tier1_ms"}) {
      outcome.layers.print_line(name);
    }
  } else {
    std::printf("per-layer:\n");
    outcome.layers.print_lines();
    std::printf("self time by layer (traced half, %zu spans):\n", tracer.size());
    for (const auto& [layer, us] : tracer.self_time_us()) {
      std::printf("  %-10s %12.1f ms\n", layer.c_str(), us * 1e-3);
    }
    if (!opts.trace_file.empty()) {
      if (tracer.write_chrome_json(opts.trace_file)) {
        std::printf("trace written to %s\n", opts.trace_file.c_str());
      } else {
        ledger.fail("cannot write trace file " + opts.trace_file);
      }
    }
  }
  for (const std::string& m : ledger.messages()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", m.c_str());
  }

  const Report& metrics = opts.trace ? outcome.layers : outcome.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              ledger.failed() == 0 ? "true" : "false", ledger.attempted(),
              ledger.failed(), metrics.json().c_str());
  std::fflush(stdout);
  return ledger.failed() == 0 ? 0 : 1;
}
