// Golden digests of the online JIT's output. Every function of the Table 1
// kernels, the committed fuzz corpus and generated programs 1000..1063 is
// compiled for every target under each allocation policy; the machine code
// (MFunction::str plus the parameter and call-site registers, which str
// does not print) is hashed with FNV-1a, and the allocator's counters are
// summed. The expected rows were recorded from the JIT before its register
// allocator and pass runner were made allocation-free, so any change to
// the generated code or to the allocator's decisions shows up here.
// SVC_CORPUS_DIR is injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "fuzz/generator.h"
#include "jit/jit_compiler.h"
#include "targets/target_registry.h"
#include "test_util.h"

namespace svc {
namespace {

using ::svc::testing::value_or_die;

struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ull;
  void add(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  }
};

std::string regs_str(std::span<const Reg> regs) {
  std::string s;
  for (const Reg& r : regs) {
    s += r.valid ? std::to_string(static_cast<int>(r.cls)) + ":" +
                       std::to_string(r.idx)
                 : "_";
    s += ' ';
  }
  return s + '\n';
}

/// One cell of the table: a source group on one target under one policy.
struct Golden {
  const char* group;
  TargetKind kind;
  AllocPolicy policy;
  uint64_t digest;
  int64_t spilled_vregs;
  int64_t spill_loads;
  int64_t spill_stores;
  int64_t work_units;
};

Golden measure(const std::vector<Module>& modules, const char* group,
               TargetKind kind, AllocPolicy policy) {
  Golden g{group, kind, policy, 0, 0, 0, 0, 0};
  Fnv1a fnv;
  const JitCompiler jit(target_desc(kind), {policy, true});
  for (const Module& m : modules) {
    for (uint32_t f = 0; f < m.num_functions(); ++f) {
      const JitArtifact a = jit.compile(m, f);
      fnv.add(a.code.str());
      fnv.add(regs_str(a.code.param_regs));
      for (size_t s = 0; s < a.code.call_sites.size(); ++s) {
        fnv.add(regs_str(a.code.call_sites[s]));
      }
      g.spilled_vregs += a.stats.get("jit.spilled_vregs");
      g.spill_loads += a.stats.get("jit.static_spill_loads");
      g.spill_stores += a.stats.get("jit.static_spill_stores");
      g.work_units += a.stats.get("jit.alloc_work_units");
    }
  }
  g.digest = fnv.h;
  return g;
}

std::vector<Module> table1_modules() {
  std::vector<Module> out;
  for (const KernelInfo& k : table1_kernels()) {
    out.push_back(value_or_die(compile_module(k.source)));
  }
  return out;
}

std::vector<Module> corpus_modules() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SVC_CORPUS_DIR)) {
    if (entry.path().extension() == ".minic") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<Module> out;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto program = fuzz::parse_corpus_file(ss.str());
    if (!program) fatal("unreadable corpus file " + path.string());
    out.push_back(value_or_die(compile_module(program->source)));
  }
  return out;
}

std::vector<Module> generated_modules() {
  std::vector<Module> out;
  for (uint64_t seed = 1000; seed < 1064; ++seed) {
    out.push_back(
        value_or_die(compile_module(fuzz::generate_program(seed).source)));
  }
  return out;
}

constexpr TargetKind X86 = TargetKind::X86Sim;
constexpr TargetKind Sparc = TargetKind::SparcSim;
constexpr TargetKind Ppc = TargetKind::PpcSim;
constexpr TargetKind Spu = TargetKind::SpuSim;
constexpr AllocPolicy LS = AllocPolicy::LinearScan;
constexpr AllocPolicy SG = AllocPolicy::SplitGuided;
constexpr AllocPolicy NO = AllocPolicy::NaiveOnline;
constexpr AllocPolicy OC = AllocPolicy::OfflineChaitin;

// clang-format off
const Golden kGolden[] = {
    {"table1", X86, LS, 0x716b5e89967b94f1ull, 7, 18, 0, 1178},
    {"table1", X86, SG, 0xdb9b63ebc16d3801ull, 34, 68, 25, 1675},
    {"table1", X86, NO, 0xaba031bd3a2484d4ull, 34, 106, 40, 1675},
    {"table1", X86, OC, 0xd11deb1984180a1aull, 0, 0, 0, 2786},
    {"table1", Sparc, LS, 0x254472bd586d5d23ull, 69, 185, 89, 2552},
    {"table1", Sparc, SG, 0xae3a0757e37dbd55ull, 126, 282, 152, 3347},
    {"table1", Sparc, NO, 0x25eb10b4d206b286ull, 126, 323, 165, 3347},
    {"table1", Sparc, OC, 0x916c6b87c079a35aull, 52, 89, 61, 6856},
    {"table1", Ppc, LS, 0xf4338ed5f6e142a8ull, 16, 38, 29, 2888},
    {"table1", Ppc, SG, 0x0ce3d0dd1435f1ecull, 39, 99, 53, 4031},
    {"table1", Ppc, NO, 0x90bc6d9741802de7ull, 39, 129, 57, 4031},
    {"table1", Ppc, OC, 0x74524f9eca5ccb7eull, 14, 26, 21, 6809},
    {"table1", Spu, LS, 0xc62b617be2520392ull, 0, 0, 0, 1120},
    {"table1", Spu, SG, 0x30ec061db2fae850ull, 0, 0, 0, 1299},
    {"table1", Spu, NO, 0x30ec061db2fae850ull, 0, 0, 0, 1299},
    {"table1", Spu, OC, 0xcc91eb16f9f21b4bull, 0, 0, 0, 2751},
    {"corpus", X86, LS, 0xa003e202adc9bf27ull, 66, 168, 68, 10921},
    {"corpus", X86, SG, 0x8d3bbe230529d0a9ull, 758, 968, 766, 25452},
    {"corpus", X86, NO, 0x5cd1e51df4a6591cull, 758, 1017, 785, 25452},
    {"corpus", X86, OC, 0x3e24aa7cacaebe30ull, 39, 49, 33, 63551},
    {"corpus", Sparc, LS, 0xfc4caaebd60ca789ull, 118, 297, 128, 9842},
    {"corpus", Sparc, SG, 0xfc6e03385e025cf9ull, 878, 1151, 894, 20953},
    {"corpus", Sparc, NO, 0x509b141020b14a57ull, 878, 1186, 909, 20953},
    {"corpus", Sparc, OC, 0x9a8eabb35aa906f4ull, 73, 128, 57, 65849},
    {"corpus", Ppc, LS, 0x916fcdb963ce3660ull, 20, 54, 14, 12804},
    {"corpus", Ppc, SG, 0xc1501d1e5c6385b2ull, 578, 759, 588, 35688},
    {"corpus", Ppc, NO, 0xa65e8cfdd9c6bcbdull, 578, 822, 600, 35688},
    {"corpus", Ppc, OC, 0x4a73de1d28873977ull, 17, 24, 12, 65707},
    {"corpus", Spu, LS, 0xe0cd02697f2fd677ull, 0, 0, 0, 13099},
    {"corpus", Spu, SG, 0x084d14342e7aff5dull, 359, 483, 362, 42709},
    {"corpus", Spu, NO, 0x5ab51c6a29c75f1aull, 359, 493, 358, 42709},
    {"corpus", Spu, OC, 0x14cb17d90944e869ull, 0, 0, 0, 63418},
    {"generated", X86, LS, 0x63a56b26bbd155caull, 542, 1287, 596, 64430},
    {"generated", X86, SG, 0xe92426833d56401bull, 4307, 5720, 4500, 142943},
    {"generated", X86, NO, 0x739c538ff5499976ull, 4307, 5745, 4539, 142943},
    {"generated", X86, OC, 0x969b4b16e89a3618ull, 332, 405, 294, 347744},
    {"generated", Sparc, LS, 0x278ae8f62480aa62ull, 797, 1871, 890, 56631},
    {"generated", Sparc, SG, 0x96d56bf7bec3416cull, 4906, 6454, 5094, 115858},
    {"generated", Sparc, NO, 0xb05f2279db85eef6ull, 4906, 6460, 5144, 115858},
    {"generated", Sparc, OC, 0xb558ca1f28427431ull, 568, 779, 493, 357534},
    {"generated", Ppc, LS, 0x67c39281c10aecebull, 253, 650, 270, 78482},
    {"generated", Ppc, SG, 0x4b1c07db96ebe1e2ull, 3316, 4613, 3465, 201234},
    {"generated", Ppc, NO, 0xbe3c800b1abafd71ull, 3316, 4696, 3524, 201234},
    {"generated", Ppc, OC, 0xb24e523d98ab5db3ull, 126, 139, 117, 356687},
    {"generated", Spu, LS, 0xcaebc68a52a52381ull, 83, 214, 95, 86020},
    {"generated", Spu, SG, 0x5665c9d569ea69a0ull, 2144, 2976, 2213, 246838},
    {"generated", Spu, NO, 0x570e60330c00f898ull, 2144, 3219, 2275, 246838},
    {"generated", Spu, OC, 0x8bc6cae0b2e70624ull, 35, 35, 35, 346915},
};
// clang-format on

const char* kind_name(TargetKind k) {
  switch (k) {
    case TargetKind::X86Sim: return "X86";
    case TargetKind::SparcSim: return "Sparc";
    case TargetKind::PpcSim: return "Ppc";
    case TargetKind::SpuSim: return "Spu";
  }
  return "?";
}

const char* policy_name(AllocPolicy p) {
  switch (p) {
    case AllocPolicy::LinearScan: return "LS";
    case AllocPolicy::SplitGuided: return "SG";
    case AllocPolicy::NaiveOnline: return "NO";
    case AllocPolicy::OfflineChaitin: return "OC";
  }
  return "?";
}

/// The row as it is spelled in kGolden.
std::string row(const Golden& g) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %s, %s, 0x%016" PRIx64 "ull, %" PRId64 ", %" PRId64
                ", %" PRId64 ", %" PRId64 "},",
                g.group, kind_name(g.kind), policy_name(g.policy), g.digest,
                g.spilled_vregs, g.spill_loads, g.spill_stores, g.work_units);
  return buf;
}

TEST(JitGolden, EveryTargetAndPolicyMatchesRecordedOutput) {
  const std::pair<const char*, std::vector<Module>> groups[] = {
      {"table1", table1_modules()},
      {"corpus", corpus_modules()},
      {"generated", generated_modules()},
  };
  size_t checked = 0;
  for (const auto& [group, modules] : groups) {
    for (const TargetKind kind : all_targets()) {
      for (const AllocPolicy policy : {LS, SG, NO, OC}) {
        const Golden got = measure(modules, group, kind, policy);
        const Golden* want = nullptr;
        for (const Golden& g : kGolden) {
          if (std::string_view(g.group) == group && g.kind == kind &&
              g.policy == policy) {
            want = &g;
          }
        }
        if (want == nullptr) {
          ADD_FAILURE() << "no recorded row; measured:\n" << row(got);
          continue;
        }
        EXPECT_EQ(row(*want), row(got));
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

}  // namespace
}  // namespace svc
