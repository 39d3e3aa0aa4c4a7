// The copy-forwarding peephole (jit/isel.h) against its definition, and
// its cost against function size.
//
// The definition is the naive fixpoint: sweep the function from the top,
// apply the first applicable rewrite, start over. It is kept here as the
// reference. peephole_cleanup must produce the same machine code
// (MFunction::str) and the same moves_removed on every function of the
// Table 1 kernels, the committed fuzz corpus and 200 generated programs,
// for both cleanup rounds of the online pipeline on every target (and
// after allocation), and on random move-dense functions.
// SVC_CORPUS_DIR is injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/kernels.h"
#include "driver/offline_compiler.h"
#include "fuzz/generator.h"
#include "jit/devectorize.h"
#include "jit/isel.h"
#include "jit/jit_compiler.h"
#include "jit/stack_to_reg.h"
#include "regalloc/linear_scan.h"
#include "regalloc/liveness.h"
#include "targets/target_registry.h"
#include "test_util.h"

namespace svc {
namespace {

using ::svc::testing::value_or_die;

// --- Reference: one rewrite per sweep, use counts recomputed per sweep ----

namespace reference {

struct Result {
  uint32_t moves_removed = 0;
  // Same units as PeepholeStats::work_units: instructions visited plus
  // forward-scan steps.
  uint64_t work_units = 0;
};

bool defines(const MInst& inst, Reg r) {
  return inst.dst.valid && inst.dst == r;
}

bool uses_reg(const MFunction& fn, const MInst& inst, Reg r) {
  bool found = false;
  for_each_use(fn, inst, [&](Reg u) { found |= (u == r); });
  return found;
}

void replace_use(MFunction& fn, MInst& inst, Reg from, Reg to) {
  if (inst.s0 == from) inst.s0 = to;
  if (inst.s1 == from) inst.s1 = to;
  if (inst.s2 == from) inst.s2 = to;
  if (!is_machine_only(inst.op) && base_opcode(inst.op) == Opcode::Call) {
    for (Reg& r : fn.call_sites[static_cast<size_t>(inst.imm)]) {
      if (r == from) r = to;
    }
  }
}

/// Applies the first applicable rewrite in program order; returns the
/// number of moves removed (0 or 1).
uint32_t sweep(MFunction& fn, uint64_t& work) {
  std::map<uint32_t, uint32_t> uses;
  for (const MBlock& block : fn.blocks) {
    for (const MInst& inst : block.insts) {
      for_each_use(fn, inst, [&](Reg r) { uses[vreg_key(r)] += 1; });
    }
  }
  std::set<uint32_t> locals;
  for (const Reg& r : fn.local_regs.all()) locals.insert(vreg_key(r));
  for (const Reg& r : fn.param_regs) locals.insert(vreg_key(r));

  auto use_count = [&](Reg r) {
    const auto it = uses.find(vreg_key(r));
    return it == uses.end() ? 0u : it->second;
  };
  auto is_local = [&](Reg r) { return locals.count(vreg_key(r)) != 0; };

  for (MBlock& block : fn.blocks) {
    std::vector<MInst>& insts = block.insts;
    for (size_t i = 0; i < insts.size(); ++i) {
      ++work;
      MInst& mv = insts[i];
      if (mv.op != MOp::MovRR) continue;

      if (!is_local(mv.dst) && use_count(mv.dst) == 0) {
        insts.erase(insts.begin() + static_cast<long>(i));
        return 1;
      }
      if (i > 0) {
        MInst& prev = insts[i - 1];
        if (prev.dst.valid && prev.dst == mv.s0 && !is_local(mv.s0) &&
            use_count(mv.s0) == 1) {
          prev.dst = mv.dst;
          insts.erase(insts.begin() + static_cast<long>(i));
          return 1;
        }
      }
      if (!is_local(mv.dst) && use_count(mv.dst) == 1) {
        for (size_t j = i + 1; j < insts.size(); ++j) {
          ++work;
          MInst& later = insts[j];
          if (uses_reg(fn, later, mv.dst)) {
            replace_use(fn, later, mv.dst, mv.s0);
            insts.erase(insts.begin() + static_cast<long>(i));
            return 1;
          }
          if (defines(later, mv.s0) || defines(later, mv.dst)) break;
        }
      }
    }
  }
  return 0;
}

Result peephole(MFunction& fn) {
  Result result;
  while (const uint32_t removed = sweep(fn, result.work_units)) {
    result.moves_removed += removed;
  }
  return result;
}

}  // namespace reference

// --- Equivalence -----------------------------------------------------------

/// Runs the reference and the pass on copies of `fn`, requires equal
/// results, and leaves the pass's output in `fn`. Returns false (after
/// reporting) on a mismatch.
bool check_round(MFunction& fn, const std::string& where) {
  MFunction expected = fn;
  const reference::Result ref = reference::peephole(expected);
  const PeepholeStats got = peephole_cleanup(fn);
  EXPECT_EQ(got.moves_removed, ref.moves_removed) << where;
  EXPECT_EQ(fn.str(), expected.str()) << where;
  return got.moves_removed == ref.moves_removed && fn.str() == expected.str();
}

/// Both cleanup rounds of the online pipeline for every function of
/// `module`: after translation, then (per target, after FMA formation where
/// the target has it) after lane expansion; then once more after register
/// allocation. Translation does not depend on the target, so the first
/// round runs once per function.
size_t check_module(const Module& module, const std::string& label) {
  size_t rounds = 0;
  for (uint32_t f = 0; f < module.num_functions(); ++f) {
    const std::string where = label + " fn " + module.function(f).name();
    MFunction translated = stack_to_reg(module, module.function(f));
    if (!check_round(translated, where + " after stack_to_reg")) return rounds;
    ++rounds;
    for (const TargetKind kind : all_targets()) {
      const MachineDesc& desc = target_desc(kind);
      MFunction fn = translated;
      if (desc.has_fma) form_fma(fn);
      devectorize(fn);
      if (!check_round(fn, where + " on " + desc.name + " after devectorize")) {
        return rounds;
      }
      // A custom pipeline may also clean up after allocation, over
      // physical registers and slot-flagged spilled arguments.
      allocate_registers(fn, desc, AllocPolicy::LinearScan);
      if (!check_round(fn, where + " on " + desc.name + " after regalloc")) {
        return rounds;
      }
      rounds += 2;
    }
  }
  return rounds;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(PeepholeEquivalence, Table1Kernels) {
  size_t rounds = 0;
  for (const KernelInfo& k : table1_kernels()) {
    rounds += check_module(value_or_die(compile_module(k.source)),
                           std::string(k.name));
  }
  EXPECT_EQ(rounds, table1_kernels().size() * (1 + 2 * all_targets().size()));
}

TEST(PeepholeEquivalence, CorpusPrograms) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SVC_CORPUS_DIR)) {
    if (entry.path().extension() == ".minic") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    const auto program = fuzz::parse_corpus_file(slurp(path));
    ASSERT_TRUE(program.has_value()) << path;
    check_module(value_or_die(compile_module(program->source)),
                 path.filename().string());
  }
}

TEST(PeepholeEquivalence, GeneratedPrograms) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const fuzz::GeneratedProgram program = fuzz::generate_program(seed);
    check_module(value_or_die(compile_module(program.source)),
                 "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;  // one report is enough
  }
}

MInst move(Reg dst, Reg src) {
  MInst m;
  m.op = MOp::MovRR;
  m.dst = dst;
  m.s0 = src;
  return m;
}

TEST(PeepholeEquivalence, RewriteReopensAnEarlierMove) {
  // Removing the dead `mov t2 <- t1` leaves t1 one use, which makes the
  // earlier `mov t1 <- p` forwardable into the return: the cursor must
  // step back to it.
  const Reg p = Reg::make(RegClass::Int, 0);
  const Reg t1 = Reg::make(RegClass::Int, 1);
  const Reg t2 = Reg::make(RegClass::Int, 2);
  MFunction fn;
  fn.num_vregs[0] = 3;
  fn.param_regs = {p};
  fn.local_regs.push_back(std::array{p});
  MInst ret;
  ret.op = mop(Opcode::Ret);
  ret.s0 = t1;
  fn.blocks.push_back({{move(t1, p), move(t2, t1), ret}});
  ASSERT_TRUE(check_round(fn, "handmade"));
  ASSERT_EQ(fn.size(), 1u) << fn.str();
}

/// A random function over a handful of registers, dense in moves so that
/// rewrites interact: short blocks of moves, adds, calls and stores, some
/// registers locals, ending in returns and jumps.
MFunction random_function(uint64_t seed) {
  Rng rng(seed);
  constexpr uint32_t kRegs = 8;
  auto reg = [&] {
    return Reg::make(RegClass::Int,
                     static_cast<uint32_t>(rng.next_below(kRegs)));
  };
  MFunction fn;
  fn.num_vregs[0] = kRegs;
  fn.param_regs = {Reg::make(RegClass::Int, 0)};
  fn.local_regs.push_back(std::array{Reg::make(RegClass::Int, 0)});
  if (rng.next_bool()) {
    fn.local_regs.push_back(std::array{Reg::make(RegClass::Int, 1)});
  }
  const auto blocks = static_cast<uint32_t>(1 + rng.next_below(3));
  fn.blocks.resize(blocks);
  for (uint32_t b = 0; b < blocks; ++b) {
    auto& insts = fn.blocks[b].insts;
    const auto n = 2 + rng.next_below(12);
    for (uint64_t i = 0; i < n; ++i) {
      MInst m;
      switch (rng.next_below(8)) {
        case 0:
          m.op = mop(Opcode::AddI32);
          m.dst = reg();
          m.s0 = reg();
          m.s1 = reg();
          break;
        case 1:
          m.op = mop(Opcode::StoreI32);
          m.s0 = reg();
          m.s1 = reg();
          break;
        case 2:
          m.op = mop(Opcode::Call);
          m.imm = static_cast<int64_t>(fn.call_sites.size());
          fn.call_sites.push_back(std::array{reg(), reg()});
          if (rng.next_bool()) m.dst = reg();
          break;
        default:
          m = move(reg(), reg());
          break;
      }
      insts.push_back(m);
    }
    MInst term;
    if (b + 1 < blocks && rng.next_bool()) {
      term.op = mop(Opcode::Jump);
      term.a = b + 1;
    } else {
      term.op = mop(Opcode::Ret);
      term.s0 = reg();
    }
    insts.push_back(term);
  }
  return fn;
}

TEST(PeepholeEquivalence, RandomMoveDenseFunctions) {
  for (uint64_t seed = 1; seed <= 5000; ++seed) {
    MFunction fn = random_function(seed);
    if (!check_round(fn, "random seed " + std::to_string(seed))) return;
  }
}

// --- Linear scaling --------------------------------------------------------

/// The Table 1 `sum u8` kernel with its loop body repeated `copies` times.
std::string unrolled_sum_u8(int copies) {
  std::string body;
  for (int c = 0; c < copies; ++c) {
    body += "    s = s + p[i];\n    i = i + 1;\n";
  }
  return "fn sum_u8(p: *u8, n: i32) -> i32 {\n"
         "  var s: i32 = 0;\n"
         "  var i: i32 = 0;\n"
         "  while (i < n) {\n" +
         body +
         "  }\n"
         "  return s;\n"
         "}\n";
}

struct Work {
  int64_t peephole = 0;
  int64_t alloc = 0;
  uint64_t reference = 0;  // the reference's work on the same rounds
};

Work work_for(int copies) {
  // Scalar offline code, so every unroll factor has the same shape (the
  // vectorizer would take only the 1x loop).
  OfflineOptions offline;
  offline.vectorize = false;
  const Module m =
      value_or_die(compile_module(unrolled_sum_u8(copies), offline));
  Work w;
  for (const TargetKind kind : all_targets()) {
    const MachineDesc& desc = target_desc(kind);
    const JitArtifact a = JitCompiler(desc).compile(m, 0);
    w.peephole += a.stats.get("jit.peephole_work_units");
    w.alloc += a.stats.get("jit.alloc_work_units");

    MFunction fn = stack_to_reg(m, m.function(0));
    w.reference += reference::peephole(fn).work_units;
    if (desc.has_fma) form_fma(fn);
    if (!desc.has_simd) {
      devectorize(fn);
      w.reference += reference::peephole(fn).work_units;
    }
  }
  return w;
}

TEST(PeepholeScaling, WorkGrowsLinearlyWithUnrolling) {
  const Work w1 = work_for(1);
  const Work w4 = work_for(4);
  const Work w16 = work_for(16);
  ASSERT_GT(w1.peephole, 0);
  ASSERT_GT(w1.alloc, 0);
  EXPECT_LE(w4.peephole, 2 * 4 * w1.peephole);
  EXPECT_LE(w4.alloc, 2 * 4 * w1.alloc);
  EXPECT_LE(w16.peephole, 2 * 16 * w1.peephole)
      << "1x " << w1.peephole << ", 16x " << w16.peephole;
  EXPECT_LE(w16.alloc, 2 * 16 * w1.alloc)
      << "1x " << w1.alloc << ", 16x " << w16.alloc;
  // The bound has teeth: the sweep-per-rewrite reference is quadratic.
  EXPECT_GT(w16.reference, 2 * 16 * w1.reference)
      << "1x " << w1.reference << ", 16x " << w16.reference;
}

}  // namespace
}  // namespace svc
