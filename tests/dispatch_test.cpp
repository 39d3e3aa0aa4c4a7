// Differential tests for the threaded-dispatch tier-0 engine
// (vm/dispatch_threaded.cpp + vm/predecode.cpp) against the reference
// switch interpreter, the oracle for dispatch, frames and stacks. (Both
// run the value-opcode definitions of vm/semantics.h, which
// tests/semantics_test.cpp checks against literal golden rows.)
//
// Coverage contract, asserted at the bottom of this file: every opcode in
// bytecode/opcodes.def executes through both engines, and every
// superinstruction in vm/fused_ops.def is both emitted by the pre-decoder
// and executed fused. Each comparison checks results (bit-identical
// Values), traps, dynamic step counts, final memory bytes, and -- for the
// profiling runs -- the complete collected ProfileData.
//
// When the build carries no computed-goto engine (SVC_THREADED_DISPATCH
// OFF or a non-GNU compiler), Threaded requests fall back to the switch
// engine and every comparison here degenerates to oracle-vs-oracle; the
// test still validates the pre-decoder.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <string>

#include "test_util.h"
#include "vm/predecode.h"

namespace svc {
namespace {

using ::svc::testing::build_call_module;
using ::svc::testing::expect_verifies;

// Opcodes observed (statically) in differentially-tested modules; the
// final test asserts this covers the whole opcode table.
std::set<Opcode>& covered_ops() {
  static std::set<Opcode> ops;
  return ops;
}

// Fused POps observed in pre-decoded streams of tested modules.
std::set<POp>& covered_fused() {
  static std::set<POp> ops;
  return ops;
}

struct RunOut {
  ExecResult r;
  std::vector<uint8_t> mem;
  ProfileData prof;
};

RunOut run_one(const Module& m, uint32_t fn, const std::vector<Value>& args,
               DispatchKind kind, bool fusion, bool profile, uint64_t budget,
               const std::function<void(Memory&)>& setup) {
  Memory mem(1 << 16);
  if (setup) setup(mem);
  Interpreter interp(m, mem);
  interp.set_dispatch(kind);
  interp.set_fusion(fusion);
  interp.set_step_budget(budget);
  RunOut out;
  out.prof.reset(m.num_functions());
  if (profile) interp.set_profile(&out.prof);
  out.r = interp.run(fn, args);
  out.mem.resize(mem.size());
  for (uint32_t a = 0; a < mem.size(); ++a) out.mem[a] = mem.load_u8(a);
  return out;
}

void expect_same_exec(const RunOut& want, const RunOut& got,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.r.trap, got.r.trap) << got.r.trap_message();
  EXPECT_EQ(want.r.steps, got.r.steps);
  ASSERT_EQ(want.r.value.has_value(), got.r.value.has_value());
  if (want.r.value.has_value()) {
    EXPECT_TRUE(*want.r.value == *got.r.value)
        << "want " << want.r.value->str() << " got " << got.r.value->str();
  }
  EXPECT_EQ(want.mem, got.mem);
}

void expect_same_profile(const RunOut& want, const RunOut& got) {
  ASSERT_EQ(want.prof.num_functions(), got.prof.num_functions());
  for (uint32_t f = 0; f < want.prof.num_functions(); ++f) {
    EXPECT_TRUE(want.prof.function(f) == got.prof.function(f))
        << "profile mismatch in function " << f;
  }
}

void record_coverage(const Module& m) {
  for (uint32_t f = 0; f < m.num_functions(); ++f) {
    const Function& fn = m.function(f);
    for (uint32_t b = 0; b < fn.num_blocks(); ++b) {
      for (const Instruction& inst : fn.block(b).insts) {
        covered_ops().insert(inst.op);
      }
    }
    const PCode pc = predecode(m, f, /*fuse=*/true);
    for (const PInst& p : pc.code) {
      if (is_fused_op(p.op)) covered_fused().insert(p.op);
    }
  }
}

/// The full differential matrix for one call: switch oracle vs threaded
/// fused, threaded unfused, and the profiling instantiation (with fusion
/// requested, proving profiling forces the unfused stream).
void diff_all(const Module& m, uint32_t fn, const std::vector<Value>& args,
              uint64_t budget = uint64_t{1} << 20,
              const std::function<void(Memory&)>& setup = {}) {
  expect_verifies(m);
  record_coverage(m);
  const RunOut oracle =
      run_one(m, fn, args, DispatchKind::Switch, false, false, budget, setup);
  expect_same_exec(oracle,
                   run_one(m, fn, args, DispatchKind::Threaded, true, false,
                           budget, setup),
                   "threaded+fused");
  expect_same_exec(oracle,
                   run_one(m, fn, args, DispatchKind::Threaded, false, false,
                           budget, setup),
                   "threaded-unfused");
  const RunOut oracle_p =
      run_one(m, fn, args, DispatchKind::Switch, false, true, budget, setup);
  const RunOut threaded_p = run_one(m, fn, args, DispatchKind::Threaded, true,
                                    true, budget, setup);
  expect_same_exec(oracle_p, threaded_p, "threaded+profile");
  expect_same_profile(oracle_p, threaded_p);
}

Module single_fn_module(Function fn) {
  Module m;
  m.add_function(std::move(fn));
  return m;
}

void diff_fn(Function fn, const std::vector<Value>& args,
             uint64_t budget = uint64_t{1} << 20,
             const std::function<void(Memory&)>& setup = {}) {
  diff_all(single_fn_module(std::move(fn)), 0, args, budget, setup);
}

/// Pushes one operand of signature code `c`; `variant` varies the value
/// so binary ops see asymmetric inputs.
void emit_operand(FunctionBuilder& b, char c, int variant) {
  switch (c) {
    case 'i': b.const_i32(variant == 0 ? 41 : -7); break;
    case 'l': b.const_i64(variant == 0 ? (int64_t{1} << 40) + 9 : -5); break;
    case 'f': b.const_f32(variant == 0 ? 2.5f : -0.75f); break;
    case 'd': b.const_f64(variant == 0 ? 3.25 : -1.5); break;
    case 'v':
      b.const_i32(17 + variant * 10).op(Opcode::VSplatI8);
      break;
    default: FAIL() << "unknown operand code " << c;
  }
}

void fill_pattern(Memory& mem) {
  for (uint32_t a = 0; a < 256; ++a) {
    mem.store_u8(a, static_cast<uint8_t>(a * 37 + 1));
  }
}

// The loop used by budget-sweep and profile tests. Lowered fused it
// contains FConstI32Set, FGetGetLtSBr, FGetGetAddI32 and FIncLocalI32, so
// a budget trap can land mid-group at several distinct offsets.
//   f(n): sum = 0; for (i = 0; i < n; ++i) sum += i; return sum
Function build_sum_loop() {
  FunctionBuilder b("sum_loop", {{Type::I32}, Type::I32});
  const uint32_t i = b.add_local(Type::I32);
  const uint32_t sum = b.add_local(Type::I32);
  const uint32_t head = b.new_block();
  const uint32_t body = b.new_block();
  const uint32_t done = b.new_block();
  b.const_i32(0).set(i).const_i32(0).set(sum).jump(head);
  b.switch_to(head);
  b.get(i).get(0).op(Opcode::LtSI32).br_if(body, done);
  b.switch_to(body);
  b.get(sum).get(i).op(Opcode::AddI32).set(sum);
  b.get(i).const_i32(1).op(Opcode::AddI32).set(i);
  b.jump(head);
  b.switch_to(done);
  b.get(sum).ret();
  return b.take();
}

// --- exhaustive per-opcode sweep -----------------------------------------

TEST(DispatchDiff, EveryValueOpcode) {
  // Ops with dedicated control/local/call tests below; everything else is
  // generated from its OpInfo stack signature.
  const std::set<Opcode> dedicated = {
      Opcode::LocalGet, Opcode::LocalSet, Opcode::Jump, Opcode::BranchIf,
      Opcode::Ret,      Opcode::Trap,     Opcode::Call, Opcode::Drop,
      Opcode::Nop,
  };
  for (size_t oi = 0; oi < kNumOpcodes; ++oi) {
    const Opcode op = static_cast<Opcode>(oi);
    if (dedicated.count(op)) continue;
    const OpInfo& info = op_info(op);
    SCOPED_TRACE(info.mnemonic);
    FunctionBuilder b("t", {{}, info.push_type()});
    int variant = 0;
    for (const char c : info.pops) emit_operand(b, c, variant++);
    switch (info.imm) {
      case ImmKind::NoImm: b.op(op); break;
      case ImmKind::I64: b.emit(Instruction::with_imm(op, -123456789)); break;
      case ImmKind::F32: b.emit(Instruction::with_f32(op, -12.375f)); break;
      case ImmKind::F64: b.emit(Instruction::with_f64(op, 6.02e23)); break;
      case ImmKind::MemOff: b.emit(Instruction::with_imm(op, 4)); break;
      case ImmKind::Lane: b.lane_op(op, 1); break;
      default: FAIL() << "unexpected imm kind for " << info.mnemonic;
    }
    b.ret();
    diff_fn(b.take(), {}, uint64_t{1} << 20, fill_pattern);
  }
}

// Float edge cases: NaN payloads, signed zeros, infinities must stay
// bit-identical through both engines.
TEST(DispatchDiff, FloatEdgeCases) {
  const float f_cases[][2] = {
      {0.0f, -0.0f},
      {std::numeric_limits<float>::quiet_NaN(), 1.0f},
      {std::numeric_limits<float>::infinity(), -1.0f},
      {1.0f, 0.0f},
  };
  for (const auto& c : f_cases) {
    for (const Opcode op : {Opcode::AddF32, Opcode::DivF32, Opcode::MinF32,
                            Opcode::MaxF32, Opcode::EqF32, Opcode::LtF32}) {
      FunctionBuilder b("t", {{}, op_info(op).push_type()});
      b.const_f32(c[0]).const_f32(c[1]).op(op).ret();
      diff_fn(b.take(), {});
    }
  }
  FunctionBuilder b("t", {{}, Type::F64});
  b.const_f64(std::numeric_limits<double>::quiet_NaN())
      .const_f64(0.0)
      .op(Opcode::MaxF64)
      .ret();
  diff_fn(b.take(), {});
}

// --- locals, control, calls ----------------------------------------------

TEST(DispatchDiff, LocalsAndControl) {
  // Locals of every type, a diamond and a loop; covers LocalGet/LocalSet/
  // Jump/BranchIf/Ret/Nop/Drop.
  FunctionBuilder b("ctl", {{Type::I32}, Type::I32});
  const uint32_t l64 = b.add_local(Type::I64);
  const uint32_t acc = b.add_local(Type::I32);
  const uint32_t then_b = b.new_block();
  const uint32_t else_b = b.new_block();
  const uint32_t join = b.new_block();
  b.op(Opcode::Nop);
  b.const_i64(7).set(l64);
  b.const_i32(99).op(Opcode::Drop);
  b.get(0).br_if(then_b, else_b);
  b.switch_to(then_b);
  b.get(l64).op(Opcode::I64ToI32).set(acc).jump(join);
  b.switch_to(else_b);
  b.const_i32(-1).set(acc).jump(join);
  b.switch_to(join);
  b.get(acc).ret();
  Module m = single_fn_module(b.take());
  diff_all(m, 0, {Value::make_i32(1)});
  diff_all(m, 0, {Value::make_i32(0)});
}

TEST(DispatchDiff, VoidReturn) {
  FunctionBuilder b("v", {{}, Type::Void});
  b.const_i32(8).const_i32(5).store(Opcode::StoreI32, 0);
  b.ret();
  diff_fn(b.take(), {});
}

TEST(DispatchDiff, Calls) {
  Module m = build_call_module();
  diff_all(m, 1, {Value::make_i32(5)});
}

TEST(DispatchDiff, RecursionAndStackOverflow) {
  // f(n) = n <= 0 ? 0 : n + f(n - 1); unbounded for n < 0 via wraparound
  // guard -- used both converging and overflowing.
  FunctionBuilder b("rec", {{Type::I32}, Type::I32});
  const uint32_t base = b.new_block();
  const uint32_t rec = b.new_block();
  b.get(0).const_i32(0).op(Opcode::LeSI32).br_if(base, rec);
  b.switch_to(base);
  b.const_i32(0).ret();
  b.switch_to(rec);
  b.get(0).get(0).const_i32(-1).op(Opcode::AddI32).call(0).op(Opcode::AddI32);
  b.ret();
  Module m = single_fn_module(b.take());
  diff_all(m, 0, {Value::make_i32(10)});
  // 1000 frames deep exceeds the kMaxCallDepth (128) call stack.
  diff_all(m, 0, {Value::make_i32(1000)});
}

// --- traps ----------------------------------------------------------------

TEST(DispatchDiff, ArithmeticTraps) {
  const struct {
    Opcode op;
    int32_t a, b;
  } cases[] = {
      {Opcode::DivSI32, 1, 0},
      {Opcode::DivUI32, 1, 0},
      {Opcode::RemSI32, 1, 0},
      {Opcode::RemUI32, 1, 0},
      {Opcode::DivSI32, std::numeric_limits<int32_t>::min(), -1},
      {Opcode::RemSI32, std::numeric_limits<int32_t>::min(), -1},  // == 0
  };
  for (const auto& c : cases) {
    FunctionBuilder b("t", {{}, Type::I32});
    b.const_i32(c.a).const_i32(c.b).op(c.op).ret();
    diff_fn(b.take(), {});
  }
  FunctionBuilder b64("t64", {{}, Type::I64});
  b64.const_i64(std::numeric_limits<int64_t>::min())
      .const_i64(-1)
      .op(Opcode::DivSI64)
      .ret();
  diff_fn(b64.take(), {});
  FunctionBuilder bz("tz", {{}, Type::I64});
  bz.const_i64(5).const_i64(0).op(Opcode::DivSI64).ret();
  diff_fn(bz.take(), {});
}

TEST(DispatchDiff, MemoryTraps) {
  // In-bounds base + large offset, out-of-bounds base, and the last valid
  // byte, for a load and a store.
  const int64_t cases[][2] = {
      {(1 << 16) - 4, 0},  // last valid u32 slot
      {(1 << 16) - 3, 0},  // one past
      {0, (1 << 16)},      // offset pushes out of bounds
      {-1, 0},             // address wraps as u32: far out of bounds
  };
  for (const auto& c : cases) {
    FunctionBuilder lb("ld", {{}, Type::I32});
    lb.const_i32(static_cast<int32_t>(c[0])).load(Opcode::LoadI32, c[1]).ret();
    diff_fn(lb.take(), {}, uint64_t{1} << 20, fill_pattern);

    FunctionBuilder sb("st", {{}, Type::Void});
    sb.const_i32(static_cast<int32_t>(c[0]))
        .const_i32(-559038737)
        .store(Opcode::StoreI32, c[1]);
    sb.ret();
    diff_fn(sb.take(), {}, uint64_t{1} << 20, fill_pattern);
  }
}

TEST(DispatchDiff, ExplicitTrap) {
  FunctionBuilder b("t", {{}, Type::I32});
  b.op(Opcode::Trap);
  diff_fn(b.take(), {});
}

// --- step budgets ---------------------------------------------------------

TEST(DispatchDiff, BudgetSweepThroughFusedGroups) {
  // Every budget from 0 to past the full run: the trap lands on every
  // possible instruction, including inside each fused group, and both
  // engines must agree on trap kind and exact step count throughout.
  Module m = single_fn_module(build_sum_loop());
  expect_verifies(m);
  record_coverage(m);
  const std::vector<Value> args = {Value::make_i32(5)};
  const RunOut full = run_one(m, 0, args, DispatchKind::Switch, false, false,
                              uint64_t{1} << 20, {});
  ASSERT_TRUE(full.r.ok());
  for (uint64_t budget = 0; budget <= full.r.steps + 2; ++budget) {
    SCOPED_TRACE(budget);
    const RunOut oracle =
        run_one(m, 0, args, DispatchKind::Switch, false, false, budget, {});
    expect_same_exec(oracle,
                     run_one(m, 0, args, DispatchKind::Threaded, true, false,
                             budget, {}),
                     "threaded+fused");
    const RunOut oracle_p =
        run_one(m, 0, args, DispatchKind::Switch, false, true, budget, {});
    const RunOut threaded_p =
        run_one(m, 0, args, DispatchKind::Threaded, true, true, budget, {});
    expect_same_exec(oracle_p, threaded_p, "threaded+profile");
    expect_same_profile(oracle_p, threaded_p);
  }
}

TEST(DispatchDiff, BudgetSweepAcrossCalls) {
  Module m = build_call_module();
  expect_verifies(m);
  const std::vector<Value> args = {Value::make_i32(5)};
  const RunOut full = run_one(m, 1, args, DispatchKind::Switch, false, false,
                              uint64_t{1} << 20, {});
  ASSERT_TRUE(full.r.ok());
  for (uint64_t budget = 0; budget <= full.r.steps + 2; ++budget) {
    SCOPED_TRACE(budget);
    const RunOut oracle =
        run_one(m, 1, args, DispatchKind::Switch, false, false, budget, {});
    expect_same_exec(oracle,
                     run_one(m, 1, args, DispatchKind::Threaded, true, false,
                             budget, {}),
                     "threaded+fused");
  }
}

// --- superinstructions ----------------------------------------------------

TEST(DispatchDiff, FusedPatterns) {
  // One function per fusion-table pattern, checked differentially and for
  // actual superinstruction emission.
  struct Pattern {
    const char* name;
    std::function<Function()> build;
  };
  const auto cmp_br_fn = [](Opcode cmp) {
    return [cmp]() {
      FunctionBuilder b("cmpbr", {{Type::I32, Type::I32}, Type::I32});
      const uint32_t t = b.new_block();
      const uint32_t f = b.new_block();
      b.get(0).get(1).op(cmp).br_if(t, f);
      b.switch_to(t);
      b.const_i32(1).ret();
      b.switch_to(f);
      b.const_i32(0).ret();
      return b.take();
    };
  };
  const std::vector<Pattern> patterns = {
      {"get.get.add.i32",
       [] {
         FunctionBuilder b("p", {{Type::I32, Type::I32}, Type::I32});
         b.get(0).get(1).op(Opcode::AddI32).ret();
         return b.take();
       }},
      {"get.get.add.f32",
       [] {
         FunctionBuilder b("p", {{Type::F32, Type::F32}, Type::F32});
         b.get(0).get(1).op(Opcode::AddF32).ret();
         return b.take();
       }},
      {"get.get.mul.f32",
       [] {
         FunctionBuilder b("p", {{Type::F32, Type::F32}, Type::F32});
         b.get(0).get(1).op(Opcode::MulF32).ret();
         return b.take();
       }},
      {"get.const.add.i32",
       [] {
         FunctionBuilder b("p", {{Type::I32}, Type::I32});
         b.get(0).const_i32(100).op(Opcode::AddI32).ret();
         return b.take();
       }},
      {"inc.local.i32",
       [] {
         FunctionBuilder b("p", {{Type::I32}, Type::I32});
         b.get(0).const_i32(3).op(Opcode::AddI32).set(0);
         b.get(0).ret();
         return b.take();
       }},
      {"const.set.i32",
       [] {
         FunctionBuilder b("p", {{}, Type::I32});
         const uint32_t l = b.add_local(Type::I32);
         b.const_i32(42).set(l);
         b.get(l).ret();
         return b.take();
       }},
      {"get.set",
       [] {
         FunctionBuilder b("p", {{Type::I64}, Type::I64});
         const uint32_t l = b.add_local(Type::I64);
         b.get(0).set(l);
         b.get(l).ret();
         return b.take();
       }},
      {"get.get.lt_s.br",
       [] {
         FunctionBuilder b("p", {{Type::I32, Type::I32}, Type::I32});
         const uint32_t t = b.new_block();
         const uint32_t f = b.new_block();
         b.get(0).get(1).op(Opcode::LtSI32).br_if(t, f);
         b.switch_to(t);
         b.const_i32(7).ret();
         b.switch_to(f);
         b.const_i32(8).ret();
         return b.take();
       }},
      {"eqz.br",
       [] {
         FunctionBuilder b("p", {{Type::I32}, Type::I32});
         const uint32_t t = b.new_block();
         const uint32_t f = b.new_block();
         b.get(0).op(Opcode::EqzI32).br_if(t, f);
         b.switch_to(t);
         b.const_i32(1).ret();
         b.switch_to(f);
         b.const_i32(0).ret();
         return b.take();
       }},
      {"lt_s.i32.br",
       [] {
         // A lone LtSI32+BranchIf (operands off the stack, not two
         // LocalGets, which would fuse into FGetGetLtSBr instead).
         FunctionBuilder b("p", {{Type::I32}, Type::I32});
         const uint32_t t = b.new_block();
         const uint32_t f = b.new_block();
         b.const_i32(4).get(0).op(Opcode::LtSI32).br_if(t, f);
         b.switch_to(t);
         b.const_i32(1).ret();
         b.switch_to(f);
         b.const_i32(0).ret();
         return b.take();
       }},
      {"eq.i32.br", cmp_br_fn(Opcode::EqI32)},
      {"ne.i32.br", cmp_br_fn(Opcode::NeI32)},
      {"lt_u.i32.br", cmp_br_fn(Opcode::LtUI32)},
      {"le_s.i32.br", cmp_br_fn(Opcode::LeSI32)},
      {"gt_s.i32.br", cmp_br_fn(Opcode::GtSI32)},
      {"ge_s.i32.br", cmp_br_fn(Opcode::GeSI32)},
  };
  const std::vector<std::vector<Value>> arg_sets = {
      {Value::make_i32(3), Value::make_i32(9)},
      {Value::make_i32(-2), Value::make_i32(-2)},
      {Value::make_i32(7), Value::make_i32(-7)},
  };
  for (const Pattern& p : patterns) {
    SCOPED_TRACE(p.name);
    const Function probe = p.build();
    const size_t nparams = probe.sig().params.size();
    Module m;
    m.add_function(p.build());
    expect_verifies(m);
    const PCode pc = predecode(m, 0, /*fuse=*/true);
    EXPECT_GT(pc.fused_count, 0u) << "pattern did not fuse";
    for (const auto& args : arg_sets) {
      std::vector<Value> call_args(args.begin(), args.begin() + nparams);
      // Float patterns reinterpret the i32 seeds as typed constants.
      for (size_t i = 0; i < call_args.size(); ++i) {
        if (probe.sig().params[i] == Type::F32) {
          call_args[i] = Value::make_f32(static_cast<float>(args[i].i32) * 1.5f);
        } else if (probe.sig().params[i] == Type::I64) {
          call_args[i] = Value::make_i64(int64_t{args[i].i32} << 33);
        }
      }
      diff_all(m, 0, call_args);
    }
  }
}

TEST(DispatchDiff, FusedGroupAsBranchTarget) {
  // Blocks that begin with a fusable pair are themselves branch targets:
  // the block-offset fixups must resolve to the *fused* stream layout.
  FunctionBuilder b("p", {{Type::I32}, Type::I32});
  const uint32_t l = b.add_local(Type::I32);
  const uint32_t t = b.new_block();
  const uint32_t f = b.new_block();
  const uint32_t join = b.new_block();
  b.get(0).br_if(t, f);
  b.switch_to(t);
  b.const_i32(5).set(l);
  b.jump(join);
  b.switch_to(f);
  b.const_i32(9).set(l);
  b.jump(join);
  b.switch_to(join);
  b.get(l).ret();
  Module m = single_fn_module(b.take());
  diff_all(m, 0, {Value::make_i32(1)});
  diff_all(m, 0, {Value::make_i32(0)});
}

// --- pre-decoder unit checks ---------------------------------------------

TEST(Predecode, StepAccountingPreserved) {
  // Fused or not, the stream stands for the same number of original
  // instructions.
  Module m = single_fn_module(build_sum_loop());
  size_t original = 0;
  const Function& fn = m.function(0);
  for (uint32_t bi = 0; bi < fn.num_blocks(); ++bi) {
    original += fn.block(bi).insts.size();
  }
  for (const bool fuse : {false, true}) {
    const PCode pc = predecode(m, 0, fuse);
    size_t charged = 0;
    for (const PInst& p : pc.code) charged += p.steps;
    EXPECT_EQ(charged, original);
    if (fuse) {
      EXPECT_GT(pc.fused_count, 0u);
      EXPECT_LT(pc.code.size(), original);
    } else {
      EXPECT_EQ(pc.code.size(), original);
      EXPECT_EQ(pc.fused_count, 0u);
    }
  }
}

TEST(Predecode, CacheSharesAndResets) {
  Module m = single_fn_module(build_sum_loop());
  PredecodeCache cache;
  const auto a = cache.get(m, 0, true);
  const auto b = cache.get(m, 0, true);
  EXPECT_EQ(a.get(), b.get());  // built once
  EXPECT_EQ(cache.size(), 1u);
  const auto u = cache.get(m, 0, false);
  EXPECT_NE(a.get(), u.get());  // fused and unfused variants are distinct
  EXPECT_EQ(cache.size(), 2u);

  // A different module resets the slots; old streams stay alive through
  // the shared_ptrs already handed out.
  Module other = single_fn_module(build_sum_loop());
  const auto c = cache.get(other, 0, true);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(a->code.size(), 0u);
}

// --- coverage gates (run last: gtest executes in declaration order) ------

TEST(DispatchDiff, ZZCoverageAllOpcodes) {
  std::vector<std::string_view> missing;
  for (size_t oi = 0; oi < kNumOpcodes; ++oi) {
    const Opcode op = static_cast<Opcode>(oi);
    if (!covered_ops().count(op)) missing.push_back(op_mnemonic(op));
  }
  EXPECT_TRUE(missing.empty()) << [&] {
    std::string s = "uncovered opcodes:";
    for (const auto& m : missing) {
      s += ' ';
      s += m;
    }
    return s;
  }();
}

TEST(DispatchDiff, ZZCoverageAllFusedOps) {
  std::vector<std::string_view> missing;
  for (size_t oi = kNumOpcodes; oi < kNumPOps; ++oi) {
    const POp op = static_cast<POp>(oi);
    if (!covered_fused().count(op)) missing.push_back(pop_mnemonic(op));
  }
  EXPECT_TRUE(missing.empty()) << [&] {
    std::string s = "unemitted superinstructions:";
    for (const auto& m : missing) {
      s += ' ';
      s += m;
    }
    return s;
  }();
}

}  // namespace
}  // namespace svc
