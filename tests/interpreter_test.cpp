#include <gtest/gtest.h>

#include "test_util.h"

namespace svc {
namespace {

using ::svc::testing::build_call_module;
using ::svc::testing::build_scalar_saxpy;
using ::svc::testing::build_vector_dot_f32;
using ::svc::testing::build_vector_max_u8;

/// Runs a single-function module returning the result.
ExecResult run_fn(Function fn, const std::vector<Value>& args,
                  Memory* mem = nullptr) {
  Module m;
  m.add_function(std::move(fn));
  svc::testing::expect_verifies(m);
  Memory local(1 << 16);
  Interpreter interp(m, mem ? *mem : local);
  return interp.run(0u, args);
}

/// Expression evaluator helper: builds fn() -> type running `body`.
template <typename BodyFn>
ExecResult eval(Type ret, BodyFn&& body) {
  FunctionBuilder b("expr", {{}, ret});
  body(b);
  b.ret();
  return run_fn(b.take(), {});
}

TEST(Interp, IntegerArithmetic) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(7).const_i32(5).op(Opcode::MulI32);  // 35
    b.const_i32(3).op(Opcode::SubI32);               // 32
    b.const_i32(6).op(Opcode::DivSI32);              // 5
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, 5);
}

TEST(Interp, UnsignedOps) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(-1).const_i32(16).op(Opcode::ShrUI32);
  });
  EXPECT_EQ(r.value->i32, 0xffff);

  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(-1).const_i32(1).op(Opcode::LtUI32);  // 0xffffffff < 1 ? no
  });
  EXPECT_EQ(r.value->i32, 0);

  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(-1).const_i32(1).op(Opcode::MaxUI32);
  });
  EXPECT_EQ(r.value->i32, -1);
}

TEST(Interp, WrappingOverflow) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(INT32_MAX).const_i32(1).op(Opcode::AddI32);
  });
  EXPECT_EQ(r.value->i32, INT32_MIN);
}

TEST(Interp, DivideByZeroTraps) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(1).const_i32(0).op(Opcode::DivSI32);
  });
  EXPECT_EQ(r.trap, TrapKind::DivideByZero);

  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(1).const_i32(0).op(Opcode::RemUI32);
  });
  EXPECT_EQ(r.trap, TrapKind::DivideByZero);
}

TEST(Interp, DivisionOverflowTraps) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(INT32_MIN).const_i32(-1).op(Opcode::DivSI32);
  });
  EXPECT_EQ(r.trap, TrapKind::IntegerOverflow);
  // rem INT_MIN % -1 is defined as 0, not a trap.
  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(INT32_MIN).const_i32(-1).op(Opcode::RemSI32);
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, 0);
}

TEST(Interp, FloatArithmetic) {
  auto r = eval(Type::F32, [](FunctionBuilder& b) {
    b.const_f32(1.5f).const_f32(2.25f).op(Opcode::MulF32);
    b.const_f32(0.625f).op(Opcode::AddF32);
  });
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value->f32, 1.5f * 2.25f + 0.625f);
}

TEST(Interp, F64Precision) {
  auto r = eval(Type::F64, [](FunctionBuilder& b) {
    b.const_f64(1e300).const_f64(1e-300).op(Opcode::MulF64);
  });
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value->f64, 1.0);
}

TEST(Interp, Conversions) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_f32(-3.75f).op(Opcode::F32ToI32S);
  });
  EXPECT_EQ(r.value->i32, -3);  // trunc toward zero

  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i64(0x1'0000'0005).op(Opcode::I64ToI32);
  });
  EXPECT_EQ(r.value->i32, 5);
}

TEST(Interp, Select) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(111).const_i32(222).const_i32(1).op(Opcode::SelectI32);
  });
  EXPECT_EQ(r.value->i32, 111);
  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(111).const_i32(222).const_i32(0).op(Opcode::SelectI32);
  });
  EXPECT_EQ(r.value->i32, 222);
}

TEST(Interp, MemoryRoundtripAndSignExtension) {
  FunctionBuilder b("mem", {{}, Type::I32});
  b.const_i32(100).const_i32(-2).store(Opcode::StoreI8);
  b.const_i32(100).load(Opcode::LoadI8S);  // -2
  b.const_i32(100).load(Opcode::LoadI8U);  // 254
  b.op(Opcode::AddI32);                    // 252
  b.ret();
  auto r = run_fn(b.take(), {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, 252);
}

TEST(Interp, OutOfBoundsLoadTraps) {
  FunctionBuilder b("oob", {{}, Type::I32});
  b.const_i32(1 << 20).load(Opcode::LoadI32).ret();
  auto r = run_fn(b.take(), {});
  EXPECT_EQ(r.trap, TrapKind::OutOfBoundsMemory);
}

TEST(Interp, OutOfBoundsVectorStoreTraps) {
  FunctionBuilder b("oobv", {{}, Type::Void});
  b.const_i32((1 << 16) - 8).op(Opcode::VZero).store(Opcode::StoreV128).ret();
  auto r = run_fn(b.take(), {});
  EXPECT_EQ(r.trap, TrapKind::OutOfBoundsMemory);
}

TEST(Interp, LoopSum) {
  // sum 1..n
  FunctionBuilder b("sum", {{Type::I32}, Type::I32});
  const uint32_t n = 0;
  const uint32_t i = b.add_local(Type::I32);
  const uint32_t acc = b.add_local(Type::I32);
  const uint32_t head = b.new_block(), body = b.new_block(),
                 done = b.new_block();
  b.const_i32(1).set(i).const_i32(0).set(acc).jump(head);
  b.switch_to(head);
  b.get(i).get(n).op(Opcode::LeSI32).br_if(body, done);
  b.switch_to(body);
  b.get(acc).get(i).op(Opcode::AddI32).set(acc);
  b.get(i).const_i32(1).op(Opcode::AddI32).set(i).jump(head);
  b.switch_to(done);
  b.get(acc).ret();

  auto r = run_fn(b.take(), {Value::make_i32(100)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, 5050);
}

TEST(Interp, SaxpyMatchesHostComputation) {
  Module m;
  m.add_function(build_scalar_saxpy());
  Memory mem(1 << 16);
  const uint32_t x = 256, y = 1024, n = 33;
  for (uint32_t k = 0; k < n; ++k) {
    mem.write_f32(x + 4 * k, 0.5f * static_cast<float>(k));
    mem.write_f32(y + 4 * k, 2.0f + static_cast<float>(k));
  }
  Interpreter interp(m, mem);
  auto r = interp.run("saxpy",
                      {Value::make_f32(3.0f), Value::make_i32(x),
                       Value::make_i32(y), Value::make_i32(n)});
  ASSERT_TRUE(r.ok());
  for (uint32_t k = 0; k < n; ++k) {
    const float expect =
        3.0f * (0.5f * static_cast<float>(k)) + (2.0f + static_cast<float>(k));
    EXPECT_FLOAT_EQ(mem.read_f32(y + 4 * k), expect) << k;
  }
}

TEST(Interp, VectorLaneSemantics) {
  // splat(200) + splat(100) wraps per u8 lane: (200+100) & 0xff = 44.
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(200).op(Opcode::VSplatI8);
    b.const_i32(100).op(Opcode::VSplatI8);
    b.op(Opcode::VAddI8).lane_op(Opcode::VExtractU8, 7);
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, 44);
}

TEST(Interp, VectorReductions) {
  auto r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(3).op(Opcode::VSplatI8).op(Opcode::VRSumU8);  // 16*3
  });
  EXPECT_EQ(r.value->i32, 48);

  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.const_i32(1000).op(Opcode::VSplatI16).op(Opcode::VRSumU16);  // 8*1000
  });
  EXPECT_EQ(r.value->i32, 8000);

  r = eval(Type::I32, [](FunctionBuilder& b) {
    b.op(Opcode::VZero).const_i32(99).lane_op(Opcode::VInsertI8, 11);
    b.op(Opcode::VRMaxU8);
  });
  EXPECT_EQ(r.value->i32, 99);
}

TEST(Interp, VectorF32Ops) {
  auto r = eval(Type::F32, [](FunctionBuilder& b) {
    b.const_f32(1.5f).op(Opcode::VSplatF32);
    b.const_f32(2.0f).op(Opcode::VSplatF32);
    b.op(Opcode::VMulF32).op(Opcode::VRSumF32);  // 4 * 3.0
  });
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value->f32, 12.0f);
}

TEST(Interp, VectorKernels) {
  Module m;
  m.add_function(build_vector_max_u8());
  Memory mem(1 << 16);
  Rng rng(123);
  const uint32_t p = 512, nv = 9;
  uint8_t expect = 0;
  for (uint32_t k = 0; k < nv * 16; ++k) {
    const auto v = static_cast<uint8_t>(rng.next_u32() & 0xff);
    mem.store_u8(p + k, v);
    expect = std::max(expect, v);
  }
  Interpreter interp(m, mem);
  auto r = interp.run("vmax_u8", {Value::make_i32(p), Value::make_i32(nv)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, expect);
}

TEST(Interp, DotKernelMatchesHost) {
  Module m;
  m.add_function(build_vector_dot_f32());
  Memory mem(1 << 16);
  const uint32_t x = 256, y = 2048, nv = 5;
  float expect = 0.0f;
  for (uint32_t k = 0; k < nv * 4; ++k) {
    const float a = 0.25f * static_cast<float>(k + 1);
    const float b = 1.0f / static_cast<float>(k + 1);
    mem.write_f32(x + 4 * k, a);
    mem.write_f32(y + 4 * k, b);
  }
  // Mirror the defined pairwise reduction order.
  for (uint32_t v = 0; v < nv; ++v) {
    float l[4];
    for (int j = 0; j < 4; ++j) {
      l[j] = mem.read_f32(x + 16 * v + 4 * j) * mem.read_f32(y + 16 * v + 4 * j);
    }
    expect += (l[0] + l[1]) + (l[2] + l[3]);
  }
  Interpreter interp(m, mem);
  auto r = interp.run("vdot_f32", {Value::make_i32(x), Value::make_i32(y),
                                   Value::make_i32(nv)});
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value->f32, expect);
}

TEST(Interp, Calls) {
  Module m = build_call_module();
  Memory mem(1 << 12);
  Interpreter interp(m, mem);
  auto r = interp.run("combine", {Value::make_i32(1)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->i32, 10);  // (1+2) + (3+4)
}

TEST(Interp, RecursionDepthLimit) {
  Module m;
  {
    FunctionBuilder b("inf", {{}, Type::Void});
    b.call(0).ret();
    m.add_function(b.take());
  }
  Memory mem(1 << 12);
  Interpreter interp(m, mem);
  auto r = interp.run("inf", {});
  EXPECT_EQ(r.trap, TrapKind::CallStackOverflow);
}

TEST(Interp, StepBudget) {
  FunctionBuilder b("spin", {{}, Type::Void});
  b.jump(0);
  Module m;
  m.add_function(b.take());
  Memory mem(1 << 12);
  Interpreter interp(m, mem);
  interp.set_step_budget(1000);
  auto r = interp.run("spin", {});
  EXPECT_EQ(r.trap, TrapKind::StepBudgetExceeded);
}

TEST(Interp, ExplicitTrap) {
  FunctionBuilder b("t", {{}, Type::Void});
  b.op(Opcode::Trap);
  Module m;
  m.add_function(b.take());
  Memory mem(1 << 12);
  Interpreter interp(m, mem);
  EXPECT_EQ(interp.run("t", {}).trap, TrapKind::ExplicitTrap);
}

}  // namespace
}  // namespace svc
