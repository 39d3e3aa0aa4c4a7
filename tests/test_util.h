// Shared helpers for the test suite: hand-built bytecode kernels (used
// before/alongside the MiniC frontend) and a differential-execution
// harness comparing the reference interpreter against every JIT target
// and allocation policy.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "bytecode/builder.h"
#include "bytecode/verifier.h"
#include "jit/jit_compiler.h"
#include "support/result.h"
#include "support/rng.h"
#include "targets/simulator.h"
#include "targets/target_registry.h"
#include "vm/interpreter.h"

namespace svc::testing {

/// Unwraps a Result<T>, aborting with its diagnostics on failure: the
/// one-line bridge between the Result-based API and tests feeding
/// known-good input, e.g. `value_or_die(compile_module(src))`.
template <typename T>
[[nodiscard]] T value_or_die(Result<T> result) {
  if (!result.ok()) fatal("value_or_die:\n" + result.error_text());
  return std::move(result).value();
}

inline void value_or_die(Result<void> result) {
  if (!result.ok()) fatal("value_or_die:\n" + result.error_text());
}

/// Loads `module` into an OnlineTarget / Soc with borrowed lifetime (the
/// test keeps the module alive), aborting on error.
template <typename Runtime>
void load_or_die(Runtime& runtime, const Module& module) {
  value_or_die(runtime.load_module(borrow_module(module)));
}

/// Scalar saxpy: y[i] = a * x[i] + y[i] over f32 arrays (i32 addresses).
/// Params: a(f32), x(ptr), y(ptr), n(i32).
inline Function build_scalar_saxpy() {
  FunctionBuilder b("saxpy",
                    {{Type::F32, Type::I32, Type::I32, Type::I32}, Type::Void});
  const uint32_t a = 0, x = 1, y = 2, n = 3;
  const uint32_t i = b.add_local(Type::I32);
  const uint32_t addr_y = b.add_local(Type::I32);

  const uint32_t head = b.new_block();
  const uint32_t body = b.new_block();
  const uint32_t done = b.new_block();

  b.const_i32(0).set(i).jump(head);

  b.switch_to(head);
  b.get(i).get(n).op(Opcode::LtSI32).br_if(body, done);

  b.switch_to(body);
  // addr_y = y + 4*i
  b.get(y).get(i).const_i32(4).op(Opcode::MulI32).op(Opcode::AddI32)
      .set(addr_y);
  // *addr_y = a * x[4*i] + *addr_y
  b.get(addr_y);
  b.get(a);
  b.get(x).get(i).const_i32(4).op(Opcode::MulI32).op(Opcode::AddI32)
      .load(Opcode::LoadF32);
  b.op(Opcode::MulF32);
  b.get(addr_y).load(Opcode::LoadF32);
  b.op(Opcode::AddF32);
  b.store(Opcode::StoreF32);
  b.get(i).const_i32(1).op(Opcode::AddI32).set(i).jump(head);

  b.switch_to(done);
  b.ret();
  return b.take();
}

/// Vectorized u8 max reduction using the portable builtins, with a v128
/// accumulator local (exercises de-vectorization of lane-written locals).
/// Params: p(ptr), nv(i32 = number of 16-byte vectors). Returns i32 max.
inline Function build_vector_max_u8() {
  FunctionBuilder b("vmax_u8", {{Type::I32, Type::I32}, Type::I32});
  const uint32_t p = 0, nv = 1;
  const uint32_t vm = b.add_local(Type::V128);
  const uint32_t i = b.add_local(Type::I32);

  const uint32_t head = b.new_block();
  const uint32_t body = b.new_block();
  const uint32_t done = b.new_block();

  b.op(Opcode::VZero).set(vm).const_i32(0).set(i).jump(head);

  b.switch_to(head);
  b.get(i).get(nv).op(Opcode::LtSI32).br_if(body, done);

  b.switch_to(body);
  b.get(vm);
  b.get(p).get(i).const_i32(16).op(Opcode::MulI32).op(Opcode::AddI32)
      .load(Opcode::LoadV128);
  b.op(Opcode::VMaxU8).set(vm);
  b.get(i).const_i32(1).op(Opcode::AddI32).set(i).jump(head);

  b.switch_to(done);
  b.get(vm).op(Opcode::VRMaxU8).ret();
  return b.take();
}

/// Vectorized f32 dot-product-ish kernel: sum += rsum(x[v] * y[v]).
/// Params: x(ptr), y(ptr), nv(i32 vectors). Returns f32.
inline Function build_vector_dot_f32() {
  FunctionBuilder b("vdot_f32", {{Type::I32, Type::I32, Type::I32}, Type::F32});
  const uint32_t x = 0, y = 1, nv = 2;
  const uint32_t acc = b.add_local(Type::F32);
  const uint32_t i = b.add_local(Type::I32);

  const uint32_t head = b.new_block();
  const uint32_t body = b.new_block();
  const uint32_t done = b.new_block();

  b.const_f32(0.0f).set(acc).const_i32(0).set(i).jump(head);

  b.switch_to(head);
  b.get(i).get(nv).op(Opcode::LtSI32).br_if(body, done);

  b.switch_to(body);
  b.get(acc);
  b.get(x).get(i).const_i32(16).op(Opcode::MulI32).op(Opcode::AddI32)
      .load(Opcode::LoadV128);
  b.get(y).get(i).const_i32(16).op(Opcode::MulI32).op(Opcode::AddI32)
      .load(Opcode::LoadV128);
  b.op(Opcode::VMulF32).op(Opcode::VRSumF32).op(Opcode::AddF32).set(acc);
  b.get(i).const_i32(1).op(Opcode::AddI32).set(i).jump(head);

  b.switch_to(done);
  b.get(acc).ret();
  return b.take();
}

/// High register pressure: loads p[0..15] (i32 each) into 16 locals, then
/// sums them in reverse. Forces spills on register-starved targets.
inline Function build_high_pressure() {
  FunctionBuilder b("pressure16", {{Type::I32}, Type::I32});
  const uint32_t p = 0;
  std::vector<uint32_t> locals;
  for (int k = 0; k < 16; ++k) locals.push_back(b.add_local(Type::I32));
  for (int k = 0; k < 16; ++k) {
    b.get(p).load(Opcode::LoadI32, 4 * k).set(locals[k]);
  }
  b.get(locals[15]);
  for (int k = 14; k >= 0; --k) {
    b.get(locals[k]).op(Opcode::AddI32);
  }
  b.ret();
  return b.take();
}

/// Branchy scalar max over bytes (data-dependent branch).
inline Function build_branchy_max_u8() {
  FunctionBuilder b("smax_u8", {{Type::I32, Type::I32}, Type::I32});
  const uint32_t p = 0, n = 1;
  const uint32_t m = b.add_local(Type::I32);
  const uint32_t i = b.add_local(Type::I32);
  const uint32_t v = b.add_local(Type::I32);

  const uint32_t head = b.new_block();
  const uint32_t body = b.new_block();
  const uint32_t update = b.new_block();
  const uint32_t next = b.new_block();
  const uint32_t done = b.new_block();

  b.const_i32(0).set(m).const_i32(0).set(i).jump(head);

  b.switch_to(head);
  b.get(i).get(n).op(Opcode::LtSI32).br_if(body, done);

  b.switch_to(body);
  b.get(p).get(i).op(Opcode::AddI32).load(Opcode::LoadI8U).set(v);
  b.get(v).get(m).op(Opcode::GtSI32).br_if(update, next);

  b.switch_to(update);
  b.get(v).set(m).jump(next);

  b.switch_to(next);
  b.get(i).const_i32(1).op(Opcode::AddI32).set(i).jump(head);

  b.switch_to(done);
  b.get(m).ret();
  return b.take();
}

/// add(a, b) callee plus a caller combining nested calls.
inline Module build_call_module() {
  Module m;
  {
    FunctionBuilder b("add2", {{Type::I32, Type::I32}, Type::I32});
    b.get(0).get(1).op(Opcode::AddI32).ret();
    m.add_function(b.take());
  }
  {
    FunctionBuilder b("combine", {{Type::I32}, Type::I32});
    b.get(0).const_i32(2).call(0);
    b.const_i32(3).const_i32(4).call(0);
    b.call(0).ret();
    m.add_function(b.take());
  }
  return m;
}

/// Verifies `module`, failing the test with diagnostics on error.
inline void expect_verifies(const Module& module) {
  DiagnosticEngine diags;
  ASSERT_TRUE(verify_module(module, diags)) << diags.dump();
}

/// Runs `fn` in the interpreter and on every target under `policy`,
/// expecting identical return values and identical memory contents.
/// `setup` initializes a fresh Memory per execution.
inline void run_differential(
    const Module& module, std::string_view fn_name,
    const std::vector<Value>& args,
    const std::function<void(Memory&)>& setup,
    AllocPolicy policy = AllocPolicy::LinearScan) {
  expect_verifies(module);
  const auto fn_idx = module.find_function(fn_name);
  ASSERT_TRUE(fn_idx.has_value());

  Memory ref_mem(1 << 20);
  setup(ref_mem);
  Interpreter interp(module, ref_mem);
  const ExecResult ref = interp.run(*fn_idx, args);
  ASSERT_TRUE(ref.ok()) << ref.trap_message();

  for (TargetKind kind : all_targets()) {
    const MachineDesc& desc = target_desc(kind);
    JitCompiler jit(desc, {policy, true});
    const CodeImage code = jit.compile_module(module);

    Memory mem(1 << 20);
    setup(mem);
    Simulator sim(desc, code, mem);
    const SimResult got = sim.run(*fn_idx, args);
    ASSERT_TRUE(got.ok()) << desc.name << ": trap";
    if (ref.value.has_value() && ref.value->type != Type::Void) {
      EXPECT_EQ(*ref.value, got.value)
          << desc.name << " (" << alloc_policy_name(policy) << "): returned "
          << got.value.str() << " expected " << ref.value->str();
    }
    EXPECT_TRUE(std::equal(ref_mem.bytes().begin(), ref_mem.bytes().end(),
                           mem.bytes().begin()))
        << desc.name << ": memory state diverged";
  }
}

}  // namespace svc::testing
