// The threaded-dispatch tier-0 engine: a computed-goto loop (GCC/Clang
// &&label tables) over pre-decoded code streams (vm/predecode.h).
//
// Semantics are defined by the switch engine in vm/interpreter.cpp; this
// file is an execution strategy, not a second implementation of meaning.
// Every opcode body below mirrors its FrameExecutor::step() case
// bit-for-bit (float behavior included), traps are identical, the step
// budget is charged per *original* instruction (fused ops carry their
// expansion length in PInst::steps), and the profiling instantiation
// records exactly the oracle's event stream. tests/dispatch_test.cpp
// differential-tests all of this per opcode and per fused pattern.
//
// Layout of one frame: a single contiguous Value buffer of
// num_locals + max_stack slots; locals at the bottom, the operand stack
// growing upward through a raw Value* -- no per-push bookkeeping. The
// dispatch macro threads control directly from one opcode body to the
// next without returning to a central loop, so a correctly-predicted
// indirect branch per instruction replaces the oracle's
// switch-plus-outcome-decode round trip.
//
// Two instantiations of the loop exist (template <bool kProfile>): the
// profiling variant runs the *unfused* stream and mirrors every
// ProfileData hook; the plain variant carries zero profiling code -- not
// even a null check -- so tier-0 steady state pays nothing for the
// collector machinery.

#include <cmath>
#include <limits>
#include <vector>

#include "support/diagnostics.h"
#include "vm/interpreter.h"

// CMake option SVC_THREADED_DISPATCH (default ON) defines this to 0/1;
// standalone builds of the file default to on. The engine additionally
// needs the GNU labels-as-values extension, so MSVC and friends fall
// back to the switch engine even when configured ON.
#ifndef SVC_THREADED_DISPATCH
#define SVC_THREADED_DISPATCH 1
#endif

#if SVC_THREADED_DISPATCH && (defined(__GNUC__) || defined(__clang__))
#define SVC_HAS_THREADED_DISPATCH 1
#else
#define SVC_HAS_THREADED_DISPATCH 0
#endif

namespace svc {

bool Interpreter::threaded_available() {
  return SVC_HAS_THREADED_DISPATCH != 0;
}

#if !SVC_HAS_THREADED_DISPATCH

// Portable fallback: Threaded requests run on the reference switch.
ExecResult Interpreter::run_threaded(uint32_t func_idx,
                                     const std::vector<Value>& args) {
  return run_switch(func_idx, args);
}

#else  // SVC_HAS_THREADED_DISPATCH

struct ThreadedEngine {
  Interpreter& I;
  PredecodeCache& cache;
  bool fuse;

  struct FrameRes {
    Value ret;
    TrapKind trap = TrapKind::None;
  };

  template <bool kProfile>
  FrameRes exec(uint32_t fn_idx, const Value* args, size_t nargs);
};

template <bool kProfile>
ThreadedEngine::FrameRes ThreadedEngine::exec(uint32_t fn_idx,
                                              const Value* args,
                                              size_t nargs) {
  // The profiling loop always runs the unfused stream: profiles are
  // recorded per original opcode, and POp's unfused prefix is
  // numerically identical to Opcode, so record_op casts directly.
  const std::shared_ptr<const PCode> pcode =
      cache.get(I.module_, fn_idx, fuse && !kProfile);
  const PCode& pc = *pcode;

  std::vector<Value> frame(pc.num_locals + pc.max_stack);
  Value* const locals = frame.data();
  std::copy(pc.locals_init.begin(), pc.locals_init.end(), locals);
  for (size_t i = 0; i < nargs && i < pc.num_locals; ++i) locals[i] = args[i];
  Value* sp = locals + pc.num_locals;

  Memory& mem = I.memory_;
  const PInst* const code = pc.code.data();
  const PInst* ip = code;
  uint64_t steps = I.steps_used_;
  const uint64_t budget = I.step_budget_;
  TrapKind trap = TrapKind::None;

  // Loop-trip bookkeeping, mirroring FrameExecutor: a transfer to an
  // earlier-or-equal block is a back edge; a forward entry into a block
  // with a pending run completes that loop execution.
  [[maybe_unused]] uint32_t cur_block = 0;
  [[maybe_unused]] std::vector<uint64_t> trip_runs;
  if constexpr (kProfile) {
    I.profile_->record_call(fn_idx);
    trip_runs.assign(pc.block_offsets.size(), 0);
  }
  const auto flush_trips = [&] {
    if constexpr (kProfile) {
      for (uint32_t h = 0; h < trip_runs.size(); ++h) {
        if (trip_runs[h] > 0) {
          I.profile_->record_loop_run(fn_idx, h, trip_runs[h] + 1);
          trip_runs[h] = 0;
        }
      }
    }
  };
  [[maybe_unused]] const auto transfer = [&](uint32_t from, uint32_t to) {
    if constexpr (kProfile) {
      if (to <= from) {
        ++trip_runs[to];
      } else if (trip_runs[to] > 0) {
        I.profile_->record_loop_run(fn_idx, to, trip_runs[to] + 1);
        trip_runs[to] = 0;
      }
      cur_block = to;
    }
  };

  // One entry per POp, in .def order; a missing label is a compile
  // error here, so the table enforces full opcode coverage.
  static const void* const kLabels[] = {
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  &&L_##Name,
#include "bytecode/opcodes.def"
#undef SVC_OP
#define SVC_FUSED_OP(Name, mnemonic, steps) &&L_##Name,
#include "vm/fused_ops.def"
#undef SVC_FUSED_OP
  };
  static_assert(std::size(kLabels) == kNumPOps);

// Budget first, then the profile hook, then the opcode body -- the
// oracle's exact per-instruction order.
#define DISPATCH()                                                   \
  do {                                                               \
    steps += ip->steps;                                              \
    if (steps > budget) goto budget_trap;                            \
    if constexpr (kProfile) {                                        \
      I.profile_->record_op(fn_idx, static_cast<Opcode>(ip->op));    \
    }                                                                \
    goto* kLabels[static_cast<size_t>(ip->op)];                      \
  } while (0)
#define NEXT() \
  do {         \
    ++ip;      \
    DISPATCH(); \
  } while (0)
#define PUSH(v) (*sp++ = (v))
#define POP() (*--sp)
#define PUSH_I32(v) (*sp++ = Value::make_i32(v))
#define PUSH_F32(v) (*sp++ = Value::make_f32(v))
#define TRAP(kind)              \
  do {                          \
    trap = TrapKind::kind;      \
    goto trapped;               \
  } while (0)

  DISPATCH();

  // --- constants / locals -----------------------------------------------
L_ConstI32:
  PUSH_I32(static_cast<int32_t>(ip->imm));
  NEXT();
L_ConstI64:
  PUSH(Value::make_i64(ip->imm));
  NEXT();
L_ConstF32:
  PUSH_F32(std::bit_cast<float>(static_cast<uint32_t>(ip->imm)));
  NEXT();
L_ConstF64:
  PUSH(Value::make_f64(std::bit_cast<double>(static_cast<uint64_t>(ip->imm))));
  NEXT();
L_LocalGet:
  PUSH(locals[ip->a]);
  NEXT();
L_LocalSet:
  locals[ip->a] = POP();
  NEXT();

  // --- i32 arithmetic ---------------------------------------------------
L_AddI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(static_cast<int32_t>(static_cast<uint32_t>(a) +
                                static_cast<uint32_t>(b)));
}
  NEXT();
L_SubI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(static_cast<int32_t>(static_cast<uint32_t>(a) -
                                static_cast<uint32_t>(b)));
}
  NEXT();
L_MulI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(static_cast<int32_t>(static_cast<uint32_t>(a) *
                                static_cast<uint32_t>(b)));
}
  NEXT();
L_DivSI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  if (b == 0) TRAP(DivideByZero);
  if (a == std::numeric_limits<int32_t>::min() && b == -1) {
    TRAP(IntegerOverflow);
  }
  PUSH_I32(a / b);
}
  NEXT();
L_DivUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  const auto a = static_cast<uint32_t>(POP().i32);
  if (b == 0) TRAP(DivideByZero);
  PUSH_I32(static_cast<int32_t>(a / b));
}
  NEXT();
L_RemSI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  if (b == 0) TRAP(DivideByZero);
  if (a == std::numeric_limits<int32_t>::min() && b == -1) {
    PUSH_I32(0);
  } else {
    PUSH_I32(a % b);
  }
}
  NEXT();
L_RemUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  const auto a = static_cast<uint32_t>(POP().i32);
  if (b == 0) TRAP(DivideByZero);
  PUSH_I32(static_cast<int32_t>(a % b));
}
  NEXT();
L_AndI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 & b);
}
  NEXT();
L_OrI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 | b);
}
  NEXT();
L_XorI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 ^ b);
}
  NEXT();
L_ShlI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(static_cast<int32_t>(static_cast<uint32_t>(a) << (b & 31)));
}
  NEXT();
L_ShrSI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(a >> (b & 31));
}
  NEXT();
L_ShrUI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(static_cast<int32_t>(static_cast<uint32_t>(a) >> (b & 31)));
}
  NEXT();
L_MinSI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(a < b ? a : b);
}
  NEXT();
L_MaxSI32: {
  const int32_t b = POP().i32;
  const int32_t a = POP().i32;
  PUSH_I32(a > b ? a : b);
}
  NEXT();
L_MinUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  const auto a = static_cast<uint32_t>(POP().i32);
  PUSH_I32(static_cast<int32_t>(a < b ? a : b));
}
  NEXT();
L_MaxUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  const auto a = static_cast<uint32_t>(POP().i32);
  PUSH_I32(static_cast<int32_t>(a > b ? a : b));
}
  NEXT();
L_EqzI32:
  PUSH_I32(POP().i32 == 0 ? 1 : 0);
  NEXT();

  // --- i32 comparisons --------------------------------------------------
L_EqI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 == b);
}
  NEXT();
L_NeI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 != b);
}
  NEXT();
L_LtSI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 < b);
}
  NEXT();
L_LtUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  PUSH_I32(static_cast<uint32_t>(POP().i32) < b);
}
  NEXT();
L_LeSI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 <= b);
}
  NEXT();
L_LeUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  PUSH_I32(static_cast<uint32_t>(POP().i32) <= b);
}
  NEXT();
L_GtSI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 > b);
}
  NEXT();
L_GtUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  PUSH_I32(static_cast<uint32_t>(POP().i32) > b);
}
  NEXT();
L_GeSI32: {
  const int32_t b = POP().i32;
  PUSH_I32(POP().i32 >= b);
}
  NEXT();
L_GeUI32: {
  const auto b = static_cast<uint32_t>(POP().i32);
  PUSH_I32(static_cast<uint32_t>(POP().i32) >= b);
}
  NEXT();

  // --- i64 --------------------------------------------------------------
L_AddI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  PUSH(Value::make_i64(static_cast<int64_t>(static_cast<uint64_t>(a) +
                                            static_cast<uint64_t>(b))));
}
  NEXT();
L_SubI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  PUSH(Value::make_i64(static_cast<int64_t>(static_cast<uint64_t>(a) -
                                            static_cast<uint64_t>(b))));
}
  NEXT();
L_MulI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  PUSH(Value::make_i64(static_cast<int64_t>(static_cast<uint64_t>(a) *
                                            static_cast<uint64_t>(b))));
}
  NEXT();
L_DivSI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  if (b == 0) TRAP(DivideByZero);
  if (a == std::numeric_limits<int64_t>::min() && b == -1) {
    TRAP(IntegerOverflow);
  }
  PUSH(Value::make_i64(a / b));
}
  NEXT();
L_AndI64: {
  const int64_t b = POP().i64;
  PUSH(Value::make_i64(POP().i64 & b));
}
  NEXT();
L_OrI64: {
  const int64_t b = POP().i64;
  PUSH(Value::make_i64(POP().i64 | b));
}
  NEXT();
L_XorI64: {
  const int64_t b = POP().i64;
  PUSH(Value::make_i64(POP().i64 ^ b));
}
  NEXT();
L_ShlI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  PUSH(Value::make_i64(
      static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 63))));
}
  NEXT();
L_ShrSI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  PUSH(Value::make_i64(a >> (b & 63)));
}
  NEXT();
L_ShrUI64: {
  const int64_t b = POP().i64;
  const int64_t a = POP().i64;
  PUSH(Value::make_i64(
      static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63))));
}
  NEXT();
L_EqI64: {
  const int64_t b = POP().i64;
  PUSH_I32(POP().i64 == b);
}
  NEXT();
L_NeI64: {
  const int64_t b = POP().i64;
  PUSH_I32(POP().i64 != b);
}
  NEXT();
L_LtSI64: {
  const int64_t b = POP().i64;
  PUSH_I32(POP().i64 < b);
}
  NEXT();
L_GtSI64: {
  const int64_t b = POP().i64;
  PUSH_I32(POP().i64 > b);
}
  NEXT();

  // --- f32 --------------------------------------------------------------
L_AddF32: {
  const float b = POP().f32;
  PUSH_F32(POP().f32 + b);
}
  NEXT();
L_SubF32: {
  const float b = POP().f32;
  PUSH_F32(POP().f32 - b);
}
  NEXT();
L_MulF32: {
  const float b = POP().f32;
  PUSH_F32(POP().f32 * b);
}
  NEXT();
L_DivF32: {
  const float b = POP().f32;
  PUSH_F32(POP().f32 / b);
}
  NEXT();
L_MinF32: {
  const float b = POP().f32;
  PUSH_F32(detail::fmin32(POP().f32, b));
}
  NEXT();
L_MaxF32: {
  const float b = POP().f32;
  PUSH_F32(detail::fmax32(POP().f32, b));
}
  NEXT();
L_NegF32:
  PUSH_F32(-POP().f32);
  NEXT();
L_AbsF32:
  PUSH_F32(std::fabs(POP().f32));
  NEXT();
L_SqrtF32:
  PUSH_F32(std::sqrt(POP().f32));
  NEXT();
L_EqF32: {
  const float b = POP().f32;
  PUSH_I32(POP().f32 == b);
}
  NEXT();
L_NeF32: {
  const float b = POP().f32;
  PUSH_I32(POP().f32 != b);
}
  NEXT();
L_LtF32: {
  const float b = POP().f32;
  PUSH_I32(POP().f32 < b);
}
  NEXT();
L_LeF32: {
  const float b = POP().f32;
  PUSH_I32(POP().f32 <= b);
}
  NEXT();
L_GtF32: {
  const float b = POP().f32;
  PUSH_I32(POP().f32 > b);
}
  NEXT();
L_GeF32: {
  const float b = POP().f32;
  PUSH_I32(POP().f32 >= b);
}
  NEXT();

  // --- f64 --------------------------------------------------------------
L_AddF64: {
  const double b = POP().f64;
  PUSH(Value::make_f64(POP().f64 + b));
}
  NEXT();
L_SubF64: {
  const double b = POP().f64;
  PUSH(Value::make_f64(POP().f64 - b));
}
  NEXT();
L_MulF64: {
  const double b = POP().f64;
  PUSH(Value::make_f64(POP().f64 * b));
}
  NEXT();
L_DivF64: {
  const double b = POP().f64;
  PUSH(Value::make_f64(POP().f64 / b));
}
  NEXT();
L_MinF64: {
  const double b = POP().f64;
  PUSH(Value::make_f64(detail::fmin64(POP().f64, b)));
}
  NEXT();
L_MaxF64: {
  const double b = POP().f64;
  PUSH(Value::make_f64(detail::fmax64(POP().f64, b)));
}
  NEXT();
L_NegF64:
  PUSH(Value::make_f64(-POP().f64));
  NEXT();
L_SqrtF64:
  PUSH(Value::make_f64(std::sqrt(POP().f64)));
  NEXT();
L_EqF64: {
  const double b = POP().f64;
  PUSH_I32(POP().f64 == b);
}
  NEXT();
L_NeF64: {
  const double b = POP().f64;
  PUSH_I32(POP().f64 != b);
}
  NEXT();
L_LtF64: {
  const double b = POP().f64;
  PUSH_I32(POP().f64 < b);
}
  NEXT();
L_LeF64: {
  const double b = POP().f64;
  PUSH_I32(POP().f64 <= b);
}
  NEXT();
L_GtF64: {
  const double b = POP().f64;
  PUSH_I32(POP().f64 > b);
}
  NEXT();
L_GeF64: {
  const double b = POP().f64;
  PUSH_I32(POP().f64 >= b);
}
  NEXT();

  // --- selects ----------------------------------------------------------
L_SelectI32:
L_SelectI64:
L_SelectF32:
L_SelectF64: {
  const int32_t cond = POP().i32;
  const Value b = POP();
  const Value a = POP();
  PUSH(cond != 0 ? a : b);
}
  NEXT();

  // --- conversions ------------------------------------------------------
L_I32ToI64S:
  PUSH(Value::make_i64(POP().i32));
  NEXT();
L_I32ToI64U:
  PUSH(Value::make_i64(static_cast<uint32_t>(POP().i32)));
  NEXT();
L_I64ToI32:
  PUSH_I32(static_cast<int32_t>(POP().i64));
  NEXT();
L_I32ToF32S:
  PUSH_F32(static_cast<float>(POP().i32));
  NEXT();
L_F32ToI32S:
  PUSH_I32(static_cast<int32_t>(POP().f32));
  NEXT();
L_I32ToF64S:
  PUSH(Value::make_f64(POP().i32));
  NEXT();
L_F64ToI32S:
  PUSH_I32(static_cast<int32_t>(POP().f64));
  NEXT();
L_F32ToF64:
  PUSH(Value::make_f64(POP().f32));
  NEXT();
L_F64ToF32:
  PUSH_F32(static_cast<float>(POP().f64));
  NEXT();
L_I64ToF64S:
  PUSH(Value::make_f64(static_cast<double>(POP().i64)));
  NEXT();
L_F64ToI64S:
  PUSH(Value::make_i64(static_cast<int64_t>(POP().f64)));
  NEXT();

  // --- memory -----------------------------------------------------------
#define LOAD_ADDR(len)                                             \
  const uint64_t addr = static_cast<uint32_t>(POP().i32) +         \
                        static_cast<uint64_t>(ip->imm);            \
  if (!mem.in_bounds(addr, (len))) TRAP(OutOfBoundsMemory);        \
  const auto a32 = static_cast<uint32_t>(addr)

L_LoadI8U: {
  LOAD_ADDR(1);
  PUSH_I32(mem.load_u8(a32));
}
  NEXT();
L_LoadI8S: {
  LOAD_ADDR(1);
  PUSH_I32(static_cast<int8_t>(mem.load_u8(a32)));
}
  NEXT();
L_LoadI16U: {
  LOAD_ADDR(2);
  PUSH_I32(mem.load_u16(a32));
}
  NEXT();
L_LoadI16S: {
  LOAD_ADDR(2);
  PUSH_I32(static_cast<int16_t>(mem.load_u16(a32)));
}
  NEXT();
L_LoadI32: {
  LOAD_ADDR(4);
  PUSH_I32(static_cast<int32_t>(mem.load_u32(a32)));
}
  NEXT();
L_LoadI64: {
  LOAD_ADDR(8);
  PUSH(Value::make_i64(static_cast<int64_t>(mem.load_u64(a32))));
}
  NEXT();
L_LoadF32: {
  LOAD_ADDR(4);
  PUSH_F32(std::bit_cast<float>(mem.load_u32(a32)));
}
  NEXT();
L_LoadF64: {
  LOAD_ADDR(8);
  PUSH(Value::make_f64(std::bit_cast<double>(mem.load_u64(a32))));
}
  NEXT();
L_LoadV128: {
  LOAD_ADDR(16);
  PUSH(Value::make_v128(mem.load_v128(a32)));
}
  NEXT();
#undef LOAD_ADDR

#define STORE_ADDR(len)                                            \
  const Value v = POP();                                           \
  const uint64_t addr = static_cast<uint32_t>(POP().i32) +         \
                        static_cast<uint64_t>(ip->imm);            \
  if (!mem.in_bounds(addr, (len))) TRAP(OutOfBoundsMemory);        \
  const auto a32 = static_cast<uint32_t>(addr)

L_StoreI8: {
  STORE_ADDR(1);
  mem.store_u8(a32, static_cast<uint8_t>(v.i32));
}
  NEXT();
L_StoreI16: {
  STORE_ADDR(2);
  mem.store_u16(a32, static_cast<uint16_t>(v.i32));
}
  NEXT();
L_StoreI32: {
  STORE_ADDR(4);
  mem.store_u32(a32, static_cast<uint32_t>(v.i32));
}
  NEXT();
L_StoreI64: {
  STORE_ADDR(8);
  mem.store_u64(a32, static_cast<uint64_t>(v.i64));
}
  NEXT();
L_StoreF32: {
  STORE_ADDR(4);
  mem.store_u32(a32, std::bit_cast<uint32_t>(v.f32));
}
  NEXT();
L_StoreF64: {
  STORE_ADDR(8);
  mem.store_u64(a32, std::bit_cast<uint64_t>(v.f64));
}
  NEXT();
L_StoreV128: {
  STORE_ADDR(16);
  mem.store_v128(a32, v.v128);
}
  NEXT();
#undef STORE_ADDR

  // --- vector -----------------------------------------------------------
L_VZero:
  PUSH(Value::make_v128(V128{}));
  NEXT();
L_VSplatI8:
  PUSH(Value::make_v128(V128::splat_u8(static_cast<uint8_t>(POP().i32))));
  NEXT();
L_VSplatI16:
  PUSH(Value::make_v128(V128::splat_u16(static_cast<uint16_t>(POP().i32))));
  NEXT();
L_VSplatI32:
  PUSH(Value::make_v128(V128::splat_u32(static_cast<uint32_t>(POP().i32))));
  NEXT();
L_VSplatF32:
  PUSH(Value::make_v128(V128::splat_f32(POP().f32)));
  NEXT();

#define VBIN_U8(expr)                          \
  const V128 vb = POP().v128;                  \
  const V128 va = POP().v128;                  \
  V128 r;                                      \
  for (size_t i = 0; i < 16; ++i) {            \
    const uint8_t x = va.u8(i), y = vb.u8(i);  \
    r.set_u8(i, (expr));                       \
  }                                            \
  PUSH(Value::make_v128(r))

L_VAddI8: {
  VBIN_U8(static_cast<uint8_t>(x + y));
}
  NEXT();
L_VSubI8: {
  VBIN_U8(static_cast<uint8_t>(x - y));
}
  NEXT();
L_VMinU8: {
  VBIN_U8(x < y ? x : y);
}
  NEXT();
L_VMaxU8: {
  VBIN_U8(x > y ? x : y);
}
  NEXT();

#define VBIN_U16(expr)                           \
  const V128 vb = POP().v128;                    \
  const V128 va = POP().v128;                    \
  V128 r;                                        \
  for (size_t i = 0; i < 8; ++i) {               \
    const uint16_t x = va.u16(i), y = vb.u16(i); \
    r.set_u16(i, (expr));                        \
  }                                              \
  PUSH(Value::make_v128(r))

L_VAddI16: {
  VBIN_U16(static_cast<uint16_t>(x + y));
}
  NEXT();
L_VSubI16: {
  VBIN_U16(static_cast<uint16_t>(x - y));
}
  NEXT();
L_VMinU16: {
  VBIN_U16(x < y ? x : y);
}
  NEXT();
L_VMaxU16: {
  VBIN_U16(x > y ? x : y);
}
  NEXT();

#define VBIN_U32(expr)                               \
  const V128 vb = POP().v128;                        \
  const V128 va = POP().v128;                        \
  V128 r;                                            \
  for (size_t i = 0; i < 4; ++i) {                   \
    const uint32_t x = va.u32(i), y = vb.u32(i);     \
    const int32_t xs = static_cast<int32_t>(x);      \
    const int32_t ys = static_cast<int32_t>(y);      \
    (void)xs;                                        \
    (void)ys;                                        \
    r.set_u32(i, (expr));                            \
  }                                                  \
  PUSH(Value::make_v128(r))

L_VAddI32: {
  VBIN_U32(x + y);
}
  NEXT();
L_VSubI32: {
  VBIN_U32(x - y);
}
  NEXT();
L_VMulI32: {
  VBIN_U32(x * y);
}
  NEXT();
L_VMinSI32: {
  VBIN_U32(static_cast<uint32_t>(xs < ys ? xs : ys));
}
  NEXT();
L_VMaxSI32: {
  VBIN_U32(static_cast<uint32_t>(xs > ys ? xs : ys));
}
  NEXT();

#define VBIN_F32(expr)                           \
  const V128 vb = POP().v128;                    \
  const V128 va = POP().v128;                    \
  V128 r;                                        \
  for (size_t i = 0; i < 4; ++i) {               \
    const float x = va.f32(i), y = vb.f32(i);    \
    r.set_f32(i, (expr));                        \
  }                                              \
  PUSH(Value::make_v128(r))

L_VAddF32: {
  VBIN_F32(x + y);
}
  NEXT();
L_VSubF32: {
  VBIN_F32(x - y);
}
  NEXT();
L_VMulF32: {
  VBIN_F32(x * y);
}
  NEXT();
L_VDivF32: {
  VBIN_F32(x / y);
}
  NEXT();
L_VMinF32: {
  VBIN_F32(detail::fmin32(x, y));
}
  NEXT();
L_VMaxF32: {
  VBIN_F32(detail::fmax32(x, y));
}
  NEXT();
L_VAnd: {
  VBIN_U8(static_cast<uint8_t>(x & y));
}
  NEXT();
L_VOr: {
  VBIN_U8(static_cast<uint8_t>(x | y));
}
  NEXT();
L_VXor: {
  VBIN_U8(static_cast<uint8_t>(x ^ y));
}
  NEXT();
#undef VBIN_U8
#undef VBIN_U16
#undef VBIN_U32
#undef VBIN_F32

L_VRSumU8: {
  const V128 a = POP().v128;
  int32_t s = 0;
  for (size_t i = 0; i < 16; ++i) s += a.u8(i);
  PUSH_I32(s);
}
  NEXT();
L_VRSumU16: {
  const V128 a = POP().v128;
  int32_t s = 0;
  for (size_t i = 0; i < 8; ++i) s += a.u16(i);
  PUSH_I32(s);
}
  NEXT();
L_VRSumI32: {
  const V128 a = POP().v128;
  uint32_t s = 0;
  for (size_t i = 0; i < 4; ++i) s += a.u32(i);
  PUSH_I32(static_cast<int32_t>(s));
}
  NEXT();
L_VRSumF32: {
  const V128 a = POP().v128;
  // Pairwise reduction order, matching the oracle and SIMD targets.
  PUSH_F32((a.f32(0) + a.f32(1)) + (a.f32(2) + a.f32(3)));
}
  NEXT();
L_VRMaxU8: {
  const V128 a = POP().v128;
  uint8_t m = 0;
  for (size_t i = 0; i < 16; ++i) m = std::max(m, a.u8(i));
  PUSH_I32(m);
}
  NEXT();
L_VRMinU8: {
  const V128 a = POP().v128;
  uint8_t m = 0xff;
  for (size_t i = 0; i < 16; ++i) m = std::min(m, a.u8(i));
  PUSH_I32(m);
}
  NEXT();
L_VRMaxU16: {
  const V128 a = POP().v128;
  uint16_t m = 0;
  for (size_t i = 0; i < 8; ++i) m = std::max(m, a.u16(i));
  PUSH_I32(m);
}
  NEXT();
L_VRMaxSI32: {
  const V128 a = POP().v128;
  int32_t m = std::numeric_limits<int32_t>::min();
  for (size_t i = 0; i < 4; ++i) {
    m = std::max(m, static_cast<int32_t>(a.u32(i)));
  }
  PUSH_I32(m);
}
  NEXT();
L_VRMaxF32: {
  const V128 a = POP().v128;
  float m = a.f32(0);
  for (size_t i = 1; i < 4; ++i) m = detail::fmax32(m, a.f32(i));
  PUSH_F32(m);
}
  NEXT();
L_VRMinF32: {
  const V128 a = POP().v128;
  float m = a.f32(0);
  for (size_t i = 1; i < 4; ++i) m = detail::fmin32(m, a.f32(i));
  PUSH_F32(m);
}
  NEXT();

L_VExtractU8:
  PUSH_I32(POP().v128.u8(ip->a));
  NEXT();
L_VExtractU16:
  PUSH_I32(POP().v128.u16(ip->a));
  NEXT();
L_VExtractI32:
  PUSH_I32(static_cast<int32_t>(POP().v128.u32(ip->a)));
  NEXT();
L_VExtractF32:
  PUSH_F32(POP().v128.f32(ip->a));
  NEXT();
L_VInsertI8: {
  const int32_t v = POP().i32;
  V128 r = POP().v128;
  r.set_u8(ip->a, static_cast<uint8_t>(v));
  PUSH(Value::make_v128(r));
}
  NEXT();
L_VInsertI16: {
  const int32_t v = POP().i32;
  V128 r = POP().v128;
  r.set_u16(ip->a, static_cast<uint16_t>(v));
  PUSH(Value::make_v128(r));
}
  NEXT();
L_VInsertI32: {
  const int32_t v = POP().i32;
  V128 r = POP().v128;
  r.set_u32(ip->a, static_cast<uint32_t>(v));
  PUSH(Value::make_v128(r));
}
  NEXT();
L_VInsertF32: {
  const float v = POP().f32;
  V128 r = POP().v128;
  r.set_f32(ip->a, v);
  PUSH(Value::make_v128(r));
}
  NEXT();

  // --- control ----------------------------------------------------------
L_Jump:
  if constexpr (kProfile) transfer(cur_block, ip->b);
  ip = code + ip->a;
  DISPATCH();
L_BranchIf: {
  const int32_t cond = POP().i32;
  if constexpr (kProfile) {
    I.profile_->record_branch(fn_idx, cur_block, cond != 0);
    const auto blocks = static_cast<uint64_t>(ip->imm);
    transfer(cur_block, cond != 0 ? static_cast<uint32_t>(blocks)
                                  : static_cast<uint32_t>(blocks >> 32));
  }
  ip = code + (cond != 0 ? ip->a : ip->b);
}
  DISPATCH();
L_Ret: {
  I.steps_used_ = steps;
  flush_trips();
  if (ip->a) return {POP(), TrapKind::None};
  return {Value{}, TrapKind::None};
}
L_Trap:
  TRAP(ExplicitTrap);
L_Call: {
  sp -= ip->b;  // args: the top b stack slots, deepest-first
  if (++I.call_depth_ > kMaxCallDepth) TRAP(CallStackOverflow);
  I.steps_used_ = steps;
  const FrameRes res = exec<kProfile>(ip->a, sp, ip->b);
  steps = I.steps_used_;
  --I.call_depth_;
  if (res.trap != TrapKind::None) {
    trap = res.trap;
    goto trapped;
  }
  if (ip->imm) PUSH(res.ret);
}
  NEXT();
L_Drop:
  --sp;
  NEXT();
L_Nop:
  NEXT();

  // --- superinstructions (never present in profiling streams) -----------
L_FGetGetAddI32:
  PUSH_I32(static_cast<int32_t>(static_cast<uint32_t>(locals[ip->a].i32) +
                                static_cast<uint32_t>(locals[ip->b].i32)));
  NEXT();
L_FGetGetAddF32:
  PUSH_F32(locals[ip->a].f32 + locals[ip->b].f32);
  NEXT();
L_FGetGetMulF32:
  PUSH_F32(locals[ip->a].f32 * locals[ip->b].f32);
  NEXT();
L_FGetConstAddI32:
  PUSH_I32(static_cast<int32_t>(
      static_cast<uint32_t>(locals[ip->a].i32) +
      static_cast<uint32_t>(static_cast<int32_t>(ip->imm))));
  NEXT();
L_FIncLocalI32:
  locals[ip->b] = Value::make_i32(static_cast<int32_t>(
      static_cast<uint32_t>(locals[ip->a].i32) +
      static_cast<uint32_t>(static_cast<int32_t>(ip->imm))));
  NEXT();
L_FConstI32Set:
  locals[ip->a] = Value::make_i32(static_cast<int32_t>(ip->imm));
  NEXT();
L_FGetSet:
  locals[ip->b] = locals[ip->a];
  NEXT();
L_FGetGetLtSBr: {
  const auto offs = static_cast<uint64_t>(ip->imm);
  ip = code + (locals[ip->a].i32 < locals[ip->b].i32
                   ? static_cast<uint32_t>(offs)
                   : static_cast<uint32_t>(offs >> 32));
}
  DISPATCH();
L_FEqzI32Br:
  ip = code + (POP().i32 == 0 ? ip->a : ip->b);
  DISPATCH();
#define FCMP_BR(cmp)                           \
  {                                            \
    const int32_t b = POP().i32;               \
    const int32_t a = POP().i32;               \
    ip = code + ((cmp) ? ip->a : ip->b);       \
  }                                            \
  DISPATCH()
L_FEqI32Br:
  FCMP_BR(a == b);
L_FNeI32Br:
  FCMP_BR(a != b);
L_FLtSI32Br:
  FCMP_BR(a < b);
L_FLtUI32Br:
  FCMP_BR(static_cast<uint32_t>(a) < static_cast<uint32_t>(b));
L_FLeSI32Br:
  FCMP_BR(a <= b);
L_FGtSI32Br:
  FCMP_BR(a > b);
L_FGeSI32Br:
  FCMP_BR(a >= b);
#undef FCMP_BR

budget_trap:
  // The oracle charges instructions one at a time and traps at exactly
  // budget + 1; a fused group may overshoot by its length, so clamp.
  I.steps_used_ = budget + 1;
  flush_trips();
  return {{}, TrapKind::StepBudgetExceeded};

trapped:
  I.steps_used_ = steps;
  flush_trips();
  return {{}, trap};

#undef DISPATCH
#undef NEXT
#undef PUSH
#undef POP
#undef PUSH_I32
#undef PUSH_F32
#undef TRAP
}

ExecResult Interpreter::run_threaded(uint32_t func_idx,
                                     const std::vector<Value>& args) {
  steps_used_ = 0;
  call_depth_ = 0;
  ThreadedEngine engine{*this, pcache_ ? *pcache_ : own_cache_, fusion_};
  const ThreadedEngine::FrameRes res =
      profile_ ? engine.exec<true>(func_idx, args.data(), args.size())
               : engine.exec<false>(func_idx, args.data(), args.size());
  ExecResult out;
  out.steps = steps_used_;
  out.trap = res.trap;
  if (res.trap == TrapKind::None) out.value = res.ret;
  return out;
}

#endif  // SVC_HAS_THREADED_DISPATCH

}  // namespace svc
