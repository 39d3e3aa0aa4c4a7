// The threaded-dispatch tier-0 engine: a computed-goto loop (GCC/Clang
// &&label tables) over pre-decoded code streams (vm/predecode.h).
//
// Opcode meaning lives in vm/semantics.h; this file is an execution
// strategy. Every value opcode's label is generated from opcodes.def and
// runs the shared definition on stack slots, and the fused handlers call
// the same definitions on locals and immediates. Traps come from the
// same definitions, the step budget is charged per *original*
// instruction (fused ops carry their expansion length in PInst::steps),
// and the profiling instantiation records exactly the switch engine's
// event stream. tests/dispatch_test.cpp differential-tests all of this
// per opcode and per fused pattern.
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

  // --- value opcodes (vm/semantics.h) -------------------------------------
#define SVC_VALUE_LABEL(Name)                               \
  L_##Name: {                                               \
    using S = sem::SignatureOf<&sem::Name>;                 \
    Value* const base = sp - S::kArity;                     \
    sem::StackOperands ops{base, mem, ip->imm, ip->a};      \
    const TrapKind t = sem::apply<&sem::Name>(ops);         \
    if (t != TrapKind::None) {                              \
      trap = t;                                             \
      goto trapped;                                         \
    }                                                       \
    sp = base + (S::kHasResult ? 1 : 0);                    \
  }                                                         \
  NEXT();
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  SVC_SEM_##category(SVC_VALUE_LABEL, Name)
#include "bytecode/opcodes.def"
#undef SVC_OP
#undef SVC_VALUE_LABEL

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
  PUSH_I32(sem::AddI32(locals[ip->a].i32, locals[ip->b].i32));
  NEXT();
L_FGetGetAddF32:
  PUSH_F32(sem::AddF32(locals[ip->a].f32, locals[ip->b].f32));
  NEXT();
L_FGetGetMulF32:
  PUSH_F32(sem::MulF32(locals[ip->a].f32, locals[ip->b].f32));
  NEXT();
L_FGetConstAddI32:
  PUSH_I32(sem::AddI32(locals[ip->a].i32, static_cast<int32_t>(ip->imm)));
  NEXT();
L_FIncLocalI32:
  locals[ip->b] = Value::make_i32(
      sem::AddI32(locals[ip->a].i32, static_cast<int32_t>(ip->imm)));
  NEXT();
L_FConstI32Set:
  locals[ip->a] = Value::make_i32(static_cast<int32_t>(ip->imm));
  NEXT();
L_FGetSet:
  locals[ip->b] = locals[ip->a];
  NEXT();
L_FGetGetLtSBr: {
  const auto offs = static_cast<uint64_t>(ip->imm);
  ip = code + (sem::LtSI32(locals[ip->a].i32, locals[ip->b].i32)
                   ? static_cast<uint32_t>(offs)
                   : static_cast<uint32_t>(offs >> 32));
}
  DISPATCH();
L_FEqzI32Br:
  ip = code + (sem::EqzI32(POP().i32) ? ip->a : ip->b);
  DISPATCH();
#define FCMP_BR(Cmp)                                   \
  {                                                    \
    const int32_t b = POP().i32;                       \
    const int32_t a = POP().i32;                       \
    ip = code + (sem::Cmp(a, b) ? ip->a : ip->b);      \
  }                                                    \
  DISPATCH()
L_FEqI32Br:
  FCMP_BR(EqI32);
L_FNeI32Br:
  FCMP_BR(NeI32);
L_FLtSI32Br:
  FCMP_BR(LtSI32);
L_FLtUI32Br:
  FCMP_BR(LtUI32);
L_FLeSI32Br:
  FCMP_BR(LeSI32);
L_FGtSI32Br:
  FCMP_BR(GtSI32);
L_FGeSI32Br:
  FCMP_BR(GeSI32);
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
