#include "vm/interpreter.h"

#include <cmath>
#include <limits>

#include "support/diagnostics.h"

namespace svc {

std::string ExecResult::trap_message() const {
  switch (trap) {
    case TrapKind::None: return "no trap";
    case TrapKind::OutOfBoundsMemory: return "out-of-bounds memory access";
    case TrapKind::DivideByZero: return "integer divide by zero";
    case TrapKind::IntegerOverflow: return "integer overflow in division";
    case TrapKind::CallStackOverflow: return "call stack overflow";
    case TrapKind::StepBudgetExceeded: return "step budget exceeded";
    case TrapKind::ExplicitTrap: return "explicit trap";
  }
  return "?";
}

namespace {

// Control outcome of executing one frame.
struct FrameResult {
  Value ret;
  TrapKind trap = TrapKind::None;
};

}  // namespace

// Executes one function invocation. Lives outside the class so the hot
// switch stays in one translation unit; state shared with the Interpreter
// (step budget, call depth) is threaded through the reference.
class FrameExecutor {
 public:
  FrameExecutor(Interpreter& interp, const Function& fn, uint32_t fn_idx)
      : interp_(interp),
        module_(interp.module_),
        mem_(interp.memory_),
        fn_(fn),
        fn_idx_(fn_idx),
        profile_(interp.profile_) {}

  FrameResult run(const std::vector<Value>& args) {
    locals_.resize(fn_.num_locals());
    for (size_t i = 0; i < fn_.num_locals(); ++i) {
      locals_[i] = Value::zero_of(fn_.local_type(static_cast<uint32_t>(i)));
    }
    for (size_t i = 0; i < args.size() && i < fn_.num_locals(); ++i) {
      locals_[i] = args[i];
    }
    stack_.reserve(16);
    if (profile_) {
      profile_->record_call(fn_idx_);
      trip_runs_.assign(fn_.num_blocks(), 0);
    }

    uint32_t block = 0;
    for (;;) {
      const BasicBlock& bb = fn_.block(block);
      cur_block_ = block;
      for (const Instruction& inst : bb.insts) {
        if (++interp_.steps_used_ > interp_.step_budget_) {
          if (profile_) flush_trip_runs();
          return {{}, TrapKind::StepBudgetExceeded};
        }
        if (profile_) profile_->record_op(fn_idx_, inst.op);
        const StepOutcome out = step(inst);
        switch (out.kind) {
          case StepOutcome::Next:
            break;
          case StepOutcome::Goto:
            if (profile_) record_transfer(block, out.target);
            block = out.target;
            goto next_block;
          case StepOutcome::Return:
            if (profile_) flush_trip_runs();
            return {out.ret, TrapKind::None};
          case StepOutcome::Trapped:
            // Completed loop executions are recorded even when the frame
            // ends in a trap -- a budget-bound profiling run still counts.
            if (profile_) flush_trip_runs();
            return {{}, out.trap};
        }
      }
      // Verifier guarantees a terminator ends every block, so this point
      // is unreachable for verified code.
      fatal("interpreter: block fell through without terminator");
    next_block:;
    }
  }

 private:
  struct StepOutcome {
    enum Kind { Next, Goto, Return, Trapped } kind = Next;
    uint32_t target = 0;
    Value ret;
    TrapKind trap = TrapKind::None;

    static StepOutcome next() { return {}; }
    static StepOutcome jump(uint32_t t) { return {Goto, t, {}, {}}; }
    static StepOutcome ret_value(Value v) { return {Return, 0, v, {}}; }
    static StepOutcome trapped(TrapKind t) { return {Trapped, 0, {}, t}; }
  };

  Value pop() {
    Value v = stack_.back();
    stack_.pop_back();
    return v;
  }
  void push(Value v) { stack_.push_back(v); }
  void push_i32(int32_t v) { push(Value::make_i32(v)); }
  void push_f32(float v) { push(Value::make_f32(v)); }

  bool mem_check(uint64_t addr, uint32_t len) const {
    return mem_.in_bounds(addr, len);
  }

  StepOutcome step(const Instruction& inst);

  // A control transfer to an earlier-or-equal block is a back edge: its
  // target is a loop header and one more iteration ran. A forward entry
  // into a block with a pending run completes that loop execution (the
  // trip count is the back-edge count plus the initial entry).
  void record_transfer(uint32_t from, uint32_t to) {
    if (to <= from) {
      ++trip_runs_[to];
    } else if (trip_runs_[to] > 0) {
      profile_->record_loop_run(fn_idx_, to, trip_runs_[to] + 1);
      trip_runs_[to] = 0;
    }
  }

  void flush_trip_runs() {
    for (uint32_t h = 0; h < trip_runs_.size(); ++h) {
      if (trip_runs_[h] > 0) {
        profile_->record_loop_run(fn_idx_, h, trip_runs_[h] + 1);
        trip_runs_[h] = 0;
      }
    }
  }

  Interpreter& interp_;
  const Module& module_;
  Memory& mem_;
  const Function& fn_;
  uint32_t fn_idx_ = 0;
  ProfileData* profile_ = nullptr;
  uint32_t cur_block_ = 0;
  std::vector<uint64_t> trip_runs_;  // back edges taken per pending header
  std::vector<Value> locals_;
  std::vector<Value> stack_;
};

namespace {

int32_t as_u32_op(uint32_t v) { return static_cast<int32_t>(v); }

}  // namespace

FrameExecutor::StepOutcome FrameExecutor::step(const Instruction& inst) {
  using O = StepOutcome;
  switch (inst.op) {
    // --- constants / locals ---------------------------------------------
    case Opcode::ConstI32:
      push_i32(static_cast<int32_t>(inst.imm));
      return O::next();
    case Opcode::ConstI64:
      push(Value::make_i64(inst.imm));
      return O::next();
    case Opcode::ConstF32:
      push_f32(inst.f32_imm());
      return O::next();
    case Opcode::ConstF64:
      push(Value::make_f64(inst.f64_imm()));
      return O::next();
    case Opcode::LocalGet:
      push(locals_[inst.a]);
      return O::next();
    case Opcode::LocalSet:
      locals_[inst.a] = pop();
      return O::next();

    // --- i32 arithmetic ---------------------------------------------------
    case Opcode::AddI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(static_cast<int32_t>(static_cast<uint32_t>(a) +
                                    static_cast<uint32_t>(b)));
      return O::next();
    }
    case Opcode::SubI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(static_cast<int32_t>(static_cast<uint32_t>(a) -
                                    static_cast<uint32_t>(b)));
      return O::next();
    }
    case Opcode::MulI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(static_cast<int32_t>(static_cast<uint32_t>(a) *
                                    static_cast<uint32_t>(b)));
      return O::next();
    }
    case Opcode::DivSI32: {
      const auto b = pop().i32, a = pop().i32;
      if (b == 0) return O::trapped(TrapKind::DivideByZero);
      if (a == std::numeric_limits<int32_t>::min() && b == -1) {
        return O::trapped(TrapKind::IntegerOverflow);
      }
      push_i32(a / b);
      return O::next();
    }
    case Opcode::DivUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      if (b == 0) return O::trapped(TrapKind::DivideByZero);
      push_i32(as_u32_op(a / b));
      return O::next();
    }
    case Opcode::RemSI32: {
      const auto b = pop().i32, a = pop().i32;
      if (b == 0) return O::trapped(TrapKind::DivideByZero);
      if (a == std::numeric_limits<int32_t>::min() && b == -1) {
        push_i32(0);
        return O::next();
      }
      push_i32(a % b);
      return O::next();
    }
    case Opcode::RemUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      if (b == 0) return O::trapped(TrapKind::DivideByZero);
      push_i32(as_u32_op(a % b));
      return O::next();
    }
    case Opcode::AndI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a & b);
      return O::next();
    }
    case Opcode::OrI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a | b);
      return O::next();
    }
    case Opcode::XorI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a ^ b);
      return O::next();
    }
    case Opcode::ShlI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(as_u32_op(static_cast<uint32_t>(a) << (b & 31)));
      return O::next();
    }
    case Opcode::ShrSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a >> (b & 31));
      return O::next();
    }
    case Opcode::ShrUI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(as_u32_op(static_cast<uint32_t>(a) >> (b & 31)));
      return O::next();
    }
    case Opcode::MinSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a < b ? a : b);
      return O::next();
    }
    case Opcode::MaxSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a > b ? a : b);
      return O::next();
    }
    case Opcode::MinUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      push_i32(as_u32_op(a < b ? a : b));
      return O::next();
    }
    case Opcode::MaxUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      push_i32(as_u32_op(a > b ? a : b));
      return O::next();
    }
    case Opcode::EqzI32:
      push_i32(pop().i32 == 0 ? 1 : 0);
      return O::next();

    // --- i32 comparisons --------------------------------------------------
    case Opcode::EqI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a == b);
      return O::next();
    }
    case Opcode::NeI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a != b);
      return O::next();
    }
    case Opcode::LtSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a < b);
      return O::next();
    }
    case Opcode::LtUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      push_i32(a < b);
      return O::next();
    }
    case Opcode::LeSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a <= b);
      return O::next();
    }
    case Opcode::LeUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      push_i32(a <= b);
      return O::next();
    }
    case Opcode::GtSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a > b);
      return O::next();
    }
    case Opcode::GtUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      push_i32(a > b);
      return O::next();
    }
    case Opcode::GeSI32: {
      const auto b = pop().i32, a = pop().i32;
      push_i32(a >= b);
      return O::next();
    }
    case Opcode::GeUI32: {
      const auto b = static_cast<uint32_t>(pop().i32);
      const auto a = static_cast<uint32_t>(pop().i32);
      push_i32(a >= b);
      return O::next();
    }

    // --- i64 ---------------------------------------------------------------
    case Opcode::AddI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(static_cast<int64_t>(static_cast<uint64_t>(a) +
                                                static_cast<uint64_t>(b))));
      return O::next();
    }
    case Opcode::SubI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(static_cast<int64_t>(static_cast<uint64_t>(a) -
                                                static_cast<uint64_t>(b))));
      return O::next();
    }
    case Opcode::MulI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(static_cast<int64_t>(static_cast<uint64_t>(a) *
                                                static_cast<uint64_t>(b))));
      return O::next();
    }
    case Opcode::DivSI64: {
      const auto b = pop().i64, a = pop().i64;
      if (b == 0) return O::trapped(TrapKind::DivideByZero);
      if (a == std::numeric_limits<int64_t>::min() && b == -1) {
        return O::trapped(TrapKind::IntegerOverflow);
      }
      push(Value::make_i64(a / b));
      return O::next();
    }
    case Opcode::AndI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(a & b));
      return O::next();
    }
    case Opcode::OrI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(a | b));
      return O::next();
    }
    case Opcode::XorI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(a ^ b));
      return O::next();
    }
    case Opcode::ShlI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(
          static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 63))));
      return O::next();
    }
    case Opcode::ShrSI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(a >> (b & 63)));
      return O::next();
    }
    case Opcode::ShrUI64: {
      const auto b = pop().i64, a = pop().i64;
      push(Value::make_i64(
          static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63))));
      return O::next();
    }
    case Opcode::EqI64: {
      const auto b = pop().i64, a = pop().i64;
      push_i32(a == b);
      return O::next();
    }
    case Opcode::NeI64: {
      const auto b = pop().i64, a = pop().i64;
      push_i32(a != b);
      return O::next();
    }
    case Opcode::LtSI64: {
      const auto b = pop().i64, a = pop().i64;
      push_i32(a < b);
      return O::next();
    }
    case Opcode::GtSI64: {
      const auto b = pop().i64, a = pop().i64;
      push_i32(a > b);
      return O::next();
    }

    // --- f32 ---------------------------------------------------------------
    case Opcode::AddF32: {
      const auto b = pop().f32, a = pop().f32;
      push_f32(a + b);
      return O::next();
    }
    case Opcode::SubF32: {
      const auto b = pop().f32, a = pop().f32;
      push_f32(a - b);
      return O::next();
    }
    case Opcode::MulF32: {
      const auto b = pop().f32, a = pop().f32;
      push_f32(a * b);
      return O::next();
    }
    case Opcode::DivF32: {
      const auto b = pop().f32, a = pop().f32;
      push_f32(a / b);
      return O::next();
    }
    case Opcode::MinF32: {
      const auto b = pop().f32, a = pop().f32;
      push_f32(detail::fmin32(a, b));
      return O::next();
    }
    case Opcode::MaxF32: {
      const auto b = pop().f32, a = pop().f32;
      push_f32(detail::fmax32(a, b));
      return O::next();
    }
    case Opcode::NegF32:
      push_f32(-pop().f32);
      return O::next();
    case Opcode::AbsF32:
      push_f32(std::fabs(pop().f32));
      return O::next();
    case Opcode::SqrtF32:
      push_f32(std::sqrt(pop().f32));
      return O::next();
    case Opcode::EqF32: {
      const auto b = pop().f32, a = pop().f32;
      push_i32(a == b);
      return O::next();
    }
    case Opcode::NeF32: {
      const auto b = pop().f32, a = pop().f32;
      push_i32(a != b);
      return O::next();
    }
    case Opcode::LtF32: {
      const auto b = pop().f32, a = pop().f32;
      push_i32(a < b);
      return O::next();
    }
    case Opcode::LeF32: {
      const auto b = pop().f32, a = pop().f32;
      push_i32(a <= b);
      return O::next();
    }
    case Opcode::GtF32: {
      const auto b = pop().f32, a = pop().f32;
      push_i32(a > b);
      return O::next();
    }
    case Opcode::GeF32: {
      const auto b = pop().f32, a = pop().f32;
      push_i32(a >= b);
      return O::next();
    }

    // --- f64 ---------------------------------------------------------------
    case Opcode::AddF64: {
      const auto b = pop().f64, a = pop().f64;
      push(Value::make_f64(a + b));
      return O::next();
    }
    case Opcode::SubF64: {
      const auto b = pop().f64, a = pop().f64;
      push(Value::make_f64(a - b));
      return O::next();
    }
    case Opcode::MulF64: {
      const auto b = pop().f64, a = pop().f64;
      push(Value::make_f64(a * b));
      return O::next();
    }
    case Opcode::DivF64: {
      const auto b = pop().f64, a = pop().f64;
      push(Value::make_f64(a / b));
      return O::next();
    }
    case Opcode::MinF64: {
      const auto b = pop().f64, a = pop().f64;
      push(Value::make_f64(detail::fmin64(a, b)));
      return O::next();
    }
    case Opcode::MaxF64: {
      const auto b = pop().f64, a = pop().f64;
      push(Value::make_f64(detail::fmax64(a, b)));
      return O::next();
    }
    case Opcode::NegF64:
      push(Value::make_f64(-pop().f64));
      return O::next();
    case Opcode::SqrtF64:
      push(Value::make_f64(std::sqrt(pop().f64)));
      return O::next();
    case Opcode::EqF64: {
      const auto b = pop().f64, a = pop().f64;
      push_i32(a == b);
      return O::next();
    }
    case Opcode::NeF64: {
      const auto b = pop().f64, a = pop().f64;
      push_i32(a != b);
      return O::next();
    }
    case Opcode::LtF64: {
      const auto b = pop().f64, a = pop().f64;
      push_i32(a < b);
      return O::next();
    }
    case Opcode::LeF64: {
      const auto b = pop().f64, a = pop().f64;
      push_i32(a <= b);
      return O::next();
    }
    case Opcode::GtF64: {
      const auto b = pop().f64, a = pop().f64;
      push_i32(a > b);
      return O::next();
    }
    case Opcode::GeF64: {
      const auto b = pop().f64, a = pop().f64;
      push_i32(a >= b);
      return O::next();
    }

    // --- selects -----------------------------------------------------------
    case Opcode::SelectI32:
    case Opcode::SelectI64:
    case Opcode::SelectF32:
    case Opcode::SelectF64: {
      const auto cond = pop().i32;
      const Value b = pop();
      const Value a = pop();
      push(cond != 0 ? a : b);
      return O::next();
    }

    // --- conversions ---------------------------------------------------------
    case Opcode::I32ToI64S:
      push(Value::make_i64(pop().i32));
      return O::next();
    case Opcode::I32ToI64U:
      push(Value::make_i64(static_cast<uint32_t>(pop().i32)));
      return O::next();
    case Opcode::I64ToI32:
      push_i32(static_cast<int32_t>(pop().i64));
      return O::next();
    case Opcode::I32ToF32S:
      push_f32(static_cast<float>(pop().i32));
      return O::next();
    case Opcode::F32ToI32S:
      push_i32(static_cast<int32_t>(pop().f32));
      return O::next();
    case Opcode::I32ToF64S:
      push(Value::make_f64(pop().i32));
      return O::next();
    case Opcode::F64ToI32S:
      push_i32(static_cast<int32_t>(pop().f64));
      return O::next();
    case Opcode::F32ToF64:
      push(Value::make_f64(pop().f32));
      return O::next();
    case Opcode::F64ToF32:
      push_f32(static_cast<float>(pop().f64));
      return O::next();
    case Opcode::I64ToF64S:
      push(Value::make_f64(static_cast<double>(pop().i64)));
      return O::next();
    case Opcode::F64ToI64S:
      push(Value::make_i64(static_cast<int64_t>(pop().f64)));
      return O::next();

    // --- memory ----------------------------------------------------------
    case Opcode::LoadI8U:
    case Opcode::LoadI8S:
    case Opcode::LoadI16U:
    case Opcode::LoadI16S:
    case Opcode::LoadI32:
    case Opcode::LoadI64:
    case Opcode::LoadF32:
    case Opcode::LoadF64:
    case Opcode::LoadV128: {
      const uint64_t addr =
          static_cast<uint32_t>(pop().i32) + static_cast<uint64_t>(inst.imm);
      const uint32_t len = op_info(inst.op).mem_bytes;
      if (!mem_check(addr, len)) {
        return O::trapped(TrapKind::OutOfBoundsMemory);
      }
      const auto a32 = static_cast<uint32_t>(addr);
      switch (inst.op) {
        case Opcode::LoadI8U: push_i32(mem_.load_u8(a32)); break;
        case Opcode::LoadI8S:
          push_i32(static_cast<int8_t>(mem_.load_u8(a32)));
          break;
        case Opcode::LoadI16U: push_i32(mem_.load_u16(a32)); break;
        case Opcode::LoadI16S:
          push_i32(static_cast<int16_t>(mem_.load_u16(a32)));
          break;
        case Opcode::LoadI32:
          push_i32(static_cast<int32_t>(mem_.load_u32(a32)));
          break;
        case Opcode::LoadI64:
          push(Value::make_i64(static_cast<int64_t>(mem_.load_u64(a32))));
          break;
        case Opcode::LoadF32:
          push_f32(std::bit_cast<float>(mem_.load_u32(a32)));
          break;
        case Opcode::LoadF64:
          push(Value::make_f64(std::bit_cast<double>(mem_.load_u64(a32))));
          break;
        case Opcode::LoadV128:
          push(Value::make_v128(mem_.load_v128(a32)));
          break;
        default: break;
      }
      return O::next();
    }
    case Opcode::StoreI8:
    case Opcode::StoreI16:
    case Opcode::StoreI32:
    case Opcode::StoreI64:
    case Opcode::StoreF32:
    case Opcode::StoreF64:
    case Opcode::StoreV128: {
      const Value v = pop();
      const uint64_t addr =
          static_cast<uint32_t>(pop().i32) + static_cast<uint64_t>(inst.imm);
      const uint32_t len = op_info(inst.op).mem_bytes;
      if (!mem_check(addr, len)) {
        return O::trapped(TrapKind::OutOfBoundsMemory);
      }
      const auto a32 = static_cast<uint32_t>(addr);
      switch (inst.op) {
        case Opcode::StoreI8:
          mem_.store_u8(a32, static_cast<uint8_t>(v.i32));
          break;
        case Opcode::StoreI16:
          mem_.store_u16(a32, static_cast<uint16_t>(v.i32));
          break;
        case Opcode::StoreI32:
          mem_.store_u32(a32, static_cast<uint32_t>(v.i32));
          break;
        case Opcode::StoreI64:
          mem_.store_u64(a32, static_cast<uint64_t>(v.i64));
          break;
        case Opcode::StoreF32:
          mem_.store_u32(a32, std::bit_cast<uint32_t>(v.f32));
          break;
        case Opcode::StoreF64:
          mem_.store_u64(a32, std::bit_cast<uint64_t>(v.f64));
          break;
        case Opcode::StoreV128:
          mem_.store_v128(a32, v.v128);
          break;
        default: break;
      }
      return O::next();
    }

    // --- vector ------------------------------------------------------------
    case Opcode::VZero:
      push(Value::make_v128(V128{}));
      return O::next();
    case Opcode::VSplatI8:
      push(Value::make_v128(
          V128::splat_u8(static_cast<uint8_t>(pop().i32))));
      return O::next();
    case Opcode::VSplatI16:
      push(Value::make_v128(
          V128::splat_u16(static_cast<uint16_t>(pop().i32))));
      return O::next();
    case Opcode::VSplatI32:
      push(Value::make_v128(
          V128::splat_u32(static_cast<uint32_t>(pop().i32))));
      return O::next();
    case Opcode::VSplatF32:
      push(Value::make_v128(V128::splat_f32(pop().f32)));
      return O::next();

    case Opcode::VAddI8:
    case Opcode::VSubI8:
    case Opcode::VMinU8:
    case Opcode::VMaxU8: {
      const V128 b = pop().v128, a = pop().v128;
      V128 r;
      for (size_t i = 0; i < 16; ++i) {
        const uint8_t x = a.u8(i), y = b.u8(i);
        uint8_t o = 0;
        switch (inst.op) {
          case Opcode::VAddI8: o = static_cast<uint8_t>(x + y); break;
          case Opcode::VSubI8: o = static_cast<uint8_t>(x - y); break;
          case Opcode::VMinU8: o = x < y ? x : y; break;
          case Opcode::VMaxU8: o = x > y ? x : y; break;
          default: break;
        }
        r.set_u8(i, o);
      }
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VAddI16:
    case Opcode::VSubI16:
    case Opcode::VMinU16:
    case Opcode::VMaxU16: {
      const V128 b = pop().v128, a = pop().v128;
      V128 r;
      for (size_t i = 0; i < 8; ++i) {
        const uint16_t x = a.u16(i), y = b.u16(i);
        uint16_t o = 0;
        switch (inst.op) {
          case Opcode::VAddI16: o = static_cast<uint16_t>(x + y); break;
          case Opcode::VSubI16: o = static_cast<uint16_t>(x - y); break;
          case Opcode::VMinU16: o = x < y ? x : y; break;
          case Opcode::VMaxU16: o = x > y ? x : y; break;
          default: break;
        }
        r.set_u16(i, o);
      }
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VAddI32:
    case Opcode::VSubI32:
    case Opcode::VMulI32:
    case Opcode::VMinSI32:
    case Opcode::VMaxSI32: {
      const V128 b = pop().v128, a = pop().v128;
      V128 r;
      for (size_t i = 0; i < 4; ++i) {
        const uint32_t x = a.u32(i), y = b.u32(i);
        const int32_t xs = static_cast<int32_t>(x);
        const int32_t ys = static_cast<int32_t>(y);
        uint32_t o = 0;
        switch (inst.op) {
          case Opcode::VAddI32: o = x + y; break;
          case Opcode::VSubI32: o = x - y; break;
          case Opcode::VMulI32: o = x * y; break;
          case Opcode::VMinSI32:
            o = static_cast<uint32_t>(xs < ys ? xs : ys);
            break;
          case Opcode::VMaxSI32:
            o = static_cast<uint32_t>(xs > ys ? xs : ys);
            break;
          default: break;
        }
        r.set_u32(i, o);
      }
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VAddF32:
    case Opcode::VSubF32:
    case Opcode::VMulF32:
    case Opcode::VDivF32:
    case Opcode::VMinF32:
    case Opcode::VMaxF32: {
      const V128 b = pop().v128, a = pop().v128;
      V128 r;
      for (size_t i = 0; i < 4; ++i) {
        const float x = a.f32(i), y = b.f32(i);
        float o = 0;
        switch (inst.op) {
          case Opcode::VAddF32: o = x + y; break;
          case Opcode::VSubF32: o = x - y; break;
          case Opcode::VMulF32: o = x * y; break;
          case Opcode::VDivF32: o = x / y; break;
          case Opcode::VMinF32: o = detail::fmin32(x, y); break;
          case Opcode::VMaxF32: o = detail::fmax32(x, y); break;
          default: break;
        }
        r.set_f32(i, o);
      }
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VAnd:
    case Opcode::VOr:
    case Opcode::VXor: {
      const V128 b = pop().v128, a = pop().v128;
      V128 r;
      for (size_t i = 0; i < 16; ++i) {
        uint8_t o = 0;
        switch (inst.op) {
          case Opcode::VAnd: o = a.u8(i) & b.u8(i); break;
          case Opcode::VOr: o = a.u8(i) | b.u8(i); break;
          case Opcode::VXor: o = a.u8(i) ^ b.u8(i); break;
          default: break;
        }
        r.set_u8(i, o);
      }
      push(Value::make_v128(r));
      return O::next();
    }

    case Opcode::VRSumU8: {
      const V128 a = pop().v128;
      int32_t s = 0;
      for (size_t i = 0; i < 16; ++i) s += a.u8(i);
      push_i32(s);
      return O::next();
    }
    case Opcode::VRSumU16: {
      const V128 a = pop().v128;
      int32_t s = 0;
      for (size_t i = 0; i < 8; ++i) s += a.u16(i);
      push_i32(s);
      return O::next();
    }
    case Opcode::VRSumI32: {
      const V128 a = pop().v128;
      uint32_t s = 0;
      for (size_t i = 0; i < 4; ++i) s += a.u32(i);
      push_i32(static_cast<int32_t>(s));
      return O::next();
    }
    case Opcode::VRSumF32: {
      const V128 a = pop().v128;
      // Defined reduction order: ((l0+l1)+(l2+l3)) -- pairwise, matching
      // the tree a SIMD target uses, and reproduced by scalarized code.
      push_f32((a.f32(0) + a.f32(1)) + (a.f32(2) + a.f32(3)));
      return O::next();
    }
    case Opcode::VRMaxU8: {
      const V128 a = pop().v128;
      uint8_t m = 0;
      for (size_t i = 0; i < 16; ++i) m = std::max(m, a.u8(i));
      push_i32(m);
      return O::next();
    }
    case Opcode::VRMinU8: {
      const V128 a = pop().v128;
      uint8_t m = 0xff;
      for (size_t i = 0; i < 16; ++i) m = std::min(m, a.u8(i));
      push_i32(m);
      return O::next();
    }
    case Opcode::VRMaxU16: {
      const V128 a = pop().v128;
      uint16_t m = 0;
      for (size_t i = 0; i < 8; ++i) m = std::max(m, a.u16(i));
      push_i32(m);
      return O::next();
    }
    case Opcode::VRMaxSI32: {
      const V128 a = pop().v128;
      int32_t m = std::numeric_limits<int32_t>::min();
      for (size_t i = 0; i < 4; ++i) {
        m = std::max(m, static_cast<int32_t>(a.u32(i)));
      }
      push_i32(m);
      return O::next();
    }
    case Opcode::VRMaxF32: {
      const V128 a = pop().v128;
      float m = a.f32(0);
      for (size_t i = 1; i < 4; ++i) m = detail::fmax32(m, a.f32(i));
      push_f32(m);
      return O::next();
    }
    case Opcode::VRMinF32: {
      const V128 a = pop().v128;
      float m = a.f32(0);
      for (size_t i = 1; i < 4; ++i) m = detail::fmin32(m, a.f32(i));
      push_f32(m);
      return O::next();
    }

    case Opcode::VExtractU8:
      push_i32(pop().v128.u8(inst.a));
      return O::next();
    case Opcode::VExtractU16:
      push_i32(pop().v128.u16(inst.a));
      return O::next();
    case Opcode::VExtractI32:
      push_i32(static_cast<int32_t>(pop().v128.u32(inst.a)));
      return O::next();
    case Opcode::VExtractF32:
      push_f32(pop().v128.f32(inst.a));
      return O::next();
    case Opcode::VInsertI8: {
      const auto v = pop().i32;
      V128 r = pop().v128;
      r.set_u8(inst.a, static_cast<uint8_t>(v));
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VInsertI16: {
      const auto v = pop().i32;
      V128 r = pop().v128;
      r.set_u16(inst.a, static_cast<uint16_t>(v));
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VInsertI32: {
      const auto v = pop().i32;
      V128 r = pop().v128;
      r.set_u32(inst.a, static_cast<uint32_t>(v));
      push(Value::make_v128(r));
      return O::next();
    }
    case Opcode::VInsertF32: {
      const auto v = pop().f32;
      V128 r = pop().v128;
      r.set_f32(inst.a, v);
      push(Value::make_v128(r));
      return O::next();
    }

    // --- control -------------------------------------------------------
    case Opcode::Jump:
      return O::jump(inst.a);
    case Opcode::BranchIf: {
      const auto cond = pop().i32;
      if (profile_) profile_->record_branch(fn_idx_, cur_block_, cond != 0);
      return O::jump(cond != 0 ? inst.a : inst.b);
    }
    case Opcode::Ret: {
      if (fn_.sig().ret == Type::Void) return O::ret_value(Value{});
      return O::ret_value(pop());
    }
    case Opcode::Trap:
      return O::trapped(TrapKind::ExplicitTrap);
    case Opcode::Call: {
      const Function& callee = module_.function(inst.a);
      std::vector<Value> args(callee.num_params());
      for (size_t i = callee.num_params(); i-- > 0;) args[i] = pop();
      if (++interp_.call_depth_ > kMaxCallDepth) {
        return O::trapped(TrapKind::CallStackOverflow);
      }
      FrameExecutor child(interp_, callee, inst.a);
      const FrameResult res = child.run(args);
      --interp_.call_depth_;
      if (res.trap != TrapKind::None) return O::trapped(res.trap);
      if (callee.sig().ret != Type::Void) push(res.ret);
      return O::next();
    }
    case Opcode::Drop:
      pop();
      return O::next();
    case Opcode::Nop:
      return O::next();
    case Opcode::Count_:
      break;
  }
  fatal("interpreter: unhandled opcode");
}

ExecResult Interpreter::run_switch(uint32_t func_idx,
                                   const std::vector<Value>& args) {
  steps_used_ = 0;
  call_depth_ = 0;
  FrameExecutor exec(*this, module_.function(func_idx), func_idx);
  const FrameResult res = exec.run(args);
  ExecResult out;
  out.steps = steps_used_;
  out.trap = res.trap;
  if (res.trap == TrapKind::None) out.value = res.ret;
  return out;
}

ExecResult Interpreter::run(uint32_t func_idx,
                            const std::vector<Value>& args) {
  if (dispatch_ == DispatchKind::Threaded) {
    return run_threaded(func_idx, args);
  }
  return run_switch(func_idx, args);
}

ExecResult Interpreter::run(std::string_view name,
                            const std::vector<Value>& args) {
  const auto idx = module_.find_function(name);
  if (!idx) fatal("Interpreter::run: no such function");
  return run(*idx, args);
}

}  // namespace svc
