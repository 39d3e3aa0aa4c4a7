#include "vm/interpreter.h"

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

  StepOutcome step(const Instruction& inst);

  // A value opcode: its operands are the top stack slots, its result
  // replaces them.
  template <auto F>
  SVC_SEM_INLINE StepOutcome apply(const Instruction& inst) {
    using S = sem::SignatureOf<F>;
    const size_t base = stack_.size() - S::kArity;
    if constexpr (S::kArity == 0) stack_.emplace_back();  // result slot
    sem::StackOperands ops{stack_.data() + base, mem_, inst.imm, inst.a};
    const TrapKind trap = sem::apply<F>(ops);
    if (trap != TrapKind::None) return StepOutcome::trapped(trap);
    stack_.resize(base + (S::kHasResult ? 1 : 0));
    return StepOutcome::next();
  }

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

FrameExecutor::StepOutcome FrameExecutor::step(const Instruction& inst) {
  using O = StepOutcome;
  switch (inst.op) {
    // --- constants / locals ---------------------------------------------
    case Opcode::ConstI32:
      push(Value::make_i32(static_cast<int32_t>(inst.imm)));
      return O::next();
    case Opcode::ConstI64:
      push(Value::make_i64(inst.imm));
      return O::next();
    case Opcode::ConstF32:
      push(Value::make_f32(inst.f32_imm()));
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

    // --- value opcodes (vm/semantics.h) -----------------------------------
#define SVC_VALUE_CASE(Name) \
  case Opcode::Name:         \
    return apply<&sem::Name>(inst);
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  SVC_SEM_##category(SVC_VALUE_CASE, Name)
#include "bytecode/opcodes.def"
#undef SVC_OP
#undef SVC_VALUE_CASE

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
