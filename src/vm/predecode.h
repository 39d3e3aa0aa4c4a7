// Pre-decoded tier-0 code streams. The reference interpreter walks
// Function/BasicBlock/Instruction structures and re-decodes operands on
// every execution; the threaded-dispatch engine instead executes a PCode:
// a dense, execution-ready instruction stream lowered once per function
// and cached. Lowering
//
//   * flattens all basic blocks into one contiguous PInst array and
//     resolves branch targets to stream offsets,
//   * inlines immediates and pre-resolves call metadata (callee index,
//     parameter count, has-result) so the hot loop never touches the
//     Module, and
//   * optionally fuses the hottest instruction sequences into
//     superinstructions (vm/fused_ops.def) selected by a static table.
//
// A PCode is immutable after construction and owns all its storage (no
// pointers into the source Module), so cached streams stay valid for as
// long as any executing frame holds a reference. PredecodeCache is the
// build-once keyed store (a FunctionMemo): thread-safe, keyed by (module
// id, function, fused), shared across the cores of a Soc the same way the
// CodeCache is.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bytecode/function_memo.h"
#include "bytecode/module.h"
#include "vm/value.h"

namespace svc {

/// Pre-decoded opcode space: every Opcode, numerically identical, plus
/// the superinstructions of fused_ops.def appended after Opcode::Count_'s
/// position. The shared prefix lets the unfused stream cast POp <->
/// Opcode directly (the profiling dispatch loop records per original
/// opcode).
enum class POp : uint16_t {
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  Name,
#include "bytecode/opcodes.def"
#undef SVC_OP
#define SVC_FUSED_OP(Name, mnemonic, steps) Name,
#include "vm/fused_ops.def"
#undef SVC_FUSED_OP
  Count_,
};

inline constexpr size_t kNumPOps = static_cast<size_t>(POp::Count_);

/// True for superinstructions (no Opcode counterpart).
[[nodiscard]] constexpr bool is_fused_op(POp op) {
  return static_cast<size_t>(op) >= kNumOpcodes;
}

/// Mnemonic of a pre-decoded op (original mnemonics for the shared
/// prefix, fused_ops.def mnemonics for superinstructions).
[[nodiscard]] std::string_view pop_mnemonic(POp op);

/// One execution-ready instruction. Operand meaning by op:
///   LocalGet/LocalSet            a = local index
///   Const*                       imm = constant bits
///   Load*/Store*                 imm = byte offset
///   VExtract*/VInsert*           a = lane
///   Call                         a = callee, b = #params, imm = has result
///   Ret                          a = 1 when a value is returned
///   Jump                         a = target stream offset, b = target block
///   BranchIf                     a/b = taken/not-taken stream offsets,
///                                imm = taken | not-taken block ids (lo/hi)
///   F*Br superinstructions       a/b = taken/not-taken stream offsets
///   FGetGetLtSBr                 a/b = locals, imm = taken|not-taken offsets
///   FGetGet*/FGetSet             a/b = locals
///   FGetConstAddI32/FConstI32Set a = local, imm = constant
///   FIncLocalI32                 a = source local, b = destination local,
///                                imm = increment
/// `steps` is the number of original instructions the op stands for: the
/// step budget and the deterministic kInterpreterCyclesPerStep cost model
/// are charged per original instruction, so fusion never changes
/// SimResult cycles.
struct PInst {
  POp op = POp::Nop;
  uint8_t steps = 1;
  uint32_t a = 0;
  uint32_t b = 0;
  int64_t imm = 0;
};

/// The pre-decoded form of one function.
struct PCode {
  uint32_t fn_idx = 0;
  uint32_t num_locals = 0;
  // Maximum operand-stack depth of any block (stack is empty at block
  // boundaries), computed during lowering so frames allocate exactly.
  uint32_t max_stack = 0;
  bool fused = false;
  std::vector<PInst> code;
  // Typed zero values of every local, in index order: a frame initializes
  // by copying this (then overwriting the parameter slots) instead of
  // consulting the Function's type list per call.
  std::vector<Value> locals_init;
  // Stream offset of each basic block's first instruction.
  std::vector<uint32_t> block_offsets;
  // Superinstructions emitted (0 when lowered with fuse = false).
  size_t fused_count = 0;
};

/// Lowers `module`.function(fn_idx) into a pre-decoded stream. With
/// `fuse` set, the static fusion table is applied greedily (longest
/// pattern first) inside each basic block.
[[nodiscard]] PCode predecode(const Module& module, uint32_t fn_idx,
                              bool fuse);

/// Build-once store of pre-decoded streams, keyed by (module id,
/// function index, fused). Thread-safe; a stream is lowered on first
/// request and shared afterwards (frames hold shared_ptrs, so entries
/// stay valid across a concurrent reset for a new module). One cache is
/// typically shared by every core of a Soc: pre-decoding is
/// target-independent, so the streams are too.
class PredecodeCache : public FunctionMemo<PCode, 2> {
 public:
  [[nodiscard]] std::shared_ptr<const PCode> get(const Module& module,
                                                 uint32_t fn_idx, bool fused) {
    return FunctionMemo::get(module, fn_idx, fused ? 1 : 0, [&] {
      return predecode(module, fn_idx, fused);
    });
  }
};

}  // namespace svc
