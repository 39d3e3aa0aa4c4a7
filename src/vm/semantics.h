// SVIL value-opcode semantics: the one definition every engine executes.
//
// A value opcode is any opcode of bytecode/opcodes.def whose category is
// not Const, Local, Control, Call or Misc: arithmetic, comparisons,
// selects, conversions, loads, stores and the vector builtins. Each has
// exactly one inline function here, named after its Opcode enumerator.
// Its parameters are, in order:
//
//   * the operands, typed int32_t / int64_t / float / double / V128, in
//     push order (the register engines read them from s0, s1, s2);
//   * for loads and stores, the Memory and the instruction's MemOffset;
//   * for lane extract/insert, the instruction's Lane immediate.
//
// The result is the pushed value; Checked<T> for opcodes that can trap
// (the five div/rem opcodes and every load); TrapKind for stores. The
// switch and threaded tier-0 engines (vm/interpreter.cpp,
// vm/dispatch_threaded.cpp), the cycle simulator every JIT target runs
// on (targets/simulator.cpp) and the offline constant folder
// (ir/passes.cpp) each hold one generic apply<F>() that reads operands
// their own way and calls these functions; none of them defines what an
// opcode means. The X-macro at the bottom makes a value opcode without a
// definition here a compile error. docs/SEMANTICS.md states the rules
// in prose: traps, conversions, shift masking, reduction order.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "bytecode/opcode.h"
#include "vm/memory.h"
#include "vm/value.h"

// Every engine's dispatch loop is one large function, and GCC stops
// inlining into it well before the last opcode; the definitions and the
// engines' apply<F>() adapters are forced inline so each opcode compiles
// to the same straight-line body a hand-written case would.
#if defined(__GNUC__) || defined(__clang__)
#define SVC_SEM_INLINE [[gnu::always_inline]] inline
#else
#define SVC_SEM_INLINE inline
#endif

namespace svc {

enum class TrapKind : uint8_t {
  None = 0,
  OutOfBoundsMemory,   // loads and stores outside linear memory
  DivideByZero,        // div/rem by zero
  IntegerOverflow,     // div_s of INT_MIN by -1
  CallStackOverflow,   // call deeper than kMaxCallDepth (engines)
  StepBudgetExceeded,  // step budget exhausted (engines)
  ExplicitTrap,        // the trap opcode (engines)
};

namespace sem {

/// Result of an opcode that can trap: `value` is meaningful only when
/// `trap` is None.
template <class T>
struct Checked {
  T value{};
  TrapKind trap = TrapKind::None;
};

/// The byte offset immediate of a load or store.
struct MemOffset {
  int64_t bytes;
};

/// The lane immediate of a vector extract or insert.
struct Lane {
  uint32_t index;
};

// --- lane access -----------------------------------------------------------

template <class T>
SVC_SEM_INLINE T lane(const V128& v, size_t i) {
  T x;
  std::memcpy(&x, v.bytes.data() + i * sizeof(T), sizeof(T));
  return x;
}
template <class T>
SVC_SEM_INLINE void set_lane(V128& v, size_t i, T x) {
  std::memcpy(v.bytes.data() + i * sizeof(T), &x, sizeof(T));
}
template <class T>
inline constexpr size_t kLanes = 16 / sizeof(T);

/// Lane-wise binary op over lanes of type T.
template <class T, class Fn>
SVC_SEM_INLINE V128 zip(const V128& a, const V128& b, Fn fn) {
  V128 r;
  for (size_t i = 0; i < kLanes<T>; ++i) {
    set_lane<T>(r, i, static_cast<T>(fn(lane<T>(a, i), lane<T>(b, i))));
  }
  return r;
}

/// Left fold over the lanes of type T, from `acc`.
template <class T, class Acc, class Fn>
SVC_SEM_INLINE Acc fold(const V128& v, Acc acc, Fn fn) {
  for (size_t i = 0; i < kLanes<T>; ++i) acc = fn(acc, lane<T>(v, i));
  return acc;
}

template <class T>
SVC_SEM_INLINE V128 splat(T x) {
  V128 r;
  for (size_t i = 0; i < kLanes<T>; ++i) set_lane<T>(r, i, x);
  return r;
}

// --- helpers ---------------------------------------------------------------

SVC_SEM_INLINE uint32_t u32(int32_t x) { return static_cast<uint32_t>(x); }
SVC_SEM_INLINE uint64_t u64(int64_t x) { return static_cast<uint64_t>(x); }

/// Float -> signed integer, truncating toward zero and saturating like
/// Wasm trunc_sat: NaN gives 0, values past either end give that end.
template <class I, class F>
SVC_SEM_INLINE I trunc_sat(F x) {
  // -2^(N-1) and 2^(N-1) are exact in every float type.
  constexpr F lo = static_cast<F>(std::numeric_limits<I>::min());
  constexpr F hi = -lo;
  if (x != x) return 0;
  if (x < lo) return std::numeric_limits<I>::min();
  if (x >= hi) return std::numeric_limits<I>::max();
  return static_cast<I>(x);
}

/// Effective address of a `len`-byte access at base + offset.
SVC_SEM_INLINE Checked<uint32_t> address(const Memory& m, int32_t base,
                                         MemOffset off, uint32_t len) {
  const uint64_t addr = u32(base) + static_cast<uint64_t>(off.bytes);
  if (!m.in_bounds(addr, len)) return {0, TrapKind::OutOfBoundsMemory};
  return {static_cast<uint32_t>(addr), TrapKind::None};
}

/// Reads a Raw from memory (host byte order) and converts it to T.
template <class T, class Raw = T>
SVC_SEM_INLINE Checked<T> load(const Memory& m, int32_t base, MemOffset off) {
  const Checked<uint32_t> a = address(m, base, off, sizeof(Raw));
  if (a.trap != TrapKind::None) return {T{}, a.trap};
  Raw raw;
  std::memcpy(&raw, m.bytes().data() + a.value, sizeof raw);
  return {static_cast<T>(raw), TrapKind::None};
}

/// Converts `v` to Raw and writes it to memory (host byte order).
template <class Raw, class T>
SVC_SEM_INLINE TrapKind store(Memory& m, int32_t base, MemOffset off,
                              const T& v) {
  const Checked<uint32_t> a = address(m, base, off, sizeof(Raw));
  if (a.trap != TrapKind::None) return a.trap;
  const Raw raw = static_cast<Raw>(v);
  std::memcpy(m.bytes().data() + a.value, &raw, sizeof raw);
  return TrapKind::None;
}

// --- i32 arithmetic --------------------------------------------------------
// Wrapping two's-complement; shift counts are masked to the width.

SVC_SEM_INLINE int32_t AddI32(int32_t a, int32_t b) {
  return static_cast<int32_t>(u32(a) + u32(b));
}
SVC_SEM_INLINE int32_t SubI32(int32_t a, int32_t b) {
  return static_cast<int32_t>(u32(a) - u32(b));
}
SVC_SEM_INLINE int32_t MulI32(int32_t a, int32_t b) {
  return static_cast<int32_t>(u32(a) * u32(b));
}
SVC_SEM_INLINE Checked<int32_t> DivSI32(int32_t a, int32_t b) {
  if (b == 0) return {0, TrapKind::DivideByZero};
  if (a == std::numeric_limits<int32_t>::min() && b == -1) {
    return {0, TrapKind::IntegerOverflow};
  }
  return {a / b, TrapKind::None};
}
SVC_SEM_INLINE Checked<int32_t> DivUI32(int32_t a, int32_t b) {
  if (b == 0) return {0, TrapKind::DivideByZero};
  return {static_cast<int32_t>(u32(a) / u32(b)), TrapKind::None};
}
SVC_SEM_INLINE Checked<int32_t> RemSI32(int32_t a, int32_t b) {
  if (b == 0) return {0, TrapKind::DivideByZero};
  // INT_MIN % -1 is 0, not a trap (only the quotient overflows).
  if (b == -1) return {0, TrapKind::None};
  return {a % b, TrapKind::None};
}
SVC_SEM_INLINE Checked<int32_t> RemUI32(int32_t a, int32_t b) {
  if (b == 0) return {0, TrapKind::DivideByZero};
  return {static_cast<int32_t>(u32(a) % u32(b)), TrapKind::None};
}
SVC_SEM_INLINE int32_t AndI32(int32_t a, int32_t b) { return a & b; }
SVC_SEM_INLINE int32_t OrI32(int32_t a, int32_t b) { return a | b; }
SVC_SEM_INLINE int32_t XorI32(int32_t a, int32_t b) { return a ^ b; }
SVC_SEM_INLINE int32_t ShlI32(int32_t a, int32_t b) {
  return static_cast<int32_t>(u32(a) << (b & 31));
}
SVC_SEM_INLINE int32_t ShrSI32(int32_t a, int32_t b) { return a >> (b & 31); }
SVC_SEM_INLINE int32_t ShrUI32(int32_t a, int32_t b) {
  return static_cast<int32_t>(u32(a) >> (b & 31));
}
SVC_SEM_INLINE int32_t MinSI32(int32_t a, int32_t b) { return a < b ? a : b; }
SVC_SEM_INLINE int32_t MaxSI32(int32_t a, int32_t b) { return a > b ? a : b; }
SVC_SEM_INLINE int32_t MinUI32(int32_t a, int32_t b) {
  return u32(a) < u32(b) ? a : b;
}
SVC_SEM_INLINE int32_t MaxUI32(int32_t a, int32_t b) {
  return u32(a) > u32(b) ? a : b;
}

// --- i32 comparisons (1 or 0) ----------------------------------------------

SVC_SEM_INLINE int32_t EqzI32(int32_t a) { return a == 0; }
SVC_SEM_INLINE int32_t EqI32(int32_t a, int32_t b) { return a == b; }
SVC_SEM_INLINE int32_t NeI32(int32_t a, int32_t b) { return a != b; }
SVC_SEM_INLINE int32_t LtSI32(int32_t a, int32_t b) { return a < b; }
SVC_SEM_INLINE int32_t LtUI32(int32_t a, int32_t b) { return u32(a) < u32(b); }
SVC_SEM_INLINE int32_t LeSI32(int32_t a, int32_t b) { return a <= b; }
SVC_SEM_INLINE int32_t LeUI32(int32_t a, int32_t b) {
  return u32(a) <= u32(b);
}
SVC_SEM_INLINE int32_t GtSI32(int32_t a, int32_t b) { return a > b; }
SVC_SEM_INLINE int32_t GtUI32(int32_t a, int32_t b) { return u32(a) > u32(b); }
SVC_SEM_INLINE int32_t GeSI32(int32_t a, int32_t b) { return a >= b; }
SVC_SEM_INLINE int32_t GeUI32(int32_t a, int32_t b) {
  return u32(a) >= u32(b);
}

// --- i64 -------------------------------------------------------------------

SVC_SEM_INLINE int64_t AddI64(int64_t a, int64_t b) {
  return static_cast<int64_t>(u64(a) + u64(b));
}
SVC_SEM_INLINE int64_t SubI64(int64_t a, int64_t b) {
  return static_cast<int64_t>(u64(a) - u64(b));
}
SVC_SEM_INLINE int64_t MulI64(int64_t a, int64_t b) {
  return static_cast<int64_t>(u64(a) * u64(b));
}
SVC_SEM_INLINE Checked<int64_t> DivSI64(int64_t a, int64_t b) {
  if (b == 0) return {0, TrapKind::DivideByZero};
  if (a == std::numeric_limits<int64_t>::min() && b == -1) {
    return {0, TrapKind::IntegerOverflow};
  }
  return {a / b, TrapKind::None};
}
SVC_SEM_INLINE int64_t AndI64(int64_t a, int64_t b) { return a & b; }
SVC_SEM_INLINE int64_t OrI64(int64_t a, int64_t b) { return a | b; }
SVC_SEM_INLINE int64_t XorI64(int64_t a, int64_t b) { return a ^ b; }
SVC_SEM_INLINE int64_t ShlI64(int64_t a, int64_t b) {
  return static_cast<int64_t>(u64(a) << (b & 63));
}
SVC_SEM_INLINE int64_t ShrSI64(int64_t a, int64_t b) { return a >> (b & 63); }
SVC_SEM_INLINE int64_t ShrUI64(int64_t a, int64_t b) {
  return static_cast<int64_t>(u64(a) >> (b & 63));
}
SVC_SEM_INLINE int32_t EqI64(int64_t a, int64_t b) { return a == b; }
SVC_SEM_INLINE int32_t NeI64(int64_t a, int64_t b) { return a != b; }
SVC_SEM_INLINE int32_t LtSI64(int64_t a, int64_t b) { return a < b; }
SVC_SEM_INLINE int32_t GtSI64(int64_t a, int64_t b) { return a > b; }

// --- f32 / f64 -------------------------------------------------------------
// IEEE-754 in the operand's own precision. min/max go through the
// out-of-line detail::fmin32 etc. so every translation unit gives the
// same sign for min(+0, -0).

SVC_SEM_INLINE float AddF32(float a, float b) { return a + b; }
SVC_SEM_INLINE float SubF32(float a, float b) { return a - b; }
SVC_SEM_INLINE float MulF32(float a, float b) { return a * b; }
SVC_SEM_INLINE float DivF32(float a, float b) { return a / b; }
SVC_SEM_INLINE float MinF32(float a, float b) { return detail::fmin32(a, b); }
SVC_SEM_INLINE float MaxF32(float a, float b) { return detail::fmax32(a, b); }
SVC_SEM_INLINE float NegF32(float a) { return -a; }
SVC_SEM_INLINE float AbsF32(float a) { return std::fabs(a); }
SVC_SEM_INLINE float SqrtF32(float a) { return std::sqrt(a); }
SVC_SEM_INLINE int32_t EqF32(float a, float b) { return a == b; }
SVC_SEM_INLINE int32_t NeF32(float a, float b) { return a != b; }
SVC_SEM_INLINE int32_t LtF32(float a, float b) { return a < b; }
SVC_SEM_INLINE int32_t LeF32(float a, float b) { return a <= b; }
SVC_SEM_INLINE int32_t GtF32(float a, float b) { return a > b; }
SVC_SEM_INLINE int32_t GeF32(float a, float b) { return a >= b; }

SVC_SEM_INLINE double AddF64(double a, double b) { return a + b; }
SVC_SEM_INLINE double SubF64(double a, double b) { return a - b; }
SVC_SEM_INLINE double MulF64(double a, double b) { return a * b; }
SVC_SEM_INLINE double DivF64(double a, double b) { return a / b; }
SVC_SEM_INLINE double MinF64(double a, double b) {
  return detail::fmin64(a, b);
}
SVC_SEM_INLINE double MaxF64(double a, double b) {
  return detail::fmax64(a, b);
}
SVC_SEM_INLINE double NegF64(double a) { return -a; }
SVC_SEM_INLINE double SqrtF64(double a) { return std::sqrt(a); }
SVC_SEM_INLINE int32_t EqF64(double a, double b) { return a == b; }
SVC_SEM_INLINE int32_t NeF64(double a, double b) { return a != b; }
SVC_SEM_INLINE int32_t LtF64(double a, double b) { return a < b; }
SVC_SEM_INLINE int32_t LeF64(double a, double b) { return a <= b; }
SVC_SEM_INLINE int32_t GtF64(double a, double b) { return a > b; }
SVC_SEM_INLINE int32_t GeF64(double a, double b) { return a >= b; }

// --- selects: cond != 0 ? if_true : if_false -------------------------------

SVC_SEM_INLINE int32_t SelectI32(int32_t t, int32_t f, int32_t c) {
  return c != 0 ? t : f;
}
SVC_SEM_INLINE int64_t SelectI64(int64_t t, int64_t f, int32_t c) {
  return c != 0 ? t : f;
}
SVC_SEM_INLINE float SelectF32(float t, float f, int32_t c) {
  return c != 0 ? t : f;
}
SVC_SEM_INLINE double SelectF64(double t, double f, int32_t c) {
  return c != 0 ? t : f;
}

// --- conversions -----------------------------------------------------------

SVC_SEM_INLINE int64_t I32ToI64S(int32_t a) { return a; }
SVC_SEM_INLINE int64_t I32ToI64U(int32_t a) { return u32(a); }
SVC_SEM_INLINE int32_t I64ToI32(int64_t a) { return static_cast<int32_t>(a); }
SVC_SEM_INLINE float I32ToF32S(int32_t a) { return static_cast<float>(a); }
SVC_SEM_INLINE int32_t F32ToI32S(float a) { return trunc_sat<int32_t>(a); }
SVC_SEM_INLINE double I32ToF64S(int32_t a) { return a; }
SVC_SEM_INLINE int32_t F64ToI32S(double a) { return trunc_sat<int32_t>(a); }
SVC_SEM_INLINE double F32ToF64(float a) { return a; }
SVC_SEM_INLINE float F64ToF32(double a) { return static_cast<float>(a); }
SVC_SEM_INLINE double I64ToF64S(int64_t a) { return static_cast<double>(a); }
SVC_SEM_INLINE int64_t F64ToI64S(double a) { return trunc_sat<int64_t>(a); }

// --- memory: bounds-checked, unaligned allowed -----------------------------

SVC_SEM_INLINE Checked<int32_t> LoadI8U(const Memory& m, int32_t p,
                                        MemOffset o) {
  return load<int32_t, uint8_t>(m, p, o);
}
SVC_SEM_INLINE Checked<int32_t> LoadI8S(const Memory& m, int32_t p,
                                        MemOffset o) {
  return load<int32_t, int8_t>(m, p, o);
}
SVC_SEM_INLINE Checked<int32_t> LoadI16U(const Memory& m, int32_t p,
                                         MemOffset o) {
  return load<int32_t, uint16_t>(m, p, o);
}
SVC_SEM_INLINE Checked<int32_t> LoadI16S(const Memory& m, int32_t p,
                                         MemOffset o) {
  return load<int32_t, int16_t>(m, p, o);
}
SVC_SEM_INLINE Checked<int32_t> LoadI32(const Memory& m, int32_t p,
                                        MemOffset o) {
  return load<int32_t>(m, p, o);
}
SVC_SEM_INLINE Checked<int64_t> LoadI64(const Memory& m, int32_t p,
                                        MemOffset o) {
  return load<int64_t>(m, p, o);
}
SVC_SEM_INLINE Checked<float> LoadF32(const Memory& m, int32_t p,
                                      MemOffset o) {
  return load<float>(m, p, o);
}
SVC_SEM_INLINE Checked<double> LoadF64(const Memory& m, int32_t p,
                                       MemOffset o) {
  return load<double>(m, p, o);
}
SVC_SEM_INLINE Checked<V128> LoadV128(const Memory& m, int32_t p,
                                      MemOffset o) {
  return load<V128>(m, p, o);
}

SVC_SEM_INLINE TrapKind StoreI8(Memory& m, int32_t p, MemOffset o, int32_t v) {
  return store<uint8_t>(m, p, o, v);
}
SVC_SEM_INLINE TrapKind StoreI16(Memory& m, int32_t p, MemOffset o,
                                 int32_t v) {
  return store<uint16_t>(m, p, o, v);
}
SVC_SEM_INLINE TrapKind StoreI32(Memory& m, int32_t p, MemOffset o,
                                 int32_t v) {
  return store<int32_t>(m, p, o, v);
}
SVC_SEM_INLINE TrapKind StoreI64(Memory& m, int32_t p, MemOffset o,
                                 int64_t v) {
  return store<int64_t>(m, p, o, v);
}
SVC_SEM_INLINE TrapKind StoreF32(Memory& m, int32_t p, MemOffset o, float v) {
  return store<float>(m, p, o, v);
}
SVC_SEM_INLINE TrapKind StoreF64(Memory& m, int32_t p, MemOffset o,
                                 double v) {
  return store<double>(m, p, o, v);
}
SVC_SEM_INLINE TrapKind StoreV128(Memory& m, int32_t p, MemOffset o,
                                  const V128& v) {
  return store<V128>(m, p, o, v);
}

// --- vector constants / splats ---------------------------------------------

SVC_SEM_INLINE V128 VZero() { return V128{}; }
SVC_SEM_INLINE V128 VSplatI8(int32_t a) {
  return splat(static_cast<uint8_t>(a));
}
SVC_SEM_INLINE V128 VSplatI16(int32_t a) {
  return splat(static_cast<uint16_t>(a));
}
SVC_SEM_INLINE V128 VSplatI32(int32_t a) { return splat(u32(a)); }
SVC_SEM_INLINE V128 VSplatF32(float a) { return splat(a); }

// --- vector arithmetic (lane-wise, wrapping for integer lanes) -------------

SVC_SEM_INLINE V128 VAddI8(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x + y; });
}
SVC_SEM_INLINE V128 VSubI8(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x - y; });
}
SVC_SEM_INLINE V128 VMinU8(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x < y ? x : y; });
}
SVC_SEM_INLINE V128 VMaxU8(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x > y ? x : y; });
}
SVC_SEM_INLINE V128 VAddI16(const V128& a, const V128& b) {
  return zip<uint16_t>(a, b, [](uint16_t x, uint16_t y) { return x + y; });
}
SVC_SEM_INLINE V128 VSubI16(const V128& a, const V128& b) {
  return zip<uint16_t>(a, b, [](uint16_t x, uint16_t y) { return x - y; });
}
SVC_SEM_INLINE V128 VMinU16(const V128& a, const V128& b) {
  return zip<uint16_t>(a, b,
                       [](uint16_t x, uint16_t y) { return x < y ? x : y; });
}
SVC_SEM_INLINE V128 VMaxU16(const V128& a, const V128& b) {
  return zip<uint16_t>(a, b,
                       [](uint16_t x, uint16_t y) { return x > y ? x : y; });
}
SVC_SEM_INLINE V128 VAddI32(const V128& a, const V128& b) {
  return zip<uint32_t>(a, b, [](uint32_t x, uint32_t y) { return x + y; });
}
SVC_SEM_INLINE V128 VSubI32(const V128& a, const V128& b) {
  return zip<uint32_t>(a, b, [](uint32_t x, uint32_t y) { return x - y; });
}
SVC_SEM_INLINE V128 VMulI32(const V128& a, const V128& b) {
  return zip<uint32_t>(a, b, [](uint32_t x, uint32_t y) { return x * y; });
}
SVC_SEM_INLINE V128 VMinSI32(const V128& a, const V128& b) {
  return zip<int32_t>(a, b, MinSI32);
}
SVC_SEM_INLINE V128 VMaxSI32(const V128& a, const V128& b) {
  return zip<int32_t>(a, b, MaxSI32);
}
SVC_SEM_INLINE V128 VAddF32(const V128& a, const V128& b) {
  return zip<float>(a, b, AddF32);
}
SVC_SEM_INLINE V128 VSubF32(const V128& a, const V128& b) {
  return zip<float>(a, b, SubF32);
}
SVC_SEM_INLINE V128 VMulF32(const V128& a, const V128& b) {
  return zip<float>(a, b, MulF32);
}
SVC_SEM_INLINE V128 VDivF32(const V128& a, const V128& b) {
  return zip<float>(a, b, DivF32);
}
SVC_SEM_INLINE V128 VMinF32(const V128& a, const V128& b) {
  return zip<float>(a, b, detail::fmin32);
}
SVC_SEM_INLINE V128 VMaxF32(const V128& a, const V128& b) {
  return zip<float>(a, b, detail::fmax32);
}
SVC_SEM_INLINE V128 VAnd(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x & y; });
}
SVC_SEM_INLINE V128 VOr(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x | y; });
}
SVC_SEM_INLINE V128 VXor(const V128& a, const V128& b) {
  return zip<uint8_t>(a, b, [](uint8_t x, uint8_t y) { return x ^ y; });
}

// --- vector reductions -----------------------------------------------------

SVC_SEM_INLINE int32_t VRSumU8(const V128& a) {
  return fold<uint8_t>(a, int32_t{0},
                       [](int32_t s, uint8_t x) { return s + x; });
}
SVC_SEM_INLINE int32_t VRSumU16(const V128& a) {
  return fold<uint16_t>(a, int32_t{0},
                        [](int32_t s, uint16_t x) { return s + x; });
}
SVC_SEM_INLINE int32_t VRSumI32(const V128& a) {
  return static_cast<int32_t>(fold<uint32_t>(
      a, uint32_t{0}, [](uint32_t s, uint32_t x) { return s + x; }));
}
SVC_SEM_INLINE float VRSumF32(const V128& a) {
  // Pairwise ((l0 + l1) + (l2 + l3)): the tree a SIMD target uses.
  return (lane<float>(a, 0) + lane<float>(a, 1)) +
         (lane<float>(a, 2) + lane<float>(a, 3));
}
SVC_SEM_INLINE int32_t VRMaxU8(const V128& a) {
  return fold<uint8_t>(a, uint8_t{0},
                       [](uint8_t m, uint8_t x) { return m > x ? m : x; });
}
SVC_SEM_INLINE int32_t VRMinU8(const V128& a) {
  return fold<uint8_t>(a, uint8_t{0xff},
                       [](uint8_t m, uint8_t x) { return m < x ? m : x; });
}
SVC_SEM_INLINE int32_t VRMaxU16(const V128& a) {
  return fold<uint16_t>(a, uint16_t{0},
                        [](uint16_t m, uint16_t x) { return m > x ? m : x; });
}
SVC_SEM_INLINE int32_t VRMaxSI32(const V128& a) {
  return fold<int32_t>(a, std::numeric_limits<int32_t>::min(), MaxSI32);
}
SVC_SEM_INLINE float VRMaxF32(const V128& a) {
  float m = lane<float>(a, 0);
  for (size_t i = 1; i < 4; ++i) m = detail::fmax32(m, lane<float>(a, i));
  return m;
}
SVC_SEM_INLINE float VRMinF32(const V128& a) {
  float m = lane<float>(a, 0);
  for (size_t i = 1; i < 4; ++i) m = detail::fmin32(m, lane<float>(a, i));
  return m;
}

// --- vector lane access (the verifier bounds the lane immediate) -----------

SVC_SEM_INLINE int32_t VExtractU8(const V128& a, Lane l) {
  return lane<uint8_t>(a, l.index);
}
SVC_SEM_INLINE int32_t VExtractU16(const V128& a, Lane l) {
  return lane<uint16_t>(a, l.index);
}
SVC_SEM_INLINE int32_t VExtractI32(const V128& a, Lane l) {
  return lane<int32_t>(a, l.index);
}
SVC_SEM_INLINE float VExtractF32(const V128& a, Lane l) {
  return lane<float>(a, l.index);
}
SVC_SEM_INLINE V128 VInsertI8(const V128& a, int32_t x, Lane l) {
  V128 r = a;
  set_lane(r, l.index, static_cast<uint8_t>(x));
  return r;
}
SVC_SEM_INLINE V128 VInsertI16(const V128& a, int32_t x, Lane l) {
  V128 r = a;
  set_lane(r, l.index, static_cast<uint16_t>(x));
  return r;
}
SVC_SEM_INLINE V128 VInsertI32(const V128& a, int32_t x, Lane l) {
  V128 r = a;
  set_lane(r, l.index, x);
  return r;
}
SVC_SEM_INLINE V128 VInsertF32(const V128& a, float x, Lane l) {
  V128 r = a;
  set_lane(r, l.index, x);
  return r;
}

// --- generic apply ---------------------------------------------------------
//
// An engine describes where operands live with an Operands adapter:
//
//   template <class T, size_t K> T operand();  // K-th operand, push order
//   void result(T v);                          // the pushed value, any T
//   Memory& memory();  int64_t offset();  uint32_t lane();
//
// apply<&sem::Name>(ops) reads the operands, calls the definition, writes
// the result unless the opcode trapped, and returns the trap (a constant
// None for opcodes that cannot trap, so the check folds away).

template <class T>
inline constexpr bool kIsOperand =
    std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t> ||
    std::is_same_v<T, float> || std::is_same_v<T, double> ||
    std::is_same_v<T, V128>;

template <class T>
inline constexpr bool kIsChecked = false;
template <class T>
inline constexpr bool kIsChecked<Checked<T>> = true;

template <class Fn>
struct Signature;

template <class R, class... A>
struct Signature<R (*)(A...)> {
  using Result = R;
  static constexpr std::array<bool, sizeof...(A) + 1> kOperand = {
      kIsOperand<std::remove_cvref_t<A>>..., false};
  /// Number of value operands (stack slots popped / s-registers read).
  static constexpr size_t kArity =
      (size_t{0} + ... + size_t{kIsOperand<std::remove_cvref_t<A>>});
  static constexpr bool kHasResult = !std::is_same_v<R, TrapKind>;
  static constexpr bool kLoads = (std::is_same_v<A, const Memory&> || ...);
  static constexpr bool kStores = (std::is_same_v<A, Memory&> || ...);

  /// Operand index of parameter i (operands before it).
  static constexpr size_t slot(size_t i) {
    size_t k = 0;
    for (size_t j = 0; j < i; ++j) k += kOperand[j] ? 1 : 0;
    return k;
  }

  template <class T, size_t K, class Ops>
  SVC_SEM_INLINE static decltype(auto) fetch(Ops& ops) {
    if constexpr (kIsOperand<T>) {
      return ops.template operand<T, K>();
    } else if constexpr (std::is_same_v<T, MemOffset>) {
      return MemOffset{ops.offset()};
    } else if constexpr (std::is_same_v<T, Lane>) {
      return Lane{ops.lane()};
    } else {
      static_assert(std::is_same_v<T, Memory>);
      return ops.memory();
    }
  }

  template <auto F, class Ops, size_t... I>
  SVC_SEM_INLINE static R call(Ops& ops, std::index_sequence<I...>) {
    return F(fetch<std::remove_cvref_t<A>, slot(I)>(ops)...);
  }
  template <auto F, class Ops>
  SVC_SEM_INLINE static R call(Ops& ops) {
    return call<F>(ops, std::index_sequence_for<A...>{});
  }
};

template <auto F>
using SignatureOf = Signature<decltype(F)>;

template <auto F, class Ops>
SVC_SEM_INLINE TrapKind apply(Ops& ops) {
  using S = SignatureOf<F>;
  using R = typename S::Result;
  if constexpr (std::is_same_v<R, TrapKind>) {
    return S::template call<F>(ops);
  } else {
    const R r = S::template call<F>(ops);
    if constexpr (kIsChecked<R>) {
      if (r.trap != TrapKind::None) return r.trap;
      ops.result(r.value);
    } else {
      ops.result(r);
    }
    return TrapKind::None;
  }
}

// --- Value access for the stack engines ------------------------------------

template <class T>
SVC_SEM_INLINE const T& value_as(const Value& v) {
  if constexpr (std::is_same_v<T, int32_t>) {
    return v.i32;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return v.i64;
  } else if constexpr (std::is_same_v<T, float>) {
    return v.f32;
  } else if constexpr (std::is_same_v<T, double>) {
    return v.f64;
  } else {
    static_assert(std::is_same_v<T, V128>);
    return v.v128;
  }
}

SVC_SEM_INLINE Value make_value(int32_t v) { return Value::make_i32(v); }
SVC_SEM_INLINE Value make_value(int64_t v) { return Value::make_i64(v); }
SVC_SEM_INLINE Value make_value(float v) { return Value::make_f32(v); }
SVC_SEM_INLINE Value make_value(double v) { return Value::make_f64(v); }
SVC_SEM_INLINE Value make_value(const V128& v) { return Value::make_v128(v); }

/// Operands of a stack engine: an op's operands are the top kArity stack
/// slots, deepest first, and its result replaces the deepest one.
struct StackOperands {
  Value* base;  // first (deepest) operand slot
  Memory& mem;
  int64_t imm;
  uint32_t lane_imm;

  template <class T, size_t K>
  SVC_SEM_INLINE const T& operand() const {
    return value_as<T>(base[K]);
  }
  template <class T>
  SVC_SEM_INLINE void result(const T& v) {
    base[0] = make_value(v);
  }
  SVC_SEM_INLINE Memory& memory() const { return mem; }
  SVC_SEM_INLINE int64_t offset() const { return imm; }
  SVC_SEM_INLINE uint32_t lane() const { return lane_imm; }
};

// --- the value opcodes -----------------------------------------------------
//
// SVC_SEM_<category>(X, Name) expands to X(Name) for the value categories
// and to nothing otherwise; engines expand it over opcodes.def:
//
//   #define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, bytes)
//     SVC_SEM_##category(MY_CASE, Name)

#define SVC_SEM_Const(X, Name)
#define SVC_SEM_Local(X, Name)
#define SVC_SEM_Control(X, Name)
#define SVC_SEM_Call(X, Name)
#define SVC_SEM_Misc(X, Name)
#define SVC_SEM_IntArith(X, Name) X(Name)
#define SVC_SEM_FloatArith(X, Name) X(Name)
#define SVC_SEM_Cmp(X, Name) X(Name)
#define SVC_SEM_Select(X, Name) X(Name)
#define SVC_SEM_Conv(X, Name) X(Name)
#define SVC_SEM_Load(X, Name) X(Name)
#define SVC_SEM_Store(X, Name) X(Name)
#define SVC_SEM_VectorConst(X, Name) X(Name)
#define SVC_SEM_VectorArith(X, Name) X(Name)
#define SVC_SEM_VectorReduce(X, Name) X(Name)
#define SVC_SEM_VectorLane(X, Name) X(Name)

// Naming sem::Name for every value opcode is what makes one without a
// definition a compile error. Register engines read at most s0..s2.
#define SVC_SEM_CHECK(Name)                       \
  static_assert(SignatureOf<&Name>::kArity <= 3, \
                #Name " reads more than three operands");
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  SVC_SEM_##category(SVC_SEM_CHECK, Name)
#include "bytecode/opcodes.def"
#undef SVC_OP
#undef SVC_SEM_CHECK

/// Every value opcode, in opcodes.def order.
#define SVC_SEM_LIST(Name) Opcode::Name,
inline constexpr Opcode kValueOps[] = {
#define SVC_OP(Name, mnemonic, pops, pushes, imm, category, lanes, membytes) \
  SVC_SEM_##category(SVC_SEM_LIST, Name)
#include "bytecode/opcodes.def"
#undef SVC_OP
};
#undef SVC_SEM_LIST

}  // namespace sem
}  // namespace svc
