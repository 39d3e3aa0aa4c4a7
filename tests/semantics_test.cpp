// Golden per-opcode table for the SVIL value opcodes (vm/semantics.h).
//
// Every row names one opcode, its operands and the expected outcome,
// written out as literals: result bits, a trap kind, or the memory bytes
// a store (or a vector result) leaves behind. Nothing here is computed
// through vm/semantics.h -- the table is the independent statement of
// what each opcode means. Each row runs, one opcode at a time, through
// the switch engine, the threaded engine (fused and unfused), and eager
// JIT code on every target (the cycle simulator), and every engine must
// match the row and each other, final memory included.
//
// Where C++ leaves the result bits implementation-defined -- the sign of
// fmin/fmax over (+0, -0), the payload of a NaN an operation creates --
// the row only asserts that the engines agree (and, for the latter, that
// the result is a NaN). The last test is the coverage gate: every value
// opcode must have at least one row.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
#include "vm/semantics.h"

static_assert(std::endian::native == std::endian::little,
              "the memory rows spell out little-endian bytes");

namespace svc {
namespace {

constexpr uint32_t kMemBytes = 1 << 16;
constexpr uint32_t kData = 256;   // fixed load data (kDataBytes)
constexpr uint32_t kStore = 512;  // where store rows write
constexpr uint32_t kVecIn = 1024; // v128 operand k lives at kVecIn + 16k
constexpr uint32_t kOut = 2048;   // v128 results are stored here

constexpr int32_t kMin32 = std::numeric_limits<int32_t>::min();
constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();
constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
constexpr float kInfF = std::numeric_limits<float>::infinity();
constexpr double kInfD = std::numeric_limits<double>::infinity();
constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
constexpr double kNanD = std::numeric_limits<double>::quiet_NaN();

// Bytes at kData: 80 01 ff 7f | 1.0f | 1.5 (f64) | 10 11 .. 1f.
constexpr uint8_t kDataBytes[] = {
    0x80, 0x01, 0xff, 0x7f, 0x00, 0x00, 0x80, 0x3f,  // 256..263
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // 264..271
    0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17,  // 272..279
    0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f,  // 280..287
};

// --- operand / expectation literals ----------------------------------------

Value I(int32_t v) { return Value::make_i32(v); }
Value L(int64_t v) { return Value::make_i64(v); }
Value F(float v) { return Value::make_f32(v); }
Value D(double v) { return Value::make_f64(v); }
Value Fb(uint32_t bits) { return F(std::bit_cast<float>(bits)); }
Value Db(uint64_t bits) { return D(std::bit_cast<double>(bits)); }

// A v128 operand from its lanes (16 bytes' worth of T).
template <class T>
Value lanes(const std::vector<T>& l) {
  V128 v;
  std::memcpy(v.bytes.data(), l.data(), 16);
  return Value::make_v128(v);
}
Value V8(const std::vector<uint8_t>& l) { return lanes(l); }
Value V16(const std::vector<uint16_t>& l) { return lanes(l); }
Value V32(const std::vector<uint32_t>& l) { return lanes(l); }
Value VF(const std::vector<float>& l) { return lanes(l); }

struct Want {
  enum Kind { Is, Traps, Memory, Agree, AgreeNaN } kind = Is;
  Value value;
  TrapKind trap = TrapKind::None;
  uint32_t addr = 0;
  std::vector<uint8_t> bytes;
};

Want is(Value v) { return {Want::Is, v, TrapKind::None, 0, {}}; }
Want traps(TrapKind t) { return {Want::Traps, {}, t, 0, {}}; }
Want stores(std::vector<uint8_t> b) {
  return {Want::Memory, {}, TrapKind::None, kStore, std::move(b)};
}
Want vec(const Value& v) {
  return {Want::Memory,
          {},
          TrapKind::None,
          kOut,
          {v.v128.bytes.begin(), v.v128.bytes.end()}};
}
// Implementation-defined bits: the engines must only agree.
Want agree() { return {Want::Agree, {}, TrapKind::None, 0, {}}; }
Want agree_nan() { return {Want::AgreeNaN, {}, TrapKind::None, 0, {}}; }

struct Row {
  Opcode op;
  std::vector<Value> in;  // operands in push order
  Want want;
  uint32_t imm = 0;  // memory offset or lane
};

// Shared vector operands.
const Value kA8 = V8({250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 255});
const Value kB8 = V8({10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1});
const Value kA16 = V16({0xffff, 1, 2, 3, 4, 5, 6, 0x8000});
const Value kB16 = V16({1, 1, 1, 1, 1, 1, 1, 1});
const Value kA32 = V32({0x7fffffff, 0xffffffff, 5, 0x80000000});
const Value kB32 = V32({1, 1, 0xfffffffe, 3});
const Value kFa = VF({1.5f, -1.0f, 0.25f, 8.0f});
const Value kFb = VF({2.0f, 0.5f, 0.5f, -2.0f});
const Value kMa = VF({1.0f, kNanF, -kInfF, 3.0f});
const Value kMb = VF({2.0f, 5.0f, 0.0f, -3.0f});
const Value kBitsA = V32({0xff00ff00, 0x12345678, 0, 0xffffffff});
const Value kBitsB = V32({0x0f0f0f0f, 0xffff0000, 0xffffffff, 0});
const Value kZeros = V32({0, 0, 0, 0});
const Value kOnes8 = V8(std::vector<uint8_t>(16, 0xff));
const Value kPosNegZero = VF({0.0f, -0.0f, 0.0f, -0.0f});

using enum Opcode;

const std::vector<Row>& golden_rows() {
  static const std::vector<Row> rows = {
      // --- i32 arithmetic --------------------------------------------------
      {AddI32, {I(1), I(2)}, is(I(3))},
      {AddI32, {I(kMax32), I(1)}, is(I(kMin32))},
      {SubI32, {I(5), I(7)}, is(I(-2))},
      {SubI32, {I(kMin32), I(1)}, is(I(kMax32))},
      {MulI32, {I(-3), I(7)}, is(I(-21))},
      {MulI32, {I(0x10000), I(0x10000)}, is(I(0))},
      {MulI32, {I(kMax32), I(2)}, is(I(-2))},
      {DivSI32, {I(7), I(2)}, is(I(3))},
      {DivSI32, {I(-7), I(2)}, is(I(-3))},
      {DivSI32, {I(7), I(0)}, traps(TrapKind::DivideByZero)},
      {DivSI32, {I(kMin32), I(-1)}, traps(TrapKind::IntegerOverflow)},
      {DivSI32, {I(kMin32), I(1)}, is(I(kMin32))},
      {DivUI32, {I(-1), I(2)}, is(I(kMax32))},
      {DivUI32, {I(7), I(0)}, traps(TrapKind::DivideByZero)},
      {RemSI32, {I(-7), I(2)}, is(I(-1))},
      {RemSI32, {I(7), I(-2)}, is(I(1))},
      {RemSI32, {I(kMin32), I(-1)}, is(I(0))},
      {RemSI32, {I(1), I(0)}, traps(TrapKind::DivideByZero)},
      {RemUI32, {I(-1), I(10)}, is(I(5))},
      {RemUI32, {I(1), I(0)}, traps(TrapKind::DivideByZero)},
      {AndI32, {I(0x0f0f), I(0x00ff)}, is(I(0x000f))},
      {AndI32, {I(-1), I(5)}, is(I(5))},
      {OrI32, {I(0x0f00), I(0x00f0)}, is(I(0x0ff0))},
      {XorI32, {I(-1), I(0x0f)}, is(I(-16))},
      {ShlI32, {I(1), I(31)}, is(I(kMin32))},
      {ShlI32, {I(1), I(32)}, is(I(1))},
      {ShlI32, {I(1), I(33)}, is(I(2))},
      {ShlI32, {I(3), I(-1)}, is(I(kMin32))},
      {ShrSI32, {I(-16), I(2)}, is(I(-4))},
      {ShrSI32, {I(-16), I(36)}, is(I(-1))},
      {ShrSI32, {I(kMin32), I(31)}, is(I(-1))},
      {ShrUI32, {I(-16), I(2)}, is(I(0x3ffffffc))},
      {ShrUI32, {I(-1), I(32)}, is(I(-1))},
      {ShrUI32, {I(-1), I(63)}, is(I(1))},
      {MinSI32, {I(-1), I(1)}, is(I(-1))},
      {MaxSI32, {I(-1), I(1)}, is(I(1))},
      {MinUI32, {I(-1), I(1)}, is(I(1))},
      {MaxUI32, {I(-1), I(1)}, is(I(-1))},

      // --- i32 comparisons -------------------------------------------------
      {EqzI32, {I(0)}, is(I(1))},
      {EqzI32, {I(5)}, is(I(0))},
      {EqI32, {I(3), I(3)}, is(I(1))},
      {EqI32, {I(3), I(-3)}, is(I(0))},
      {NeI32, {I(3), I(3)}, is(I(0))},
      {NeI32, {I(3), I(4)}, is(I(1))},
      {LtSI32, {I(-1), I(1)}, is(I(1))},
      {LtUI32, {I(-1), I(1)}, is(I(0))},
      {LtUI32, {I(1), I(-1)}, is(I(1))},
      {LeSI32, {I(2), I(2)}, is(I(1))},
      {LeUI32, {I(-1), I(0)}, is(I(0))},
      {LeUI32, {I(0), I(-1)}, is(I(1))},
      {GtSI32, {I(-1), I(1)}, is(I(0))},
      {GtUI32, {I(-1), I(1)}, is(I(1))},
      {GeSI32, {I(kMin32), I(kMax32)}, is(I(0))},
      {GeUI32, {I(kMin32), I(kMax32)}, is(I(1))},

      // --- i64 -------------------------------------------------------------
      {AddI64, {L(kMax64), L(1)}, is(L(kMin64))},
      {AddI64, {L(int64_t{1} << 40), L(5)}, is(L(1099511627781))},
      {SubI64, {L(0), L(1)}, is(L(-1))},
      {SubI64, {L(kMin64), L(1)}, is(L(kMax64))},
      {MulI64, {L(int64_t{1} << 32), L(int64_t{1} << 32)}, is(L(0))},
      {MulI64, {L(-3), L(5)}, is(L(-15))},
      {DivSI64, {L(-9), L(2)}, is(L(-4))},
      {DivSI64, {L(1), L(0)}, traps(TrapKind::DivideByZero)},
      {DivSI64, {L(kMin64), L(-1)}, traps(TrapKind::IntegerOverflow)},
      {AndI64, {L(-1), L(0x123456789)}, is(L(0x123456789))},
      {OrI64, {L(int64_t{1} << 40), L(1)}, is(L(0x10000000001))},
      {XorI64, {L(-1), L(0x0f)}, is(L(-16))},
      {ShlI64, {L(1), L(63)}, is(L(kMin64))},
      {ShlI64, {L(1), L(64)}, is(L(1))},
      {ShlI64, {L(1), L(65)}, is(L(2))},
      {ShrSI64, {L(kMin64), L(63)}, is(L(-1))},
      {ShrSI64, {L(-8), L(65)}, is(L(-4))},
      {ShrUI64, {L(kMin64), L(63)}, is(L(1))},
      {ShrUI64, {L(-1), L(64)}, is(L(-1))},
      {EqI64, {L(int64_t{1} << 40), L(int64_t{1} << 40)}, is(I(1))},
      {EqI64, {L(0x100000000), L(0)}, is(I(0))},
      {NeI64, {L(0x100000000), L(0)}, is(I(1))},
      {NeI64, {L(7), L(7)}, is(I(0))},
      {LtSI64, {L(-1), L(0)}, is(I(1))},
      {LtSI64, {L(0x100000000), L(1)}, is(I(0))},
      {GtSI64, {L(-1), L(0)}, is(I(0))},
      {GtSI64, {L(int64_t{1} << 40), L(1)}, is(I(1))},

      // --- f32 -------------------------------------------------------------
      {AddF32, {F(1.5f), F(2.25f)}, is(F(3.75f))},
      {AddF32, {F(kInfF), F(-kInfF)}, agree_nan()},
      {SubF32, {F(1.0f), F(3.0f)}, is(F(-2.0f))},
      {SubF32, {F(0.0f), F(0.0f)}, is(Fb(0x00000000))},
      {MulF32, {F(-2.0f), F(0.0f)}, is(Fb(0x80000000))},
      {MulF32, {F(1e30f), F(1e30f)}, is(Fb(0x7f800000))},
      {DivF32, {F(1.0f), F(4.0f)}, is(F(0.25f))},
      {DivF32, {F(1.0f), F(0.0f)}, is(Fb(0x7f800000))},
      {DivF32, {F(-1.0f), F(0.0f)}, is(Fb(0xff800000))},
      {DivF32, {F(0.0f), F(0.0f)}, agree_nan()},
      {MinF32, {F(1.0f), F(2.0f)}, is(F(1.0f))},
      {MinF32, {F(kNanF), F(1.0f)}, is(F(1.0f))},
      {MinF32, {F(-kInfF), F(3.0f)}, is(Fb(0xff800000))},
      {MinF32, {F(0.0f), F(-0.0f)}, agree()},
      {MinF32, {F(-0.0f), F(0.0f)}, agree()},
      {MaxF32, {F(1.0f), F(2.0f)}, is(F(2.0f))},
      {MaxF32, {F(1.0f), F(kNanF)}, is(F(1.0f))},
      {MaxF32, {F(-0.0f), F(0.0f)}, agree()},
      {NegF32, {F(1.5f)}, is(F(-1.5f))},
      {NegF32, {F(0.0f)}, is(Fb(0x80000000))},
      {NegF32, {Fb(0x7fc00000)}, is(Fb(0xffc00000))},
      {AbsF32, {F(-2.5f)}, is(F(2.5f))},
      {AbsF32, {F(-0.0f)}, is(Fb(0x00000000))},
      {AbsF32, {Fb(0xffc00000)}, is(Fb(0x7fc00000))},
      {SqrtF32, {F(4.0f)}, is(F(2.0f))},
      {SqrtF32, {F(2.0f)}, is(Fb(0x3fb504f3))},
      {SqrtF32, {F(-0.0f)}, is(Fb(0x80000000))},
      {SqrtF32, {F(-1.0f)}, agree_nan()},
      {EqF32, {F(1.0f), F(1.0f)}, is(I(1))},
      {EqF32, {F(kNanF), F(kNanF)}, is(I(0))},
      {EqF32, {F(0.0f), F(-0.0f)}, is(I(1))},
      {NeF32, {F(kNanF), F(kNanF)}, is(I(1))},
      {NeF32, {F(1.0f), F(1.0f)}, is(I(0))},
      {LtF32, {F(1.0f), F(2.0f)}, is(I(1))},
      {LtF32, {F(kNanF), F(1.0f)}, is(I(0))},
      {LeF32, {F(2.0f), F(2.0f)}, is(I(1))},
      {LeF32, {F(kNanF), F(kNanF)}, is(I(0))},
      {GtF32, {F(2.0f), F(1.0f)}, is(I(1))},
      {GtF32, {F(1.0f), F(kNanF)}, is(I(0))},
      {GeF32, {F(-0.0f), F(0.0f)}, is(I(1))},
      {GeF32, {F(kNanF), F(0.0f)}, is(I(0))},

      // --- f64 -------------------------------------------------------------
      {AddF64, {D(0.1), D(0.2)}, is(Db(0x3fd3333333333334))},
      {AddF64, {D(-kInfD), D(kInfD)}, agree_nan()},
      {SubF64, {D(1.0), D(0.25)}, is(D(0.75))},
      {MulF64, {D(1e300), D(1e300)}, is(Db(0x7ff0000000000000))},
      {MulF64, {D(-0.0), D(5.0)}, is(Db(0x8000000000000000))},
      {DivF64, {D(1.0), D(3.0)}, is(Db(0x3fd5555555555555))},
      {DivF64, {D(-1.0), D(0.0)}, is(Db(0xfff0000000000000))},
      {MinF64, {D(-1.0), D(2.0)}, is(D(-1.0))},
      {MinF64, {D(kNanD), D(2.0)}, is(D(2.0))},
      {MinF64, {D(0.0), D(-0.0)}, agree()},
      {MaxF64, {D(3.0), D(2.0)}, is(D(3.0))},
      {MaxF64, {D(2.0), D(kNanD)}, is(D(2.0))},
      {MaxF64, {D(-0.0), D(0.0)}, agree()},
      {NegF64, {D(0.0)}, is(Db(0x8000000000000000))},
      {NegF64, {D(-2.5)}, is(D(2.5))},
      {SqrtF64, {D(2.0)}, is(Db(0x3ff6a09e667f3bcd))},
      {SqrtF64, {D(-4.0)}, agree_nan()},
      {EqF64, {D(0.5), D(0.5)}, is(I(1))},
      {EqF64, {D(kNanD), D(kNanD)}, is(I(0))},
      {NeF64, {D(kNanD), D(1.0)}, is(I(1))},
      {NeF64, {D(0.0), D(-0.0)}, is(I(0))},
      {LtF64, {D(-kInfD), D(0.0)}, is(I(1))},
      {LtF64, {D(1.0), D(kNanD)}, is(I(0))},
      {LeF64, {D(1.0), D(1.0)}, is(I(1))},
      {LeF64, {D(kNanD), D(1.0)}, is(I(0))},
      {GtF64, {D(kInfD), D(1e308)}, is(I(1))},
      {GtF64, {D(kNanD), D(1.0)}, is(I(0))},
      {GeF64, {D(1.0), D(2.0)}, is(I(0))},
      {GeF64, {D(kNanD), D(kNanD)}, is(I(0))},

      // --- selects ---------------------------------------------------------
      {SelectI32, {I(10), I(20), I(1)}, is(I(10))},
      {SelectI32, {I(10), I(20), I(0)}, is(I(20))},
      {SelectI32, {I(10), I(20), I(-1)}, is(I(10))},
      {SelectI64, {L(int64_t{1} << 40), L(5), I(0)}, is(L(5))},
      {SelectI64, {L(int64_t{1} << 40), L(5), I(7)},
       is(L(int64_t{1} << 40))},
      {SelectF32, {F(1.5f), Fb(0x7fc00001), I(0)}, is(Fb(0x7fc00001))},
      {SelectF32, {F(1.5f), F(2.5f), I(1)}, is(F(1.5f))},
      {SelectF64, {D(-0.0), D(1.0), I(1)}, is(Db(0x8000000000000000))},
      {SelectF64, {D(-0.0), D(1.0), I(0)}, is(D(1.0))},

      // --- conversions -----------------------------------------------------
      {I32ToI64S, {I(-1)}, is(L(-1))},
      {I32ToI64U, {I(-1)}, is(L(4294967295))},
      {I64ToI32, {L(0x100000005)}, is(I(5))},
      {I64ToI32, {L(2147483648)}, is(I(kMin32))},
      {I32ToF32S, {I(16777217)}, is(Fb(0x4b800000))},
      {I32ToF32S, {I(-1)}, is(F(-1.0f))},
      {F32ToI32S, {F(2.9f)}, is(I(2))},
      {F32ToI32S, {F(-2.9f)}, is(I(-2))},
      {F32ToI32S, {F(kNanF)}, is(I(0))},
      {F32ToI32S, {F(kInfF)}, is(I(kMax32))},
      {F32ToI32S, {F(-kInfF)}, is(I(kMin32))},
      {F32ToI32S, {F(3e9f)}, is(I(kMax32))},
      {F32ToI32S, {F(-3e9f)}, is(I(kMin32))},
      {F32ToI32S, {F(2147483520.0f)}, is(I(2147483520))},
      {F32ToI32S, {F(-2147483648.0f)}, is(I(kMin32))},
      {I32ToF64S, {I(kMin32)}, is(D(-2147483648.0))},
      {F64ToI32S, {D(-1.5)}, is(I(-1))},
      {F64ToI32S, {D(kNanD)}, is(I(0))},
      {F64ToI32S, {D(kInfD)}, is(I(kMax32))},
      {F64ToI32S, {D(-kInfD)}, is(I(kMin32))},
      {F64ToI32S, {D(2147483647.9)}, is(I(kMax32))},
      {F64ToI32S, {D(2147483648.0)}, is(I(kMax32))},
      {F64ToI32S, {D(-2147483648.9)}, is(I(kMin32))},
      {F64ToI32S, {D(-2147483649.0)}, is(I(kMin32))},
      {F64ToI32S, {D(1e10)}, is(I(kMax32))},
      {F32ToF64, {F(0.1f)}, is(Db(0x3fb99999a0000000))},
      {F64ToF32, {D(0.1)}, is(Fb(0x3dcccccd))},
      {F64ToF32, {D(1e40)}, is(Fb(0x7f800000))},
      {I64ToF64S, {L((int64_t{1} << 53) + 1)}, is(Db(0x4340000000000000))},
      {I64ToF64S, {L(-1)}, is(D(-1.0))},
      {F64ToI64S, {D(-2.5)}, is(L(-2))},
      {F64ToI64S, {D(kNanD)}, is(L(0))},
      {F64ToI64S, {D(kInfD)}, is(L(kMax64))},
      {F64ToI64S, {D(-kInfD)}, is(L(kMin64))},
      {F64ToI64S, {D(9.3e18)}, is(L(kMax64))},
      {F64ToI64S, {D(-9.3e18)}, is(L(kMin64))},
      {F64ToI64S, {D(4611686018427387904.0)}, is(L(int64_t{1} << 62))},

      // --- loads (kData holds kDataBytes) ----------------------------------
      {LoadI8U, {I(kData)}, is(I(128))},
      {LoadI8U, {I(kData - 6)}, is(I(255)), 8},
      {LoadI8U, {I(kMemBytes - 1)}, is(I(0))},
      {LoadI8U, {I(-1)}, traps(TrapKind::OutOfBoundsMemory)},
      {LoadI8S, {I(kData)}, is(I(-128))},
      {LoadI8S, {I(kData + 1)}, is(I(1))},
      {LoadI16U, {I(kData)}, is(I(0x0180))},
      {LoadI16U, {I(kData + 1)}, is(I(0xff01))},
      {LoadI16S, {I(kData + 1)}, is(I(-255))},
      {LoadI16S, {I(kData + 2)}, is(I(0x7fff))},
      {LoadI16S, {I(kMemBytes - 1)}, traps(TrapKind::OutOfBoundsMemory)},
      {LoadI32, {I(kData)}, is(I(0x7fff0180))},
      {LoadI32, {I(kData + 4)}, is(I(0x3f800000))},
      {LoadI32, {I(kMemBytes - 3)}, traps(TrapKind::OutOfBoundsMemory)},
      {LoadI32, {I(kMemBytes - 4)}, traps(TrapKind::OutOfBoundsMemory), 4},
      {LoadI64, {I(kData + 8)}, is(L(0x3ff8000000000000))},
      {LoadI64, {I(kMemBytes - 4)}, traps(TrapKind::OutOfBoundsMemory)},
      {LoadF32, {I(kData + 4)}, is(F(1.0f))},
      {LoadF32, {I(kData)}, is(Fb(0x7fff0180))},
      {LoadF64, {I(kData + 8)}, is(D(1.5))},
      {LoadF64, {I(-8)}, traps(TrapKind::OutOfBoundsMemory)},
      {LoadV128,
       {I(kData + 16)},
       vec(V8({0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19,
               0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f}))},
      {LoadV128, {I(kMemBytes - 8)}, traps(TrapKind::OutOfBoundsMemory)},

      // --- stores (the byte after each store must stay 0) ------------------
      {StoreI8, {I(kStore), I(0x1ff)}, stores({0xff, 0x00})},
      {StoreI8, {I(kStore - 12), I(0x42)}, stores({0x42, 0x00}), 12},
      {StoreI8, {I(-1), I(1)}, traps(TrapKind::OutOfBoundsMemory)},
      {StoreI16, {I(kStore), I(0x12345678)}, stores({0x78, 0x56, 0x00})},
      {StoreI32, {I(kStore), I(-2)}, stores({0xfe, 0xff, 0xff, 0xff, 0x00})},
      {StoreI32, {I(kMemBytes - 2), I(1)},
       traps(TrapKind::OutOfBoundsMemory)},
      {StoreI64,
       {I(kStore), L(0x0102030405060708)},
       stores({0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00})},
      {StoreF32, {I(kStore), F(1.0f)}, stores({0x00, 0x00, 0x80, 0x3f, 0x00})},
      {StoreF64,
       {I(kStore), D(-2.0)},
       stores({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x00})},
      {StoreV128,
       {I(kStore), V32({0x03020100, 0x07060504, 0x0b0a0908, 0x0f0e0d0c})},
       stores({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0})},
      {StoreV128, {I(kMemBytes - 15), kZeros},
       traps(TrapKind::OutOfBoundsMemory)},

      // --- vector constants / splats ---------------------------------------
      {VZero, {}, vec(kZeros)},
      {VSplatI8, {I(0x1ff)}, vec(kOnes8)},
      {VSplatI16, {I(0x12345)},
       vec(V16({0x2345, 0x2345, 0x2345, 0x2345, 0x2345, 0x2345, 0x2345,
                0x2345}))},
      {VSplatI32, {I(-2)},
       vec(V32({0xfffffffe, 0xfffffffe, 0xfffffffe, 0xfffffffe}))},
      {VSplatF32, {F(1.0f)},
       vec(V32({0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000}))},

      // --- vector arithmetic -----------------------------------------------
      {VAddI8, {kA8, kB8},
       vec(V8({4, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0}))},
      {VSubI8, {kA8, kB8},
       vec(V8({240, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 254}))},
      {VMinU8, {kA8, kB8},
       vec(V8({10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}))},
      {VMaxU8, {kA8, kB8}, vec(kA8)},
      {VAddI16, {kA16, kB16}, vec(V16({0, 2, 3, 4, 5, 6, 7, 0x8001}))},
      {VSubI16, {kA16, kB16}, vec(V16({0xfffe, 0, 1, 2, 3, 4, 5, 0x7fff}))},
      {VMinU16, {kA16, kB16}, vec(kB16)},
      {VMaxU16, {kA16, kB16}, vec(kA16)},
      {VAddI32, {kA32, kB32},
       vec(V32({0x80000000, 0, 3, 0x80000003}))},
      {VSubI32, {kA32, kB32},
       vec(V32({0x7ffffffe, 0xfffffffe, 7, 0x7ffffffd}))},
      {VMulI32, {kA32, kB32},
       vec(V32({0x7fffffff, 0xffffffff, 0xfffffff6, 0x80000000}))},
      {VMinSI32, {kA32, kB32},
       vec(V32({1, 0xffffffff, 0xfffffffe, 0x80000000}))},
      {VMaxSI32, {kA32, kB32}, vec(V32({0x7fffffff, 1, 5, 3}))},
      {VAddF32, {kFa, kFb}, vec(VF({3.5f, -0.5f, 0.75f, 6.0f}))},
      {VSubF32, {kFa, kFb}, vec(VF({-0.5f, -1.5f, -0.25f, 10.0f}))},
      {VMulF32, {kFa, kFb}, vec(VF({3.0f, -0.5f, 0.125f, -16.0f}))},
      {VDivF32, {kFa, kFb}, vec(VF({0.75f, -2.0f, 0.5f, -4.0f}))},
      {VMinF32, {kMa, kMb}, vec(VF({1.0f, 5.0f, -kInfF, -3.0f}))},
      {VMinF32, {kPosNegZero, kZeros}, agree()},
      {VMaxF32, {kMa, kMb}, vec(VF({2.0f, 5.0f, 0.0f, 3.0f}))},
      {VMaxF32, {kZeros, kPosNegZero}, agree()},
      {VAnd, {kBitsA, kBitsB}, vec(V32({0x0f000f00, 0x12340000, 0, 0}))},
      {VOr, {kBitsA, kBitsB},
       vec(V32({0xff0fff0f, 0xffff5678, 0xffffffff, 0xffffffff}))},
      {VXor, {kBitsA, kBitsB},
       vec(V32({0xf00ff00f, 0xedcb5678, 0xffffffff, 0xffffffff}))},

      // --- vector reductions -----------------------------------------------
      {VRSumU8, {kOnes8}, is(I(4080))},
      {VRSumU8, {kA8}, is(I(610))},
      {VRSumU16, {V16({0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff,
                       0xffff, 0xffff})},
       is(I(524280))},
      {VRSumI32, {V32({0x7fffffff, 1, 0, 0})}, is(I(kMin32))},
      {VRSumI32, {V32({0xffffffff, 0xfffffffe, 3, 4})}, is(I(4))},
      // Pairwise: (1e8 + 1) + (-1e8 + 1) rounds to 0; a left-to-right sum
      // gives 1 and ((l0 + l2) + (l1 + l3)) gives 2.
      {VRSumF32, {VF({1e8f, 1.0f, -1e8f, 1.0f})}, is(F(0.0f))},
      {VRSumF32, {kFa}, is(F(8.75f))},
      {VRMaxU8, {kA8}, is(I(255))},
      {VRMaxU8, {kZeros}, is(I(0))},
      {VRMinU8, {kA8}, is(I(1))},
      {VRMinU8, {kOnes8}, is(I(255))},
      {VRMaxU16, {kA16}, is(I(0xffff))},
      {VRMaxSI32, {V32({0xfffffffb, 0xfffffffd, 0xfffffff7, 0xfffffffc})},
       is(I(-3))},
      {VRMaxSI32, {kA32}, is(I(kMax32))},
      {VRMaxF32, {VF({1.0f, kNanF, 3.0f, -2.0f})}, is(F(3.0f))},
      {VRMaxF32, {kPosNegZero}, agree()},
      {VRMinF32, {VF({1.0f, kNanF, 3.0f, -2.0f})}, is(F(-2.0f))},
      {VRMinF32, {kPosNegZero}, agree()},

      // --- vector lanes ----------------------------------------------------
      {VExtractU8, {kA8}, is(I(255)), 15},
      {VExtractU8, {kA8}, is(I(250)), 0},
      {VExtractU16, {kA16}, is(I(0x8000)), 7},
      {VExtractI32, {kA32}, is(I(kMin32)), 3},
      {VExtractF32, {kFa}, is(F(-1.0f)), 1},
      {VInsertI8, {kZeros, I(0x1ab)},
       vec(V8({0, 0, 0, 0xab, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})), 3},
      {VInsertI16, {kZeros, I(0x12345)},
       vec(V16({0, 0, 0, 0, 0, 0, 0, 0x2345})), 7},
      {VInsertI32, {kA32, I(-1)},
       vec(V32({0xffffffff, 0xffffffff, 5, 0x80000000})), 0},
      {VInsertF32, {kZeros, F(2.0f)}, vec(V32({0, 0, 0x40000000, 0})), 2},
  };
  return rows;
}

// --- running one row -------------------------------------------------------

/// One function per row: scalar operands arrive as parameters (so no
/// engine can fold them), v128 operands are loaded from kVecIn, and a
/// v128 result is stored to kOut.
Module build_row(const Row& row) {
  const OpInfo& info = op_info(row.op);
  const bool vec_out = info.push_type() == Type::V128;
  FunctionSig sig;
  sig.ret = vec_out ? Type::Void : info.push_type();
  for (const Value& v : row.in) {
    if (v.type != Type::V128) sig.params.push_back(v.type);
  }
  FunctionBuilder b("row", sig);
  if (vec_out) b.const_i32(kOut);
  uint32_t param = 0;
  for (size_t k = 0; k < row.in.size(); ++k) {
    if (row.in[k].type == Type::V128) {
      b.const_i32(static_cast<int32_t>(kVecIn + 16 * k))
          .load(Opcode::LoadV128);
    } else {
      b.get(param++);
    }
  }
  switch (info.imm) {
    case ImmKind::MemOff: b.emit(Instruction::with_imm(row.op, row.imm)); break;
    case ImmKind::Lane: b.lane_op(row.op, row.imm); break;
    default: b.op(row.op); break;
  }
  if (vec_out) b.store(Opcode::StoreV128);
  b.ret();
  Module m;
  m.add_function(b.take());
  return m;
}

void setup(Memory& mem, const Row& row) {
  for (size_t i = 0; i < std::size(kDataBytes); ++i) {
    mem.store_u8(kData + static_cast<uint32_t>(i), kDataBytes[i]);
  }
  for (size_t k = 0; k < row.in.size(); ++k) {
    if (row.in[k].type == Type::V128) {
      mem.store_v128(static_cast<uint32_t>(kVecIn + 16 * k), row.in[k].v128);
    }
  }
}

struct Outcome {
  std::string engine;
  TrapKind trap = TrapKind::None;
  Value value;
  std::vector<uint8_t> mem;
};

std::vector<Outcome> run_everywhere(const Row& row) {
  const Module m = build_row(row);
  std::vector<Value> args;
  for (const Value& v : row.in) {
    if (v.type != Type::V128) args.push_back(v);
  }
  std::vector<Outcome> out;
  // Fused, the threaded engine runs get/get/<op> rows as one
  // superinstruction; unfused, it runs the generated per-opcode label.
  struct Tier0 {
    const char* name;
    DispatchKind kind;
    bool fusion;
  };
  for (const Tier0 t : {Tier0{"switch", DispatchKind::Switch, false},
                        Tier0{"threaded", DispatchKind::Threaded, true},
                        Tier0{"threaded-unfused", DispatchKind::Threaded,
                              false}}) {
    Memory mem(kMemBytes);
    setup(mem, row);
    Interpreter interp(m, mem);
    interp.set_dispatch(t.kind);
    interp.set_fusion(t.fusion);
    const ExecResult r = interp.run(0, args);
    out.push_back({t.name, r.trap, r.value.value_or(Value{}),
                   {mem.bytes().begin(), mem.bytes().end()}});
  }
  for (const TargetKind target : all_targets()) {
    const MachineDesc& desc = target_desc(target);
    const CodeImage code = JitCompiler(desc).compile_module(m);
    Memory mem(kMemBytes);
    setup(mem, row);
    Simulator sim(desc, code, mem);
    const SimResult r = sim.run(0, args);
    out.push_back({desc.name, r.trap, r.ok() ? r.value : Value{},
                   {mem.bytes().begin(), mem.bytes().end()}});
  }
  return out;
}

bool is_nan(const Value& v) {
  return (v.type == Type::F32 && std::isnan(v.f32)) ||
         (v.type == Type::F64 && std::isnan(v.f64));
}

std::string describe(const Row& row) {
  std::string s(op_mnemonic(row.op));
  for (const Value& v : row.in) s += " " + v.str();
  if (row.imm) s += " imm=" + std::to_string(row.imm);
  return s;
}

TEST(Semantics, RowsMatchOpcodeSignatures) {
  for (const Row& row : golden_rows()) {
    SCOPED_TRACE(describe(row));
    const OpInfo& info = op_info(row.op);
    ASSERT_EQ(row.in.size(), info.pops.size());
    for (size_t k = 0; k < row.in.size(); ++k) {
      EXPECT_EQ(row.in[k].type, type_from_code(info.pops[k]))
          << "operand " << k;
    }
    if (row.want.kind == Want::Is) {
      EXPECT_EQ(row.want.value.type, info.push_type());
    }
  }
}

TEST(Semantics, GoldenTableOnEveryEngine) {
  for (const Row& row : golden_rows()) {
    SCOPED_TRACE(describe(row));
    const std::vector<Outcome> outs = run_everywhere(row);
    const Outcome& ref = outs.front();
    for (const Outcome& o : outs) {
      SCOPED_TRACE(o.engine);
      // Every engine agrees with the switch engine, bit for bit.
      EXPECT_EQ(o.trap, ref.trap);
      EXPECT_TRUE(o.value == ref.value)
          << "got " << o.value.str() << " switch " << ref.value.str();
      EXPECT_TRUE(o.mem == ref.mem) << "final memory differs";
      // And matches the row.
      switch (row.want.kind) {
        case Want::Is:
          EXPECT_EQ(o.trap, TrapKind::None);
          EXPECT_TRUE(o.value == row.want.value)
              << "got " << o.value.str() << " want " << row.want.value.str();
          break;
        case Want::Traps:
          EXPECT_EQ(o.trap, row.want.trap);
          break;
        case Want::Memory: {
          EXPECT_EQ(o.trap, TrapKind::None);
          const auto first = o.mem.begin() + row.want.addr;
          EXPECT_TRUE(std::equal(row.want.bytes.begin(), row.want.bytes.end(),
                                 first))
              << "memory at " << row.want.addr << " differs";
          break;
        }
        case Want::Agree:
          EXPECT_EQ(o.trap, TrapKind::None);
          break;
        case Want::AgreeNaN:
          EXPECT_EQ(o.trap, TrapKind::None);
          EXPECT_TRUE(is_nan(o.value)) << o.value.str();
          break;
      }
    }
  }
}

// The coverage gate: a value opcode added to opcodes.def (and defined in
// vm/semantics.h) fails here until it has a golden row.
TEST(Semantics, EveryValueOpcodeHasARow) {
  std::set<Opcode> covered;
  for (const Row& row : golden_rows()) covered.insert(row.op);
  for (const Opcode op : sem::kValueOps) {
    EXPECT_TRUE(covered.count(op)) << "no golden row for " << op_mnemonic(op);
  }
  const std::set<Opcode> value_ops(std::begin(sem::kValueOps),
                                   std::end(sem::kValueOps));
  for (const Opcode op : covered) {
    EXPECT_TRUE(value_ops.count(op))
        << op_mnemonic(op) << " is not a value opcode";
  }
}

}  // namespace
}  // namespace svc
