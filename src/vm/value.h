// Runtime values for the interpreter and the host API. A Value is a typed
// 128-bit-wide scalar-or-vector; V128 carries raw bytes whose lane
// interpretation is chosen by each opcode (as on real SIMD register files;
// vm/semantics.h reads and writes the lanes).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "bytecode/type.h"

namespace svc {

struct V128 {
  alignas(16) std::array<uint8_t, 16> bytes{};

  friend bool operator==(const V128&, const V128&) = default;
};

struct Value {
  Type type = Type::Void;
  union {
    int32_t i32;
    int64_t i64;
    float f32;
    double f64;
  };
  V128 v128;  // valid when type == V128

  Value() : i64(0) {}

  static Value make_i32(int32_t v) {
    Value r;
    r.type = Type::I32;
    r.i32 = v;
    return r;
  }
  static Value make_i64(int64_t v) {
    Value r;
    r.type = Type::I64;
    r.i64 = v;
    return r;
  }
  static Value make_f32(float v) {
    Value r;
    r.type = Type::F32;
    r.f32 = v;
    return r;
  }
  static Value make_f64(double v) {
    Value r;
    r.type = Type::F64;
    r.f64 = v;
    return r;
  }
  static Value make_v128(V128 v) {
    Value r;
    r.type = Type::V128;
    r.v128 = v;
    return r;
  }
  /// Zero value of a given type (used for local initialization).
  static Value zero_of(Type t);

  // Cold by contract: str() exists for error reports and test logs,
  // never for the execution path.
  [[nodiscard, gnu::cold]] std::string str() const;

  friend bool operator==(const Value& a, const Value& b);
};

namespace detail {

// Float min/max behind the min/max opcodes of vm/semantics.h.
// std::fmin/fmax leave the sign of a (+0, -0) result
// implementation-defined, so two engines compiled in different
// translation units could legally disagree bit-wise; routing every
// engine through these single out-of-line symbols pins the choice once
// for the whole process (noinline so no TU re-specializes them).
[[nodiscard, gnu::noinline]] float fmin32(float a, float b);
[[nodiscard, gnu::noinline]] float fmax32(float a, float b);
[[nodiscard, gnu::noinline]] double fmin64(double a, double b);
[[nodiscard, gnu::noinline]] double fmax64(double a, double b);

}  // namespace detail

}  // namespace svc
