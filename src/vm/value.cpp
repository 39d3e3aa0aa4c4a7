#include "vm/value.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace svc {

namespace detail {

float fmin32(float a, float b) { return std::fmin(a, b); }
float fmax32(float a, float b) { return std::fmax(a, b); }
double fmin64(double a, double b) { return std::fmin(a, b); }
double fmax64(double a, double b) { return std::fmax(a, b); }

}  // namespace detail

Value Value::zero_of(Type t) {
  Value v;
  v.type = t;
  v.i64 = 0;
  v.v128 = V128{};
  return v;
}

std::string Value::str() const {
  std::ostringstream os;
  switch (type) {
    case Type::Void: os << "void"; break;
    case Type::I32: os << i32 << ":i32"; break;
    case Type::I64: os << i64 << ":i64"; break;
    case Type::F32: os << f32 << ":f32"; break;
    case Type::F64: os << f64 << ":f64"; break;
    case Type::V128: {
      os << "v128[";
      for (size_t i = 0; i < 16; ++i) {
        if (i) os << ' ';
        os << static_cast<int>(v128.bytes[i]);
      }
      os << ']';
      break;
    }
  }
  return os.str();
}

bool operator==(const Value& a, const Value& b) {
  // Bit equality on purpose: differential tests must distinguish NaN
  // payloads and signed zeros identically across interpreter and JIT.
  // Scalars compare as one masked 8-byte word (a width mask rather than a
  // per-type switch: this runs per element in differential test loops);
  // memcpy keeps the union read well-defined under UBSan.
  if (a.type != b.type) return false;
  if (a.type == Type::V128) return a.v128 == b.v128;
  uint64_t pa;
  uint64_t pb;
  std::memcpy(&pa, &a.i64, sizeof pa);
  std::memcpy(&pb, &b.i64, sizeof pb);
  const bool wide = a.type == Type::I64 || a.type == Type::F64;
  const uint64_t mask = a.type == Type::Void ? 0
                        : wide               ? ~uint64_t{0}
                                             : uint64_t{0xffffffff};
  return (pa & mask) == (pb & mask);
}

}  // namespace svc
