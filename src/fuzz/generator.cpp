#include "fuzz/generator.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "support/rng.h"

namespace svc::fuzz {

namespace {

// Scalar surface types the generator deals in. (f64 is deliberately
// excluded: the vectorizer and all four targets already exercise it via
// the hand-written suites, and keeping the generated surface to the
// types every pipeline configuration handles identically maximizes the
// cells a single program can legally visit.)
enum class Ty : uint8_t { I32, I64, F32 };

const char* ty_name(Ty t) {
  switch (t) {
    case Ty::I32: return "i32";
    case Ty::I64: return "i64";
    case Ty::F32: return "f32";
  }
  return "i32";
}

struct Var {
  std::string name;
  Ty type;
  bool assignable = true;
};

struct Region {
  std::string name;  // parameter name in the entry function
  uint32_t index = 0;
  uint32_t addr = 0;
  uint32_t elems = 0;
  std::string elem;  // "u8" | "u16" | "i32" | "f32"
};

struct HelperSig {
  std::string name;
  std::vector<Ty> params;
  Ty ret = Ty::I32;
  uint64_t cost = 0;  // static dynamic-step estimate of one call
};

// Renders a quarter-integer f32 literal exactly ("%.2f" is lossless for
// n/4) with the explicit f32 suffix; negatives are parenthesized so the
// literal drops into any expression position.
std::string f32_lit(int32_t quarters) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2ff", static_cast<double>(quarters) / 4.0);
  if (quarters < 0) return std::string("(") + buf + ")";
  return buf;
}

std::string i32_lit(int64_t v) {
  const std::string s = std::to_string(v);
  return v < 0 ? "(" + s + ")" : s;
}

class Generator {
 public:
  Generator(uint64_t seed, const GenOptions& opts)
      : opts_(opts),
        // Independent substreams: structural decisions never perturb the
        // memory image and vice versa.
        rng_(Rng(seed).fork(0xA11)),
        fill_seed_(Rng(seed).fork(0xF111).next_u64()) {
    program_.seed = seed;
    program_.fill_seed = fill_seed_;
  }

  GeneratedProgram run() {
    const auto n_helpers =
        static_cast<uint32_t>(rng_.next_below(opts_.max_helpers + 1));
    for (uint32_t i = 0; i < n_helpers; ++i) gen_helper(i);
    gen_entry();
    program_.source = join_lines();
    program_.features.functions = n_helpers + 1;
    program_.features.est_cost = total_cost_;
    return std::move(program_);
  }

 private:
  // --- emission --------------------------------------------------------

  void emit(const std::string& line) {
    std::string out;
    for (uint32_t i = 0; i < indent_; ++i) out += "  ";
    out += line;
    lines_.push_back(std::move(out));
  }

  std::string join_lines() const {
    std::string out;
    for (const std::string& l : lines_) {
      out += l;
      out += '\n';
    }
    return out;
  }

  std::string fresh(const char* prefix) {
    return std::string(prefix) + std::to_string(name_counter_++);
  }

  // --- cost model ------------------------------------------------------
  // Every simple statement is charged ~4 dynamic steps, scaled by the
  // product of enclosing trip counts; loops refuse to open when the
  // remaining budget cannot absorb a worst-case body. This is what lets
  // the harness promise trap-free termination without running anything.

  [[nodiscard]] uint64_t remaining_budget() const {
    return total_cost_ >= opts_.cost_budget ? 0
                                            : opts_.cost_budget - total_cost_;
  }

  void charge(uint64_t steps) { total_cost_ += steps * mult_; }

  // --- expressions -----------------------------------------------------

  std::vector<const Var*> vars_of(Ty t) const {
    std::vector<const Var*> out;
    for (const Var& v : scope_) {
      if (v.type == t) out.push_back(&v);
    }
    return out;
  }

  std::string gen_load(const Region& r, const std::string& idx) {
    // u8/u16 loads widen to i32; i32/f32 load their own type.
    return r.name + "[" + idx + "]";
  }

  // An index expression provably inside [0, r.elems): a literal, an
  // active loop variable (every loop counts 0..trip-1 with trip <=
  // max(max_trip, 64) == elems), or loopvar + small constant.
  std::string gen_index(const Region& r) {
    if (!loop_vars_.empty() && rng_.next_below(3) != 0) {
      const std::string& iv =
          loop_vars_[rng_.next_below(loop_vars_.size())].name;
      const uint32_t headroom =
          r.elems > opts_.max_trip ? r.elems - opts_.max_trip : 0;
      if (headroom > 0 && rng_.next_bool()) {
        return "(" + iv + " + " +
               std::to_string(rng_.next_below(headroom)) + ")";
      }
      return iv;
    }
    return std::to_string(rng_.next_below(r.elems));
  }

  std::string gen_expr(Ty t, uint32_t depth) {
    if (depth == 0 || rng_.next_below(3) == 0) return gen_leaf(t);
    switch (t) {
      case Ty::I32: return gen_i32(depth);
      case Ty::I64: return gen_i64(depth);
      case Ty::F32: return gen_f32(depth);
    }
    return gen_leaf(t);
  }

  std::string gen_leaf(Ty t) {
    // Pointer loads are leaves too (entry function only).
    if (!regions_.empty() && rng_.next_below(4) == 0) {
      std::vector<const Region*> candidates;
      for (const Region& r : regions_) {
        const bool is_f32 = r.elem == "f32";
        if ((t == Ty::F32) == is_f32 && t != Ty::I64) {
          candidates.push_back(&r);
        }
      }
      if (!candidates.empty()) {
        const Region& r = *candidates[rng_.next_below(candidates.size())];
        return gen_load(r, gen_index(r));
      }
    }
    const auto vs = vars_of(t);
    if (!vs.empty() && rng_.next_below(4) != 0) {
      return vs[rng_.next_below(vs.size())]->name;
    }
    switch (t) {
      case Ty::I32: return i32_lit(rng_.next_range(-99, 99));
      case Ty::I64:
        // Integer literals are contextually typed and the context does
        // not reach every position; the cast form is always unambiguous.
        return "(" + i32_lit(rng_.next_range(-99, 99)) + " as i64)";
      case Ty::F32:
        program_.features.uses_f32 = true;
        return f32_lit(static_cast<int32_t>(rng_.next_range(-64, 64)));
    }
    return "0";
  }

  std::string gen_i32(uint32_t depth) {
    switch (rng_.next_below(8)) {
      case 0:  // division by a positive literal: never traps
        return "(" + gen_expr(Ty::I32, depth - 1) + " / " +
               std::to_string(rng_.next_range(2, 9)) + ")";
      case 1:  // modulo likewise (i32 only; MiniC has no i64 %)
        return "(" + gen_expr(Ty::I32, depth - 1) + " % " +
               std::to_string(rng_.next_range(2, 9)) + ")";
      case 2: {  // comparison (i32-valued)
        static const char* kCmp[] = {"<", ">", "<=", ">=", "==", "!="};
        return "(" + gen_expr(Ty::I32, depth - 1) + " " +
               kCmp[rng_.next_below(6)] + " " + gen_expr(Ty::I32, depth - 1) +
               ")";
      }
      case 3: {  // i32 builtins
        static const char* kB[] = {"max_s", "min_s", "max_u", "min_u"};
        return std::string(kB[rng_.next_below(4)]) + "(" +
               gen_expr(Ty::I32, depth - 1) + ", " +
               gen_expr(Ty::I32, depth - 1) + ")";
      }
      case 4:  // narrowing i64 cast (truncation is well defined)
        program_.features.uses_i64 = true;
        return "(" + gen_expr(Ty::I64, depth - 1) + " as i32)";
      default: {  // wrapping arithmetic
        static const char* kOp[] = {"+", "-", "*"};
        return "(" + gen_expr(Ty::I32, depth - 1) + " " +
               kOp[rng_.next_below(3)] + " " + gen_expr(Ty::I32, depth - 1) +
               ")";
      }
    }
  }

  std::string gen_i64(uint32_t depth) {
    program_.features.uses_i64 = true;
    if (rng_.next_below(4) == 0) {
      return "(" + gen_expr(Ty::I32, depth - 1) + " as i64)";
    }
    static const char* kOp[] = {"+", "-", "*"};
    return "(" + gen_expr(Ty::I64, depth - 1) + " " + kOp[rng_.next_below(3)] +
           " " + gen_expr(Ty::I64, depth - 1) + ")";
  }

  std::string gen_f32(uint32_t depth) {
    program_.features.uses_f32 = true;
    switch (rng_.next_below(7)) {
      case 0: {
        static const char* kB[] = {"fmaxf", "fminf"};
        return std::string(kB[rng_.next_below(2)]) + "(" +
               gen_expr(Ty::F32, depth - 1) + ", " +
               gen_expr(Ty::F32, depth - 1) + ")";
      }
      case 1:  // sqrtf over fabsf keeps the domain non-negative
        return "sqrtf(fabsf(" + gen_expr(Ty::F32, depth - 1) + "))";
      case 2:  // widening int cast (always defined)
        return "(" + gen_expr(Ty::I32, depth - 1) + " as f32)";
      default: {
        static const char* kOp[] = {"+", "-", "*", "/"};
        return "(" + gen_expr(Ty::F32, depth - 1) + " " +
               kOp[rng_.next_below(4)] + " " + gen_expr(Ty::F32, depth - 1) +
               ")";
      }
    }
  }

  // Conditions are i32 in MiniC; comparisons give the best branch mix.
  std::string gen_cond() {
    static const char* kCmp[] = {"<", ">", "<=", ">=", "==", "!="};
    return "(" + gen_expr(Ty::I32, 2) + " " + kCmp[rng_.next_below(6)] + " " +
           gen_expr(Ty::I32, 2) + ")";
  }

  Ty pick_type() {
    switch (rng_.next_below(5)) {
      case 0: return Ty::F32;
      case 1: return Ty::I64;
      default: return Ty::I32;
    }
  }

  // --- statements ------------------------------------------------------

  void stmt_decl() {
    const Ty t = pick_type();
    const std::string name = fresh("v");
    emit("var " + name + ": " + ty_name(t) + " = " + gen_expr(t, 3) + ";");
    scope_.push_back({name, t, true});
    charge(4);
    ++program_.features.stmts;
  }

  void stmt_assign() {
    std::vector<const Var*> mut;
    for (const Var& v : scope_) {
      if (v.assignable) mut.push_back(&v);
    }
    if (mut.empty()) return stmt_decl();
    const Var& v = *mut[rng_.next_below(mut.size())];
    emit(v.name + " = " + gen_expr(v.type, 3) + ";");
    charge(4);
    ++program_.features.stmts;
  }

  void stmt_store() {
    if (regions_.empty()) return stmt_assign();
    const Region& r = regions_[rng_.next_below(regions_.size())];
    const Ty t = r.elem == "f32" ? Ty::F32 : Ty::I32;
    emit(r.name + "[" + gen_index(r) + "] = " + gen_expr(t, 3) + ";");
    charge(5);
    ++program_.features.stmts;
  }

  void stmt_call() {
    if (helpers_.empty()) return stmt_assign();
    const HelperSig& h = helpers_[rng_.next_below(helpers_.size())];
    if (h.cost * mult_ > remaining_budget()) return stmt_assign();
    std::string call = h.name + "(";
    for (size_t i = 0; i < h.params.size(); ++i) {
      if (i > 0) call += ", ";
      call += gen_expr(h.params[i], 2);
    }
    call += ")";
    const std::string name = fresh("v");
    emit("var " + name + ": " + std::string(ty_name(h.ret)) + " = " + call +
         ";");
    scope_.push_back({name, h.ret, true});
    charge(h.cost + 4);
    ++program_.features.calls;
    ++program_.features.stmts;
  }

  void stmt_if(uint32_t depth) {
    emit("if " + gen_cond() + " {");
    ++indent_;
    const size_t mark = scope_.size();
    gen_stmts(depth, /*max=*/2 + rng_.next_below(3));
    scope_.resize(mark);
    --indent_;
    if (rng_.next_bool()) {
      emit("} else {");
      ++indent_;
      gen_stmts(depth, 2 + rng_.next_below(3));
      scope_.resize(mark);
      --indent_;
    }
    emit("}");
    charge(2);
    ++program_.features.stmts;
  }

  void stmt_loop(uint32_t depth) {
    const auto trip = static_cast<uint32_t>(rng_.next_range(2, opts_.max_trip));
    // Worst-case body estimate: refuse when the budget cannot take it.
    const uint64_t body_cap = uint64_t{8} * 6;
    if (mult_ * trip * body_cap > remaining_budget()) return stmt_assign();

    const std::string iv = fresh("i");
    const bool use_for = rng_.next_bool();
    emit("var " + iv + ": i32 = 0;");
    if (use_for) {
      // MiniC's for-init is a simple statement (assignment), not a
      // declaration, so the induction variable is declared just above.
      emit("for (" + iv + " = 0; " + iv + " < " + std::to_string(trip) +
           "; " + iv + " = " + iv + " + 1) {");
    } else {
      emit("while (" + iv + " < " + std::to_string(trip) + ") {");
    }
    ++indent_;
    const size_t mark = scope_.size();
    scope_.push_back({iv, Ty::I32, false});
    loop_vars_.push_back({iv, Ty::I32, false});
    const uint64_t saved_mult = mult_;
    mult_ = std::min<uint64_t>(mult_ * trip, uint64_t{1} << 32);
    loop_depth_ += 1;
    program_.features.max_loop_depth =
        std::max(program_.features.max_loop_depth, loop_depth_);
    charge(3);  // per-iteration loop overhead

    gen_stmts(depth, 1 + rng_.next_below(4));

    if (!use_for) emit(iv + " = " + iv + " + 1;");
    loop_depth_ -= 1;
    mult_ = saved_mult;
    loop_vars_.pop_back();
    scope_.resize(mark);
    --indent_;
    emit("}");
    ++program_.features.loops;
    ++program_.features.stmts;
  }

  // A unit-stride whole-region loop shaped for the vectorizer: the cells
  // disagreeing on vectorize/devectorize decisions must still agree on
  // every byte these write.
  void stmt_kernel_loop() {
    if (regions_.size() < 2) return stmt_assign();
    const Region& dst = regions_[rng_.next_below(regions_.size())];
    const Region& src = regions_[rng_.next_below(regions_.size())];
    const uint64_t cost = uint64_t{dst.elems} * 8;
    if (mult_ * cost > remaining_budget()) return stmt_assign();

    const std::string iv = fresh("i");
    emit("var " + iv + ": i32 = 0;");
    emit("while (" + iv + " < " + std::to_string(dst.elems) + ") {");
    ++indent_;
    const bool dst_f = dst.elem == "f32";
    const bool src_f = src.elem == "f32";
    std::string rhs;
    if (dst_f && src_f) {
      rhs = "(" + src.name + "[" + iv + "] * " +
            f32_lit(static_cast<int32_t>(rng_.next_range(-8, 8))) + ") + " +
            f32_lit(static_cast<int32_t>(rng_.next_range(-8, 8)));
    } else if (dst_f) {
      rhs = "((" + src.name + "[" + iv + "] as f32) * " +
            f32_lit(static_cast<int32_t>(rng_.next_range(1, 8))) + ")";
    } else if (src_f) {
      // No float->int casts (out-of-range conversion is undefined); feed
      // integer destinations from an integer recurrence instead.
      rhs = "((" + iv + " * " + std::to_string(rng_.next_range(1, 7)) +
            ") + " + std::to_string(rng_.next_range(0, 63)) + ")";
    } else {
      rhs = "(" + src.name + "[" + iv + "] + " +
            std::to_string(rng_.next_range(-9, 9)) + ")";
    }
    emit(dst.name + "[" + iv + "] = " + rhs + ";");
    emit(iv + " = " + iv + " + 1;");
    --indent_;
    emit("}");
    charge(cost);
    ++program_.features.loops;
    ++program_.features.kernel_loops;
    program_.features.max_loop_depth =
        std::max(program_.features.max_loop_depth, loop_depth_ + 1);
    ++program_.features.stmts;
  }

  void gen_stmts(uint32_t loop_depth_left, uint32_t max_stmts) {
    const uint64_t n = 1 + rng_.next_below(std::min(max_stmts, opts_.max_stmts));
    for (uint64_t s = 0; s < n; ++s) {
      if (remaining_budget() < 64) break;
      switch (rng_.next_below(10)) {
        case 0:
        case 1: stmt_decl(); break;
        case 2: stmt_assign(); break;
        case 3: stmt_store(); break;
        case 4: stmt_call(); break;
        case 5: stmt_if(loop_depth_left); break;
        case 6:
        case 7:
          if (loop_depth_left > 0) {
            stmt_loop(loop_depth_left - 1);
          } else {
            stmt_assign();
          }
          break;
        case 8:
          if (loop_depth_left == opts_.max_loop_depth && !regions_.empty()) {
            stmt_kernel_loop();
          } else {
            stmt_store();
          }
          break;
        default: stmt_decl(); break;
      }
    }
  }

  // --- functions -------------------------------------------------------

  void gen_helper(uint32_t index) {
    HelperSig sig;
    sig.name = "f" + std::to_string(index);
    const uint64_t n_params = 1 + rng_.next_below(3);
    for (uint64_t i = 0; i < n_params; ++i) sig.params.push_back(pick_type());
    sig.ret = rng_.next_below(4) == 0 ? Ty::F32 : Ty::I32;

    scope_.clear();
    loop_vars_.clear();
    name_counter_ = 0;
    std::string head = "fn " + sig.name + "(";
    for (size_t i = 0; i < sig.params.size(); ++i) {
      if (i > 0) head += ", ";
      std::string p = "p";
      p += std::to_string(i);
      head += p + ": " + ty_name(sig.params[i]);
      scope_.push_back({p, sig.params[i], true});
    }
    head += ") -> " + std::string(ty_name(sig.ret)) + " {";
    emit(head);
    ++indent_;
    const uint64_t cost_before = total_cost_;
    // Helpers stay cheap: shallow nesting, few statements, short trips.
    gen_stmts(/*loop_depth_left=*/1, 4);
    emit("return " + gen_expr(sig.ret, 3) + ";");
    charge(4);
    --indent_;
    emit("}");
    sig.cost = std::max<uint64_t>(total_cost_ - cost_before, 8);
    helpers_.push_back(std::move(sig));
  }

  void gen_entry() {
    scope_.clear();
    loop_vars_.clear();
    name_counter_ = 0;
    program_.entry = "entry";

    static const char* kElems[] = {"f32", "i32", "u8", "u16", "f32", "i32"};
    const uint64_t n_ptrs = 2 + rng_.next_below(3);
    const uint64_t n_scalars = 1 + rng_.next_below(2);
    std::string head = "fn entry(";
    for (uint64_t i = 0; i < n_ptrs; ++i) {
      Region r;
      r.name = "a" + std::to_string(i);
      r.index = static_cast<uint32_t>(i);
      r.addr = 1024 + static_cast<uint32_t>(i) * 1024;
      r.elems = 64;
      r.elem = kElems[rng_.next_below(6)];
      if (i > 0) head += ", ";
      head += r.name + ": *" + r.elem;

      ArgSpec arg;
      arg.value = Value::make_i32(static_cast<int32_t>(r.addr));
      arg.is_ptr = true;
      arg.region.addr = r.addr;
      arg.region.elems = r.elems;
      std::snprintf(arg.region.elem, sizeof arg.region.elem, "%s",
                    r.elem.c_str());
      program_.args.push_back(arg);
      regions_.push_back(std::move(r));
    }
    for (uint64_t i = 0; i < n_scalars; ++i) {
      const Ty t = rng_.next_below(4) == 0 ? Ty::F32 : Ty::I32;
      const std::string p = "s" + std::to_string(i);
      head += ", " + p + ": " + ty_name(t);
      scope_.push_back({p, t, true});
      ArgSpec arg;
      if (t == Ty::F32) {
        arg.value = Value::make_f32(
            static_cast<float>(rng_.next_range(-64, 64)) / 4.0f);
      } else {
        arg.value =
            Value::make_i32(static_cast<int32_t>(rng_.next_range(-50, 50)));
      }
      program_.args.push_back(arg);
    }
    const Ty ret = rng_.next_below(3) == 0 ? Ty::F32 : Ty::I32;
    head += ") -> " + std::string(ty_name(ret)) + " {";
    emit(head);
    ++indent_;
    gen_stmts(opts_.max_loop_depth, opts_.max_stmts);
    // The return folds loads back in so stores are observable through the
    // value channel too, not only the memory diff.
    emit("return " + gen_expr(ret, 4) + ";");
    charge(4);
    --indent_;
    emit("}");
  }

  GenOptions opts_;
  Rng rng_;
  uint64_t fill_seed_;
  GeneratedProgram program_;
  std::vector<std::string> lines_;
  uint32_t indent_ = 0;
  uint32_t name_counter_ = 0;
  std::vector<Var> scope_;
  std::vector<Var> loop_vars_;
  std::vector<Region> regions_;
  std::vector<HelperSig> helpers_;
  uint64_t total_cost_ = 0;
  uint64_t mult_ = 1;
  uint32_t loop_depth_ = 0;
};

}  // namespace

uint32_t PtrRegion::elem_size() const {
  if (std::strcmp(elem, "u8") == 0) return 1;
  if (std::strcmp(elem, "u16") == 0) return 2;
  return 4;
}

void GeneratedProgram::init_memory(Memory& mem) const {
  const Rng base(fill_seed);
  uint32_t region_index = 0;
  for (const ArgSpec& a : args) {
    if (!a.is_ptr) continue;
    Rng rng = base.fork(region_index++);
    const PtrRegion& r = a.region;
    for (uint32_t i = 0; i < r.elems; ++i) {
      const uint32_t addr = r.addr + i * r.elem_size();
      if (!mem.in_bounds(addr, r.elem_size())) break;
      if (std::strcmp(r.elem, "u8") == 0) {
        mem.store_u8(addr, static_cast<uint8_t>(rng.next_below(256)));
      } else if (std::strcmp(r.elem, "u16") == 0) {
        mem.store_u16(addr, static_cast<uint16_t>(rng.next_below(65536)));
      } else if (std::strcmp(r.elem, "i32") == 0) {
        mem.write_i32(addr, static_cast<int32_t>(rng.next_range(-1000, 1000)));
      } else {  // f32: quarter-integers, exactly representable
        mem.write_f32(addr,
                      static_cast<float>(rng.next_range(-256, 256)) / 4.0f);
      }
    }
  }
}

std::vector<Value> GeneratedProgram::arg_values() const {
  std::vector<Value> out;
  out.reserve(args.size());
  for (const ArgSpec& a : args) out.push_back(a.value);
  return out;
}

GeneratedProgram generate_program(uint64_t seed, const GenOptions& options) {
  return Generator(seed, options).run();
}

// --- corpus files ----------------------------------------------------------

std::string render_corpus_file(const GeneratedProgram& program) {
  std::string out = "// svc_fuzz corpus case (generated; replayed by "
                    "tests/corpus_test.cpp)\n";
  char buf[128];
  std::snprintf(buf, sizeof buf, "// seed: %" PRIu64 "\n", program.seed);
  out += buf;
  std::snprintf(buf, sizeof buf, "// fillseed: %" PRIu64 "\n",
                program.fill_seed);
  out += buf;
  out += "// entry: " + program.entry + "\n";
  for (const ArgSpec& a : program.args) {
    if (a.is_ptr) {
      std::snprintf(buf, sizeof buf, "// arg: ptr %u %s %u\n", a.region.addr,
                    a.region.elem, a.region.elems);
    } else if (a.value.type == Type::F32) {
      // Bit-exact: floats round-trip as hex bit patterns, never decimals.
      std::snprintf(buf, sizeof buf, "// arg: f32bits %08x\n",
                    std::bit_cast<uint32_t>(a.value.f32));
    } else if (a.value.type == Type::I64) {
      std::snprintf(buf, sizeof buf, "// arg: i64 %" PRId64 "\n", a.value.i64);
    } else {
      std::snprintf(buf, sizeof buf, "// arg: i32 %d\n", a.value.i32);
    }
    out += buf;
  }
  if (!program.cells_hint.empty()) {
    out += "// cells: " + program.cells_hint + "\n";
  }
  out += "// ---\n";
  out += program.source;
  return out;
}

namespace {

// Splits "key: value" after the "// " prefix; returns false on other lines.
bool header_kv(std::string_view line, std::string_view& key,
               std::string_view& value) {
  if (!line.starts_with("// ")) return false;
  line.remove_prefix(3);
  const size_t colon = line.find(": ");
  if (colon == std::string_view::npos) return false;
  key = line.substr(0, colon);
  value = line.substr(colon + 2);
  return true;
}

template <typename T>
bool parse_num(std::string_view s, T& out) {
  const auto* end = s.data() + s.size();
  return std::from_chars(s.data(), end, out).ec == std::errc() &&
         s.data() != end;
}

}  // namespace

std::optional<GeneratedProgram> parse_corpus_file(std::string_view text) {
  GeneratedProgram p;
  size_t pos = 0;
  bool saw_separator = false;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line == "// ---") {
      saw_separator = true;
      break;
    }
    std::string_view key;
    std::string_view value;
    if (!header_kv(line, key, value)) continue;
    if (key == "seed") {
      if (!parse_num(value, p.seed)) return std::nullopt;
    } else if (key == "fillseed") {
      if (!parse_num(value, p.fill_seed)) return std::nullopt;
    } else if (key == "entry") {
      p.entry = std::string(value);
    } else if (key == "cells") {
      p.cells_hint = std::string(value);
    } else if (key == "arg") {
      ArgSpec a;
      if (value.starts_with("ptr ")) {
        value.remove_prefix(4);
        const size_t sp1 = value.find(' ');
        const size_t sp2 =
            sp1 == std::string_view::npos ? sp1 : value.find(' ', sp1 + 1);
        if (sp2 == std::string_view::npos) return std::nullopt;
        uint32_t addr = 0;
        uint32_t elems = 0;
        const std::string_view elem = value.substr(sp1 + 1, sp2 - sp1 - 1);
        if (!parse_num(value.substr(0, sp1), addr) ||
            !parse_num(value.substr(sp2 + 1), elems) || elem.size() > 3) {
          return std::nullopt;
        }
        a.is_ptr = true;
        a.region.addr = addr;
        a.region.elems = elems;
        std::snprintf(a.region.elem, sizeof a.region.elem, "%.*s",
                      static_cast<int>(elem.size()), elem.data());
        a.value = Value::make_i32(static_cast<int32_t>(addr));
      } else if (value.starts_with("f32bits ")) {
        value.remove_prefix(8);
        uint32_t bits = 0;
        const auto* end = value.data() + value.size();
        if (std::from_chars(value.data(), end, bits, 16).ec != std::errc()) {
          return std::nullopt;
        }
        a.value = Value::make_f32(std::bit_cast<float>(bits));
      } else if (value.starts_with("i64 ")) {
        int64_t v = 0;
        if (!parse_num(value.substr(4), v)) return std::nullopt;
        a.value = Value::make_i64(v);
      } else if (value.starts_with("i32 ")) {
        int32_t v = 0;
        if (!parse_num(value.substr(4), v)) return std::nullopt;
        a.value = Value::make_i32(v);
      } else {
        return std::nullopt;
      }
      p.args.push_back(a);
    }
  }
  if (!saw_separator || p.entry.empty()) return std::nullopt;
  p.source = std::string(text.substr(pos));
  return p;
}

// --- frontend near-miss mutation -------------------------------------------

std::string mutate_source(const std::string& source, uint64_t seed) {
  Rng rng{Rng::mix(seed ^ 0x5EEDF00Dull)};
  std::string s = source;
  if (s.empty()) return "(";
  const uint64_t kind = rng.next_below(6);
  const size_t at = rng.next_below(s.size());
  static const char kPunct[] = ";(){}[]+*<>=:,";
  switch (kind) {
    case 0:  // drop a character
      s.erase(at, 1);
      break;
    case 1:  // duplicate a character
      s.insert(at, 1, s[at]);
      break;
    case 2:  // stray punctuation
      s.insert(at, 1, kPunct[rng.next_below(sizeof kPunct - 1)]);
      break;
    case 3:  // truncate mid-token
      s.resize(at);
      break;
    case 4: {  // splice a keyword fragment
      static const char* kFrag[] = {"var ", "if (", " as ", "-> ",
                                    "fn ",  "}",    "return "};
      s.insert(at, kFrag[rng.next_below(7)]);
      break;
    }
    default:  // smash an identifier character into a digit
      s[at] = static_cast<char>('0' + rng.next_below(10));
      break;
  }
  return s;
}

}  // namespace svc::fuzz
