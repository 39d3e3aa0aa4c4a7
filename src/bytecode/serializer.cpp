#include "bytecode/serializer.h"

#include <array>

#include "support/crc32.h"
#include "support/varint.h"

namespace svc {
namespace {

constexpr std::array<uint8_t, 4> kMagic = {'S', 'V', 'I', 'L'};
constexpr uint32_t kFormatVersion = 1;

void write_string(std::vector<uint8_t>& out, const std::string& s) {
  write_uleb(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::optional<std::string> read_string(ByteReader& r) {
  const auto n = r.read_uleb();
  if (!n || *n > r.remaining()) return std::nullopt;
  const auto bytes = r.read_bytes(static_cast<size_t>(*n));
  if (!bytes) return std::nullopt;
  return std::string(bytes->begin(), bytes->end());
}

void write_instruction(std::vector<uint8_t>& out, const Instruction& inst) {
  write_uleb(out, static_cast<uint64_t>(inst.op));
  switch (op_info(inst.op).imm) {
    case ImmKind::NoImm:
      break;
    case ImmKind::I64:
    case ImmKind::F32:
    case ImmKind::F64:
    case ImmKind::MemOff:
      write_sleb(out, inst.imm);
      break;
    case ImmKind::LocalIdx:
    case ImmKind::FuncIdx:
    case ImmKind::Lane:
    case ImmKind::Block:
      write_uleb(out, inst.a);
      break;
    case ImmKind::Block2:
      write_uleb(out, inst.a);
      write_uleb(out, inst.b);
      break;
  }
}

std::optional<Instruction> read_instruction(ByteReader& r) {
  const auto op_raw = r.read_uleb();
  if (!op_raw || *op_raw >= kNumOpcodes) return std::nullopt;
  Instruction inst;
  inst.op = static_cast<Opcode>(*op_raw);
  switch (op_info(inst.op).imm) {
    case ImmKind::NoImm:
      break;
    case ImmKind::I64:
    case ImmKind::F32:
    case ImmKind::F64:
    case ImmKind::MemOff: {
      const auto v = r.read_sleb();
      if (!v) return std::nullopt;
      inst.imm = *v;
      break;
    }
    case ImmKind::LocalIdx:
    case ImmKind::FuncIdx:
    case ImmKind::Lane:
    case ImmKind::Block: {
      const auto v = r.read_uleb();
      if (!v) return std::nullopt;
      inst.a = static_cast<uint32_t>(*v);
      break;
    }
    case ImmKind::Block2: {
      const auto a = r.read_uleb();
      const auto b = r.read_uleb();
      if (!a || !b) return std::nullopt;
      inst.a = static_cast<uint32_t>(*a);
      inst.b = static_cast<uint32_t>(*b);
      break;
    }
  }
  return inst;
}

void write_function(std::vector<uint8_t>& out, const Function& fn) {
  write_string(out, fn.name());
  write_uleb(out, fn.sig().params.size());
  for (Type t : fn.sig().params) out.push_back(static_cast<uint8_t>(t));
  out.push_back(static_cast<uint8_t>(fn.sig().ret));
  // Non-parameter locals only; parameters are re-derived at load.
  write_uleb(out, fn.num_locals() - fn.num_params());
  for (size_t i = fn.num_params(); i < fn.num_locals(); ++i) {
    out.push_back(
        static_cast<uint8_t>(fn.local_type(static_cast<uint32_t>(i))));
  }
  write_uleb(out, fn.num_blocks());
  for (const auto& block : fn.blocks()) {
    write_uleb(out, block.insts.size());
    for (const auto& inst : block.insts) write_instruction(out, inst);
  }
  write_uleb(out, fn.annotations().size());
  for (const auto& ann : fn.annotations()) {
    write_uleb(out, static_cast<uint64_t>(ann.kind));
    write_uleb(out, ann.payload.size());
    out.insert(out.end(), ann.payload.begin(), ann.payload.end());
  }
}

std::optional<Type> read_type(ByteReader& r) {
  const auto b = r.read_byte();
  if (!b || *b > static_cast<uint8_t>(Type::V128)) return std::nullopt;
  return static_cast<Type>(*b);
}

std::optional<Function> read_function(ByteReader& r) {
  const auto name = read_string(r);
  if (!name) return std::nullopt;
  const auto nparams = r.read_uleb();
  if (!nparams || *nparams > 1u << 16) return std::nullopt;
  FunctionSig sig;
  for (uint64_t i = 0; i < *nparams; ++i) {
    const auto t = read_type(r);
    if (!t || *t == Type::Void) return std::nullopt;
    sig.params.push_back(*t);
  }
  const auto ret = read_type(r);
  if (!ret) return std::nullopt;
  sig.ret = *ret;

  Function fn(*name, sig);
  const auto nlocals = r.read_uleb();
  if (!nlocals || *nlocals > 1u << 20) return std::nullopt;
  for (uint64_t i = 0; i < *nlocals; ++i) {
    const auto t = read_type(r);
    if (!t || *t == Type::Void) return std::nullopt;
    fn.add_local(*t);
  }

  const auto nblocks = r.read_uleb();
  if (!nblocks || *nblocks > 1u << 20) return std::nullopt;
  // Function starts with zero blocks when deserializing.
  for (uint64_t b = 0; b < *nblocks; ++b) {
    const uint32_t block = fn.add_block();
    const auto ninsts = r.read_uleb();
    if (!ninsts || *ninsts > 1u << 24) return std::nullopt;
    for (uint64_t i = 0; i < *ninsts; ++i) {
      const auto inst = read_instruction(r);
      if (!inst) return std::nullopt;
      fn.append(block, *inst);
    }
  }

  const auto nann = r.read_uleb();
  if (!nann || *nann > 1u << 16) return std::nullopt;
  for (uint64_t i = 0; i < *nann; ++i) {
    const auto kind = r.read_uleb();
    const auto len = r.read_uleb();
    if (!kind || !len || *len > r.remaining()) return std::nullopt;
    const auto payload = r.read_bytes(static_cast<size_t>(*len));
    if (!payload) return std::nullopt;
    Annotation ann;
    ann.kind = static_cast<AnnotationKind>(*kind);
    ann.payload.assign(payload->begin(), payload->end());
    fn.annotations().push_back(std::move(ann));
  }
  return fn;
}

}  // namespace

std::vector<uint8_t> serialize_function(const Function& fn) {
  std::vector<uint8_t> out;
  write_function(out, fn);
  return out;
}

std::vector<uint8_t> serialize_module(const Module& module) {
  std::vector<uint8_t> out(kMagic.begin(), kMagic.end());
  write_uleb(out, kFormatVersion);
  write_string(out, module.name());
  write_uleb(out, module.memory_hint());
  write_uleb(out, module.num_functions());
  for (const auto& fn : module.functions()) write_function(out, fn);
  const uint32_t crc = crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((crc >> (8 * i)) & 0xff));
  }
  return out;
}

DeserializeResult deserialize_module(std::span<const uint8_t> bytes) {
  if (bytes.size() < kMagic.size() + 4) {
    return {std::nullopt, "image too small"};
  }
  // CRC covers everything except the 4-byte trailer.
  const auto body = bytes.first(bytes.size() - 4);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(bytes[bytes.size() - 4 + i]) << (8 * i);
  }
  if (crc32(body) != stored) {
    return {std::nullopt, "checksum mismatch (corrupt image)"};
  }

  ByteReader r(body);
  const auto magic = r.read_bytes(kMagic.size());
  if (!magic || !std::equal(magic->begin(), magic->end(), kMagic.begin())) {
    return {std::nullopt, "bad magic"};
  }
  const auto version = r.read_uleb();
  if (!version) return {std::nullopt, "truncated header"};
  if (*version != kFormatVersion) {
    return {std::nullopt, "unsupported format version"};
  }
  const auto name = read_string(r);
  if (!name) return {std::nullopt, "truncated module name"};
  const auto mem = r.read_uleb();
  if (!mem) return {std::nullopt, "truncated memory hint"};
  const auto nfuncs = r.read_uleb();
  if (!nfuncs || *nfuncs > 1u << 16) {
    return {std::nullopt, "bad function count"};
  }

  Module module;
  module.set_name(*name);
  module.set_memory_hint(*mem);
  for (uint64_t i = 0; i < *nfuncs; ++i) {
    auto fn = read_function(r);
    if (!fn) {
      return {std::nullopt,
              "malformed function #" + std::to_string(i)};
    }
    module.add_function(std::move(*fn));
  }
  if (!r.at_end()) return {std::nullopt, "trailing bytes after module"};
  return {std::move(module), {}};
}

}  // namespace svc
