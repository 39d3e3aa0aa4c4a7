#include "ir/ir.h"

#include <sstream>

namespace svc {

IRFunction::IRFunction(std::string name, std::vector<Type> param_types,
                       Type ret)
    : name_(std::move(name)),
      ret_(ret),
      num_params_(static_cast<uint32_t>(param_types.size())) {
  value_types_ = std::move(param_types);
}

std::vector<uint32_t> IRFunction::successors(uint32_t b) const {
  const IRInst& term = blocks_[b].terminator();
  switch (term.op) {
    case Opcode::Jump:
      return {term.a};
    case Opcode::BranchIf:
      if (term.a == term.b) return {term.a};
      return {term.a, term.b};
    default:
      return {};
  }
}

std::vector<uint32_t> IRFunction::def_counts() const {
  std::vector<uint32_t> counts(value_types_.size(), 0);
  for (uint32_t p = 0; p < num_params_; ++p) counts[p] = 1;
  for (const IRBlock& block : blocks_) {
    for (const IRInst& inst : block.insts) {
      if (inst.dst != kNoValue) counts[inst.dst] += 1;
    }
  }
  return counts;
}

std::string IRFunction::str() const {
  std::ostringstream os;
  os << "irfn " << name_ << " (params " << num_params_ << ", values "
     << value_types_.size() << ")\n";
  auto val = [&](ValueId v) {
    std::string s(1, v == kNoValue ? '_' : '%');
    if (v != kNoValue) s += std::to_string(v);
    return s;
  };
  for (size_t b = 0; b < blocks_.size(); ++b) {
    os << "bb" << b << ":\n";
    for (const IRInst& inst : blocks_[b].insts) {
      os << "  ";
      if (inst.dst != kNoValue) os << val(inst.dst) << " = ";
      os << op_mnemonic(inst.op);
      for (ValueId s : {inst.s0, inst.s1, inst.s2}) {
        if (s != kNoValue) os << ' ' << val(s);
      }
      const OpInfo& info = op_info(inst.op);
      if (info.imm == ImmKind::I64 || info.imm == ImmKind::F32 ||
          info.imm == ImmKind::F64 || info.imm == ImmKind::MemOff) {
        os << " #" << inst.imm;
      }
      if (info.imm == ImmKind::Block) os << " ->bb" << inst.a;
      if (info.imm == ImmKind::Block2) {
        os << " ->bb" << inst.a << "/bb" << inst.b;
      }
      if (info.imm == ImmKind::FuncIdx) os << " @" << inst.a;
      if (info.imm == ImmKind::Lane) os << " [" << inst.a << "]";
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace svc
