#include "jit/devectorize.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "support/diagnostics.h"

namespace svc {
namespace {

/// Ops whose lane interpretation is structural, not semantic: they adopt
/// whatever interpretation their connected registers use.
bool lane_polymorphic(MOp op) {
  if (op == MOp::MovRR) return true;
  if (is_machine_only(op)) return false;
  switch (base_opcode(op)) {
    case Opcode::VZero:
    case Opcode::VAnd:
    case Opcode::VOr:
    case Opcode::VXor:
    case Opcode::LoadV128:
    case Opcode::StoreV128:
      return true;
    default:
      return false;
  }
}

struct LaneMap {
  LaneKind kind = LaneKind::None;
  std::vector<Reg> lanes;  // one scalar vreg per lane
};

class Devectorizer {
 public:
  explicit Devectorizer(MFunction& fn) : fn_(fn) {}

  DevectorizeStats run() {
    for (const Reg& p : fn_.param_regs) {
      if (p.cls == RegClass::Vec) fatal("devectorize: v128 parameter");
    }
    for (const Reg& r : fn_.call_sites.all()) {
      if (r.cls == RegClass::Vec) fatal("devectorize: v128 call argument");
    }
    infer_lane_kinds();
    compute_aliasable();
    rewrite();
    fn_.num_vregs[static_cast<size_t>(RegClass::Vec)] = 0;
    return stats_;
  }

 private:
  Reg fresh(RegClass cls) {
    return Reg::make(cls, fn_.num_vregs[static_cast<size_t>(cls)]++);
  }

  LaneKind op_lanes(const MInst& inst) const {
    if (is_machine_only(inst.op)) return LaneKind::None;
    return op_info(base_opcode(inst.op)).lanes;
  }

  /// Assigns a LaneKind to every Vec vreg by propagating from the typed
  /// vector ops through the polymorphic ones to a fixpoint.
  void infer_lane_kinds() {
    bool changed = true;
    auto meet = [&](Reg r, LaneKind k) {
      if (!r.valid || r.cls != RegClass::Vec || k == LaneKind::None) return;
      auto& slot = kinds_[r.idx];
      if (slot == LaneKind::None) {
        slot = k;
        changed = true;
      }
    };
    while (changed) {
      changed = false;
      for (const MBlock& block : fn_.blocks) {
        for (const MInst& inst : block.insts) {
          const LaneKind fixed = op_lanes(inst);
          if (!lane_polymorphic(inst.op) && fixed != LaneKind::None) {
            meet(inst.dst, fixed);
            meet(inst.s0, fixed);
            meet(inst.s1, fixed);
            meet(inst.s2, fixed);
          } else if (lane_polymorphic(inst.op)) {
            // Unify across the instruction.
            LaneKind known = LaneKind::None;
            for (const Reg* r : {&inst.dst, &inst.s0, &inst.s1, &inst.s2}) {
              if (r->valid && r->cls == RegClass::Vec) {
                const auto it = kinds_.find(r->idx);
                if (it != kinds_.end() && it->second != LaneKind::None) {
                  known = it->second;
                  break;
                }
              }
            }
            if (known != LaneKind::None) {
              meet(inst.dst, known);
              meet(inst.s0, known);
              meet(inst.s1, known);
              meet(inst.s2, known);
            }
          }
        }
      }
    }
  }

  /// A vec vreg may share one scalar register across all lanes only when
  /// every definition is a whole-vector broadcast (VZero / VSplat*): any
  /// lane-granular write (vector arithmetic, inserts, copies, loads)
  /// requires independent lane registers, or later writes would clobber
  /// reads through the shared name across blocks.
  void compute_aliasable() {
    for (const MBlock& block : fn_.blocks) {
      for (const MInst& inst : block.insts) {
        if (!inst.dst.valid || inst.dst.cls != RegClass::Vec) continue;
        bool broadcast = false;
        if (!is_machine_only(inst.op)) {
          switch (base_opcode(inst.op)) {
            case Opcode::VZero:
            case Opcode::VSplatI8:
            case Opcode::VSplatI16:
            case Opcode::VSplatI32:
            case Opcode::VSplatF32:
              broadcast = true;
              break;
            default:
              break;
          }
        }
        if (!broadcast) not_aliasable_.insert(inst.dst.idx);
      }
    }
  }

  [[nodiscard]] bool aliasable(uint32_t vec_idx) const {
    return not_aliasable_.count(vec_idx) == 0;
  }

  LaneMap& lanes_of(Reg v) {
    auto [it, inserted] = lane_maps_.try_emplace(v.idx);
    if (inserted) {
      LaneKind k = LaneKind::None;
      const auto kit = kinds_.find(v.idx);
      if (kit != kinds_.end()) k = kit->second;
      if (k == LaneKind::None) k = LaneKind::I32x4;  // unconstrained
      it->second.kind = k;
      const RegClass cls =
          k == LaneKind::F32x4 ? RegClass::Flt : RegClass::Int;
      it->second.lanes.resize(lane_count(k));
      if (aliasable(v.idx)) {
        const Reg shared = fresh(cls);
        for (auto& lane : it->second.lanes) lane = shared;
      } else {
        for (auto& lane : it->second.lanes) lane = fresh(cls);
      }
    }
    return it->second;
  }

  void emit(MInst inst) {
    out_.push_back(inst);
    stats_.scalar_insts_emitted += 1;
  }
  void emit3(MOp op, Reg dst, Reg s0, Reg s1) {
    MInst m;
    m.op = op;
    m.dst = dst;
    m.s0 = s0;
    m.s1 = s1;
    emit(m);
  }

  /// Scalar opcode implementing one lane of a vector op, plus whether the
  /// result must be masked back to the lane width (wraparound semantics).
  struct LaneOp {
    Opcode op;
    bool mask;  // re-truncate to lane width after the op
  };
  LaneOp lane_op(Opcode vop) const {
    switch (vop) {
      case Opcode::VAddI8: return {Opcode::AddI32, true};
      case Opcode::VSubI8: return {Opcode::SubI32, true};
      case Opcode::VAddI16: return {Opcode::AddI32, true};
      case Opcode::VSubI16: return {Opcode::SubI32, true};
      case Opcode::VAddI32: return {Opcode::AddI32, false};
      case Opcode::VSubI32: return {Opcode::SubI32, false};
      case Opcode::VMulI32: return {Opcode::MulI32, false};
      case Opcode::VAddF32: return {Opcode::AddF32, false};
      case Opcode::VSubF32: return {Opcode::SubF32, false};
      case Opcode::VMulF32: return {Opcode::MulF32, false};
      case Opcode::VDivF32: return {Opcode::DivF32, false};
      case Opcode::VMinU8: return {Opcode::MinUI32, false};
      case Opcode::VMaxU8: return {Opcode::MaxUI32, false};
      case Opcode::VMinU16: return {Opcode::MinUI32, false};
      case Opcode::VMaxU16: return {Opcode::MaxUI32, false};
      case Opcode::VMinSI32: return {Opcode::MinSI32, false};
      case Opcode::VMaxSI32: return {Opcode::MaxSI32, false};
      case Opcode::VMinF32: return {Opcode::MinF32, false};
      case Opcode::VMaxF32: return {Opcode::MaxF32, false};
      case Opcode::VAnd: return {Opcode::AndI32, false};
      case Opcode::VOr: return {Opcode::OrI32, false};
      case Opcode::VXor: return {Opcode::XorI32, false};
      default:
        fatal("devectorize: no lane op for vector opcode");
    }
  }

  Opcode lane_load_op(LaneKind k) const {
    switch (k) {
      case LaneKind::U8x16: return Opcode::LoadI8U;
      case LaneKind::U16x8: return Opcode::LoadI16U;
      case LaneKind::I32x4: return Opcode::LoadI32;
      case LaneKind::F32x4: return Opcode::LoadF32;
      default: fatal("devectorize: bad lane kind");
    }
  }
  Opcode lane_store_op(LaneKind k) const {
    switch (k) {
      case LaneKind::U8x16: return Opcode::StoreI8;
      case LaneKind::U16x8: return Opcode::StoreI16;
      case LaneKind::I32x4: return Opcode::StoreI32;
      case LaneKind::F32x4: return Opcode::StoreF32;
      default: fatal("devectorize: bad lane kind");
    }
  }

  void mask_lane(Reg lane, LaneKind k) {
    const uint32_t bits = lane_bytes(k) * 8;
    if (bits >= 32) return;
    const Reg mask = fresh(RegClass::Int);
    MInst mi;
    mi.op = MOp::MovImm;
    mi.dst = mask;
    mi.imm = (int64_t{1} << bits) - 1;
    emit(mi);
    emit3(mop(Opcode::AndI32), lane, lane, mask);
  }

  void expand(const MInst& inst) {
    stats_.vector_insts_expanded += 1;
    const Opcode op = base_opcode(inst.op);
    const OpInfo& info = op_info(op);

    switch (op) {
      case Opcode::LoadV128: {
        LaneMap& d = lanes_of(inst.dst);
        const Opcode lop = lane_load_op(d.kind);
        for (uint32_t i = 0; i < d.lanes.size(); ++i) {
          MInst m;
          m.op = mop(lop);
          m.dst = d.lanes[i];
          m.s0 = inst.s0;
          m.imm = inst.imm + static_cast<int64_t>(i * lane_bytes(d.kind));
          emit(m);
        }
        return;
      }
      case Opcode::StoreV128: {
        LaneMap& v = lanes_of(inst.s1);
        const Opcode sop = lane_store_op(v.kind);
        for (uint32_t i = 0; i < v.lanes.size(); ++i) {
          MInst m;
          m.op = mop(sop);
          m.s0 = inst.s0;
          m.s1 = v.lanes[i];
          m.imm = inst.imm + static_cast<int64_t>(i * lane_bytes(v.kind));
          emit(m);
        }
        return;
      }
      case Opcode::VZero: {
        LaneMap& d = lanes_of(inst.dst);
        const RegClass cls =
            d.kind == LaneKind::F32x4 ? RegClass::Flt : RegClass::Int;
        const MOp zop = cls == RegClass::Flt ? MOp::FMovImm32 : MOp::MovImm;
        if (aliasable(inst.dst.idx)) {
          MInst m;
          m.op = zop;
          m.dst = d.lanes[0];
          m.imm = 0;
          emit(m);
        } else {
          for (const Reg& lane : d.lanes) {
            MInst m;
            m.op = zop;
            m.dst = lane;
            m.imm = 0;
            emit(m);
          }
        }
        return;
      }
      case Opcode::VSplatI8:
      case Opcode::VSplatI16:
      case Opcode::VSplatI32:
      case Opcode::VSplatF32: {
        LaneMap& d = lanes_of(inst.dst);
        const RegClass cls =
            d.kind == LaneKind::F32x4 ? RegClass::Flt : RegClass::Int;
        // One masked copy of the scalar; broadcast to lanes (a single
        // shared register when the value is read-only).
        const Reg v = d.lanes[0];
        MInst m;
        m.op = MOp::MovRR;
        m.dst = v;
        m.s0 = inst.s0;
        emit(m);
        if (cls == RegClass::Int) mask_lane(v, d.kind);
        if (!aliasable(inst.dst.idx)) {
          for (size_t i = 1; i < d.lanes.size(); ++i) {
            MInst c;
            c.op = MOp::MovRR;
            c.dst = d.lanes[i];
            c.s0 = v;
            emit(c);
          }
        }
        return;
      }
      case Opcode::VAddI8:
      case Opcode::VSubI8:
      case Opcode::VAddI16:
      case Opcode::VSubI16:
      case Opcode::VAddI32:
      case Opcode::VSubI32:
      case Opcode::VMulI32:
      case Opcode::VAddF32:
      case Opcode::VSubF32:
      case Opcode::VMulF32:
      case Opcode::VDivF32:
      case Opcode::VMinU8:
      case Opcode::VMaxU8:
      case Opcode::VMinU16:
      case Opcode::VMaxU16:
      case Opcode::VMinSI32:
      case Opcode::VMaxSI32:
      case Opcode::VMinF32:
      case Opcode::VMaxF32:
      case Opcode::VAnd:
      case Opcode::VOr:
      case Opcode::VXor: {
        // Copy source lane names first: dst may equal a source vreg
        // (in-place accumulator updates), and dst lanes are independent
        // registers by construction (compute_aliasable).
        const std::vector<Reg> asrc = lanes_of(inst.s0).lanes;
        const std::vector<Reg> bsrc = lanes_of(inst.s1).lanes;
        LaneMap& d = lanes_of(inst.dst);
        const LaneOp lop = lane_op(op);
        for (uint32_t i = 0; i < d.lanes.size(); ++i) {
          emit3(mop(lop.op), d.lanes[i], asrc[i], bsrc[i]);
          if (lop.mask) mask_lane(d.lanes[i], d.kind);
        }
        return;
      }
      case Opcode::VRSumU8:
      case Opcode::VRSumU16:
      case Opcode::VRSumI32: {
        LaneMap& a = lanes_of(inst.s0);
        Reg acc = fresh(RegClass::Int);
        emit3(mop(Opcode::AddI32), acc, a.lanes[0], a.lanes[1]);
        for (size_t i = 2; i < a.lanes.size(); ++i) {
          emit3(mop(Opcode::AddI32), acc, acc, a.lanes[i]);
        }
        MInst m;
        m.op = MOp::MovRR;
        m.dst = inst.dst;
        m.s0 = acc;
        emit(m);
        return;
      }
      case Opcode::VRSumF32: {
        LaneMap& a = lanes_of(inst.s0);
        // Pairwise order matches the interpreter's defined reduction tree.
        const Reg t0 = fresh(RegClass::Flt);
        const Reg t1 = fresh(RegClass::Flt);
        emit3(mop(Opcode::AddF32), t0, a.lanes[0], a.lanes[1]);
        emit3(mop(Opcode::AddF32), t1, a.lanes[2], a.lanes[3]);
        emit3(mop(Opcode::AddF32), inst.dst, t0, t1);
        return;
      }
      case Opcode::VRMaxU8:
      case Opcode::VRMaxU16: {
        LaneMap& a = lanes_of(inst.s0);
        Reg acc = fresh(RegClass::Int);
        emit3(mop(Opcode::MaxUI32), acc, a.lanes[0], a.lanes[1]);
        for (size_t i = 2; i < a.lanes.size(); ++i) {
          emit3(mop(Opcode::MaxUI32), acc, acc, a.lanes[i]);
        }
        MInst m;
        m.op = MOp::MovRR;
        m.dst = inst.dst;
        m.s0 = acc;
        emit(m);
        return;
      }
      case Opcode::VRMinU8: {
        LaneMap& a = lanes_of(inst.s0);
        Reg acc = fresh(RegClass::Int);
        emit3(mop(Opcode::MinUI32), acc, a.lanes[0], a.lanes[1]);
        for (size_t i = 2; i < a.lanes.size(); ++i) {
          emit3(mop(Opcode::MinUI32), acc, acc, a.lanes[i]);
        }
        MInst m;
        m.op = MOp::MovRR;
        m.dst = inst.dst;
        m.s0 = acc;
        emit(m);
        return;
      }
      case Opcode::VRMaxSI32: {
        LaneMap& a = lanes_of(inst.s0);
        Reg acc = fresh(RegClass::Int);
        emit3(mop(Opcode::MaxSI32), acc, a.lanes[0], a.lanes[1]);
        emit3(mop(Opcode::MaxSI32), acc, acc, a.lanes[2]);
        emit3(mop(Opcode::MaxSI32), inst.dst, acc, a.lanes[3]);
        return;
      }
      case Opcode::VRMaxF32:
      case Opcode::VRMinF32: {
        LaneMap& a = lanes_of(inst.s0);
        const Opcode sop =
            op == Opcode::VRMaxF32 ? Opcode::MaxF32 : Opcode::MinF32;
        Reg acc = fresh(RegClass::Flt);
        emit3(mop(sop), acc, a.lanes[0], a.lanes[1]);
        emit3(mop(sop), acc, acc, a.lanes[2]);
        emit3(mop(sop), inst.dst, acc, a.lanes[3]);
        return;
      }
      case Opcode::VExtractU8:
      case Opcode::VExtractU16:
      case Opcode::VExtractI32:
      case Opcode::VExtractF32: {
        LaneMap& a = lanes_of(inst.s0);
        MInst m;
        m.op = MOp::MovRR;
        m.dst = inst.dst;
        m.s0 = a.lanes[inst.a];
        emit(m);
        return;
      }
      case Opcode::VInsertI8:
      case Opcode::VInsertI16:
      case Opcode::VInsertI32:
      case Opcode::VInsertF32: {
        const std::vector<Reg> src = lanes_of(inst.s0).lanes;
        LaneMap& d = lanes_of(inst.dst);
        // Copy all lanes, then overwrite the inserted one.
        for (uint32_t i = 0; i < d.lanes.size(); ++i) {
          if (i == inst.a) continue;
          MInst m;
          m.op = MOp::MovRR;
          m.dst = d.lanes[i];
          m.s0 = src[i];
          emit(m);
        }
        MInst m;
        m.op = MOp::MovRR;
        m.dst = d.lanes[inst.a];
        m.s0 = inst.s1;
        emit(m);
        if (d.lanes[inst.a].cls == RegClass::Int) {
          mask_lane(d.lanes[inst.a], d.kind);
        }
        return;
      }
      default:
        fatal("devectorize: unhandled vector op " +
              std::string(info.mnemonic));
    }
  }

  void rewrite() {
    for (MBlock& block : fn_.blocks) {
      out_.clear();
      out_.reserve(block.insts.size());
      for (const MInst& inst : block.insts) {
        const bool has_vec =
            (inst.dst.valid && inst.dst.cls == RegClass::Vec) ||
            (inst.s0.valid && inst.s0.cls == RegClass::Vec) ||
            (inst.s1.valid && inst.s1.cls == RegClass::Vec) ||
            (inst.s2.valid && inst.s2.cls == RegClass::Vec);
        if (!has_vec) {
          out_.push_back(inst);
          continue;
        }
        if (inst.op == MOp::MovRR) {
          // v128 register copy (e.g. a vector local update): per lane.
          stats_.vector_insts_expanded += 1;
          const std::vector<Reg> src = lanes_of(inst.s0).lanes;
          LaneMap& d = lanes_of(inst.dst);
          if (d.lanes.size() != src.size()) {
            fatal("devectorize: lane-kind mismatch in v128 copy");
          }
          for (uint32_t i = 0; i < d.lanes.size(); ++i) {
            MInst m;
            m.op = MOp::MovRR;
            m.dst = d.lanes[i];
            m.s0 = src[i];
            emit(m);
          }
          continue;
        }
        expand(inst);
      }
      block.insts = std::move(out_);
    }

    // Vector locals now map to their lane registers (a local's list holds
    // a v128 register only while it is the one vreg of a vector local).
    const auto all = fn_.local_regs.all();
    if (std::none_of(all.begin(), all.end(), [](const Reg& r) {
          return r.cls == RegClass::Vec;
        })) {
      return;
    }
    RegLists locals;
    locals.reserve(fn_.local_regs.size(), all.size());
    for (size_t l = 0; l < fn_.local_regs.size(); ++l) {
      const std::span<const Reg> regs = fn_.local_regs[l];
      if (regs.size() == 1 && regs[0].cls == RegClass::Vec) {
        locals.push_back(lanes_of(regs[0]).lanes);
      } else {
        locals.push_back(regs);
      }
    }
    fn_.local_regs = std::move(locals);
  }

  MFunction& fn_;
  std::set<uint32_t> not_aliasable_;       // vec vregs with lane-granular defs
  std::map<uint32_t, LaneKind> kinds_;     // vec vreg -> lane kind
  std::map<uint32_t, LaneMap> lane_maps_;  // vec vreg -> scalar lanes
  std::vector<MInst> out_;
  DevectorizeStats stats_;
};

}  // namespace

DevectorizeStats devectorize(MFunction& fn) { return Devectorizer(fn).run(); }

}  // namespace svc
