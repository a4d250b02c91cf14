//===- Decoded.cpp - Allocated code decoded once for every executor -------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// decode() keeps every observable of the AllocInstr form, including on
// hostile code: an operand the instruction lacks decodes as an illegal
// register, and an ALU operation or comparison outside its enum (which
// cps::evalPrim and cps::evalCmp answer with 0 and false) decodes as an
// Xor or Ne of one operand with itself that still reads whichever
// operand is illegal. An instruction records whether it reads or writes
// an illegal register (DInstr::ReadsIllegal) where its operands are
// resolved, so no executor restates which operands an op reads.
//
//===----------------------------------------------------------------------===//

#include "sim/Decoded.h"

#include "sim/SimUtil.h"

using namespace nova;
using namespace nova::sim;
using alloc::AllocInstr;
using alloc::AOperand;
using ixp::MOp;

namespace {

/// Register \p L's frame slot (see FrameRegs), or an illegal register
/// when its bank has no register file (M, C) or its index is off the
/// end of the bank.
DOperand frameSlot(alloc::PhysLoc L) {
  uint32_t Base;
  switch (L.B) {
  case ixp::Bank::A:  Base = 0; break;
  case ixp::Bank::B:  Base = 16; break;
  case ixp::Bank::L:  Base = 32; break;
  case ixp::Bank::S:  Base = 40; break;
  case ixp::Bank::LD: Base = 48; break;
  case ixp::Bank::SD: Base = 56; break;
  default:            return {};
  }
  unsigned Size = L.B == ixp::Bank::A || L.B == ixp::Bank::B ? 16 : 8;
  if (L.Reg >= Size)
    return {};
  return {Base + L.Reg, DOperand::Slot};
}

DOperand src(const AOperand &O) {
  return O.IsConst ? DOperand{O.Value, DOperand::Const} : frameSlot(O.Loc);
}

DOp shifted(DOp Base, unsigned By) {
  return static_cast<DOp>(static_cast<unsigned>(Base) + By);
}

/// For an op outside its enum: reads both operands' latch through one
/// operand, which the op then meets with itself.
void selfPair(DInstr &D) {
  if (D.B.K == DOperand::Illegal)
    D.A = D.B;
  D.B = D.A;
}

/// Decodes \p I into \p D, a default DInstr, in place.
void decodeInstr(const AllocInstr &I, DInstr &D,
                 std::vector<DOperand> &Pool) {
  D.Space = I.Space;
  D.Cyc = LatencyModel::cycleClass(I);
  if (detail::hasInvalidSpace(I)) {
    D.Op = DOp::InvalidSpace;
    return;
  }
  // Every operand resolved below is one the op reads or writes; an
  // operand the instruction lacks is an illegal register.
  auto use = [&D](DOperand O) {
    D.ReadsIllegal |= O.K == DOperand::Illegal;
    return O;
  };
  auto srcAt = [&](size_t K) {
    return use(K < I.Srcs.size() ? src(I.Srcs[K]) : DOperand());
  };
  auto dstAt = [&](size_t K) {
    return use(K < I.Dsts.size() ? frameSlot(I.Dsts[K]) : DOperand());
  };
  auto words = [&](const auto &List, size_t From, auto Resolve) {
    D.X = static_cast<uint32_t>(Pool.size());
    for (size_t K = From; K < List.size(); ++K)
      Pool.push_back(use(Resolve(List[K])));
    D.Y = static_cast<uint32_t>(Pool.size()) - D.X;
  };
  switch (I.Op) {
  case MOp::Alu:
    D.A = srcAt(0);
    D.B = I.Srcs.size() > 1 ? srcAt(1) : DOperand{0, DOperand::Const};
    D.D = dstAt(0);
    if (I.Alu <= cps::PrimOp::Not) {
      D.Op = shifted(DOp::AluAdd, static_cast<unsigned>(I.Alu));
    } else {
      D.Op = DOp::AluXor;
      selfPair(D);
    }
    break;
  case MOp::Imm:
    D.Op = DOp::Move;
    D.A = {I.Imm, DOperand::Const};
    D.D = dstAt(0);
    break;
  case MOp::Move:
  case MOp::Hash:
    D.Op = I.Op == MOp::Move ? DOp::Move : DOp::Hash;
    D.A = srcAt(0);
    D.D = dstAt(0);
    break;
  case MOp::MemRead:
    D.Op = DOp::MemRead;
    D.A = srcAt(0);
    words(I.Dsts, 0, frameSlot);
    break;
  case MOp::MemWrite:
    D.Op = DOp::MemWrite;
    D.A = srcAt(0);
    words(I.Srcs, 1, src);
    break;
  case MOp::BitTestSet:
    D.Op = DOp::BitTestSet;
    D.A = srcAt(0);
    D.B = srcAt(1);
    D.D = dstAt(0);
    break;
  case MOp::Clone:
    D.Op = DOp::Clone;
    break;
  case MOp::Branch:
    D.A = srcAt(0);
    D.B = srcAt(1);
    D.X = I.Target;
    D.Y = I.TargetElse;
    if (I.Cmp <= cps::CmpOp::Ge) {
      D.Op = shifted(DOp::BranchEq, static_cast<unsigned>(I.Cmp));
    } else {
      D.Op = DOp::BranchNe;
      selfPair(D);
    }
    break;
  case MOp::Jump:
    D.Op = DOp::Jump;
    D.X = I.Target;
    break;
  case MOp::Halt:
    D.Op = DOp::Halt;
    words(I.Srcs, 0, src);
    break;
  default:
    // An opcode outside the enum retires with no effect.
    D.Op = DOp::Nop;
    break;
  }
}

} // namespace

Decoded sim::decode(const alloc::AllocatedProgram &P) {
  Decoded C;
  C.Entry = P.Entry;
  C.SpillBase = P.SpillBase;
  C.NumSpillSlots = P.NumSpillSlots;
  C.Blocks.reserve(P.Blocks.size());
  C.Instrs.reserve(P.numInstructions());
  for (const alloc::AllocBlock &B : P.Blocks) {
    C.Blocks.push_back({static_cast<uint32_t>(C.Instrs.size()),
                        static_cast<uint32_t>(B.Instrs.size())});
    for (const AllocInstr &I : B.Instrs)
      decodeInstr(I, C.Instrs.emplace_back(), C.Pool);
  }
  return C;
}
