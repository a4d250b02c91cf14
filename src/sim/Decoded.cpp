//===- Decoded.cpp - Allocated code decoded once for the interpreter ------===//
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
// operand is illegal.
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

DOperand reg(alloc::PhysLoc L) {
  int Slot = frameSlot(L);
  if (Slot < 0)
    return {};
  return {static_cast<uint32_t>(Slot), DOperand::Slot};
}

DOperand src(const AOperand &O) {
  return O.IsConst ? DOperand{O.Value, DOperand::Const} : reg(O.Loc);
}

/// Source \p K of \p I, or an illegal register when it has none.
DOperand srcAt(const AllocInstr &I, size_t K) {
  return K < I.Srcs.size() ? src(I.Srcs[K]) : DOperand();
}

DOperand dstAt(const AllocInstr &I, size_t K) {
  return K < I.Dsts.size() ? reg(I.Dsts[K]) : DOperand();
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
  auto words = [&](const auto &List, size_t From, auto Resolve) {
    D.X = static_cast<uint32_t>(Pool.size());
    for (size_t K = From; K < List.size(); ++K)
      Pool.push_back(Resolve(List[K]));
    D.Y = static_cast<uint32_t>(Pool.size()) - D.X;
  };
  switch (I.Op) {
  case MOp::Alu:
    D.A = srcAt(I, 0);
    D.B = I.Srcs.size() > 1 ? src(I.Srcs[1]) : DOperand{0, DOperand::Const};
    D.D = dstAt(I, 0);
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
    D.D = dstAt(I, 0);
    break;
  case MOp::Move:
  case MOp::Hash:
    D.Op = I.Op == MOp::Move ? DOp::Move : DOp::Hash;
    D.A = srcAt(I, 0);
    D.D = dstAt(I, 0);
    break;
  case MOp::MemRead:
    D.Op = DOp::MemRead;
    D.A = srcAt(I, 0);
    words(I.Dsts, 0, reg);
    break;
  case MOp::MemWrite:
    D.Op = DOp::MemWrite;
    D.A = srcAt(I, 0);
    words(I.Srcs, 1, src);
    break;
  case MOp::BitTestSet:
    D.Op = DOp::BitTestSet;
    D.A = srcAt(I, 0);
    D.B = srcAt(I, 1);
    D.D = dstAt(I, 0);
    break;
  case MOp::Clone:
    D.Op = DOp::Clone;
    break;
  case MOp::Branch:
    D.A = srcAt(I, 0);
    D.B = srcAt(I, 1);
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
