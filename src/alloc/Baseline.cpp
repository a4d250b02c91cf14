//===- Baseline.cpp - Naive memory-home allocator ---------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "alloc/Baseline.h"

#include "support/StringUtils.h"

#include <map>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

namespace {

/// Fixed staging registers of the baseline.
constexpr PhysLoc StageA{Bank::A, 0};  ///< first ALU operand
constexpr PhysLoc StageB{Bank::B, 0};  ///< second ALU operand
constexpr PhysLoc StageA2{Bank::A, 1}; ///< extra operand / result carrier
constexpr PhysLoc StageS{Bank::S, 0};  ///< store staging

class Baseline {
public:
  explicit Baseline(const MachineProgram &M) : M(M) {}

  BaselineResult run() {
    BaselineResult R;
    R.Prog.Entry = M.Entry;
    R.Prog.NumEntryArgs = M.EntryParams.size();
    R.Prog.Blocks.resize(M.Blocks.size());
    if (M.EntryParams.size() > 15) {
      R.Error = Status::error(StatusCode::InvalidArgument, Phase::Baseline,
                              "too many entry parameters");
      return R;
    }
    for (const Block &Blk : M.Blocks) {
      Out = &R.Prog.Blocks[Blk.Id];
      if (Blk.Id == M.Entry) {
        // Prologue: arguments arrive in A0..A(n-1); home them.
        for (unsigned I = 0; I != M.EntryParams.size(); ++I)
          storeToSlot({Bank::A, static_cast<uint16_t>(I)},
                      M.EntryParams[I]);
      }
      for (const MachineInstr &MI : Blk.Instrs)
        lower(MI);
    }
    R.Prog.NumSpillSlots = NextSlot;
    R.Ok = true;
    return R;
  }

private:
  const MachineProgram &M;
  AllocBlock *Out = nullptr;
  std::map<Temp, unsigned> Slot;
  unsigned NextSlot = 0;

  uint32_t slotAddr(Temp T) {
    auto It = Slot.find(T);
    if (It == Slot.end())
      It = Slot.emplace(T, NextSlot++).first;
    return SpillAreaBase + It->second;
  }

  void emit(AllocInstr I) {
    I.Inserted = true;
    Out->Instrs.push_back(std::move(I));
  }

  void emitMove(PhysLoc Dst, PhysLoc Src) {
    AllocInstr I;
    I.Op = MOp::Move;
    I.Srcs = {AOperand::reg(Src)};
    I.Dsts = {Dst};
    emit(std::move(I));
  }

  /// Loads temp \p T from its slot into \p Dst (an A or B register),
  /// bouncing through the given L register.
  void loadFromSlot(Temp T, PhysLoc Dst, uint16_t LReg) {
    AllocInstr Rd;
    Rd.Op = MOp::MemRead;
    Rd.Space = MemSpace::Scratch;
    Rd.Srcs = {AOperand::constant(slotAddr(T))};
    Rd.Dsts = {{Bank::L, LReg}};
    emit(std::move(Rd));
    emitMove(Dst, {Bank::L, LReg});
  }

  /// Stores the value in \p Src (ALU-readable) to \p T's slot through S0.
  void storeToSlot(PhysLoc Src, Temp T) {
    if (!(Src == StageS))
      emitMove(StageS, Src);
    AllocInstr Wr;
    Wr.Op = MOp::MemWrite;
    Wr.Space = MemSpace::Scratch;
    Wr.Srcs = {AOperand::constant(slotAddr(T)), AOperand::reg(StageS)};
    emit(std::move(Wr));
  }

  /// Materializes operand \p O into \p Dst (A/B staging).
  AOperand operand(const MOperand &O, PhysLoc Dst, uint16_t LReg) {
    if (O.IsConst) {
      AllocInstr I;
      I.Op = MOp::Imm;
      I.Imm = O.Value;
      I.Dsts = {Dst};
      emit(std::move(I));
      return AOperand::reg(Dst);
    }
    loadFromSlot(O.T, Dst, LReg);
    return AOperand::reg(Dst);
  }

  void lower(const MachineInstr &MI) {
    switch (MI.Op) {
    case MOp::Alu: {
      AllocInstr I;
      I.Op = MOp::Alu;
      I.Alu = MI.Alu;
      I.Srcs.push_back(operand(MI.Srcs[0], StageA, 0));
      if (MI.Srcs.size() > 1) {
        if (MI.Srcs[1].IsConst)
          I.Srcs.push_back(AOperand::constant(MI.Srcs[1].Value));
        else
          I.Srcs.push_back(operand(MI.Srcs[1], StageB, 1));
      }
      I.Dsts = {StageA2};
      I.Inserted = false;
      Out->Instrs.push_back(I);
      storeToSlot(StageA2, MI.Dsts[0]);
      return;
    }
    case MOp::Imm: {
      AllocInstr I;
      I.Op = MOp::Imm;
      I.Imm = MI.Imm;
      I.Dsts = {StageA2};
      Out->Instrs.push_back(I);
      storeToSlot(StageA2, MI.Dsts[0]);
      return;
    }
    case MOp::Move: {
      AOperand S = operand(MI.Srcs[0], StageA2, 0);
      storeToSlot(S.Loc, MI.Dsts[0]);
      return;
    }
    case MOp::MemRead: {
      AllocInstr I;
      I.Op = MOp::MemRead;
      I.Space = MI.Space;
      I.Srcs = {operand(MI.Srcs[0], StageA, 0)};
      Bank DB = MI.Space == MemSpace::Sdram ? Bank::LD : Bank::L;
      for (unsigned K = 0; K != MI.Dsts.size(); ++K)
        I.Dsts.push_back({DB, static_cast<uint16_t>(K)});
      I.Inserted = false;
      Out->Instrs.push_back(I);
      for (unsigned K = 0; K != MI.Dsts.size(); ++K) {
        emitMove(StageA2, {DB, static_cast<uint16_t>(K)});
        storeToSlot(StageA2, MI.Dsts[K]);
      }
      return;
    }
    case MOp::MemWrite: {
      Bank SB = MI.Space == MemSpace::Sdram ? Bank::SD : Bank::S;
      // Stage every value into consecutive S/SD registers.
      for (unsigned K = 1; K != MI.Srcs.size(); ++K) {
        AOperand V = operand(MI.Srcs[K], StageA2, 0);
        emitMove({SB, static_cast<uint16_t>(K - 1)}, V.Loc);
      }
      AllocInstr I;
      I.Op = MOp::MemWrite;
      I.Space = MI.Space;
      I.Srcs = {operand(MI.Srcs[0], StageA, 0)};
      for (unsigned K = 1; K != MI.Srcs.size(); ++K)
        I.Srcs.push_back(AOperand::reg({SB, static_cast<uint16_t>(K - 1)}));
      I.Inserted = false;
      Out->Instrs.push_back(I);
      return;
    }
    case MOp::Hash: {
      AOperand V = operand(MI.Srcs[0], StageA2, 0);
      emitMove(StageS, V.Loc);
      AllocInstr I;
      I.Op = MOp::Hash;
      I.Srcs = {AOperand::reg(StageS)};
      I.Dsts = {{Bank::L, 0}}; // SameReg with S0
      I.Inserted = false;
      Out->Instrs.push_back(I);
      emitMove(StageA2, {Bank::L, 0});
      storeToSlot(StageA2, MI.Dsts[0]);
      return;
    }
    case MOp::BitTestSet: {
      AOperand Bits = operand(MI.Srcs[1], StageA2, 1);
      emitMove(StageS, Bits.Loc);
      AllocInstr I;
      I.Op = MOp::BitTestSet;
      I.Space = MI.Space;
      I.Srcs = {operand(MI.Srcs[0], StageA, 0), AOperand::reg(StageS)};
      I.Dsts = {{Bank::L, 0}};
      I.Inserted = false;
      Out->Instrs.push_back(I);
      emitMove(StageA2, {Bank::L, 0});
      storeToSlot(StageA2, MI.Dsts[0]);
      return;
    }
    case MOp::Clone: {
      AOperand V = operand(MI.Srcs[0], StageA2, 0);
      for (Temp D : MI.Dsts)
        storeToSlot(V.Loc, D);
      return;
    }
    case MOp::Branch: {
      AllocInstr I;
      I.Op = MOp::Branch;
      I.Cmp = MI.Cmp;
      I.Target = MI.Target;
      I.TargetElse = MI.TargetElse;
      I.Srcs = {operand(MI.Srcs[0], StageA, 0),
                operand(MI.Srcs[1], StageB, 1)};
      I.Inserted = false;
      Out->Instrs.push_back(I);
      return;
    }
    case MOp::Jump: {
      AllocInstr I;
      I.Op = MOp::Jump;
      I.Target = MI.Target;
      I.Inserted = false;
      Out->Instrs.push_back(I);
      return;
    }
    case MOp::Halt: {
      AllocInstr I;
      I.Op = MOp::Halt;
      unsigned NextA = 2; // A2.. hold the results
      for (const MOperand &S : MI.Srcs) {
        if (S.IsConst) {
          I.Srcs.push_back(AOperand::constant(S.Value));
        } else {
          PhysLoc Dst = {Bank::A, static_cast<uint16_t>(NextA++)};
          loadFromSlot(S.T, Dst, 0);
          I.Srcs.push_back(AOperand::reg(Dst));
        }
      }
      I.Inserted = false;
      Out->Instrs.push_back(I);
      return;
    }
    }
  }
};

} // namespace

BaselineResult alloc::allocateBaseline(const MachineProgram &M) {
  return Baseline(M).run();
}
