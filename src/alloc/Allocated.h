//===- Allocated.h - Register-allocated machine code ------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator's output: the same flowgraph with every operand resolved
/// to a physical register (bank + index). Spill traffic appears as
/// scratch reads/writes whose addresses are immediates (spill slots).
/// Clone pseudos are gone; Move instructions whose source and destination
/// coincide were coalesced away.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOC_ALLOCATED_H
#define ALLOC_ALLOCATED_H

#include "ixp/MachineIr.h"

#include <string>
#include <vector>

namespace nova {
namespace alloc {

/// A physical register: bank + index within the bank.
struct PhysLoc {
  ixp::Bank B = ixp::Bank::A;
  uint16_t Reg = 0;

  bool operator==(const PhysLoc &O) const { return B == O.B && Reg == O.Reg; }
  std::string str() const;
};

/// Operand of an allocated instruction.
struct AOperand {
  bool IsConst = false;
  PhysLoc Loc;
  uint32_t Value = 0;

  static AOperand reg(PhysLoc L) { return {false, L, 0}; }
  static AOperand constant(uint32_t V) { return {true, {}, V}; }
};

struct AllocInstr {
  ixp::MOp Op = ixp::MOp::Halt;
  cps::PrimOp Alu = cps::PrimOp::Add;
  cps::CmpOp Cmp = cps::CmpOp::Eq;
  MemSpace Space = MemSpace::Sram;
  uint32_t Imm = 0;
  std::vector<AOperand> Srcs;
  std::vector<PhysLoc> Dsts;
  ixp::BlockId Target = ixp::NoBlock;
  ixp::BlockId TargetElse = ixp::NoBlock;
  /// True for instructions the allocator inserted (moves/spill traffic).
  bool Inserted = false;
};

struct AllocBlock {
  std::vector<AllocInstr> Instrs;
};

/// Scratch word address of the first spill slot: every allocator places
/// its spill area here.
constexpr uint32_t SpillAreaBase = 0x8000;

struct AllocatedProgram {
  std::vector<AllocBlock> Blocks;
  ixp::BlockId Entry = ixp::NoBlock;
  unsigned NumEntryArgs = 0; ///< arrive in A0..A(n-1)
  /// Scratch base address of the spill area (slots are words from here).
  uint32_t SpillBase = SpillAreaBase;
  unsigned NumSpillSlots = 0;

  unsigned numInstructions() const {
    unsigned N = 0;
    for (const AllocBlock &B : Blocks)
      N += B.Instrs.size();
    return N;
  }

  /// Count of allocator-inserted instructions (move/spill overhead).
  unsigned numInserted() const {
    unsigned N = 0;
    for (const AllocBlock &B : Blocks)
      for (const AllocInstr &I : B.Instrs)
        N += I.Inserted ? 1 : 0;
    return N;
  }

  std::string print() const;
};

} // namespace alloc
} // namespace nova

#endif // ALLOC_ALLOCATED_H
