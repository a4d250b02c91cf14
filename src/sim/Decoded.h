//===- Decoded.h - Allocated code decoded for every executor ----*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The form the interpreter (detail::step, SimUtil.h) executes and the
/// fast path (fastpath::translate) translates: an alloc::AllocatedProgram
/// decoded once into one flat instruction array with a per-block
/// [First, First + Count) table, the one place that reads AllocInstr
/// operands. Decoding resolves what would otherwise be worked out again
/// on every instruction:
///
///  - the opcode is fused with its ALU operation or comparison, so one
///    switch selects the handler;
///  - every operand is a frame slot (see FrameRegs), a constant, or an
///    illegal register — one that does not exist, whose read or write
///    latches the step's Err flag exactly where the register file lookup
///    used to (DInstr::ReadsIllegal marks an op that uses one);
///  - a memory op on a space outside the enum decodes to InvalidSpace,
///    which traps before any operand is read;
///  - the cycle class is the LatencyModel's rule (cycleClass); the model
///    itself still prices it at run time, so one decode serves any model.
///
/// Positions stay block-relative (block id, index in block), which is
/// what an AllocContext snapshot records. A Decoded does not refer back
/// to its AllocatedProgram.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_DECODED_H
#define SIM_DECODED_H

#include "sim/Simulator.h"

#include <cstdint>
#include <vector>

namespace nova {
namespace sim {

/// A fused opcode. The ALU and branch runs follow cps::PrimOp and
/// cps::CmpOp order.
enum class DOp : uint8_t {
  AluAdd, AluSub, AluAnd, AluOr, AluXor, AluShl, AluShr, AluNot,
  Move,       ///< D = A: a register move, or an immediate (A constant)
  Hash,       ///< D = hwHash(A)
  MemRead,    ///< Pool[X, X+Y) = Space[A..]
  MemWrite,   ///< Space[A..] = Pool[X, X+Y)
  BitTestSet, ///< D = Space[A]; Space[A] |= B
  BranchEq, BranchNe, BranchLt, BranchGt, BranchLe, BranchGe,
              ///< compare A, B; go to block X (true) or Y (false)
  Jump,       ///< go to block X
  Halt,       ///< halt values Pool[X, X+Y)
  Clone,      ///< the clone pseudo: traps
  InvalidSpace, ///< a memory op on a space outside the enum: traps
  Nop         ///< an opcode outside the enum: retires with no effect
};

/// A resolved operand.
struct DOperand {
  enum Kind : uint8_t {
    Slot,   ///< register frame slot V
    Const,  ///< the constant V
    Illegal ///< a register that does not exist (or a missing operand)
  };
  uint32_t V = 0;
  Kind K = Illegal;
};

struct DInstr {
  DOp Op = DOp::Halt;
  MemSpace Space = MemSpace::Sram; ///< memory ops and InvalidSpace
  CycleClass Cyc = CycleClass::None;
  bool ReadsIllegal = false; ///< an operand the op uses is Illegal
  /// Operands (see DOp); one the op does not use is Illegal with V 0.
  DOperand A, B; ///< sources
  DOperand D;    ///< destination: a Slot, or Illegal
  uint32_t X = 0; ///< branch/jump target; word list start in Pool
  uint32_t Y = 0; ///< branch else-target; word list length
};

struct Decoded {
  struct Block {
    uint32_t First = 0; ///< index of the block's first instruction
    uint32_t Count = 0;
  };
  std::vector<DInstr> Instrs;
  std::vector<Block> Blocks;
  /// Word lists: MemRead destinations, MemWrite data, Halt values.
  std::vector<DOperand> Pool;
  ixp::BlockId Entry = ixp::NoBlock;
  uint32_t SpillBase = 0;
  unsigned NumSpillSlots = 0;
};

/// Decodes \p P. Never fails: whatever \p P holds — illegal banks or
/// indices, empty blocks, an entry or targets past the end — decodes to
/// something the interpreter traps on exactly as it would on \p P.
Decoded decode(const alloc::AllocatedProgram &P);

} // namespace sim
} // namespace nova

#endif // SIM_DECODED_H
