//===- SimUtil.h - Internal helpers shared by the sim translation units ---===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trap construction, the shared trap messages, the program-entry checks
/// and MemSpace helpers used by the functional interpreter
/// (Simulator.cpp) and the allocated-mode executors, plus step(): the
/// one definition of what an allocated instruction does.
/// Internal to the simulators (src/sim and src/fastpath) — not part of
/// the public API.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_SIMUTIL_H
#define SIM_SIMUTIL_H

#include "sim/Decoded.h"
#include "sim/Simulator.h"
#include "support/FaultInjection.h"
#include "support/HwHash.h"
#include "support/StringUtils.h"

namespace nova {
namespace sim {
namespace detail {

/// Sets the trap fields of \p R and returns it for `return trap(...)`.
inline RunResult &trap(RunResult &R, TrapKind K, const std::string &Detail) {
  R.Ok = false;
  R.Trap = K;
  R.Error = Status::error(
      StatusCode::SimTrap, Phase::Execute,
      formatf("%s: %s", sim::trapKindName(K), Detail.c_str()));
  return R;
}

//===----------------------------------------------------------------------===//
// The trap vocabulary. Every executor (the functional simulator, the
// interpreter's step(), the fast path's handlers and its translator's
// pre-formatted TrapStatic messages) spells a shared trap through these,
// so the executors' messages agree byte for byte by construction.
//===----------------------------------------------------------------------===//

inline std::string invalidSpaceMessage(MemSpace S, ixp::BlockId B) {
  return formatf("memory space %u in block b%u", (unsigned)S, B);
}

inline std::string fellOffMessage(ixp::BlockId B) {
  return formatf("fell off the end of block b%u", B);
}

/// \p What is "branch" or "jump".
inline std::string badTargetMessage(const char *What, ixp::BlockId B,
                                    ixp::BlockId Target) {
  return formatf("%s in block b%u targets b%u", What, B, Target);
}

inline std::string budgetMessage(uint64_t MaxInstructions) {
  return formatf("instruction budget of %llu exhausted",
                 (unsigned long long)MaxInstructions);
}

inline std::string shiftMessage(uint32_t Count, ixp::BlockId B) {
  return formatf("shift count %u in block b%u", Count, B);
}

inline constexpr const char *ClonePseudoMessage =
    "clone pseudo in allocated code";

inline TrapKind rangeTrapFor(MemSpace S) {
  switch (S) {
  case MemSpace::Sram:    return TrapKind::SramOutOfRange;
  case MemSpace::Sdram:   return TrapKind::SdramOutOfRange;
  case MemSpace::Scratch: return TrapKind::ScratchOutOfRange;
  }
  return TrapKind::IllegalMemSpace;
}

inline bool validSpace(MemSpace S) {
  return S == MemSpace::Sram || S == MemSpace::Sdram ||
         S == MemSpace::Scratch;
}

/// True when \p I (machine or allocated code) is a memory op on a space
/// outside the enum, which can only come from corrupt code: it traps
/// before reading its operands.
template <class InstrT> inline bool hasInvalidSpace(const InstrT &I) {
  return (I.Op == ixp::MOp::MemRead || I.Op == ixp::MOp::MemWrite ||
          I.Op == ixp::MOp::BitTestSet) &&
         !validSpace(I.Space);
}

inline const char *spaceName(MemSpace S) {
  switch (S) {
  case MemSpace::Sram:    return "sram";
  case MemSpace::Sdram:   return "sdram";
  case MemSpace::Scratch: return "scratch";
  }
  return "?";
}

/// The three range traps, raised when an access to \p S at \p Addr
/// leaves the space's \p Limit words.
inline RunResult &readRangeTrap(RunResult &R, MemSpace S, uint32_t Count,
                                uint32_t Addr, uint32_t Limit) {
  return trap(R, rangeTrapFor(S),
              formatf("%s read of %u words at 0x%x (limit 0x%x)",
                      spaceName(S), Count, Addr, Limit));
}

inline RunResult &writeRangeTrap(RunResult &R, MemSpace S, uint32_t Count,
                                 uint32_t Addr, uint32_t Limit) {
  return trap(R, rangeTrapFor(S),
              formatf("%s write of %u words at 0x%x (limit 0x%x)",
                      spaceName(S), Count, Addr, Limit));
}

inline RunResult &bitTestSetRangeTrap(RunResult &R, MemSpace S,
                                      uint32_t Addr, uint32_t Limit) {
  return trap(R, rangeTrapFor(S),
              formatf("%s bit-test-set at 0x%x (limit 0x%x)", spaceName(S),
                      Addr, Limit));
}

/// True when \p P (machine or decoded code) names one of its blocks as
/// the entry.
template <class ProgT> inline bool validEntry(const ProgT &P) {
  return P.Entry != ixp::NoBlock && P.Entry < P.Blocks.size();
}

/// True when \p P names an entry block; otherwise traps \p R.
template <class ProgT> inline bool hasEntry(const ProgT &P, RunResult &R) {
  if (validEntry(P))
    return true;
  trap(R, TrapKind::MalformedProgram, "no entry block");
  return false;
}

/// Program entry for allocated code: loads \p Args into A0..A(n-1) of
/// \p Frame, or traps \p R and returns false when \p P has no entry
/// block or there are more than 15 arguments.
inline bool enterAllocated(const Decoded &P, const std::vector<uint32_t> &Args,
                           uint32_t *Frame, RunResult &R) {
  if (!hasEntry(P, R))
    return false;
  if (Args.size() > 15) {
    trap(R, TrapKind::MalformedProgram, "too many entry arguments");
    return false;
  }
  for (unsigned I = 0; I != Args.size(); ++I)
    Frame[I] = Args[I];
  return true;
}

/// \p Addr shifted by \p Rebase when it lands in \p P's scratch spill
/// window: each concurrent chip context gets a private spill area in the
/// shared scratch space. Rebase 0 (standalone runs) is the identity.
inline uint32_t spillRebased(const Decoded &P, uint32_t Rebase, MemSpace S,
                             uint32_t Addr) {
  if (Rebase && S == MemSpace::Scratch && Addr >= P.SpillBase &&
      Addr - P.SpillBase < P.NumSpillSlots)
    return Addr + Rebase;
  return Addr;
}

/// What one step() did.
struct Stepped {
  enum Kind : uint8_t {
    Next,  ///< retired an instruction; the block continues
    Block, ///< a branch or jump moved to the start of block B
    Mem,   ///< issued a reference to Space, data already applied; the
           ///< caller charges its latency before the next step
    Done   ///< the run completed (halt or trap) — see R
  };
  Kind K;
  MemSpace Space = MemSpace::Sram;
};

/// The value of \p O over \p Frame. Reading a register that does not
/// exist latches \p Err and reads 0.
inline uint32_t readOperand(const DOperand &O, const uint32_t *Frame,
                            bool &Err) {
  if (O.K == DOperand::Slot)
    return Frame[O.V];
  if (O.K == DOperand::Const)
    return O.V;
  Err = true;
  return 0;
}

/// Stores \p V to \p O; writing a register that does not exist latches
/// \p Err instead.
inline void writeOperand(const DOperand &O, uint32_t V, uint32_t *Frame,
                         bool &Err) {
  if (O.K == DOperand::Slot)
    Frame[O.V] = V;
  else
    Err = true;
}

/// The mem-jitter draw of a MemRead or MemWrite issue.
inline void memJitter(RunResult &R) {
  if (FaultInjector::armed() &&
      FaultInjector::instance().shouldFire(FaultKind::MemJitter))
    R.Cycles += FaultInjector::instance().drawCycles(FaultKind::MemJitter);
}

/// Executes one allocated instruction: the instruction at (\p B, \p Idx)
/// of the decoded program \p P over the register frame \p Frame
/// (FrameRegs words), accounting into \p R. \p MemT is
/// sim::Memory or fastpath::BatchMemory; \p SpillRebase is the context's
/// spill window displacement (spillRebased). This is the interpreter
/// (AllocContext::resume loops it) and the fast path's slow tier.
///
/// Trap precedence: a latched illegal register, then the watchdog, then
/// falling off the block's end, then an invalid memory space, then the
/// op itself. Reads and writes of a register that does not exist latch
/// \p Err instead of aliasing; an ALU-class op or a branch traps on it
/// at the bottom of its own step (after its cycle charge and, for a
/// branch, after retargeting, so the message names the taken block). A
/// memory op returns Mem with the latch still set, so the trap fires at
/// the top of the next step — after the caller's memory charge. The
/// fault injector's draws keep their order: the ALU bit flip uses the
/// live instruction count, and mem-jitter is drawn at MemRead/MemWrite
/// issue, never at BitTestSet.
///
/// Always inlined, and written without closures (which, capturing the
/// frame and the position by reference, kept them in memory): the two
/// together cut the interpreter's time per instruction by about a third.
template <class MemT>
[[gnu::always_inline]] inline Stepped
step(const Decoded &P, uint32_t *Frame, RunResult &R, bool &Err,
     ixp::BlockId &B, unsigned &Idx, MemT &Mem, const RunOptions &Opts,
     uint32_t SpillRebase) {
  constexpr Stepped Done{Stepped::Done};
  if (Err) {
    trap(R, TrapKind::IllegalRegister,
         formatf("illegal register access in block b%u", B));
    return Done;
  }
  if (++R.Instructions > Opts.MaxInstructions) {
    trap(R, TrapKind::Watchdog, budgetMessage(Opts.MaxInstructions));
    return Done;
  }
  const Decoded::Block &Blk = P.Blocks[B];
  if (Idx >= Blk.Count) {
    trap(R, TrapKind::MalformedProgram, fellOffMessage(B));
    return Done;
  }
  const DInstr &I = P.Instrs[Blk.First + Idx++];
  const MemSpace S = I.Space;

  switch (I.Op) {
#define ALU_CASE(NAME)                                                    \
  case DOp::Alu##NAME: {                                                  \
    uint32_t A = readOperand(I.A, Frame, Err);                            \
    uint32_t Bv = readOperand(I.B, Frame, Err);                           \
    if (Opts.TrapOnShiftRange &&                                          \
        cps::shiftOutOfRange(cps::PrimOp::NAME, Bv)) {                    \
      trap(R, TrapKind::ShiftRange, shiftMessage(Bv, B));                 \
      return Done;                                                        \
    }                                                                     \
    uint32_t V = cps::evalPrim(cps::PrimOp::NAME, A, Bv);                 \
    if (FaultInjector::armed() &&                                         \
        FaultInjector::instance().shouldFire(FaultKind::SimBitFlip))      \
      V ^= 1u << (R.Instructions & 31);                                   \
    writeOperand(I.D, V, Frame, Err);                                     \
    break;                                                                \
  }
    ALU_CASE(Add)
    ALU_CASE(Sub)
    ALU_CASE(And)
    ALU_CASE(Or)
    ALU_CASE(Xor)
    ALU_CASE(Shl)
    ALU_CASE(Shr)
    ALU_CASE(Not)
#undef ALU_CASE
  case DOp::Move:
    writeOperand(I.D, readOperand(I.A, Frame, Err), Frame, Err);
    break;
  case DOp::Hash:
    writeOperand(I.D, hwHash(readOperand(I.A, Frame, Err)), Frame, Err);
    break;
  case DOp::MemRead: {
    uint32_t Addr =
        spillRebased(P, SpillRebase, S, readOperand(I.A, Frame, Err));
    if (!Err && !Mem.inRange(S, Addr, I.Y)) {
      readRangeTrap(R, S, I.Y, Addr, Mem.limits().words(S));
      return Done;
    }
    const DOperand *Dst = P.Pool.data() + I.X;
    for (uint32_t K = 0; K != I.Y; ++K)
      writeOperand(Dst[K], Mem.load(S, Addr + K), Frame, Err);
    memJitter(R);
    return {Stepped::Mem, S};
  }
  case DOp::MemWrite: {
    uint32_t Addr =
        spillRebased(P, SpillRebase, S, readOperand(I.A, Frame, Err));
    if (!Err && !Mem.inRange(S, Addr, I.Y)) {
      writeRangeTrap(R, S, I.Y, Addr, Mem.limits().words(S));
      return Done;
    }
    const DOperand *Src = P.Pool.data() + I.X;
    for (uint32_t K = 0; K != I.Y; ++K)
      Mem.store(S, Addr + K, readOperand(Src[K], Frame, Err));
    memJitter(R);
    return {Stepped::Mem, S};
  }
  case DOp::BitTestSet: {
    uint32_t Addr =
        spillRebased(P, SpillRebase, S, readOperand(I.A, Frame, Err));
    uint32_t Bits = readOperand(I.B, Frame, Err);
    if (!Err && !Mem.inRange(S, Addr, 1)) {
      bitTestSetRangeTrap(R, S, Addr, Mem.limits().words(S));
      return Done;
    }
    uint32_t Old = Mem.load(S, Addr);
    Mem.store(S, Addr, Old | Bits);
    writeOperand(I.D, Old, Frame, Err);
    return {Stepped::Mem, S};
  }
#define BRANCH_CASE(NAME)                                                 \
  case DOp::Branch##NAME: {                                               \
    uint32_t A = readOperand(I.A, Frame, Err);                            \
    uint32_t Bv = readOperand(I.B, Frame, Err);                           \
    ixp::BlockId T = cps::evalCmp(cps::CmpOp::NAME, A, Bv) ? I.X : I.Y;   \
    if (T >= P.Blocks.size()) {                                           \
      trap(R, TrapKind::MalformedProgram, badTargetMessage("branch", B, T)); \
      return Done;                                                        \
    }                                                                     \
    B = T;                                                                \
    Idx = 0;                                                              \
    break;                                                                \
  }
    BRANCH_CASE(Eq)
    BRANCH_CASE(Ne)
    BRANCH_CASE(Lt)
    BRANCH_CASE(Gt)
    BRANCH_CASE(Le)
    BRANCH_CASE(Ge)
#undef BRANCH_CASE
  case DOp::Jump:
    if (I.X >= P.Blocks.size()) {
      trap(R, TrapKind::MalformedProgram, badTargetMessage("jump", B, I.X));
      return Done;
    }
    B = I.X;
    Idx = 0;
    break;
  case DOp::Halt: {
    const DOperand *Src = P.Pool.data() + I.X;
    for (uint32_t K = 0; K != I.Y; ++K)
      R.HaltValues.push_back(readOperand(Src[K], Frame, Err));
    if (Err) {
      trap(R, TrapKind::IllegalRegister, "illegal register access at halt");
      return Done;
    }
    R.Ok = true;
    return Done;
  }
  case DOp::Clone:
    trap(R, TrapKind::MalformedProgram, ClonePseudoMessage);
    return Done;
  case DOp::InvalidSpace:
    trap(R, TrapKind::IllegalMemSpace, invalidSpaceMessage(S, B));
    return Done;
  case DOp::Nop:
    break;
  }
  R.Cycles += Opts.Lat.cycles(I.Cyc);
  if (Err) {
    trap(R, TrapKind::IllegalRegister,
         formatf("illegal register access in block b%u", B));
    return Done;
  }
  return {Idx == 0 ? Stepped::Block : Stepped::Next};
}

} // namespace detail
} // namespace sim
} // namespace nova

#endif // SIM_SIMUTIL_H
