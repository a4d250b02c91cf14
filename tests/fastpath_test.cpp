//===- fastpath_test.cpp - Translating fast path exactness tests ----------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The fast path's contract is bit-identical RunResults and memory
// effects vs the interpreter (sim::runAllocated). Three layers:
//
//  1. Hand-built hostile programs drive every trap path — illegal
//     registers, fell-off-the-end, bad branch/jump targets, clone
//     pseudos, invalid memory spaces, per-space range traps, watchdog
//     exhaustion, strict shift traps — and both fast-path executors
//     (Engine and a flat-charged SegmentContext) must produce the same
//     trap kind, message string, instruction count, and cycle count as
//     the interpreter. Where the timing of a trap is the point (an
//     illegal register on a memory op traps only after the memory
//     charge), the test also pins the absolute counts.
//
//     Every program of the hostile table shared with sim_test
//     (hostile_programs.h) runs on both executors, translated with
//     superblocks on and off, as one test per case.
//
//     The superinstruction tests build each fused form on purpose —
//     every address-mode memory form's range trap, forwarded copy
//     pairs, watchdog expiry at back-edge gates, spill rebasing of a
//     fused address and snapshots taken at a fused yield — and hold
//     them to the same bit-identical contract.
//
//  2. Differential fuzz: the three benchmark apps (compiled once,
//     cached in-process like soak_test) under 200+ adversarial stream
//     seeds; every packet must match across halts, all three memory
//     images, trap kind + message, cycles and instructions. Seeded
//     mutants of each app's allocated program — every kind of operand,
//     opcode and target corruption — must run identically on all three
//     executors too. Each app's translation shape (frame size, fused op
//     count) is pinned.
//
//  3. The threaded soak driver: stats bit-identical to the interpreter
//     driver, and a negative control — an injected ALU bit flip must
//     still be caught and shrunk in threaded mode.
//
// Like soak_test, this compiles apps through the ILP allocator, so it
// runs as one ctest entry.
//
//===----------------------------------------------------------------------===//

#include "apps/AppSources.h"
#include "fastpath/FastPath.h"
#include "fastpath/Segment.h"
#include "soak/Soak.h"
#include "sim/SimUtil.h"
#include "support/BinIO.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include "hostile_programs.h"

#include <gtest/gtest.h>

#include <map>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

namespace {

//===----------------------------------------------------------------------===//
// Program-building helpers (same idiom as soak_test)
//===----------------------------------------------------------------------===//

PhysLoc loc(Bank B, unsigned Reg) {
  return {B, static_cast<uint16_t>(Reg)};
}

AllocInstr imm(uint32_t V, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::Imm;
  I.Imm = V;
  I.Dsts = {Dst};
  return I;
}

AllocInstr alu(cps::PrimOp Op, AOperand A, AOperand B, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::Alu;
  I.Alu = Op;
  I.Srcs = {A, B};
  I.Dsts = {Dst};
  return I;
}

AllocInstr haltOf(std::vector<AOperand> Srcs) {
  AllocInstr I;
  I.Op = MOp::Halt;
  I.Srcs = std::move(Srcs);
  return I;
}

AllocInstr jump(BlockId T) {
  AllocInstr I;
  I.Op = MOp::Jump;
  I.Target = T;
  return I;
}

AllocInstr branch(cps::CmpOp C, AOperand A, AOperand B, BlockId Then,
                  BlockId Else) {
  AllocInstr I;
  I.Op = MOp::Branch;
  I.Cmp = C;
  I.Srcs = {A, B};
  I.Target = Then;
  I.TargetElse = Else;
  return I;
}

AllocInstr memRead(MemSpace S, AOperand Addr, std::vector<PhysLoc> Dsts) {
  AllocInstr I;
  I.Op = MOp::MemRead;
  I.Space = S;
  I.Srcs = {Addr};
  I.Dsts = std::move(Dsts);
  return I;
}

AllocInstr memWrite(MemSpace S, AOperand Addr, std::vector<AOperand> Vals) {
  AllocInstr I;
  I.Op = MOp::MemWrite;
  I.Space = S;
  I.Srcs = {Addr};
  I.Srcs.insert(I.Srcs.end(), Vals.begin(), Vals.end());
  return I;
}

AllocInstr move(AOperand Src, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::Move;
  I.Srcs = {Src};
  I.Dsts = {Dst};
  return I;
}

AllocatedProgram oneBlock(std::vector<AllocInstr> Instrs) {
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({std::move(Instrs)});
  return P;
}

//===----------------------------------------------------------------------===//
// Bit-identical comparison: interpreter vs fast path
//===----------------------------------------------------------------------===//

void expectSameResult(const sim::RunResult &Got, const sim::RunResult &Ref) {
  EXPECT_EQ(Got.Ok, Ref.Ok);
  EXPECT_EQ(Got.Trap, Ref.Trap);
  EXPECT_EQ(Got.Error.message(), Ref.Error.message());
  EXPECT_EQ(Got.Instructions, Ref.Instructions);
  EXPECT_EQ(Got.Cycles, Ref.Cycles);
  EXPECT_EQ(Got.HaltValues, Ref.HaltValues);
}

/// A run's result on one line, for divergence reports.
std::string describe(const sim::RunResult &R) {
  std::string Halts;
  for (uint32_t V : R.HaltValues)
    Halts += formatf(" 0x%x", V);
  return formatf("ok=%d trap=%s ins=%llu cyc=%llu halts=[%s ] \"%s\"", R.Ok,
                 sim::trapKindName(R.Trap), (unsigned long long)R.Instructions,
                 (unsigned long long)R.Cycles, Halts.c_str(),
                 R.Error.message().c_str());
}

std::map<uint32_t, uint32_t> image(const fastpath::BatchMemory &M,
                                   MemSpace S) {
  return M.image(S);
}
const WordMap &image(const sim::Memory &M, MemSpace S) {
  return *M.space(S);
}

/// What \p Who did differently from the interpreter's run \p Ref over
/// \p RefMem: "" when its result and all three images are identical.
template <class MemT>
std::string diff(const char *Who, const sim::RunResult &Got, const MemT &Mem,
                 const sim::RunResult &Ref, const sim::Memory &RefMem) {
  if (Got.Ok != Ref.Ok || Got.Trap != Ref.Trap ||
      Got.Error.message() != Ref.Error.message() ||
      Got.Instructions != Ref.Instructions || Got.Cycles != Ref.Cycles ||
      Got.HaltValues != Ref.HaltValues)
    return formatf("%s: %s; interpreter: %s", Who, describe(Got).c_str(),
                   describe(Ref).c_str());
  for (MemSpace S : {MemSpace::Sram, MemSpace::Sdram, MemSpace::Scratch})
    if (!(image(Mem, S) == *RefMem.space(S)))
      return formatf("%s: the %s image differs", Who,
                     sim::detail::spaceName(S));
  return "";
}

/// Runs \p P from \p Base three ways — the interpreter, the Engine over
/// \p T, and a SegmentContext over \p T driven to completion with flat
/// memory charges (the way runAllocated drives the interpreter) — and
/// returns the first difference from the interpreter, or "".
std::string divergence(const AllocatedProgram &P,
                       const fastpath::Translated &T,
                       const std::vector<uint32_t> &Args,
                       const sim::Memory &Base, const sim::RunOptions &RO) {
  sim::Memory MI = Base;
  sim::RunResult IR = sim::runAllocated(P, Args, MI, RO);

  fastpath::Engine Eng(T);
  fastpath::BatchMemory BM(Base);
  std::string D = diff("Engine", Eng.run(Args, BM, RO), BM, IR, MI);
  if (!D.empty())
    return D;

  sim::Memory MS = Base;
  fastpath::SegmentContext Seg(&T);
  Seg.reset(Args);
  while (!Seg.done()) {
    sim::AllocContext::Yield Y = Seg.resume(MS, RO);
    if (Y.K == sim::AllocContext::Yield::Kind::Mem)
      Seg.charge(RO.Lat.memAccess(Y.Space));
  }
  return diff("SegmentContext", Seg.takeResult(), MS, IR, MI);
}

/// Expects \p P to run bit-identically on the interpreter and on both
/// fast-path executors, translated with superblocks on and off.
void expectSame(const AllocatedProgram &P,
                const std::vector<uint32_t> &Args, const sim::Memory &Base,
                const sim::RunOptions &RO, const char *Label) {
  SCOPED_TRACE(Label);
  for (bool Superblocks : {true, false}) {
    fastpath::TranslateOptions TO;
    TO.Superblocks = Superblocks;
    EXPECT_EQ(divergence(P, fastpath::translate(P, RO.Lat, TO), Args, Base,
                         RO),
              "")
        << (Superblocks ? "superblocks on" : "superblocks off");
  }
}

void expectSame(const AllocatedProgram &P,
                const std::vector<uint32_t> &Args, const char *Label) {
  expectSame(P, Args, sim::Memory(), sim::RunOptions(), Label);
}

/// Expects a specific trap from the fast path AND that the interpreter
/// agrees bit-for-bit. Returns the fast path's result for tests that
/// also pin the counts at the trap point.
sim::RunResult expectTrap(const AllocatedProgram &P,
                          const std::vector<uint32_t> &Args, sim::TrapKind K,
                          const char *MsgPart, const char *Label,
                          const sim::RunOptions &RO = {}) {
  SCOPED_TRACE(Label);
  fastpath::Translated T = fastpath::translate(P, RO.Lat);
  fastpath::Engine Eng(T);
  sim::Memory Base;
  fastpath::BatchMemory BM(Base);
  sim::RunResult FR = Eng.run(Args, BM, RO);
  EXPECT_FALSE(FR.Ok);
  EXPECT_EQ(FR.Trap, K);
  EXPECT_NE(FR.Error.message().find(MsgPart), std::string::npos)
      << FR.Error.message();
  expectSame(P, Args, Base, RO, Label);
  return FR;
}

//===----------------------------------------------------------------------===//
// 1. Hand-built hostile programs
//===----------------------------------------------------------------------===//

TEST(FastPath, DeliversSimpleProgram) {
  AllocatedProgram P = oneBlock(
      {imm(7, loc(Bank::A, 1)),
       alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 0)),
           AOperand::reg(loc(Bank::A, 1)), loc(Bank::B, 0)),
       haltOf({AOperand::reg(loc(Bank::B, 0))})});
  expectSame(P, {35}, "add");

  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  fastpath::Engine Eng(T);
  sim::Memory Base;
  fastpath::BatchMemory BM(Base);
  sim::RunResult R = Eng.run({35}, BM, sim::RunOptions());
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.HaltValues.size(), 1u);
  EXPECT_EQ(R.HaltValues[0], 42u);
}

TEST(FastPath, NoEntryBlock) {
  AllocatedProgram P;
  expectTrap(P, {}, sim::TrapKind::MalformedProgram, "no entry block",
             "empty program");
  P.Blocks.push_back({{haltOf({})}});
  P.Entry = 7;
  expectTrap(P, {}, sim::TrapKind::MalformedProgram, "no entry block",
             "entry out of range");
}

TEST(FastPath, TooManyEntryArguments) {
  AllocatedProgram P = oneBlock({haltOf({})});
  std::vector<uint32_t> Args(16, 1);
  expectTrap(P, Args, sim::TrapKind::MalformedProgram,
             "too many entry arguments", "16 args");
}

TEST(FastPath, IllegalRegisterRead) {
  // A9..A15 exist, A-bank index 20 does not: the Err latch trips at the
  // bottom of the iteration, after the ALU cycle charge.
  AllocatedProgram P = oneBlock(
      {alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 20)),
           AOperand::constant(1), loc(Bank::B, 0)),
       haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access in block b0", "bad read");
}

TEST(FastPath, IllegalRegisterWrite) {
  AllocatedProgram P = oneBlock({imm(1, loc(Bank::L, 12)), haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access in block b0", "bad write");
}

TEST(FastPath, IllegalRegisterAtHalt) {
  AllocatedProgram P =
      oneBlock({haltOf({AOperand::reg(loc(Bank::SD, 9))})});
  expectTrap(P, {}, sim::TrapKind::IllegalRegister,
             "illegal register access at halt", "bad halt src");
}

TEST(FastPath, IllegalRegisterOnMemoryOps) {
  // An illegal register on a memory op latches the error while the op
  // issues, and the trap fires only after the caller's memory charge:
  // the counts stop at the memory op but include its access latency.
  sim::LatencyModel Lat;
  {
    AllocatedProgram P = oneBlock(
        {imm(3, loc(Bank::A, 0)),
         memRead(MemSpace::Sram, AOperand::reg(loc(Bank::A, 20)),
                 {loc(Bank::B, 0)}),
         haltOf({})});
    sim::RunResult R =
        expectTrap(P, {}, sim::TrapKind::IllegalRegister,
                   "illegal register access in block b0", "bad address");
    EXPECT_EQ(R.Instructions, 2u);
    EXPECT_EQ(R.Cycles, uint64_t(Lat.Imm) + Lat.SramAccess);
  }
  {
    AllocatedProgram P = oneBlock(
        {memRead(MemSpace::Scratch, AOperand::constant(4),
                 {loc(Bank::B, 0), loc(Bank::L, 12)}),
         haltOf({})});
    sim::RunResult R =
        expectTrap(P, {}, sim::TrapKind::IllegalRegister,
                   "illegal register access in block b0", "bad destination");
    EXPECT_EQ(R.Instructions, 1u);
    EXPECT_EQ(R.Cycles, uint64_t(Lat.ScratchAccess));
  }
  {
    // The store still lands (the bad source reads as 0) before the trap.
    AllocatedProgram P = oneBlock(
        {memWrite(MemSpace::Sdram, AOperand::constant(8),
                  {AOperand::constant(1), AOperand::reg(loc(Bank::SD, 9))}),
         haltOf({})});
    sim::RunResult R =
        expectTrap(P, {}, sim::TrapKind::IllegalRegister,
                   "illegal register access in block b0", "bad store source");
    EXPECT_EQ(R.Instructions, 1u);
    EXPECT_EQ(R.Cycles, uint64_t(Lat.SdramAccess));
  }
  {
    // A bad bit mask latches the error before the range check, which is
    // then skipped: the word past the limit is tested and set before the
    // trap, so every memory type must be able to hold it.
    AllocInstr B;
    B.Op = MOp::BitTestSet;
    B.Space = MemSpace::Scratch;
    B.Srcs = {AOperand::constant(sim::MemLimits().ScratchWords + 5),
              AOperand::reg(loc(Bank::B, 40))};
    B.Dsts = {loc(Bank::A, 0)};
    sim::RunResult R = expectTrap(oneBlock({B, haltOf({})}), {},
                                  sim::TrapKind::IllegalRegister,
                                  "illegal register access in block b0",
                                  "bad bit mask past the limit");
    EXPECT_EQ(R.Instructions, 1u);
    EXPECT_EQ(R.Cycles, uint64_t(Lat.ScratchAccess));
  }
}

TEST(FastPath, IllegalRegisterInBranchNamesTakenBlock) {
  // The bad operand reads as 0, so Eq 0 takes b1; the trap fires after
  // the branch retargets and charges, so it names the taken block.
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back(
      {{branch(cps::CmpOp::Eq, AOperand::reg(loc(Bank::A, 20)),
               AOperand::constant(0), /*Then=*/1, /*Else=*/2)}});
  P.Blocks.push_back({{haltOf({AOperand::constant(1)})}});
  P.Blocks.push_back({{haltOf({AOperand::constant(2)})}});
  sim::RunResult R =
      expectTrap(P, {}, sim::TrapKind::IllegalRegister,
                 "illegal register access in block b1", "bad branch operand");
  EXPECT_EQ(R.Instructions, 1u);
  EXPECT_EQ(R.Cycles, uint64_t(sim::LatencyModel().Branch));
}

TEST(FastPath, ForceSlowBlockWithMidBlockMemoryOps) {
  // b0 runs on the fast tier and jumps into b1, whose illegal operand
  // pins it to the per-instruction tier. b1's memory ops issue (and, in
  // a SegmentContext, yield) mid-block before the bad ALU op traps at
  // the bottom of its own iteration.
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({{imm(0x40, loc(Bank::A, 1)), jump(1)}});
  P.Blocks.push_back(
      {{memWrite(MemSpace::Sram, AOperand::reg(loc(Bank::A, 1)),
                 {AOperand::constant(7), AOperand::reg(loc(Bank::A, 0))}),
        memRead(MemSpace::Sram, AOperand::reg(loc(Bank::A, 1)),
                {loc(Bank::B, 0), loc(Bank::B, 1)}),
        alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::B, 0)),
            AOperand::reg(loc(Bank::B, 1)), loc(Bank::B, 2)),
        alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::B, 2)),
            AOperand::reg(loc(Bank::LD, 9)), loc(Bank::A, 3)),
        haltOf({AOperand::reg(loc(Bank::A, 3))})}});
  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  EXPECT_EQ(T.SlowBlocks, 1u);
  sim::RunResult R =
      expectTrap(P, {5}, sim::TrapKind::IllegalRegister,
                 "illegal register access in block b1", "slow mid-block mem");
  sim::LatencyModel Lat;
  EXPECT_EQ(R.Instructions, 6u);
  EXPECT_EQ(R.Cycles, uint64_t(Lat.Imm) + Lat.Branch + 2 * Lat.SramAccess +
                          2 * Lat.Alu);
}

TEST(FastPath, FellOffTheEnd) {
  AllocatedProgram P = oneBlock({imm(1, loc(Bank::A, 0))});
  expectTrap(P, {}, sim::TrapKind::MalformedProgram,
             "fell off the end of block b0", "no terminator");
  AllocatedProgram Empty = oneBlock({});
  expectTrap(Empty, {}, sim::TrapKind::MalformedProgram,
             "fell off the end of block b0", "empty block");
}

TEST(FastPath, BranchToInvalidTarget) {
  // Target validity is runtime-dependent: only the *chosen* edge traps.
  // Block 1 halts; block 9 does not exist.
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back(
      {{branch(cps::CmpOp::Eq, AOperand::reg(loc(Bank::A, 0)),
               AOperand::constant(1), /*Then=*/9, /*Else=*/1)}});
  P.Blocks.push_back({{haltOf({AOperand::constant(5)})}});
  expectSame(P, {0}, "valid edge chosen");
  expectTrap(P, {1}, sim::TrapKind::MalformedProgram,
             "branch in block b0 targets b9", "invalid edge chosen");
}

TEST(FastPath, JumpToInvalidTarget) {
  AllocatedProgram P = oneBlock({jump(3)});
  expectTrap(P, {}, sim::TrapKind::MalformedProgram,
             "jump in block b0 targets b3", "bad jump");
}

TEST(FastPath, ClonePseudo) {
  AllocInstr C;
  C.Op = MOp::Clone;
  C.Srcs = {AOperand::constant(1)};
  C.Dsts = {loc(Bank::A, 0)};
  AllocatedProgram P = oneBlock({C, haltOf({})});
  expectTrap(P, {}, sim::TrapKind::MalformedProgram,
             "clone pseudo in allocated code", "clone");
}

// A superblock whose last block ends in a static trap: it falls off its
// end, names an invalid memory space, or holds a clone pseudo. The
// chain's head reaches that block by a jump (which vanishes) or by a
// branch (a guard); either way the trap must match the interpreter bit
// for bit with superblocks on and off.
TEST(FastPath, SuperblockTailTraps) {
  AllocInstr Clone;
  Clone.Op = MOp::Clone;
  Clone.Srcs = {AOperand::constant(1)};
  Clone.Dsts = {loc(Bank::A, 0)};
  struct Tail {
    const char *Label;
    std::vector<AllocInstr> Instrs;
    sim::TrapKind K;
    const char *Msg;
  };
  for (const Tail &Tl :
       {Tail{"fell off", {}, sim::TrapKind::MalformedProgram,
             "fell off the end of block b1"},
        Tail{"invalid space",
             {memRead(static_cast<MemSpace>(9), AOperand::constant(0),
                      {loc(Bank::A, 3)}),
              haltOf({})},
             sim::TrapKind::IllegalMemSpace, "memory space 9 in block b1"},
        Tail{"clone", {Clone, haltOf({})}, sim::TrapKind::MalformedProgram,
             "clone pseudo in allocated code"}}) {
    for (bool ViaBranch : {false, true}) {
      SCOPED_TRACE(ViaBranch ? "via branch" : "via jump");
      AllocatedProgram P;
      P.Entry = 0;
      P.Blocks.push_back(
          {{imm(7, loc(Bank::A, 1)),
            ViaBranch ? branch(cps::CmpOp::Eq, AOperand::reg(loc(Bank::A, 0)),
                               AOperand::constant(0), 1, 2)
                      : jump(1)}});
      std::vector<AllocInstr> Body = {
          imm(3, loc(Bank::A, 2)),
          alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 1)),
              AOperand::reg(loc(Bank::A, 2)), loc(Bank::B, 0))};
      Body.insert(Body.end(), Tl.Instrs.begin(), Tl.Instrs.end());
      P.Blocks.push_back({Body});
      P.Blocks.push_back({{haltOf({})}});

      sim::RunOptions RO;
      EXPECT_EQ(fastpath::translate(P, RO.Lat).Superblocks, 1u);
      sim::RunResult FR = expectTrap(P, {0}, Tl.K, Tl.Msg, Tl.Label);
      EXPECT_EQ(FR.Instructions, 5u); // b0's two, b1's two, the trap
      fastpath::TranslateOptions NoSB;
      NoSB.Superblocks = false;
      fastpath::Translated TP = fastpath::translate(P, RO.Lat, NoSB);
      fastpath::Engine Eng(TP);
      sim::Memory Base;
      fastpath::BatchMemory BM(Base);
      SCOPED_TRACE("per-block translation");
      expectSameResult(Eng.run({0}, BM, RO), FR);
    }
  }
}

TEST(FastPath, InvalidMemSpace) {
  AllocInstr M = memRead(static_cast<MemSpace>(9), AOperand::constant(0),
                         {loc(Bank::A, 0)});
  AllocatedProgram P = oneBlock({M, haltOf({})});
  expectTrap(P, {}, sim::TrapKind::IllegalMemSpace,
             "memory space 9 in block b0", "space 9");
}

TEST(FastPath, RangeTrapsPerSpace) {
  sim::MemLimits Lim;
  {
    AllocatedProgram P = oneBlock(
        {memRead(MemSpace::Sram, AOperand::constant(Lim.SramWords),
                 {loc(Bank::A, 0)}),
         haltOf({})});
    expectTrap(P, {}, sim::TrapKind::SramOutOfRange, "sram read of 1",
               "sram read oob");
  }
  {
    AllocatedProgram P = oneBlock(
        {memWrite(MemSpace::Sdram,
                  AOperand::constant(Lim.SdramWords - 1),
                  {AOperand::constant(1), AOperand::constant(2)}),
         haltOf({})});
    expectTrap(P, {}, sim::TrapKind::SdramOutOfRange, "sdram write of 2",
               "sdram write oob");
  }
  {
    AllocInstr B;
    B.Op = MOp::BitTestSet;
    B.Space = MemSpace::Scratch;
    B.Srcs = {AOperand::constant(Lim.ScratchWords),
              AOperand::constant(4)};
    B.Dsts = {loc(Bank::A, 0)};
    AllocatedProgram P = oneBlock({B, haltOf({})});
    expectTrap(P, {}, sim::TrapKind::ScratchOutOfRange,
               "scratch bit-test-set", "scratch bts oob");
  }
}

TEST(FastPath, MemoryEffectsMatch) {
  // Write, bit-test-set, read back: images and halt values must match
  // the interpreter exactly (including the stored-zero entry).
  AllocInstr B;
  B.Op = MOp::BitTestSet;
  B.Space = MemSpace::Scratch;
  B.Srcs = {AOperand::constant(10), AOperand::constant(0xF0)};
  B.Dsts = {loc(Bank::A, 1)};
  AllocatedProgram P = oneBlock(
      {memWrite(MemSpace::Sdram, AOperand::constant(100),
                {AOperand::constant(0xdead), AOperand::constant(0),
                 AOperand::reg(loc(Bank::A, 0))}),
       memWrite(MemSpace::Sram, AOperand::constant(3),
                {AOperand::constant(7)}),
       B,
       memRead(MemSpace::Sdram, AOperand::constant(101),
               {loc(Bank::B, 0), loc(Bank::B, 1)}),
       haltOf({AOperand::reg(loc(Bank::B, 0)),
               AOperand::reg(loc(Bank::B, 1)),
               AOperand::reg(loc(Bank::A, 1))})});
  expectSame(P, {77}, "memory effects");
}

TEST(FastPath, WatchdogExhaustion) {
  // Infinite loop; the watchdog gate must route the final block to the
  // slow path so the trap fires at exactly the budgeted instruction.
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({{alu(cps::PrimOp::Add,
                           AOperand::reg(loc(Bank::A, 0)),
                           AOperand::constant(1), loc(Bank::A, 0)),
                       jump(0)}});
  sim::RunOptions RO;
  RO.MaxInstructions = 1000;
  expectTrap(P, {0}, sim::TrapKind::Watchdog,
             "instruction budget of 1000 exhausted", "watchdog", RO);
  RO.MaxInstructions = 999; // odd budget: trap mid-block
  expectTrap(P, {0}, sim::TrapKind::Watchdog,
             "instruction budget of 999 exhausted", "watchdog odd", RO);
}

TEST(FastPath, StrictShiftTrap) {
  AllocatedProgram P = oneBlock(
      {imm(40, loc(Bank::A, 1)),
       alu(cps::PrimOp::Shl, AOperand::reg(loc(Bank::A, 0)),
           AOperand::reg(loc(Bank::A, 1)), loc(Bank::B, 0)),
       haltOf({AOperand::reg(loc(Bank::B, 0))})});
  // Architected clamp: count >= 32 yields 0, no trap.
  expectSame(P, {5}, "shift clamp");
  // Strict mode pins everything to the slow path and traps.
  sim::RunOptions RO;
  RO.TrapOnShiftRange = true;
  expectTrap(P, {5}, sim::TrapKind::ShiftRange,
             "shift count 40 in block b0", "strict shift", RO);
}

TEST(FastPath, LargeImmCostsTwoCycles) {
  // Imm <= 0xFFFF or low-half-zero: 1 cycle; otherwise 2. The fold
  // happens at translation time, so cycle counts expose any mismatch.
  for (uint32_t V : {0u, 0xFFFFu, 0x10000u, 0x12345678u, 0xFFFF0000u}) {
    AllocatedProgram P =
        oneBlock({imm(V, loc(Bank::A, 0)),
                  haltOf({AOperand::reg(loc(Bank::A, 0))})});
    expectSame(P, {}, "imm cost");
  }
}

TEST(FastPath, SingleSourceAlu) {
  AllocInstr N;
  N.Op = MOp::Alu;
  N.Alu = cps::PrimOp::Not;
  N.Srcs = {AOperand::reg(loc(Bank::A, 0))};
  N.Dsts = {loc(Bank::B, 0)};
  AllocatedProgram P =
      oneBlock({N, haltOf({AOperand::reg(loc(Bank::B, 0))})});
  expectSame(P, {0x0F0F0F0F}, "not");
}

TEST(FastPath, EngineIsReusableAndDeterministic) {
  AllocatedProgram P = oneBlock(
      {memRead(MemSpace::Sdram, AOperand::reg(loc(Bank::A, 0)),
               {loc(Bank::B, 0)}),
       alu(cps::PrimOp::Xor, AOperand::reg(loc(Bank::B, 0)),
           AOperand::constant(0x5a5a5a5a), loc(Bank::B, 1)),
       memWrite(MemSpace::Sdram, AOperand::reg(loc(Bank::A, 0)),
                {AOperand::reg(loc(Bank::B, 1))}),
       haltOf({AOperand::reg(loc(Bank::B, 1))})});
  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  fastpath::Engine Eng(T);
  sim::Memory Base;
  Base.Sdram[50] = 0x12345678;
  fastpath::BatchMemory BM(Base);
  sim::RunOptions RO;

  sim::RunResult R1 = Eng.run({50}, BM, RO);
  auto Img1 = BM.image(MemSpace::Sdram);
  BM.reset();
  // reset() must land back on the base image exactly.
  EXPECT_EQ(BM.image(MemSpace::Sdram), Base.Sdram);
  sim::RunResult R2 = Eng.run({50}, BM, RO);
  auto Img2 = BM.image(MemSpace::Sdram);
  EXPECT_EQ(R1.HaltValues, R2.HaltValues);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_EQ(Img1, Img2);
}

//===----------------------------------------------------------------------===//
// Superinstructions: address-mode memory ops, forwarding, back-edge gates
//===----------------------------------------------------------------------===//

using sim::detail::rangeTrapFor;
using sim::detail::spaceName;

bool hasKind(const fastpath::Translated &T, fastpath::FOp K) {
  for (const fastpath::FastOp &O : T.Ops)
    if (O.Kind == K)
      return true;
  return false;
}

/// True when some op of kind \p K transfers to a SuperEntry through its
/// X target (or its Y target, for a branch).
bool edgeIntoSuperEntry(const fastpath::Translated &T, fastpath::FOp K) {
  for (const fastpath::FastOp &O : T.Ops)
    if (O.Kind == K &&
        (T.Ops[O.X].Kind == fastpath::FOp::SuperEntry ||
         (K >= fastpath::FOp::BranchEq && K <= fastpath::FOp::BranchGe &&
          T.Ops[O.Y].Kind == fastpath::FOp::SuperEntry)))
      return true;
  return false;
}

/// One block: producer \p Prod (0 add, 1 copy+add, 2 shl+add) computes
/// an address into A1; consumer \p Cons (0 read, 1 write, 2 copy+read,
/// 3 copy+write) accesses two words of \p S there. The consumer's copy
/// reads the producer's result, and the access reads or overwrites the
/// address register, so every write of the fused op is order-sensitive.
AllocatedProgram addressModeProgram(unsigned Prod, unsigned Cons,
                                    MemSpace S) {
  const PhysLoc Addr = loc(Bank::A, 1);
  const AOperand AddrR = AOperand::reg(Addr);
  std::vector<AllocInstr> Is;
  if (Prod == 0) {
    Is.push_back(alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 0)),
                     AOperand::constant(16), Addr));
  } else if (Prod == 1) {
    Is.push_back(imm(16, loc(Bank::A, 2)));
    Is.push_back(alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 0)),
                     AOperand::reg(loc(Bank::A, 2)), Addr));
  } else {
    Is.push_back(alu(cps::PrimOp::Shl, AOperand::reg(loc(Bank::A, 0)),
                     AOperand::constant(2), Addr));
    Is.push_back(alu(cps::PrimOp::Add, AddrR,
                     AOperand::reg(loc(Bank::A, 3)), Addr));
  }
  if (Cons >= 2)
    Is.push_back(move(AddrR, loc(Bank::B, 1)));
  if (Cons % 2 == 0)
    Is.push_back(memRead(S, AddrR, {loc(Bank::B, 0), Addr}));
  else
    Is.push_back(memWrite(S, AddrR,
                          {AddrR, AOperand::reg(loc(Bank::B, Cons >= 2))}));
  Is.push_back(haltOf({AOperand::reg(loc(Bank::B, 0)), AddrR,
                       AOperand::reg(loc(Bank::B, 1))}));
  return oneBlock(std::move(Is));
}

TEST(FastPathFusion, AddressModeFormsMatchAndRangeTrap) {
  // Every producer x consumer form, in every space: in range the fused
  // op's writes and memory effects match the interpreter; at the limit
  // (one word past it, and a two-word access straddling it) the fused op
  // range-traps with the interpreter's kind, message, instruction count
  // and cycles.
  sim::MemLimits Lim;
  sim::Memory Base;
  for (MemSpace S : {MemSpace::Sram, MemSpace::Sdram, MemSpace::Scratch}) {
    Base.store(S, 24, 0x1111);
    Base.store(S, 25, 0x2222);
    Base.store(S, 132, 0x3333);
  }
  for (MemSpace S : {MemSpace::Sram, MemSpace::Sdram, MemSpace::Scratch})
    for (unsigned Prod = 0; Prod != 3; ++Prod)
      for (unsigned Cons = 0; Cons != 4; ++Cons) {
        std::string Label = formatf("%s prod %u cons %u", spaceName(S),
                                    Prod, Cons);
        SCOPED_TRACE(Label);
        AllocatedProgram P = addressModeProgram(Prod, Cons, S);
        fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
        EXPECT_TRUE(hasKind(T, static_cast<fastpath::FOp>(
                                   static_cast<unsigned>(
                                       fastpath::FOp::FuseAddMemRead) +
                                   4 * Prod + Cons)));
        EXPECT_EQ(T.FusedOps, 1u + (Prod == 1) + (Prod == 2) + (Cons >= 2));
        // Shl+add: (A0 << 2) + A3; add: A0 + 16.
        uint32_t Limit = Lim.words(S);
        auto args = [&](uint32_t At) -> std::vector<uint32_t> {
          if (Prod == 2)
            return {0, 0, 0, At};
          return {At - 16};
        };
        expectSame(P, Prod == 2 ? std::vector<uint32_t>{8, 0, 0, 100}
                                : std::vector<uint32_t>{8},
                   Base, sim::RunOptions(), "in range");
        const char *What = Cons % 2 == 0 ? "read of 2 words"
                                         : "write of 2 words";
        sim::RunResult R = expectTrap(P, args(Limit), rangeTrapFor(S), What,
                                      "past the limit");
        EXPECT_EQ(R.Instructions, P.Blocks[0].Instrs.size() - 1);
        expectTrap(P, args(Limit - 1), rangeTrapFor(S), What,
                   "straddling the limit");
      }
}

TEST(FastPathFusion, ForwardedCopyPairsMatch) {
  // The second op of each copy pair reads the copy's destination (and a
  // copy of a register onto itself): forwarding must read the source.
  AllocatedProgram P = oneBlock(
      {move(AOperand::reg(loc(Bank::A, 0)), loc(Bank::A, 1)),
       alu(cps::PrimOp::Sub, AOperand::reg(loc(Bank::A, 1)),
           AOperand::reg(loc(Bank::A, 1)), loc(Bank::A, 2)),
       imm(5, loc(Bank::A, 3)),
       alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 3)),
           AOperand::reg(loc(Bank::A, 0)), loc(Bank::A, 3)),
       move(AOperand::reg(loc(Bank::A, 3)), loc(Bank::A, 4)),
       move(AOperand::reg(loc(Bank::A, 4)), loc(Bank::A, 5)),
       move(AOperand::reg(loc(Bank::A, 5)), loc(Bank::A, 5)),
       memWrite(MemSpace::Sram, AOperand::reg(loc(Bank::A, 5)),
                {AOperand::reg(loc(Bank::A, 5)),
                 AOperand::reg(loc(Bank::A, 4))}),
       move(AOperand::reg(loc(Bank::A, 0)), loc(Bank::B, 0)),
       memRead(MemSpace::Sram, AOperand::reg(loc(Bank::B, 0)),
               {loc(Bank::B, 0), loc(Bank::B, 1)}),
       haltOf({AOperand::reg(loc(Bank::A, 2)),
               AOperand::reg(loc(Bank::A, 3)),
               AOperand::reg(loc(Bank::B, 0)),
               AOperand::reg(loc(Bank::B, 1))})});
  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  EXPECT_TRUE(hasKind(T, fastpath::FOp::FuseCopySub));
  EXPECT_TRUE(hasKind(T, fastpath::FOp::FuseCopyAdd));
  EXPECT_TRUE(hasKind(T, fastpath::FOp::FuseCopyCopy));
  EXPECT_TRUE(hasKind(T, fastpath::FOp::FuseCopyMemWrite));
  EXPECT_TRUE(hasKind(T, fastpath::FOp::FuseCopyMemRead));
  for (uint32_t A0 : {0u, 7u, 0x40u})
    expectSame(P, {A0}, formatf("a0=%u", A0).c_str());
}

/// A loop whose head heads a superblock, entered from b0. \p Shape picks
/// the edge back into the loop's SuperEntry: 0 a jump, 1 a branch, 2 a
/// jump plus a guard whose exit lands on a second superblock's entry.
/// A0 counts iterations up to A1.
AllocatedProgram gatedLoop(unsigned Shape) {
  const AOperand I = AOperand::reg(loc(Bank::A, 0));
  const AOperand N = AOperand::reg(loc(Bank::A, 1));
  AllocInstr Step = alu(cps::PrimOp::Add, I, AOperand::reg(loc(Bank::A, 2)),
                        loc(Bank::A, 0));
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({{jump(1)}});
  if (Shape == 1) {
    P.Blocks.push_back({{imm(1, loc(Bank::A, 2)), Step, jump(2)}});
    P.Blocks.push_back(
        {{alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::B, 0)), I,
              loc(Bank::B, 0)),
          branch(cps::CmpOp::Lt, I, N, 1, 3)}});
    P.Blocks.push_back({{haltOf({I, AOperand::reg(loc(Bank::B, 0))})}});
    return P;
  }
  P.Blocks.push_back({{imm(1, loc(Bank::A, 2)), Step,
                       branch(cps::CmpOp::Lt, I, N, 2, 3)}});
  P.Blocks.push_back({{alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::B, 0)),
                           I, loc(Bank::B, 0)),
                       jump(1)}});
  if (Shape == 0) {
    P.Blocks.push_back({{haltOf({I, AOperand::reg(loc(Bank::B, 0))})}});
    return P;
  }
  // The loop exit is a guard side-exit into the chain b3 -> b4.
  P.Blocks.push_back({{imm(9, loc(Bank::B, 1)), jump(4)}});
  P.Blocks.push_back(
      {{haltOf({I, AOperand::reg(loc(Bank::B, 0)),
                AOperand::reg(loc(Bank::B, 1))})}});
  return P;
}

TEST(FastPathFusion, WatchdogAtBackEdgeGate) {
  // Every budget from 1 to past the whole run: some expire exactly at a
  // back-edge whose handler runs the superblock gate (the gate fails and
  // the run falls back to the head block's per-block stream), others
  // inside the chain or at the guard's exit into the second superblock.
  for (unsigned Shape = 0; Shape != 3; ++Shape) {
    SCOPED_TRACE(formatf("shape %u", Shape));
    AllocatedProgram P = gatedLoop(Shape);
    fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
    EXPECT_EQ(T.Superblocks, Shape == 2 ? 2u : 1u);
    EXPECT_TRUE(edgeIntoSuperEntry(
        T, Shape == 1 ? fastpath::FOp::BranchLt : fastpath::FOp::Jump));
    if (Shape == 2) {
      EXPECT_TRUE(edgeIntoSuperEntry(T, fastpath::FOp::GuardLt));
    }
    const std::vector<uint32_t> Args = {0, 6};
    sim::Memory Mem;
    sim::RunResult Full = sim::runAllocated(P, Args, Mem, sim::RunOptions());
    ASSERT_TRUE(Full.Ok);
    unsigned Traps = 0;
    for (uint64_t Budget = 1; Budget <= Full.Instructions + 1; ++Budget) {
      sim::RunOptions RO;
      RO.MaxInstructions = Budget;
      expectSame(P, Args, sim::Memory(), RO,
                 formatf("budget %llu", (unsigned long long)Budget).c_str());
      sim::Memory MI;
      Traps += sim::runAllocated(P, Args, MI, RO).Trap ==
               sim::TrapKind::Watchdog;
    }
    EXPECT_EQ(Traps, Full.Instructions - 1); // a budget of N runs N
  }
}

/// A payload-copy loop in the shape of NAT's: each iteration reads a
/// word through a shift-add address and writes it through an add
/// address with a copy in between, i.e. FuseShlAddMemRead and
/// FuseAddCopyMemWrite. A0 = source base (scratch), A1 = index, A2 =
/// count, A3 = destination offset.
AllocatedProgram copyLoop() {
  const PhysLoc Src = loc(Bank::B, 2), Dst = loc(Bank::B, 5);
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({{jump(1)}});
  P.Blocks.push_back({{branch(cps::CmpOp::Lt, AOperand::reg(loc(Bank::A, 1)),
                              AOperand::reg(loc(Bank::A, 2)), 2, 3)}});
  P.Blocks.push_back(
      {{alu(cps::PrimOp::Shl, AOperand::reg(loc(Bank::A, 1)),
            AOperand::constant(1), Src),
        alu(cps::PrimOp::Add, AOperand::reg(Src),
            AOperand::reg(loc(Bank::A, 0)), Src),
        memRead(MemSpace::Scratch, AOperand::reg(Src), {loc(Bank::B, 3)}),
        alu(cps::PrimOp::Add, AOperand::reg(Src),
            AOperand::reg(loc(Bank::A, 3)), Dst),
        move(AOperand::reg(loc(Bank::B, 3)), loc(Bank::B, 4)),
        memWrite(MemSpace::Scratch, AOperand::reg(Dst),
                 {AOperand::reg(loc(Bank::B, 4))}),
        alu(cps::PrimOp::Add, AOperand::reg(loc(Bank::A, 1)),
            AOperand::constant(1), loc(Bank::A, 1)),
        jump(1)}});
  P.Blocks.push_back({{haltOf({AOperand::reg(loc(Bank::A, 1))})}});
  return P;
}

/// A resumable run of \p T on \p Mem with flat charges; returns the
/// sequence of yields (space, burst cycles) and leaves the context done.
std::vector<std::pair<MemSpace, uint64_t>>
drain(fastpath::SegmentContext &Seg, sim::Memory &Mem,
      const sim::RunOptions &RO) {
  std::vector<std::pair<MemSpace, uint64_t>> Yields;
  while (!Seg.done()) {
    sim::AllocContext::Yield Y = Seg.resume(Mem, RO);
    if (Y.K != sim::AllocContext::Yield::Kind::Mem)
      break;
    Yields.push_back({Y.Space, Y.Cycles});
    Seg.charge(RO.Lat.memAccess(Y.Space));
  }
  return Yields;
}

TEST(FastPathFusion, SpillRebasedFusedAddress) {
  // The resumable stream rebases a fused op's computed address into the
  // context's spill window exactly as the interpreter's context does:
  // same yields, same result, same scratch image. A0 = the first index
  // puts the accesses inside the window, past it, or (with the window at
  // the scratch limit) rebased out of range.
  sim::MemLimits Lim;
  for (uint32_t SpillBase : {0x8000u, Lim.ScratchWords - 8}) {
    AllocatedProgram P = copyLoop();
    P.SpillBase = SpillBase;
    P.NumSpillSlots = 8;
    fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
    ASSERT_TRUE(hasKind(T, fastpath::FOp::FuseShlAddMemRead));
    ASSERT_TRUE(hasKind(T, fastpath::FOp::FuseAddCopyMemWrite));
    for (uint32_t First : {0u, 2u, 4u}) {
      SCOPED_TRACE(formatf("spill base 0x%x first %u", SpillBase, First));
      std::vector<uint32_t> Args = {SpillBase, First, First + 3, 1};
      sim::Memory Base;
      for (uint32_t K = 0; K != 16; ++K)
        Base.store(MemSpace::Scratch, SpillBase + 64 + K, 0xA0 + K);
      sim::RunOptions RO;

      sim::Memory MI = Base;
      sim::Decoded Code = sim::decode(P);
      sim::AllocContext AC(&Code);
      AC.setSpillRebase(64);
      AC.reset(Args);
      std::vector<std::pair<MemSpace, uint64_t>> Want;
      while (!AC.done()) {
        sim::AllocContext::Yield Y = AC.resume(MI, RO);
        if (Y.K != sim::AllocContext::Yield::Kind::Mem)
          break;
        Want.push_back({Y.Space, Y.Cycles});
        AC.charge(RO.Lat.memAccess(Y.Space));
      }
      sim::RunResult IR = AC.takeResult();
      if (SpillBase == 0x8000u)
        EXPECT_FALSE(Want.empty());
      else // the first rebased access lands past the scratch limit
        EXPECT_EQ(IR.Trap, sim::TrapKind::ScratchOutOfRange);

      sim::Memory MS = Base;
      fastpath::SegmentContext Seg(&T);
      Seg.setSpillRebase(64);
      Seg.reset(Args);
      EXPECT_EQ(drain(Seg, MS, RO), Want);
      expectSameResult(Seg.takeResult(), IR);
      EXPECT_EQ(MS.Scratch, MI.Scratch);
    }
  }
}

TEST(FastPathFusion, SnapshotAtFusedYieldResumesIdentically) {
  // Every memory op of the loop is fused, so every yield of the stream
  // is inside a fused op. Snapshot the context at each yield in turn,
  // restore into a fresh context, and finish both: the rest of the run
  // (yields, result, image) is identical, and equals the interpreter.
  AllocatedProgram P = copyLoop();
  fastpath::Translated T = fastpath::translate(P, sim::LatencyModel());
  for (fastpath::FOp K : {fastpath::FOp::MemRead, fastpath::FOp::MemWrite,
                          fastpath::FOp::BitTestSet})
    ASSERT_FALSE(hasKind(T, K));
  std::vector<uint32_t> Args = {0x100, 0, 4, 0x40};
  sim::Memory Base;
  for (uint32_t K = 0; K != 8; ++K)
    Base.store(MemSpace::Scratch, 0x100 + K, 0x5000 + K);
  sim::RunOptions RO;
  sim::Memory MI = Base;
  sim::RunResult IR = sim::runAllocated(P, Args, MI, RO);
  ASSERT_TRUE(IR.Ok);

  for (unsigned At = 1; At <= 8; ++At) {
    SCOPED_TRACE(formatf("snapshot at yield %u", At));
    sim::Memory M = Base;
    fastpath::SegmentContext A(&T);
    A.reset(Args);
    for (unsigned Y = 0; Y != At; ++Y) {
      sim::AllocContext::Yield Yd = A.resume(M, RO);
      ASSERT_EQ(Yd.K, sim::AllocContext::Yield::Kind::Mem);
      A.charge(RO.Lat.memAccess(Yd.Space));
    }
    BinWriter W;
    A.saveState(W);
    fastpath::SegmentContext B(&T);
    BinReader R(W.bytes().data(), W.bytes().size());
    B.restoreState(R);
    ASSERT_FALSE(R.failed());
    EXPECT_EQ(R.remaining(), 0u);
    BinWriter W2;
    B.saveState(W2);
    EXPECT_EQ(W2.bytes(), W.bytes());

    sim::Memory MB = M;
    std::vector<std::pair<MemSpace, uint64_t>> YA = drain(A, M, RO);
    std::vector<std::pair<MemSpace, uint64_t>> YB = drain(B, MB, RO);
    EXPECT_EQ(YA, YB);
    expectSameResult(A.takeResult(), IR);
    expectSameResult(B.takeResult(), IR);
    EXPECT_EQ(M.Scratch, MI.Scratch);
    EXPECT_EQ(MB.Scratch, MI.Scratch);
  }
}

// The hostile-program table shared with sim_test, one case per test so
// that a crash names its case.
const std::vector<hostile::AllocCase> &hostileCases() {
  static const std::vector<hostile::AllocCase> Cases =
      hostile::decodeHostilePrograms();
  return Cases;
}

class HostileProgram : public ::testing::TestWithParam<size_t> {};

TEST_P(HostileProgram, RunsAsInterpreted) {
  const hostile::AllocCase &K = hostileCases()[GetParam()];
  expectSame(K.P, K.Args, sim::Memory(), K.Opts, K.Label);
}

INSTANTIATE_TEST_SUITE_P(FastPath, HostileProgram,
                         ::testing::Range<size_t>(0, hostileCases().size()));

// A block whose constants outrun the 16-bit frame slots is pinned to the
// slow tier, and gives back every op and constant slot it took.
TEST(FastPath, ConstantSlotOverflowRunsSlow) {
  std::vector<AllocInstr> Instrs;
  for (uint32_t K = 0; K != 70001; ++K)
    Instrs.push_back(imm(0x100000 + K, loc(Bank::A, 0)));
  Instrs.push_back(haltOf({AOperand::reg(loc(Bank::A, 0))}));
  fastpath::Translated T =
      fastpath::translate(oneBlock(Instrs), sim::LatencyModel());
  EXPECT_EQ(T.SlowBlocks, 1u);
  EXPECT_TRUE(T.Meta[0].ForceSlow);
  EXPECT_EQ(T.Ops.size(), 1u); // its BlockEntry
  EXPECT_EQ(T.frameSize(), sim::FrameRegs);
}

//===----------------------------------------------------------------------===//
// 2. Differential fuzz over the benchmark apps
//===----------------------------------------------------------------------===//

/// Compiles a benchmark app once per process (ILP-bound; shared across
/// the fuzz tests below).
soak::AppHarness &harness(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<soak::AppHarness>> Cache;
  auto It = Cache.find(Name);
  if (It == Cache.end()) {
    driver::CompileOptions Opts = soak::AppHarness::defaultCompileOptions();
    Opts.Alloc.Mip.TimeLimitSeconds = 30.0;
    std::string Error;
    auto H = soak::AppHarness::create(Name, Error, Opts);
    if (!H) {
      ADD_FAILURE() << "compiling " << Name << ": " << Error;
      std::abort();
    }
    It = Cache.emplace(Name, std::move(H)).first;
  }
  return *It->second;
}

/// Streams \p Seeds adversarial stream seeds (x \p PerSeed packets)
/// through three executions — superblock fast path, per-block-only fast
/// path, interpreter — and requires bit-identical results from all of
/// them. The per-block translation triangulates: a bug in superblock
/// formation diverges from it, a bug in the shared decoding diverges
/// from the interpreter.
void fuzzApp(const std::string &Name, uint64_t Seeds, uint64_t PerSeed) {
  soak::AppHarness &App = harness(Name);
  soak::SoakOptions SOpts;
  sim::RunOptions RO;
  RO.Lat = SOpts.Lat;
  RO.MaxInstructions = SOpts.Budget;

  fastpath::Translated T =
      fastpath::translate(App.compiled().Alloc.Prog, RO.Lat);
  EXPECT_GT(T.Superblocks, 0u) << Name;
  fastpath::Engine Eng(T);
  fastpath::BatchMemory BM(App.baseSim());

  fastpath::TranslateOptions NoSB;
  NoSB.Superblocks = false;
  fastpath::Translated TP =
      fastpath::translate(App.compiled().Alloc.Prog, RO.Lat, NoSB);
  EXPECT_EQ(TP.Superblocks, 0u) << Name;
  fastpath::Engine EngP(TP);
  fastpath::BatchMemory BMP(App.baseSim());

  unsigned Mismatches = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    for (uint64_t I = 0; I != PerSeed; ++I) {
      soak::SoakPacket P = App.generate(I, Seed, SOpts.Mix);
      BM.reset();
      BM.storePacket(P.Args.empty() ? 0 : P.Args[0], P.Words);
      sim::RunResult FR = Eng.run(P.Args, BM, RO);
      BMP.reset();
      BMP.storePacket(P.Args.empty() ? 0 : P.Args[0], P.Words);
      sim::RunResult PR = EngP.run(P.Args, BMP, RO);
      // Interpreter reference (no 3-way oracle needed here).
      soak::PacketOutcome O =
          soak::runPacket(App, P, SOpts, /*WithOracle=*/false);
      bool Same =
          FR.Ok == O.Alloc.Ok && FR.Trap == O.Alloc.Trap &&
          FR.Error.message() == O.Alloc.Error.message() &&
          FR.Instructions == O.Alloc.Instructions &&
          FR.Cycles == O.Alloc.Cycles &&
          FR.HaltValues == O.Alloc.HaltValues &&
          BM.image(MemSpace::Sram) == O.AllocMem.Sram &&
          BM.image(MemSpace::Sdram) == O.AllocMem.Sdram &&
          BM.image(MemSpace::Scratch) == O.AllocMem.Scratch;
      if (!Same && ++Mismatches <= 3)
        ADD_FAILURE() << Name << " seed " << Seed << " packet " << I
                      << ": fastpath diverges from interpreter ("
                      << FR.Error.message() << " vs "
                      << O.Alloc.Error.message() << ")";
      bool SameP =
          FR.Ok == PR.Ok && FR.Trap == PR.Trap &&
          FR.Error.message() == PR.Error.message() &&
          FR.Instructions == PR.Instructions && FR.Cycles == PR.Cycles &&
          FR.HaltValues == PR.HaltValues &&
          BM.image(MemSpace::Sram) == BMP.image(MemSpace::Sram) &&
          BM.image(MemSpace::Sdram) == BMP.image(MemSpace::Sdram) &&
          BM.image(MemSpace::Scratch) == BMP.image(MemSpace::Scratch);
      if (!SameP && ++Mismatches <= 3)
        ADD_FAILURE() << Name << " seed " << Seed << " packet " << I
                      << ": superblock translation diverges from "
                         "per-block translation ("
                      << FR.Error.message() << " vs "
                      << PR.Error.message() << ")";
    }
  }
  EXPECT_EQ(Mismatches, 0u) << Name;
}

// 210 seeds x 2 packets per app: every packet class, every trap path
// the generators can reach, across three different register-allocated
// programs.
TEST(FastPathFuzz, Aes) { fuzzApp("aes", 210, 2); }
TEST(FastPathFuzz, Kasumi) { fuzzApp("kasumi", 210, 2); }
TEST(FastPathFuzz, Nat) { fuzzApp("nat", 210, 2); }

/// Applies one random mutation to \p P: an opcode, ALU operation,
/// comparison or memory space (values outside each enum included); an
/// operand's bank, index or kind; a dropped or an added operand; or a
/// branch target (past the last block included).
void mutate(AllocatedProgram &P, Rng &R) {
  AllocBlock &B = P.Blocks[R.below(P.Blocks.size())];
  if (B.Instrs.empty())
    return;
  AllocInstr &I = B.Instrs[R.below(B.Instrs.size())];
  const size_t NumOperands = I.Srcs.size() + I.Dsts.size();
  switch (R.below(7)) {
  case 0:
    I.Op = static_cast<MOp>(R.below(unsigned(MOp::Halt) + 3));
    break;
  case 1:
    I.Alu = static_cast<cps::PrimOp>(R.below(unsigned(cps::PrimOp::Not) + 3));
    I.Cmp = static_cast<cps::CmpOp>(R.below(unsigned(cps::CmpOp::Ge) + 3));
    break;
  case 2:
    I.Space = static_cast<MemSpace>(R.below(4));
    break;
  case 3: {
    if (NumOperands == 0)
      break;
    size_t K = R.below(NumOperands);
    PhysLoc &L = K < I.Srcs.size() ? I.Srcs[K].Loc : I.Dsts[K - I.Srcs.size()];
    if (K < I.Srcs.size() && R.chance(1, 3))
      I.Srcs[K].IsConst = !I.Srcs[K].IsConst;
    else if (R.chance(1, 2))
      L.B = static_cast<Bank>(R.below(NumBanks + 1));
    else
      L.Reg = static_cast<uint16_t>(R.below(18));
    break;
  }
  case 4:
    if (!I.Srcs.empty() && R.chance(1, 2))
      I.Srcs.erase(I.Srcs.begin() + R.below(I.Srcs.size()));
    else if (!I.Dsts.empty())
      I.Dsts.erase(I.Dsts.begin() + R.below(I.Dsts.size()));
    break;
  case 5: {
    PhysLoc L{static_cast<Bank>(R.below(NumBanks)),
              static_cast<uint16_t>(R.below(17))};
    if (R.chance(1, 2))
      I.Dsts.push_back(L);
    else if (R.chance(1, 2))
      I.Srcs.push_back(AOperand::reg(L));
    else
      I.Srcs.push_back(AOperand::constant(static_cast<uint32_t>(R.next())));
    break;
  }
  default:
    (R.chance(1, 2) ? I.Target : I.TargetElse) =
        static_cast<BlockId>(R.below(P.Blocks.size() + 2));
    break;
  }
}

/// Runs \p Mutants seeded mutants of \p Name's allocated program, each
/// with one to three mutations, on three packets under a budget of 5000
/// instructions, and requires the interpreter, the Engine and a
/// SegmentContext to agree bit for bit. Odd mutants translate without
/// superblocks. A mutant reproduces from (Seed, its index).
void mutantFuzz(const std::string &Name, uint64_t Seed, unsigned Mutants) {
  soak::AppHarness &App = harness(Name);
  soak::SoakOptions SOpts;
  sim::RunOptions RO;
  RO.Lat = SOpts.Lat;
  RO.MaxInstructions = 5000;
  unsigned Divergences = 0;
  for (unsigned M = 0; M != Mutants; ++M) {
    Rng R((Seed << 32) + M);
    AllocatedProgram P = App.compiled().Alloc.Prog;
    for (uint64_t K = 0, N = 1 + R.below(3); K != N; ++K)
      mutate(P, R);
    fastpath::TranslateOptions TO;
    TO.Superblocks = M % 2 == 0;
    fastpath::Translated T = fastpath::translate(P, RO.Lat, TO);
    for (uint64_t I = 0; I != 3; ++I) {
      soak::SoakPacket Pkt = App.generate(I, Seed + M, SOpts.Mix);
      sim::Memory Base = App.baseSim();
      apps::storePacket(Base.Sdram, Pkt.Args.empty() ? 0 : Pkt.Args[0],
                        Pkt.Words);
      std::string D = divergence(P, T, Pkt.Args, Base, RO);
      if (!D.empty() && ++Divergences <= 3)
        ADD_FAILURE() << Name << " seed " << Seed << " mutant " << M
                      << " packet " << I << ": " << D;
    }
  }
  EXPECT_EQ(Divergences, 0u) << Name;
}

// 1000 mutants x 3 packets per app.
TEST(FastPathMutants, Aes) { mutantFuzz("aes", 42, 1000); }
TEST(FastPathMutants, Kasumi) { mutantFuzz("kasumi", 42, 1000); }
TEST(FastPathMutants, Nat) { mutantFuzz("nat", 42, 1000); }

// The translation's shape per app, with superblocks on (the soak and
// chip default) and off. frameSize() pins the constant pool: a
// SegmentContext snapshot serializes the whole frame, so the chip's
// checkpoint bytes depend on it. FusedOps pins the fusion rules: a
// change that silently stops fusing fails here.
TEST(FastPathShape, FrameSizeAndFusedOpsArePinned) {
  struct Case {
    const char *App;
    unsigned Frame, Fused, FusedPerBlock;
  };
  for (const Case &K : {Case{"aes", 86, 174, 119}, Case{"kasumi", 80, 205, 103},
                        Case{"nat", 85, 59, 44}}) {
    SCOPED_TRACE(K.App);
    const AllocatedProgram &P = harness(K.App).compiled().Alloc.Prog;
    sim::LatencyModel Lat = soak::SoakOptions().Lat;
    fastpath::Translated T = fastpath::translate(P, Lat);
    EXPECT_EQ(T.frameSize(), K.Frame);
    EXPECT_EQ(T.FusedOps, K.Fused);
    fastpath::TranslateOptions NoSB;
    NoSB.Superblocks = false;
    fastpath::Translated TP = fastpath::translate(P, Lat, NoSB);
    EXPECT_EQ(TP.frameSize(), K.Frame);
    EXPECT_EQ(TP.FusedOps, K.FusedPerBlock);
  }
}

/// FNV-1a-64 of every field of \p T, translated from \p P, a run reads:
/// the op stream, its cold data, the operand pool, the constants, the
/// trap messages, the block metadata and the shape counters, plus
/// whether \p P names a valid entry block (which superblock formation
/// consults). Fields are folded one by one, so the hash does not depend
/// on struct padding.
uint64_t translationHash(const fastpath::Translated &T,
                         const AllocatedProgram &P) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto fold = [&H](uint64_t V) { H = fnv1a64(&V, sizeof V, H); };
  fold(T.Ops.size());
  for (const fastpath::FastOp &O : T.Ops)
    for (uint64_t V : {uint64_t(O.Kind), uint64_t(O.Aux), uint64_t(O.A),
                       uint64_t(O.B), uint64_t(O.D), uint64_t(O.N),
                       uint64_t(O.X), uint64_t(O.Y)})
      fold(V);
  fold(T.Cold.size());
  for (const fastpath::ColdInfo &C : T.Cold) {
    fold(C.InsDelta);
    fold(C.CycPrefix);
  }
  fold(T.Pool.size());
  for (uint16_t S : T.Pool)
    fold(S);
  fold(T.Consts.size());
  for (uint32_t V : T.Consts)
    fold(V);
  fold(T.Messages.size());
  for (const std::string &M : T.Messages) {
    fold(M.size());
    H = fnv1a64(M.data(), M.size(), H);
  }
  fold(T.Meta.size());
  for (const fastpath::BlockMeta &M : T.Meta)
    for (uint64_t V : {uint64_t(M.FirstOp), uint64_t(M.EnterOp),
                       uint64_t(M.MaxPath), uint64_t(M.ForceSlow)})
      fold(V);
  for (uint64_t V : {uint64_t(sim::detail::validEntry(P)),
                     uint64_t(T.SlowBlocks),
                     uint64_t(T.Superblocks), uint64_t(T.SuperblockOps),
                     uint64_t(T.FusedOps)})
    fold(V);
  return H;
}

// The whole translation per app, with superblocks on and off: a change
// to how the translator emits a stream that is meant to leave its output
// alone must leave these hashes alone.
TEST(FastPathShape, TranslationIsPinned) {
  struct Case {
    const char *App;
    uint64_t Super, PerBlock;
  };
  for (const Case &K :
       {Case{"aes", 0x12d4b27f7bca500eull, 0x40c21d94bf6896aeull},
        Case{"kasumi", 0x62ce81eff6f0e8f3ull, 0x418f810baa4aaae3ull},
        Case{"nat", 0xfc609358000e7196ull, 0xde3ce8b2436c5130ull}}) {
    SCOPED_TRACE(K.App);
    const AllocatedProgram &P = harness(K.App).compiled().Alloc.Prog;
    sim::LatencyModel Lat = soak::SoakOptions().Lat;
    fastpath::TranslateOptions NoSB;
    NoSB.Superblocks = false;
    EXPECT_EQ(translationHash(fastpath::translate(P, Lat), P), K.Super);
    EXPECT_EQ(translationHash(fastpath::translate(P, Lat, NoSB), P),
              K.PerBlock);
  }
}

//===----------------------------------------------------------------------===//
// 3. The threaded soak driver
//===----------------------------------------------------------------------===//

TEST(ThreadedSoak, StatsMatchInterpreter) {
  soak::SoakOptions Opts;
  Opts.Packets = 400;
  Opts.Seed = 11;
  Opts.OracleEvery = 1;
  soak::SoakReport RI = soak::runSoak(harness("nat"), Opts);
  Opts.Exec = sim::ExecMode::Threaded;
  soak::SoakReport RT = soak::runSoak(harness("nat"), Opts);

  EXPECT_EQ(RI.Exec, sim::ExecMode::Interp);
  EXPECT_EQ(RT.Exec, sim::ExecMode::Threaded);
  EXPECT_EQ(RT.Divergences, 0u);
  EXPECT_EQ(RI.Divergences, 0u);
  EXPECT_EQ(RT.Stats.Packets, RI.Stats.Packets);
  EXPECT_EQ(RT.Stats.Delivered, RI.Stats.Delivered);
  EXPECT_EQ(RT.Stats.Rejected, RI.Stats.Rejected);
  EXPECT_EQ(RT.Stats.Drops, RI.Stats.Drops);
  EXPECT_EQ(RT.Stats.TotalCycles, RI.Stats.TotalCycles);
  EXPECT_EQ(RT.Stats.TotalInstructions, RI.Stats.TotalInstructions);
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    EXPECT_EQ(RT.Stats.Traps[K], RI.Stats.Traps[K]) << "trap kind " << K;
  EXPECT_EQ(RT.Stats.p50Cycles(), RI.Stats.p50Cycles());
  EXPECT_EQ(RT.Stats.p99Cycles(), RI.Stats.p99Cycles());
  EXPECT_EQ(RT.OracleChecks, RI.OracleChecks);
}

TEST(ThreadedSoak, ReportJsonHasExecKeys) {
  soak::SoakOptions Opts;
  Opts.Packets = 50;
  Opts.Seed = 2;
  Opts.Exec = sim::ExecMode::Threaded;
  Opts.OracleEvery = 10;
  soak::SoakReport R = soak::runSoak(harness("nat"), Opts);
  std::string J = soak::reportJson(R);
  EXPECT_NE(J.find("\"exec_mode\":\"threaded\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"oracle_rate\":10"), std::string::npos) << J;
  EXPECT_NE(J.find("\"translate_seconds\":"), std::string::npos) << J;
}

TEST(ThreadedSoak, BitFlipNegativeControl) {
  // An injected ALU bit flip pins execution to the (injector-aware)
  // slow path; the 3-way oracle must still catch the corruption in
  // threaded mode and shrink a reproducer.
  FaultSpec Spec;
  Spec.Kind = FaultKind::SimBitFlip;
  Spec.After = 40;
  Spec.Times = 1;
  ScopedFaultInjection Armed({Spec});

  soak::SoakOptions Opts;
  Opts.Packets = 50;
  Opts.Seed = 3;
  Opts.Exec = sim::ExecMode::Threaded;
  Opts.OracleEvery = 1;
  soak::SoakReport R = soak::runSoak(harness("nat"), Opts);
  EXPECT_GT(R.Divergences, 0u);
  ASSERT_TRUE(R.First.Found);
  EXPECT_FALSE(R.First.What.empty());
  EXPECT_LE(R.First.ShrunkWords.size(), R.First.Words.size());
}

} // namespace
