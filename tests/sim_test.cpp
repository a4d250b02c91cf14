//===- sim_test.cpp - Micro-engine simulator tests -------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "apps/AppSources.h"
#include "sim/ExecContext.h"
#include "sim/Simulator.h"
#include "soak/Soak.h"
#include "support/BinIO.h"
#include "support/FaultInjection.h"

#include "hostile_programs.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;
using namespace nova::hostile;

namespace {

AllocInstr imm(uint32_t V, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::Imm;
  I.Imm = V;
  I.Dsts = {Dst};
  return I;
}

AllocInstr haltOf(std::vector<AOperand> Srcs) {
  AllocInstr I;
  I.Op = MOp::Halt;
  I.Srcs = std::move(Srcs);
  return I;
}

} // namespace

TEST(AllocatedSim, AluAndMoveSemantics) {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2; // A0, A1
  AllocInstr Add;
  Add.Op = MOp::Alu;
  Add.Alu = cps::PrimOp::Add;
  Add.Srcs = {AOperand::reg({Bank::A, 0}), AOperand::reg({Bank::B, 0})};
  Add.Dsts = {{Bank::S, 1}};
  AllocInstr Mv;
  Mv.Op = MOp::Move;
  Mv.Srcs = {AOperand::reg({Bank::A, 1})};
  Mv.Dsts = {{Bank::B, 0}};
  P.Blocks.push_back(
      {{Mv, Add, haltOf({AOperand::reg({Bank::A, 0})})}});

  sim::Memory Mem;
  // Note B0 is read by Add after Mv wrote A1's value into it.
  sim::RunResult R = sim::runAllocated(P, {7, 35}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues[0], 7u);
  EXPECT_EQ(R.Instructions, 3u);
}

TEST(AllocatedSim, CycleAccounting) {
  // imm(small) = 1 cycle, imm(large) = 2, sram write = 20, halt = 0.
  AllocatedProgram P;
  P.Entry = 0;
  AllocInstr Wr;
  Wr.Op = MOp::MemWrite;
  Wr.Space = MemSpace::Sram;
  Wr.Srcs = {AOperand::reg({Bank::A, 0}), AOperand::reg({Bank::S, 0})};
  AllocInstr MvS;
  MvS.Op = MOp::Move;
  MvS.Srcs = {AOperand::reg({Bank::A, 1})};
  MvS.Dsts = {{Bank::S, 0}};
  P.Blocks.push_back({{imm(5, {Bank::A, 0}), imm(0x12345678, {Bank::A, 1}),
                       MvS, Wr, haltOf({})}});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  // 1 (imm small) + 2 (imm large) + 1 (move) + 20 (sram store).
  EXPECT_EQ(R.Cycles, 24u);
  EXPECT_EQ(Mem.Sram[5], 0x12345678u);
}

TEST(AllocatedSim, LatencyModelSelectsMemoryCosts) {
  sim::LatencyModel L;
  EXPECT_EQ(L.memAccess(MemSpace::Sram), 20u);
  EXPECT_EQ(L.memAccess(MemSpace::Sdram), 33u);
  EXPECT_EQ(L.memAccess(MemSpace::Scratch), 12u);
}

TEST(AllocatedSim, ScratchSpillRoundTrip) {
  // Store A0 via S0 into scratch slot, wipe, reload through L2.
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 1;
  AllocInstr ToS;
  ToS.Op = MOp::Move;
  ToS.Srcs = {AOperand::reg({Bank::A, 0})};
  ToS.Dsts = {{Bank::S, 0}};
  AllocInstr Spill;
  Spill.Op = MOp::MemWrite;
  Spill.Space = MemSpace::Scratch;
  Spill.Srcs = {AOperand::constant(0x8000), AOperand::reg({Bank::S, 0})};
  AllocInstr Wipe = imm(0, {Bank::A, 0});
  AllocInstr Reload;
  Reload.Op = MOp::MemRead;
  Reload.Space = MemSpace::Scratch;
  Reload.Srcs = {AOperand::constant(0x8000)};
  Reload.Dsts = {{Bank::L, 2}};
  P.Blocks.push_back({{ToS, Spill, Wipe, Reload,
                       haltOf({AOperand::reg({Bank::L, 2})})}});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {0xABCD}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues[0], 0xABCDu);
}

TEST(AllocatedSim, TooManyArgsRejected) {
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({{haltOf({})}});
  sim::Memory Mem;
  std::vector<uint32_t> Args(16, 0);
  EXPECT_FALSE(sim::runAllocated(P, Args, Mem).Ok);
}

TEST(AllocatedSim, InfiniteLoopHitsLimit) {
  AllocatedProgram P;
  P.Entry = 0;
  AllocInstr J;
  J.Op = MOp::Jump;
  J.Target = 0;
  P.Blocks.push_back({{J}});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {}, Mem, {}, 1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, sim::TrapKind::Watchdog);
  EXPECT_EQ(R.Error.code(), StatusCode::SimTrap);
  EXPECT_NE(R.Error.message().find("budget"), std::string::npos);
}

TEST(Throughput, MbpsArithmetic) {
  // 16 bytes in 128 cycles at 233 MHz: 233e6/128 packets/s * 128 bits.
  double Mbps = sim::throughputMbps(16, 128.0);
  EXPECT_NEAR(Mbps, 233e6 / 128.0 * 128.0 / 1e6, 1e-6);
  EXPECT_EQ(sim::throughputMbps(16, 0.0), 0.0);
  // Double the cycles, half the throughput.
  EXPECT_NEAR(sim::throughputMbps(16, 256.0) * 2, Mbps, 1e-9);
}

TEST(FunctionalSim, ArgumentCountChecked) {
  ixp::MachineProgram M;
  M.Entry = 0;
  M.Blocks.push_back({});
  M.Blocks[0].Id = 0;
  ixp::MachineInstr H;
  H.Op = MOp::Halt;
  M.Blocks[0].Instrs.push_back(H);
  M.EntryParams = {M.newTemp("a")};
  sim::Memory Mem;
  EXPECT_FALSE(sim::runFunctional(M, {}, Mem).Ok);
  EXPECT_TRUE(sim::runFunctional(M, {1}, Mem).Ok);
}

namespace {

ixp::MachineInstr minstr(MOp Op, std::vector<MOperand> Srcs = {},
                         std::vector<Temp> Dsts = {},
                         MemSpace S = MemSpace::Sram) {
  ixp::MachineInstr I;
  I.Op = Op;
  I.Space = S;
  I.Srcs = std::move(Srcs);
  I.Dsts = std::move(Dsts);
  return I;
}

/// A one-block functional program over four temps.
ixp::MachineProgram functionalBlock(std::vector<ixp::MachineInstr> Instrs) {
  ixp::MachineProgram M;
  M.Entry = 0;
  M.NumTemps = 4;
  M.Blocks.push_back({});
  M.Blocks[0].Id = 0;
  M.Blocks[0].Instrs = std::move(Instrs);
  return M;
}

struct TrapCase {
  const char *Label;
  ixp::MachineProgram M;
  std::vector<uint32_t> Args;
  sim::TrapKind Kind;
  const char *Message;
  uint64_t Instructions;
};

} // namespace

// Every trap the functional simulator raises, with its exact kind,
// message and instruction count. The allocated-mode executors share
// these messages, so a change to one spelling shows up here.
TEST(FunctionalSim, TrapKindsAndMessagesArePinned) {
  const MOperand C0 = MOperand::constant(0);
  const MOperand T0 = MOperand::temp(0);
  std::vector<TrapCase> Cases;

  // The three range traps in each space, one word or more past the end.
  struct Space {
    MemSpace S;
    sim::TrapKind Kind;
    uint32_t Limit;
    const char *Read, *Write, *Bts;
  };
  sim::MemLimits Lim;
  for (const Space &K :
       {Space{MemSpace::Sram, sim::TrapKind::SramOutOfRange, Lim.SramWords,
              "sram-out-of-range: sram read of 2 words at 0x1fffff "
              "(limit 0x200000)",
              "sram-out-of-range: sram write of 1 words at 0x200000 "
              "(limit 0x200000)",
              "sram-out-of-range: sram bit-test-set at 0x200000 "
              "(limit 0x200000)"},
        Space{MemSpace::Sdram, sim::TrapKind::SdramOutOfRange,
              Lim.SdramWords,
              "sdram-out-of-range: sdram read of 2 words at 0xffffff "
              "(limit 0x1000000)",
              "sdram-out-of-range: sdram write of 1 words at 0x1000000 "
              "(limit 0x1000000)",
              "sdram-out-of-range: sdram bit-test-set at 0x1000000 "
              "(limit 0x1000000)"},
        Space{MemSpace::Scratch, sim::TrapKind::ScratchOutOfRange,
              Lim.ScratchWords,
              "scratch-out-of-range: scratch read of 2 words at 0xffff "
              "(limit 0x10000)",
              "scratch-out-of-range: scratch write of 1 words at 0x10000 "
              "(limit 0x10000)",
              "scratch-out-of-range: scratch bit-test-set at 0x10000 "
              "(limit 0x10000)"}}) {
    MOperand Last = MOperand::constant(K.Limit - 1);
    MOperand End = MOperand::constant(K.Limit);
    Cases.push_back({"read", functionalBlock({minstr(MOp::MemRead, {Last},
                                                     {0, 1}, K.S)}),
                     {}, K.Kind, K.Read, 1});
    Cases.push_back({"write", functionalBlock({minstr(MOp::MemWrite,
                                                      {End, C0}, {}, K.S)}),
                     {}, K.Kind, K.Write, 1});
    Cases.push_back({"bit-test-set",
                     functionalBlock({minstr(MOp::BitTestSet, {End, C0}, {0},
                                             K.S)}),
                     {}, K.Kind, K.Bts, 1});
  }

  const MemSpace Bad = static_cast<MemSpace>(7);
  Cases.push_back({"invalid space read",
                   functionalBlock({minstr(MOp::MemRead, {C0}, {0}, Bad)}),
                   {}, sim::TrapKind::IllegalMemSpace,
                   "illegal-mem-space: memory space 7 in block b0", 1});
  Cases.push_back({"invalid space bit-test-set",
                   functionalBlock({minstr(MOp::Move, {C0}, {0}),
                                    minstr(MOp::BitTestSet, {C0, C0}, {0},
                                           Bad)}),
                   {}, sim::TrapKind::IllegalMemSpace,
                   "illegal-mem-space: memory space 7 in block b0", 2});
  Cases.push_back({"fell off the end",
                   functionalBlock({minstr(MOp::Move, {C0}, {0})}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: fell off the end of block b0", 2});

  ixp::MachineInstr Br = minstr(MOp::Branch, {C0, C0});
  Br.Cmp = cps::CmpOp::Eq;
  Br.Target = 9;
  Br.TargetElse = 0;
  Cases.push_back({"branch target", functionalBlock({Br}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: branch in block b0 targets b9", 1});
  ixp::MachineInstr Jmp = minstr(MOp::Jump);
  Jmp.Target = 5;
  Cases.push_back({"jump target", functionalBlock({Jmp}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: jump in block b0 targets b5", 1});

  ixp::MachineProgram NoEntry = functionalBlock({minstr(MOp::Halt)});
  NoEntry.Entry = NoBlock;
  Cases.push_back({"no entry", NoEntry, {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: no entry block", 0});
  ixp::MachineProgram PastEnd = functionalBlock({minstr(MOp::Halt)});
  PastEnd.Entry = 1;
  Cases.push_back({"entry past the end", PastEnd, {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: no entry block", 0});
  ixp::MachineProgram Arity = functionalBlock({minstr(MOp::Halt)});
  Arity.EntryParams = {0};
  Cases.push_back({"arity", Arity, {1, 2}, sim::TrapKind::MalformedProgram,
                   "malformed-program: entry takes 1 args, got 2", 0});

  Cases.push_back({"temporary out of range",
                   functionalBlock({minstr(MOp::Move, {MOperand::temp(99)},
                                           {0}),
                                    minstr(MOp::Halt)}),
                   {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: temporary id out of range in block b0",
                   1});
  Cases.push_back({"temporary out of range at halt",
                   functionalBlock(
                       {minstr(MOp::Halt, {T0, MOperand::temp(4)})}),
                   {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: temporary id out of range at halt", 1});

  for (const TrapCase &K : Cases) {
    SCOPED_TRACE(K.Label);
    sim::Memory Mem;
    sim::RunResult R = sim::runFunctional(K.M, K.Args, Mem);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Trap, K.Kind);
    EXPECT_EQ(R.Error.code(), StatusCode::SimTrap);
    EXPECT_EQ(R.Error.message(), K.Message);
    EXPECT_EQ(R.Instructions, K.Instructions);
  }

  // The watchdog and the strict shift trap take run options.
  {
    ixp::MachineInstr Self = minstr(MOp::Jump);
    Self.Target = 0;
    sim::RunOptions Opts;
    Opts.MaxInstructions = 100;
    sim::Memory Mem;
    sim::RunResult R = sim::runFunctional(functionalBlock({Self}), {}, Mem,
                                          Opts);
    EXPECT_EQ(R.Trap, sim::TrapKind::Watchdog);
    EXPECT_EQ(R.Error.message(),
              "watchdog: instruction budget of 100 exhausted");
    EXPECT_EQ(R.Instructions, 101u);
  }
  {
    ixp::MachineInstr Shl =
        minstr(MOp::Alu, {C0, MOperand::constant(40)}, {0});
    Shl.Alu = cps::PrimOp::Shl;
    sim::RunOptions Opts;
    Opts.TrapOnShiftRange = true;
    sim::Memory Mem;
    sim::RunResult R = sim::runFunctional(
        functionalBlock({Shl, minstr(MOp::Halt)}), {}, Mem, Opts);
    EXPECT_EQ(R.Trap, sim::TrapKind::ShiftRange);
    EXPECT_EQ(R.Error.message(), "shift-range: shift count 40 in block b0");
    EXPECT_EQ(R.Instructions, 1u);
  }
}

//===----------------------------------------------------------------------===//
// The allocated-code interpreter, pinned on its own. The fast path's trap
// tests compare the fast path against the interpreter, so they cannot see
// a drift in the interpreter itself; these record its absolute results.
//===----------------------------------------------------------------------===//

namespace {

/// An AllocContext driven to completion with flat memory charges, the
/// way runAllocated drives it, with spill window displacement \p Rebase.
sim::RunResult runContext(const AllocatedProgram &P,
                          const std::vector<uint32_t> &Args, sim::Memory &Mem,
                          const sim::RunOptions &Opts, uint32_t Rebase = 0) {
  sim::Decoded Code = sim::decode(P);
  sim::AllocContext C(&Code);
  C.setSpillRebase(Rebase);
  C.reset(Args);
  while (!C.done()) {
    sim::AllocContext::Yield Y = C.resume(Mem, Opts);
    if (Y.K == sim::AllocContext::Yield::Kind::Mem)
      C.charge(Opts.Lat.memAccess(Y.Space));
  }
  return C.takeResult();
}

void expectPinned(const sim::RunResult &R, const AllocCase &K) {
  EXPECT_EQ(R.Ok, K.Kind == sim::TrapKind::None);
  EXPECT_EQ(R.Trap, K.Kind);
  if (K.Kind == sim::TrapKind::None) {
    EXPECT_EQ(R.HaltValues, K.Halts);
  } else {
    EXPECT_EQ(R.Error.code(), StatusCode::SimTrap);
    EXPECT_EQ(R.Error.message(), K.Message);
  }
  EXPECT_EQ(R.Instructions, K.Instructions);
  EXPECT_EQ(R.Cycles, K.Cycles);
}

} // namespace

// Every trap path of runAllocated and AllocContext, with its exact kind,
// message, instruction count and cycle count (default LatencyModel: ALU,
// branch and small immediate 1, hash 16, SRAM 20, SDRAM 33, scratch 12).
TEST(AllocatedSim, TrapsArePinned) {
  const AOperand C0 = AOperand::constant(0);
  const AOperand C1 = AOperand::constant(1);
  const char *IllegalB0 =
      "illegal-register: illegal register access in block b0";
  std::vector<AllocCase> Cases;

  // Illegal registers latch the error; an ALU-class op traps at the
  // bottom of its own step, after its cycle charge.
  Cases.push_back({"illegal read",
                   allocBlocks({{ainstr(MOp::Move, {reg(Bank::A, 20)},
                                        {loc(Bank::B, 0)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.push_back({"illegal write",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::L, 12)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.push_back({"illegal ALU source",
                   allocBlocks({{aluOf(cps::PrimOp::Add,
                                       {reg(Bank::A, 0), reg(Bank::B, 40)},
                                       loc(Bank::A, 1)),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.push_back({"illegal ALU destination",
                   allocBlocks({{aluOf(cps::PrimOp::Xor, {reg(Bank::A, 0), C1},
                                       loc(Bank::S, 9)),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.push_back({"illegal hash source",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 1)}),
                                 ainstr(MOp::Hash, {reg(Bank::A, 16)},
                                        {loc(Bank::A, 2)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 2, 17});
  Cases.push_back({"bank M source",
                   allocBlocks({{ainstr(MOp::Move, {reg(Bank::M, 0)},
                                        {loc(Bank::A, 0)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  Cases.push_back({"bank C destination",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::C, 0)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 1});
  // A branch retargets before it traps, so the message names the taken
  // block: the bad operand reads as 0, and 0 == 0 takes b1.
  Cases.push_back({"illegal branch operand",
                   allocBlocks({{branchOf(reg(Bank::A, 20), C0, 1, 2)},
                                {ainstr(MOp::Halt)},
                                {ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister,
                   "illegal-register: illegal register access in block b1", 1,
                   1});
  // On a memory op the trap fires at the top of the next step, after the
  // caller's memory charge.
  Cases.push_back({"illegal memory address",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 0)}),
                                 ainstr(MOp::MemRead, {reg(Bank::A, 20)},
                                        {loc(Bank::B, 0)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 2, 21});
  Cases.push_back({"illegal memory destination",
                   allocBlocks({{ainstr(MOp::MemRead, {AOperand::constant(4)},
                                        {loc(Bank::B, 0), loc(Bank::L, 12)},
                                        MemSpace::Scratch),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 12});
  Cases.push_back({"illegal store source",
                   allocBlocks({{ainstr(MOp::MemWrite,
                                        {AOperand::constant(8), C1,
                                         reg(Bank::SD, 9)},
                                        {}, MemSpace::Sdram),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 33});
  Cases.push_back(
      {"illegal bit mask past the limit",
       allocBlocks({{ainstr(MOp::BitTestSet,
                            {AOperand::constant(sim::MemLimits().ScratchWords +
                                                5),
                             reg(Bank::B, 40)},
                            {loc(Bank::A, 0)}, MemSpace::Scratch),
                     ainstr(MOp::Halt)}}),
       {}, sim::TrapKind::IllegalRegister, IllegalB0, 1, 12});
  Cases.push_back({"illegal register at halt",
                   allocBlocks({{ainstr(MOp::Halt,
                                        {C1, reg(Bank::SD, 9)})}}),
                   {}, sim::TrapKind::IllegalRegister,
                   "illegal-register: illegal register access at halt", 1, 0});

  // Static traps: they fire before the op's cycle charge.
  Cases.push_back({"fell off the end",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 0)})}}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: fell off the end of block b0", 2, 1});
  Cases.push_back({"empty block", allocBlocks({{}}), {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: fell off the end of block b0", 1, 0});
  Cases.push_back({"invalid space 9",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 0)}),
                                 ainstr(MOp::MemRead, {C0}, {loc(Bank::A, 1)},
                                        static_cast<MemSpace>(9)),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::IllegalMemSpace,
                   "illegal-mem-space: memory space 9 in block b0", 2, 1});
  // The space check comes before any operand is read.
  Cases.push_back({"invalid space before an illegal register",
                   allocBlocks({{ainstr(MOp::MemWrite,
                                        {reg(Bank::A, 20), reg(Bank::M, 1)},
                                        {}, static_cast<MemSpace>(9))}}),
                   {}, sim::TrapKind::IllegalMemSpace,
                   "illegal-mem-space: memory space 9 in block b0", 1, 0});
  Cases.push_back({"clone pseudo",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 1)}),
                                 ainstr(MOp::Clone, {C1}, {loc(Bank::A, 0)}),
                                 ainstr(MOp::Halt)}}),
                   {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: clone pseudo in allocated code", 2, 1});
  Cases.push_back({"branch target",
                   allocBlocks({{branchOf(reg(Bank::A, 0), C1, 9, 1)},
                                {ainstr(MOp::Halt)}}),
                   {1}, sim::TrapKind::MalformedProgram,
                   "malformed-program: branch in block b0 targets b9", 1, 0});
  Cases.push_back({"jump target",
                   allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 0)}),
                                 jumpTo(3)}}),
                   {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: jump in block b0 targets b3", 2, 1});

  // The three range traps in each space, one word or more past the end;
  // they fire before the access is charged.
  struct Space {
    MemSpace S;
    sim::TrapKind Kind;
    uint32_t Limit;
    const char *Read, *Write, *Bts;
  };
  sim::MemLimits Lim;
  for (const Space &K :
       {Space{MemSpace::Sram, sim::TrapKind::SramOutOfRange, Lim.SramWords,
              "sram-out-of-range: sram read of 2 words at 0x1fffff "
              "(limit 0x200000)",
              "sram-out-of-range: sram write of 1 words at 0x200000 "
              "(limit 0x200000)",
              "sram-out-of-range: sram bit-test-set at 0x200000 "
              "(limit 0x200000)"},
        Space{MemSpace::Sdram, sim::TrapKind::SdramOutOfRange,
              Lim.SdramWords,
              "sdram-out-of-range: sdram read of 2 words at 0xffffff "
              "(limit 0x1000000)",
              "sdram-out-of-range: sdram write of 1 words at 0x1000000 "
              "(limit 0x1000000)",
              "sdram-out-of-range: sdram bit-test-set at 0x1000000 "
              "(limit 0x1000000)"},
        Space{MemSpace::Scratch, sim::TrapKind::ScratchOutOfRange,
              Lim.ScratchWords,
              "scratch-out-of-range: scratch read of 2 words at 0xffff "
              "(limit 0x10000)",
              "scratch-out-of-range: scratch write of 1 words at 0x10000 "
              "(limit 0x10000)",
              "scratch-out-of-range: scratch bit-test-set at 0x10000 "
              "(limit 0x10000)"}}) {
    AOperand Last = AOperand::constant(K.Limit - 1);
    AOperand End = AOperand::constant(K.Limit);
    Cases.push_back({"read",
                     allocBlocks({{ainstr(MOp::Imm, {}, {loc(Bank::A, 2)}),
                                   ainstr(MOp::MemRead, {Last},
                                          {loc(Bank::A, 0), loc(Bank::A, 1)},
                                          K.S)}}),
                     {}, K.Kind, K.Read, 2, 1});
    Cases.push_back({"write",
                     allocBlocks({{ainstr(MOp::MemWrite, {End, C0}, {}, K.S)}}),
                     {}, K.Kind, K.Write, 1, 0});
    Cases.push_back({"bit-test-set",
                     allocBlocks({{ainstr(MOp::BitTestSet, {End, C0},
                                          {loc(Bank::A, 0)}, K.S)}}),
                     {}, K.Kind, K.Bts, 1, 0});
  }

  // Program entry.
  AllocatedProgram NoEntry;
  Cases.push_back({"no entry", NoEntry, {}, sim::TrapKind::MalformedProgram,
                   "malformed-program: no entry block", 0, 0});
  AllocatedProgram PastEnd = allocBlocks({{ainstr(MOp::Halt)}});
  PastEnd.Entry = 1;
  Cases.push_back({"entry past the end", PastEnd, {},
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: no entry block", 0, 0});
  Cases.push_back({"16 arguments", allocBlocks({{ainstr(MOp::Halt)}}),
                   std::vector<uint32_t>(16, 1),
                   sim::TrapKind::MalformedProgram,
                   "malformed-program: too many entry arguments", 0, 0});

  // Run options: the watchdog (at an even and an odd budget, so it fires
  // on either instruction of the loop) and the strict shift trap.
  AllocatedProgram Loop = allocBlocks(
      {{aluOf(cps::PrimOp::Add, {reg(Bank::A, 0), C1}, loc(Bank::A, 0)),
        jumpTo(0)}});
  AllocCase Watchdog{"watchdog",
                     Loop,
                     {0},
                     sim::TrapKind::Watchdog,
                     "watchdog: instruction budget of 1000 exhausted",
                     1001,
                     1000};
  Watchdog.Opts.MaxInstructions = 1000;
  Cases.push_back(Watchdog);
  AllocCase WatchdogOdd{"watchdog odd",
                        Loop,
                        {0},
                        sim::TrapKind::Watchdog,
                        "watchdog: instruction budget of 999 exhausted",
                        1000,
                        999};
  WatchdogOdd.Opts.MaxInstructions = 999;
  Cases.push_back(WatchdogOdd);
  AllocInstr Forty = ainstr(MOp::Imm, {}, {loc(Bank::A, 1)});
  Forty.Imm = 40;
  AllocCase Shift{"strict shift",
                  allocBlocks({{Forty,
                                aluOf(cps::PrimOp::Shl,
                                      {reg(Bank::A, 0), reg(Bank::A, 1)},
                                      loc(Bank::B, 0)),
                                ainstr(MOp::Halt)}}),
                  {5},
                  sim::TrapKind::ShiftRange,
                  "shift-range: shift count 40 in block b0",
                  2,
                  1};
  Shift.Opts.TrapOnShiftRange = true;
  Cases.push_back(Shift);

  // Every cycle class under a non-default LatencyModel, ending in a
  // fall off b2: small and large immediates, move, ALU, hash, SRAM write,
  // branch, SDRAM read, jump, scratch bit-test-set.
  AllocInstr Large = ainstr(MOp::Imm, {}, {loc(Bank::A, 1)});
  Large.Imm = 0x12345678;
  AllocInstr Small = ainstr(MOp::Imm, {}, {loc(Bank::A, 0)});
  Small.Imm = 5;
  AllocCase Classes{
      "every cycle class",
      allocBlocks(
          {{Small, Large,
            ainstr(MOp::Move, {reg(Bank::A, 1)}, {loc(Bank::B, 0)}),
            aluOf(cps::PrimOp::Add, {reg(Bank::A, 0), reg(Bank::B, 0)},
                  loc(Bank::A, 2)),
            ainstr(MOp::Hash, {reg(Bank::A, 2)}, {loc(Bank::A, 3)}),
            ainstr(MOp::MemWrite, {reg(Bank::A, 0), reg(Bank::A, 3)}),
            branchOf(reg(Bank::A, 0), AOperand::constant(5), 1, 2)},
           {ainstr(MOp::MemRead, {C0}, {loc(Bank::B, 1)}, MemSpace::Sdram),
            jumpTo(2)},
           {ainstr(MOp::BitTestSet, {C1, reg(Bank::B, 1)}, {loc(Bank::B, 2)},
                   MemSpace::Scratch)}}),
      {},
      sim::TrapKind::MalformedProgram,
      "malformed-program: fell off the end of block b2",
      11,
      2 + 3 + 3 + 3 + 17 + 7 + 5 + 11 + 5 + 13};
  Classes.Opts.Lat.Alu = 3;
  Classes.Opts.Lat.Branch = 5;
  Classes.Opts.Lat.Imm = 2;
  Classes.Opts.Lat.HashOp = 17;
  Classes.Opts.Lat.SramAccess = 7;
  Classes.Opts.Lat.SdramAccess = 11;
  Classes.Opts.Lat.ScratchAccess = 13;
  Cases.push_back(Classes);

  for (const AllocCase &K : Cases) {
    SCOPED_TRACE(K.Label);
    {
      SCOPED_TRACE("runAllocated");
      sim::Memory Mem;
      expectPinned(sim::runAllocated(K.P, K.Args, Mem, K.Opts), K);
    }
    {
      SCOPED_TRACE("AllocContext");
      sim::Memory Mem;
      expectPinned(runContext(K.P, K.Args, Mem, K.Opts), K);
    }
  }

  // Spill rebasing: a scratch access inside the program's spill window
  // moves by the context's displacement; one outside it does not.
  AllocatedProgram Spill = allocBlocks(
      {{ainstr(MOp::MemWrite, {AOperand::constant(0x8001), reg(Bank::A, 0)},
               {}, MemSpace::Scratch),
        ainstr(MOp::MemWrite, {AOperand::constant(0x8002), C1}, {},
               MemSpace::Scratch),
        ainstr(MOp::MemRead, {AOperand::constant(0x8001)}, {loc(Bank::B, 0)},
               MemSpace::Scratch),
        ainstr(MOp::Halt, {reg(Bank::B, 0)})}});
  Spill.SpillBase = 0x8000;
  Spill.NumSpillSlots = 2;
  {
    sim::Memory Mem;
    sim::RunResult R = runContext(Spill, {7}, Mem, {}, 0x100);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{7});
    EXPECT_EQ(R.Instructions, 4u);
    EXPECT_EQ(R.Cycles, 36u);
    EXPECT_EQ(Mem.Scratch, (std::map<uint32_t, uint32_t>{{0x8002, 1},
                                                          {0x8101, 7}}));
  }
  {
    AllocCase K{"spill-rebased past the limit", Spill, {7},
                sim::TrapKind::ScratchOutOfRange,
                "scratch-out-of-range: scratch write of 1 words at "
                "0x10000 (limit 0x10000)",
                1, 0};
    SCOPED_TRACE(K.Label);
    sim::Memory Mem;
    expectPinned(runContext(Spill, {7}, Mem, {}, 0x7fff), K);
  }
}

namespace {

/// Folds one run into \p H: its verdict and trap message, halt values,
/// counts and final SDRAM image, field by field.
void foldRun(uint64_t &H, const sim::RunResult &R, const sim::Memory &Mem) {
  auto fold = [&H](uint64_t V) { H = fnv1a64(&V, sizeof V, H); };
  fold(R.Ok);
  fold(static_cast<uint64_t>(R.Trap));
  const std::string &Msg = R.Error.message();
  fold(Msg.size());
  H = fnv1a64(Msg.data(), Msg.size(), H);
  fold(R.HaltValues.size());
  for (uint32_t V : R.HaltValues)
    fold(V);
  fold(R.Cycles);
  fold(R.Instructions);
  fold(Mem.Sdram.size());
  for (const auto &[Addr, V] : Mem.Sdram) {
    fold(Addr);
    fold(V);
  }
}

/// FNV-1a-64 over 200 packets of the seed-42 stream drawn from \p Mix,
/// each run by runAllocated from the app's base image under the soak
/// defaults, with the fault injector re-armed per packet as the soak
/// harness does.
uint64_t appRunsHash(const soak::AppHarness &App, const soak::ClassMix &Mix) {
  soak::SoakOptions SO;
  sim::RunOptions RO;
  RO.Lat = SO.Lat;
  RO.MaxInstructions = SO.Budget;
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t I = 0; I != 200; ++I) {
    soak::SoakPacket P = App.generate(I, 42, Mix);
    sim::Memory Mem = App.baseSim();
    apps::storePacket(Mem.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
    if (FaultInjector::armed())
      FaultInjector::instance().rearm();
    foldRun(H, sim::runAllocated(App.compiled().Alloc.Prog, P.Args, Mem, RO),
            Mem);
  }
  return H;
}

} // namespace

// The interpreter on the three benchmark apps: 200 valid and 200
// adversarial seed-42 packets each, plain and under sim-bitflip plus
// mem-jitter (which pins the injector's draw points and order).
TEST(AllocatedSim, AppRunsArePinned) {
  soak::ClassMix Valid;
  Valid.Truncated = Valid.Oversized = Valid.Corrupt = Valid.Fuzz = 0;
  soak::ClassMix Adversarial;
  Adversarial.Valid = 0;
  struct Case {
    const char *App;
    uint64_t Valid, Adversarial, FaultedValid, FaultedAdversarial;
  };
  for (const Case &K :
       {Case{"aes", 0xa31aa9d595b0f1a6ull, 0x9dfb912cccd704e1ull,
             0x39c1b1671100aebcull, 0x1f0e21c459f71675ull},
        Case{"kasumi", 0x6a8ac099f7483cf4ull, 0x2381329108a9c503ull,
             0xbfb6ff3d49125968ull, 0xc195997b114e882bull},
        Case{"nat", 0x48e42240169f2aefull, 0x659da8aa47bc0864ull,
             0xc0acc92d9230906cull, 0x81fd2b31e2248388ull}}) {
    SCOPED_TRACE(K.App);
    driver::CompileOptions Opts = soak::AppHarness::defaultCompileOptions();
    Opts.Alloc.Mip.TimeLimitSeconds = 30.0;
    std::string Error;
    std::unique_ptr<soak::AppHarness> App =
        soak::AppHarness::create(K.App, Error, Opts);
    ASSERT_TRUE(App) << Error;
    EXPECT_EQ(appRunsHash(*App, Valid), K.Valid);
    EXPECT_EQ(appRunsHash(*App, Adversarial), K.Adversarial);
    FaultSpec Flip;
    Flip.Kind = FaultKind::SimBitFlip;
    Flip.After = 300;
    Flip.Times = 2;
    FaultSpec Jitter;
    Jitter.Kind = FaultKind::MemJitter;
    Jitter.After = 3;
    ScopedFaultInjection Armed({Flip, Jitter});
    EXPECT_EQ(appRunsHash(*App, Valid), K.FaultedValid);
    EXPECT_EQ(appRunsHash(*App, Adversarial), K.FaultedAdversarial);
  }
}

//===----------------------------------------------------------------------===//
// The decoder on hostile programs. sim_test runs under ASan+UBSan in the
// tier-1 script, so an out-of-bounds index in decode() or in a step over
// its output fails there.
//===----------------------------------------------------------------------===//

namespace {

/// The decoded block table covers the instruction array exactly, and
/// every word list lies inside the pool.
void expectWellFormed(const sim::Decoded &D, const AllocatedProgram &P) {
  ASSERT_EQ(D.Blocks.size(), P.Blocks.size());
  EXPECT_EQ(D.Entry, P.Entry);
  uint32_t Next = 0;
  for (size_t B = 0; B != P.Blocks.size(); ++B) {
    EXPECT_EQ(D.Blocks[B].First, Next);
    EXPECT_EQ(D.Blocks[B].Count, P.Blocks[B].Instrs.size());
    Next += D.Blocks[B].Count;
  }
  EXPECT_EQ(Next, D.Instrs.size());
  auto expectInFrame = [](const sim::DOperand &O) {
    if (O.K == sim::DOperand::Slot) {
      EXPECT_LT(O.V, sim::FrameRegs);
    }
  };
  for (const sim::DInstr &I : D.Instrs) {
    if (I.Op == sim::DOp::MemRead || I.Op == sim::DOp::MemWrite ||
        I.Op == sim::DOp::Halt) {
      EXPECT_LE(uint64_t(I.X) + I.Y, D.Pool.size());
    }
    for (const sim::DOperand &O : {I.A, I.B, I.D})
      expectInFrame(O);
  }
  for (const sim::DOperand &O : D.Pool)
    expectInFrame(O);
}

} // namespace

TEST(AllocatedSim, DecodeHostilePrograms) {
  for (const AllocCase &K : decodeHostilePrograms()) {
    SCOPED_TRACE(K.Label);
    sim::Decoded D = sim::decode(K.P);
    expectWellFormed(D, K.P);
    sim::Memory Mem;
    expectPinned(sim::runAllocated(D, K.Args, Mem, K.Opts), K);
    sim::Memory MemC;
    expectPinned(runContext(K.P, K.Args, MemC, K.Opts), K);
  }
}

// An AllocContext snapshot restores only into a context whose decoded
// program has the block and the index it was taken at.
TEST(AllocatedSim, SnapshotOutsideTheBlockTableIsRejected) {
  // b0 jumps to b2, whose third instruction is the first memory op.
  AllocatedProgram Big = allocBlocks(
      {{jumpTo(2)},
       {ainstr(MOp::Halt)},
       {ainstr(MOp::Imm, {}, {loc(Bank::A, 0)}),
        ainstr(MOp::Imm, {}, {loc(Bank::A, 1)}),
        ainstr(MOp::MemWrite, {AOperand::constant(4), reg(Bank::A, 0)}),
        ainstr(MOp::Halt, {reg(Bank::A, 1)})}});
  sim::Decoded BigCode = sim::decode(Big);
  sim::AllocContext C(&BigCode);
  C.reset({});
  sim::Memory Mem;
  sim::RunOptions Opts;
  ASSERT_EQ(C.resume(Mem, Opts).K, sim::AllocContext::Yield::Kind::Mem);
  BinWriter W;
  C.saveState(W); // in flight at (b2, 3)

  auto restoresInto = [&W](const AllocatedProgram &P) {
    sim::Decoded Code = sim::decode(P);
    sim::AllocContext Into(&Code);
    BinReader R(W.bytes().data(), W.bytes().size());
    Into.restoreState(R);
    return !R.failed();
  };
  EXPECT_TRUE(restoresInto(Big));
  // Block 2 is past the end of a two-block table.
  EXPECT_FALSE(restoresInto(allocBlocks({{jumpTo(1)}, {ainstr(MOp::Halt)}})));
  // Block 2 exists but ends before index 3.
  EXPECT_FALSE(restoresInto(allocBlocks(
      {{jumpTo(2)}, {ainstr(MOp::Halt)}, {ainstr(MOp::Halt), jumpTo(0)}})));
  // Index 3 may equal the block's count: the next step traps there.
  EXPECT_TRUE(restoresInto(allocBlocks(
      {{jumpTo(2)},
       {ainstr(MOp::Halt)},
       {ainstr(MOp::Halt), ainstr(MOp::Halt), ainstr(MOp::Halt)}})));
  // An unbound context rejects any run in flight.
  sim::AllocContext Unbound;
  BinReader R(W.bytes().data(), W.bytes().size());
  Unbound.restoreState(R);
  EXPECT_TRUE(R.failed());
}
