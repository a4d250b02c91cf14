//===- sim_test.cpp - Micro-engine simulator tests -------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

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
