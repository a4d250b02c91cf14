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
