//===- sim_test.cpp - Micro-engine simulator tests -------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"
#include "sim/WordMap.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

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

/// Reference semantics of WordMap::eraseRange on a std::map.
void eraseRef(std::map<uint32_t, uint32_t> &M, uint32_t Lo, uint64_t Hi) {
  for (auto It = M.lower_bound(Lo); It != M.end() && It->first < Hi;)
    It = M.erase(It);
}

/// Erases [Lo, Hi) from both stores and requires identical contents.
void eraseBoth(sim::WordMap &W, std::map<uint32_t, uint32_t> &M, uint32_t Lo,
               uint64_t Hi) {
  W.eraseRange(Lo, Hi);
  eraseRef(M, Lo, Hi);
  ASSERT_EQ(W.size(), M.size()) << "erase [" << Lo << ", " << Hi << ")";
  ASSERT_TRUE(W == M) << "erase [" << Lo << ", " << Hi << ")";
}

/// Pages 0, 2, 3 and the last dense page populated (page 1 absent), a
/// few overflow words above 2^24, and the top of the address space.
void populate(sim::WordMap &W, std::map<uint32_t, uint32_t> &M,
              std::mt19937 &Rng) {
  auto Put = [&](uint32_t A) {
    uint32_t V = static_cast<uint32_t>(Rng());
    W[A] = V;
    M[A] = V;
  };
  for (uint32_t Page : {0u, 2u, 3u, 4095u})
    for (unsigned I = 0; I != 600; ++I)
      Put(Page * 4096 + Rng() % 4096);
  for (uint32_t A = 0; A != 200; ++A)
    Put(A); // a dense run straddling several bitmap words
  for (uint32_t A : {1u << 24, (1u << 24) + 1, (1u << 24) + 4096, 0x7FFFFFFFu,
                     0xFFFFFFFEu, 0xFFFFFFFFu})
    Put(A);
}

} // namespace

TEST(WordMap, EraseRangeMatchesMapReference) {
  std::mt19937 Rng(7);
  sim::WordMap W;
  std::map<uint32_t, uint32_t> M;
  populate(W, M, Rng);
  ASSERT_TRUE(W == M);

  eraseBoth(W, M, 5, 5);           // empty range
  eraseBoth(W, M, 9, 3);           // inverted range is a no-op
  eraseBoth(W, M, 3, 67);          // unaligned, inside one page, 2 words
  eraseBoth(W, M, 64, 128);        // exactly one bitmap word
  eraseBoth(W, M, 130, 131);       // a single word
  eraseBoth(W, M, 4000, 3 * 4096 + 17); // spans absent page 1
  eraseBoth(W, M, 0xFFF000 + 5, (1u << 24) + 2); // crosses dense/overflow
  eraseBoth(W, M, 0x7FFFFFF0u, 1ull << 33);      // Hi above 2^32
  EXPECT_FALSE(W.contains(0xFFFFFFFFu));

  // Re-inserted words come back as zero-valued entries, like std::map.
  W[70] = W[70];
  M[70] = M[70];
  EXPECT_TRUE(W == M);
  EXPECT_EQ(W.get(70), 0u);
}

TEST(WordMap, RandomEraseRangesMatchMapReference) {
  std::mt19937 Rng(11);
  sim::WordMap W;
  std::map<uint32_t, uint32_t> M;
  for (unsigned Round = 0; Round != 60; ++Round) {
    populate(W, M, Rng);
    // Endpoints biased toward page, word, and space boundaries.
    auto Point = [&]() -> uint64_t {
      static const uint64_t Anchors[] = {0,       64,      4096,  3 * 4096,
                                         1u << 24, 0xFFF000, 1ull << 32};
      uint64_t A = Anchors[Rng() % 7];
      int64_t Jitter = static_cast<int64_t>(Rng() % 300) - 150;
      int64_t P = static_cast<int64_t>(A) + Jitter;
      return P < 0 ? 0 : static_cast<uint64_t>(P);
    };
    uint64_t Lo = std::min<uint64_t>(Point(), 0xFFFFFFFFu);
    uint64_t Hi = Point();
    if (Rng() % 8 == 0)
      Hi = 1ull << 33;
    eraseBoth(W, M, static_cast<uint32_t>(Lo), Hi);
  }
}
