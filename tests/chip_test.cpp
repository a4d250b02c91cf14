//===- chip_test.cpp - Whole-chip simulator tests ---------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Three layers of coverage:
//
//  1. chip::Ring as a data structure: FIFO order through wraparound,
//     high-water tracking, and the operation trace hash that lets two
//     runs be compared for identical interleaving.
//  2. Parameter and setup validation: topology bounds, slot geometry,
//     and the per-context spill-window fit inside scratch.
//  3. The chip itself, driven by small hand-built allocated programs:
//     results match standalone runs word-for-word, in-order retirement,
//     slot isolation under concurrency, quarantined tail execution for
//     near-limit pointers, context-swap fairness (no context starves),
//     ring blocking at depth 1, watchdog traps as drops, measurable
//     channel contention, and bit-identical double runs.
//
//===----------------------------------------------------------------------===//

#include "chip/Chip.h"

#include <gtest/gtest.h>

#include <map>

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

AllocInstr sdramRead(AOperand Addr, PhysLoc Dst) {
  AllocInstr I;
  I.Op = MOp::MemRead;
  I.Space = MemSpace::Sdram;
  I.Srcs = {Addr};
  I.Dsts = {Dst};
  return I;
}

AllocInstr sdramWrite(AOperand Addr, AOperand Val) {
  AllocInstr I;
  I.Op = MOp::MemWrite;
  I.Space = MemSpace::Sdram;
  I.Srcs = {Addr, Val};
  return I;
}

/// copy(in, out): *out = *in; halt(*in). Two pointer args — the exact
/// calling shape the chip rebases into packet slots.
AllocatedProgram copyProgram() {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  P.Blocks.push_back({{sdramRead(AOperand::reg({Bank::A, 0}), {Bank::S, 0}),
                       sdramWrite(AOperand::reg({Bank::A, 1}),
                                  AOperand::reg({Bank::S, 0})),
                       haltOf({AOperand::reg({Bank::S, 0})})}});
  return P;
}

/// heavy(in, out): N dependent SDRAM reads of *in, then *out = *in.
/// Each read is a context-swap point, so one packet bounces through the
/// scheduler many times.
AllocatedProgram heavyProgram(unsigned Reads) {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  std::vector<AllocInstr> Is;
  for (unsigned I = 0; I != Reads; ++I)
    Is.push_back(sdramRead(AOperand::reg({Bank::A, 0}), {Bank::S, 0}));
  Is.push_back(sdramWrite(AOperand::reg({Bank::A, 1}),
                          AOperand::reg({Bank::S, 0})));
  Is.push_back(haltOf({AOperand::reg({Bank::S, 0})}));
  P.Blocks.push_back({std::move(Is)});
  return P;
}

/// spin(): jump-to-self; only the watchdog ends it.
AllocatedProgram spinProgram() {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  AllocInstr J;
  J.Op = MOp::Jump;
  J.Target = 0;
  P.Blocks.push_back({{J}});
  return P;
}

/// Streams \p N copy-shaped packets (in=0, out=1, one payload word
/// derived from Seq) through a chip of \p Mes x \p Ctxs and returns the
/// retired packets alongside the run stats.
struct DriveResult {
  chip::ChipRunStats Stats;
  std::vector<chip::RetiredPacket> Retired;
  uint64_t ImageHash = 0;
};

DriveResult drive(const AllocatedProgram &Prog, chip::ChipParams CP,
                  uint64_t N, uint64_t Budget = 50'000) {
  CP.Budget = Budget;
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  chip::Chip C(CP, Progs, sim::Memory{});
  uint64_t Next = 0;
  DriveResult R;
  R.Stats = C.run(
      [&](chip::ChipPacket &Out) {
        if (Next == N)
          return false;
        Out = chip::ChipPacket();
        Out.Seq = Next;
        Out.Words = {static_cast<uint32_t>(0xC0DE0000u + Next)};
        Out.Args = {0, 1};
        Out.PtrArgMask = 0b11;
        Out.PayloadBytes = 4;
        ++Next;
        return true;
      },
      [&](chip::RetiredPacket &&RP) { R.Retired.push_back(std::move(RP)); });
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Addr, Val] : C.memory().Sdram) {
    H = chip::traceFold(H, Addr);
    H = chip::traceFold(H, Val);
  }
  R.ImageHash = H;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Ring data structure
//===----------------------------------------------------------------------===//

TEST(Ring, FifoThroughWraparound) {
  chip::Ring R(3);
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.capacity(), 3u);
  // Fill, drain, refill across the physical end of the buffer: FIFO
  // order must survive the index wrap.
  uint64_t NextPush = 0, NextPop = 0, T = 0;
  for (unsigned Round = 0; Round != 5; ++Round) {
    while (!R.full())
      R.push(NextPush++, ++T);
    EXPECT_EQ(R.size(), 3u);
    while (!R.empty())
      EXPECT_EQ(R.pop(++T), NextPop++);
  }
  EXPECT_EQ(NextPop, 15u);
  EXPECT_EQ(R.pushes(), 15u);
  EXPECT_EQ(R.pops(), 15u);
  EXPECT_EQ(R.highWater(), 3u);
}

TEST(Ring, HighWaterTracksPeakNotCurrent) {
  chip::Ring R(8);
  R.push(1, 0);
  R.push(2, 1);
  R.push(3, 2);
  R.pop(3);
  R.pop(4);
  EXPECT_EQ(R.size(), 1u);
  EXPECT_EQ(R.highWater(), 3u);
}

TEST(Ring, TraceHashDistinguishesInterleavings) {
  // Same multiset of operations, different order: the hash must differ —
  // that is what makes it a determinism witness for multi-producer
  // interleaving on the shared TX ring.
  chip::Ring A(4), B(4);
  A.push(1, 10);
  A.push(2, 11);
  B.push(2, 10);
  B.push(1, 11);
  EXPECT_NE(A.traceHash(), B.traceHash());

  chip::Ring C(4), D(4);
  for (chip::Ring *R : {&C, &D}) {
    R->push(7, 5);
    R->pop(6);
    R->push(9, 8);
  }
  EXPECT_EQ(C.traceHash(), D.traceHash());
}

TEST(Ring, RestoreRejectsAnotherCapacity) {
  // Capacity is construction-time topology: a snapshot of a ring of any
  // other size (an empty buffer would divide by zero on the next push)
  // must read as corrupt, and one of the same size restores exactly.
  chip::Ring Src(3);
  Src.push(7, 1);
  Src.push(8, 2);
  Src.pop(3);
  BinWriter W;
  Src.saveState(W);
  for (unsigned Cap : {1u, 4u}) {
    chip::Ring Dst(Cap);
    BinReader R(W.bytes());
    Dst.restoreState(R);
    EXPECT_TRUE(R.failed()) << Cap;
  }
  chip::Ring Same(3);
  BinReader R(W.bytes());
  Same.restoreState(R);
  EXPECT_FALSE(R.failed());
  EXPECT_EQ(Same.size(), 1u);
  EXPECT_EQ(Same.traceHash(), Src.traceHash());

  // The case that used to divide by zero: a zero-length buffer.
  BinWriter Empty;
  chip::Ring(3).saveState(Empty);
  std::string Bytes = Empty.take();
  for (size_t I = 0; I != 8; ++I)
    Bytes[I] = 0; // the buffer's u64 element count
  chip::Ring Dst(3);
  BinReader RE(Bytes);
  Dst.restoreState(RE);
  EXPECT_TRUE(RE.failed());
}

//===----------------------------------------------------------------------===//
// Parameter and setup validation
//===----------------------------------------------------------------------===//

TEST(ChipParams, ValidatesTopologyBounds) {
  chip::ChipParams P;
  EXPECT_TRUE(P.validate().ok());

  chip::ChipParams Bad = P;
  Bad.MP.MeCount = 0;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.MP.MeCount = 9;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.MP.ContextsPerMe = 0;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.RingDepth = 0;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.RingDepth = 65;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.Budget = 0;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.SlotStride = 16;
  EXPECT_FALSE(Bad.validate().ok());
}

TEST(ChipSetup, RejectsSpillWindowsThatOverflowScratch) {
  chip::ChipParams P; // 6 MEs x 4 contexts = 24 spill windows
  AllocatedProgram Prog = copyProgram();
  sim::MemLimits Limits;
  EXPECT_TRUE(chip::validateChipSetup(P, Prog, Limits).ok());
  // 24 windows of 4096 scratch words starting at SpillBase cannot fit in
  // the 64k-word scratchpad.
  Prog.NumSpillSlots = 4096;
  Status S = chip::validateChipSetup(P, Prog, Limits);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
}

TEST(ChipSetup, RejectsSlotGeometryBeyondSdram) {
  chip::ChipParams P;
  P.SlotStride = sim::MemLimits{}.SdramWords * 2;
  EXPECT_FALSE(
      chip::validateChipSetup(P, copyProgram(), sim::MemLimits{}).ok());
}

//===----------------------------------------------------------------------===//
// Whole-chip execution
//===----------------------------------------------------------------------===//

TEST(ChipRun, MatchesStandaloneWordForWord) {
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  AllocatedProgram Prog = copyProgram();
  DriveResult R = drive(Prog, CP, 40);

  ASSERT_EQ(R.Retired.size(), 40u);
  EXPECT_EQ(R.Stats.PacketsRetired, 40u);
  EXPECT_FALSE(R.Stats.Deadlock);
  for (uint64_t I = 0; I != 40; ++I) {
    const chip::RetiredPacket &RP = R.Retired[I];
    // Retirement is in arrival order regardless of completion order.
    EXPECT_EQ(RP.Pkt.Seq, I);
    ASSERT_TRUE(RP.Result.Ok) << RP.Result.Error.message();
    uint32_t Want = static_cast<uint32_t>(0xC0DE0000u + I);
    ASSERT_EQ(RP.Result.HaltValues.size(), 1u);
    EXPECT_EQ(RP.Result.HaltValues[0], Want);

    // The same rebased packet on fresh base memory, standalone: outcome
    // and halt values must match the chip's execution exactly (that is
    // the oracle contract the soak harness relies on).
    sim::Memory Mem;
    Mem.Sdram[RP.RebasedArgs[0]] = Want;
    sim::RunOptions Opts;
    Opts.Lat = CP.latency();
    Opts.MaxInstructions = CP.Budget;
    sim::RunResult Solo =
        sim::runAllocated(Prog, RP.RebasedArgs, Mem, Opts);
    ASSERT_TRUE(Solo.Ok);
    EXPECT_EQ(Solo.HaltValues, RP.Result.HaltValues);
    EXPECT_EQ(Mem.Sdram[RP.RebasedArgs[1]], Want);
  }
}

TEST(ChipRun, SlotIsolationUnderConcurrency) {
  // Every packet nominally writes to address 1; concurrent in-flight
  // packets only work because each owns a rebased slot. The final image
  // must hold every packet's distinct value at its own slot.
  chip::ChipParams CP;
  CP.MP.MeCount = 4;
  CP.MP.ContextsPerMe = 4;
  DriveResult R = drive(copyProgram(), CP, 64);
  ASSERT_EQ(R.Retired.size(), 64u);
  std::map<uint32_t, uint32_t> SlotOf; // out address -> value written
  for (const chip::RetiredPacket &RP : R.Retired) {
    ASSERT_TRUE(RP.Result.Ok);
    EXPECT_EQ(RP.Result.HaltValues[0], 0xC0DE0000u + RP.Pkt.Seq);
    // No two concurrent packets may share an out address unless the slot
    // was recycled after retirement — values never tear either way.
    SlotOf[RP.RebasedArgs[1]] = RP.Result.HaltValues[0];
  }
  // More than one slot was actually in use (otherwise nothing ran
  // concurrently and the test is vacuous).
  EXPECT_GT(SlotOf.size(), 1u);
}

TEST(ChipRun, ContextSwapFairnessNoStarvation) {
  // One ME, four contexts, a program that parks on SDRAM dozens of times
  // per packet. FIFO ready-queue discipline must hand every context its
  // share — a context parked on a long access re-enters at the tail, it
  // is never skipped forever.
  chip::ChipParams CP;
  CP.MP.MeCount = 1;
  CP.MP.ContextsPerMe = 4;
  DriveResult R = drive(heavyProgram(32), CP, 32);
  ASSERT_EQ(R.Stats.PacketsRetired, 32u);
  EXPECT_FALSE(R.Stats.Deadlock);
  ASSERT_EQ(R.Stats.CtxPackets.size(), 1u);
  ASSERT_EQ(R.Stats.CtxPackets[0].size(), 4u);
  for (unsigned C = 0; C != 4; ++C)
    EXPECT_GT(R.Stats.CtxPackets[0][C], 0u)
        << "context " << C << " starved";
}

TEST(ChipRun, BlockingAtRingDepthOne) {
  // Depth-1 rings force RX to park on a full input ring and producers to
  // park on the TX ring; the stream must still drain completely with
  // balanced ring accounting.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.RingDepth = 1;
  DriveResult R = drive(heavyProgram(8), CP, 30);
  EXPECT_EQ(R.Stats.PacketsRetired, 30u);
  EXPECT_FALSE(R.Stats.Deadlock);
  uint64_t InPushes = 0;
  for (const chip::RingStats &RS : R.Stats.InputRings) {
    EXPECT_EQ(RS.Pushes, RS.Pops);
    EXPECT_LE(RS.HighWater, 1u);
    InPushes += RS.Pushes;
  }
  EXPECT_EQ(InPushes, 30u);
  EXPECT_EQ(R.Stats.TxRing.Pushes, 30u);
  EXPECT_EQ(R.Stats.TxRing.Pops, 30u);
}

TEST(ChipRun, TailPacketsRunQuarantinedUnrebased) {
  // A pointer argument past the slot stride cannot be rebased; the chip
  // must run that packet quarantined (private pristine image, original
  // addresses) concurrently with the rest of the stream, and still
  // retire everything in order.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.Budget = 50'000;
  AllocatedProgram Prog = copyProgram();
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  chip::Chip C(CP, Progs, sim::Memory{});
  const uint32_t TailOut = sim::MemLimits{}.SdramWords - 100;
  uint64_t Next = 0;
  std::vector<chip::RetiredPacket> Retired;
  chip::ChipRunStats St = C.run(
      [&](chip::ChipPacket &Out) {
        if (Next == 9)
          return false;
        Out = chip::ChipPacket();
        Out.Seq = Next;
        Out.Words = {static_cast<uint32_t>(0xAB000000u + Next)};
        // Packet 4 is hostile: its out pointer lands beyond the stride.
        Out.Args = {0, Next == 4 ? TailOut : 1};
        Out.PtrArgMask = 0b11;
        Out.PayloadBytes = 4;
        ++Next;
        return true;
      },
      [&](chip::RetiredPacket &&RP) { Retired.push_back(std::move(RP)); });

  ASSERT_EQ(Retired.size(), 9u);
  EXPECT_EQ(St.TailPackets, 1u);
  EXPECT_FALSE(St.Deadlock);
  for (uint64_t I = 0; I != 9; ++I) {
    EXPECT_EQ(Retired[I].Pkt.Seq, I);
    ASSERT_TRUE(Retired[I].Result.Ok);
  }
  const chip::RetiredPacket &Tail = Retired[4];
  EXPECT_TRUE(Tail.Tail);
  // The quarantined run saw its own DMA image (the copy program halts
  // with the word it read back), and its write landed on the private
  // image, never on the shared chip memory.
  ASSERT_EQ(Tail.Result.HaltValues.size(), 1u);
  EXPECT_EQ(Tail.Result.HaltValues[0], 0xAB000004u);
  EXPECT_EQ(C.memory().Sdram.count(TailOut), 0u);
  // Unrebased: the tail packet's args pass through verbatim.
  EXPECT_EQ(Tail.RebasedArgs[1], TailOut);
}

TEST(ChipRun, WatchdogTrapsBecomeTypedDropsNotHangs) {
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  DriveResult R = drive(spinProgram(), CP, 12, /*Budget=*/500);
  ASSERT_EQ(R.Retired.size(), 12u);
  EXPECT_FALSE(R.Stats.Deadlock);
  for (const chip::RetiredPacket &RP : R.Retired) {
    EXPECT_FALSE(RP.Result.Ok);
    EXPECT_EQ(RP.Result.Trap, sim::TrapKind::Watchdog);
  }
}

TEST(ChipRun, ContentionIsMeasuredNotAssumed) {
  // Four MEs hammering SDRAM through a shared channel: stall cycles must
  // be nonzero, and utilization must stay a sane fraction.
  chip::ChipParams CP;
  CP.MP.MeCount = 4;
  CP.MP.ContextsPerMe = 4;
  DriveResult R = drive(heavyProgram(24), CP, 80);
  EXPECT_EQ(R.Stats.PacketsRetired, 80u);
  EXPECT_GT(R.Stats.Sdram.StallCycles, 0u);
  EXPECT_GT(R.Stats.Sdram.Transactions, 0u);
  for (unsigned M = 0; M != 4; ++M) {
    EXPECT_GE(R.Stats.utilization(M), 0.0);
    EXPECT_LE(R.Stats.utilization(M), 1.0);
  }
}

TEST(ChipRun, DoubleRunIsBitIdentical) {
  // The determinism contract: same programs, same stream, same params
  // => identical trace hash, ring traces, cycle counts, and final SDRAM
  // image.
  chip::ChipParams CP;
  CP.MP.MeCount = 3;
  CP.MP.ContextsPerMe = 4;
  AllocatedProgram Prog = heavyProgram(12);
  DriveResult A = drive(Prog, CP, 60);
  DriveResult B = drive(Prog, CP, 60);

  EXPECT_EQ(A.Stats.TraceHash, B.Stats.TraceHash);
  EXPECT_EQ(A.Stats.FinalCycles, B.Stats.FinalCycles);
  EXPECT_EQ(A.Stats.MeBusyCycles, B.Stats.MeBusyCycles);
  EXPECT_EQ(A.Stats.CtxPackets, B.Stats.CtxPackets);
  EXPECT_EQ(A.Stats.Sdram.StallCycles, B.Stats.Sdram.StallCycles);
  EXPECT_EQ(A.Stats.Scratch.StallCycles, B.Stats.Scratch.StallCycles);
  ASSERT_EQ(A.Stats.InputRings.size(), B.Stats.InputRings.size());
  for (size_t I = 0; I != A.Stats.InputRings.size(); ++I)
    EXPECT_EQ(A.Stats.InputRings[I].TraceHash,
              B.Stats.InputRings[I].TraceHash);
  EXPECT_EQ(A.Stats.TxRing.TraceHash, B.Stats.TxRing.TraceHash);
  EXPECT_EQ(A.ImageHash, B.ImageHash);
  ASSERT_EQ(A.Retired.size(), B.Retired.size());
  for (size_t I = 0; I != A.Retired.size(); ++I) {
    EXPECT_EQ(A.Retired[I].Me, B.Retired[I].Me);
    EXPECT_EQ(A.Retired[I].Ctx, B.Retired[I].Ctx);
    EXPECT_EQ(A.Retired[I].RetireTime, B.Retired[I].RetireTime);
    EXPECT_EQ(A.Retired[I].Result.Cycles, B.Retired[I].Result.Cycles);
  }
}

TEST(ChipRun, KernelCountersTallyEveryEvent) {
  // Host-work counters: one TxPopDone per retired packet, no supervisor
  // events without a fault schedule, no-op MeRun pops a subset of MeRun
  // pops, and the same tallies on a double run.
  chip::ChipParams CP;
  CP.MP.MeCount = 3;
  CP.MP.ContextsPerMe = 4;
  AllocatedProgram Prog = heavyProgram(12);
  DriveResult A = drive(Prog, CP, 60);
  DriveResult B = drive(Prog, CP, 60);
  auto Count = [&](chip::Ev K) {
    return A.Stats.EventsByKind[static_cast<unsigned>(K)];
  };
  EXPECT_EQ(Count(chip::Ev::TxPopDone), 60u);
  EXPECT_GE(Count(chip::Ev::RxStep), 60u);
  EXPECT_GE(Count(chip::Ev::CtxResume), 60u * 12);
  EXPECT_LE(A.Stats.NoopMeRuns, Count(chip::Ev::MeRun));
  for (chip::Ev K : {chip::Ev::SupTick, chip::Ev::CtxRestart,
                     chip::Ev::BrownoutEnd, chip::Ev::RingUnstall})
    EXPECT_EQ(Count(K), 0u) << chip::evName(K);
  uint64_t Sum = 0;
  for (uint64_t V : A.Stats.EventsByKind)
    Sum += V;
  EXPECT_EQ(A.Stats.events(), Sum);
  EXPECT_EQ(A.Stats.EventsByKind, B.Stats.EventsByKind);
  EXPECT_EQ(A.Stats.NoopMeRuns, B.Stats.NoopMeRuns);
}

TEST(ChipRun, KernelCountersArePinned) {
  // The kernel's absolute work on a fault-free 6-ME x 4-context run, in
  // both exec models: events per kind, no-op MeRun pops (held runs that
  // expire count as such pops) and the trace hash. A kernel change that
  // keeps the (time, order) event sequence keeps every one of them,
  // however it stores, holds or skips events.
  chip::ChipParams CP;
  CP.MP.MeCount = 6;
  CP.MP.ContextsPerMe = 4;
  AllocatedProgram Prog = heavyProgram(12);
  const std::array<uint64_t, chip::NumEventKinds> Want = {
      8400, 4769, 601, 300, 0, 0, 0, 0};
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    SCOPED_TRACE(sim::execModeName(Exec));
    CP.Exec = Exec;
    DriveResult R = drive(Prog, CP, 300);
    EXPECT_EQ(R.Stats.EventsByKind, Want);
    EXPECT_EQ(R.Stats.NoopMeRuns, 4200u);
    EXPECT_EQ(R.Stats.TraceHash, 0x4b6069a8ece18ad0ull);
    EXPECT_EQ(R.Stats.FinalCycles, 8660u);
    // Every event either entered the queue or was a held run that
    // expired beside it; this run holds thousands.
    EXPECT_EQ(R.Stats.QueuePushes, 9875u);
    EXPECT_LT(R.Stats.QueuePushes + 1000, R.Stats.events());
  }
}

namespace {

/// classify(in, out): read *in, branch on its low bit through two
/// single-predecessor arms (a superblock-forming shape), then a few
/// dependent SDRAM reads so the packet swaps several times, then
/// *out = tag. Exercises guards, side exits, and mem yields from
/// inside a superblock.
AllocatedProgram branchyProgram() {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  AllocInstr And;
  And.Op = MOp::Alu;
  And.Alu = cps::PrimOp::And;
  And.Srcs = {AOperand::reg({Bank::S, 0}), AOperand::constant(1)};
  And.Dsts = {{Bank::S, 1}};
  AllocInstr Br;
  Br.Op = MOp::Branch;
  Br.Cmp = cps::CmpOp::Eq;
  Br.Srcs = {AOperand::reg({Bank::S, 1}), AOperand::constant(0)};
  Br.Target = 1;
  Br.TargetElse = 2;
  AllocInstr J3;
  J3.Op = MOp::Jump;
  J3.Target = 3;
  P.Blocks.push_back(
      {{sdramRead(AOperand::reg({Bank::A, 0}), {Bank::S, 0}), And, Br}});
  P.Blocks.push_back({{imm(0xEE000000u, {Bank::L, 0}), J3}});
  P.Blocks.push_back({{imm(0xDD000000u, {Bank::L, 0}), J3}});
  P.Blocks.push_back(
      {{sdramRead(AOperand::reg({Bank::A, 0}), {Bank::L, 1}),
        sdramRead(AOperand::reg({Bank::A, 0}), {Bank::L, 1}),
        sdramWrite(AOperand::reg({Bank::A, 1}), AOperand::reg({Bank::L, 0})),
        haltOf({AOperand::reg({Bank::L, 0})})}});
  return P;
}

/// Runs the same stream under both execution models and requires every
/// observable — schedule, stalls, ring traces, per-packet results, and
/// the final SDRAM image — to be bit-identical.
void expectThreadedMatchesInterp(const AllocatedProgram &Prog,
                                 chip::ChipParams CP, uint64_t N,
                                 uint64_t Budget = 50'000) {
  CP.Exec = sim::ExecMode::Interp;
  DriveResult A = drive(Prog, CP, N, Budget);
  CP.Exec = sim::ExecMode::Threaded;
  DriveResult B = drive(Prog, CP, N, Budget);

  EXPECT_EQ(A.Stats.Superblocks, 0u);
  EXPECT_EQ(A.Stats.TraceHash, B.Stats.TraceHash);
  EXPECT_EQ(A.Stats.FinalCycles, B.Stats.FinalCycles);
  EXPECT_EQ(A.Stats.PacketsDispatched, B.Stats.PacketsDispatched);
  EXPECT_EQ(A.Stats.PacketsRetired, B.Stats.PacketsRetired);
  EXPECT_EQ(A.Stats.TailPackets, B.Stats.TailPackets);
  EXPECT_EQ(A.Stats.MeBusyCycles, B.Stats.MeBusyCycles);
  EXPECT_EQ(A.Stats.CtxPackets, B.Stats.CtxPackets);
  EXPECT_EQ(A.Stats.Sram.Transactions, B.Stats.Sram.Transactions);
  EXPECT_EQ(A.Stats.Sram.StallCycles, B.Stats.Sram.StallCycles);
  EXPECT_EQ(A.Stats.Sdram.Transactions, B.Stats.Sdram.Transactions);
  EXPECT_EQ(A.Stats.Sdram.StallCycles, B.Stats.Sdram.StallCycles);
  EXPECT_EQ(A.Stats.Scratch.Transactions, B.Stats.Scratch.Transactions);
  EXPECT_EQ(A.Stats.Scratch.StallCycles, B.Stats.Scratch.StallCycles);
  EXPECT_EQ(A.Stats.ReorderHighWater, B.Stats.ReorderHighWater);
  EXPECT_EQ(A.Stats.RxDmaTransactions, B.Stats.RxDmaTransactions);
  ASSERT_EQ(A.Stats.InputRings.size(), B.Stats.InputRings.size());
  for (size_t I = 0; I != A.Stats.InputRings.size(); ++I)
    EXPECT_EQ(A.Stats.InputRings[I].TraceHash,
              B.Stats.InputRings[I].TraceHash);
  EXPECT_EQ(A.Stats.TxRing.TraceHash, B.Stats.TxRing.TraceHash);
  EXPECT_EQ(A.ImageHash, B.ImageHash);
  ASSERT_EQ(A.Retired.size(), B.Retired.size());
  for (size_t I = 0; I != A.Retired.size(); ++I) {
    EXPECT_EQ(A.Retired[I].Me, B.Retired[I].Me);
    EXPECT_EQ(A.Retired[I].Ctx, B.Retired[I].Ctx);
    EXPECT_EQ(A.Retired[I].RetireTime, B.Retired[I].RetireTime);
    EXPECT_EQ(A.Retired[I].CompleteTime, B.Retired[I].CompleteTime);
    EXPECT_EQ(A.Retired[I].Result.Ok, B.Retired[I].Result.Ok);
    EXPECT_EQ(A.Retired[I].Result.Cycles, B.Retired[I].Result.Cycles);
    EXPECT_EQ(A.Retired[I].Result.Instructions,
              B.Retired[I].Result.Instructions);
    EXPECT_EQ(A.Retired[I].Result.HaltValues, B.Retired[I].Result.HaltValues);
  }
}

} // namespace

TEST(ChipRun, ThreadedMatchesInterpStraightLine) {
  // Single-block program: the fast path runs it as one stream with mem
  // yields; the whole schedule must be bit-identical to the interpreter.
  chip::ChipParams CP;
  CP.MP.MeCount = 3;
  CP.MP.ContextsPerMe = 4;
  expectThreadedMatchesInterp(heavyProgram(12), CP, 60);
}

TEST(ChipRun, ThreadedMatchesInterpThroughSuperblocks) {
  // Branchy program that actually forms superblocks: guard exits and
  // mem yields from inside the collapsed chain must reconstruct the
  // interpreter's exact instruction and cycle totals.
  chip::ChipParams CP;
  CP.MP.MeCount = 4;
  CP.MP.ContextsPerMe = 4;
  AllocatedProgram Prog = branchyProgram();
  CP.Exec = sim::ExecMode::Threaded;
  DriveResult B = drive(Prog, CP, 96);
  EXPECT_GT(B.Stats.Superblocks, 0u);
  expectThreadedMatchesInterp(Prog, CP, 96);
}

TEST(ChipRun, ThreadedMatchesInterpUnderWatchdog) {
  // Watchdog-bound spin packets: the fast path's per-block budget gate
  // falls back to the slow tier, whose instruction counting must hit
  // the same watchdog trap at the same point.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 4;
  expectThreadedMatchesInterp(spinProgram(), CP, 12, 2'000);
}

TEST(ChipRun, PerContextSpillWindowsDoNotCollide) {
  // A program that spills through scratch: every context uses the same
  // nominal spill addresses, the per-context rebase must keep them
  // apart. Value correctness across 4x4 concurrent contexts proves it.
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  AllocInstr Ld = sdramRead(AOperand::reg({Bank::A, 0}), {Bank::S, 0});
  AllocInstr Spill;
  Spill.Op = MOp::MemWrite;
  Spill.Space = MemSpace::Scratch;
  Spill.Srcs = {AOperand::constant(P.SpillBase),
                AOperand::reg({Bank::S, 0})};
  AllocInstr Wipe = imm(0, {Bank::S, 0});
  // A second SDRAM read parks the context, giving neighbours time to
  // overwrite a shared slot if the rebase were broken.
  AllocInstr Park = sdramRead(AOperand::reg({Bank::A, 0}), {Bank::L, 1});
  AllocInstr Reload;
  Reload.Op = MOp::MemRead;
  Reload.Space = MemSpace::Scratch;
  Reload.Srcs = {AOperand::constant(P.SpillBase)};
  Reload.Dsts = {{Bank::L, 0}};
  AllocInstr St = sdramWrite(AOperand::reg({Bank::A, 1}),
                             AOperand::reg({Bank::L, 0}));
  P.NumSpillSlots = 1;
  P.Blocks.push_back(
      {{Ld, Spill, Wipe, Park, Reload, St,
        haltOf({AOperand::reg({Bank::L, 0})})}});

  chip::ChipParams CP;
  CP.MP.MeCount = 4;
  CP.MP.ContextsPerMe = 4;
  DriveResult R = drive(P, CP, 64);
  ASSERT_EQ(R.Retired.size(), 64u);
  for (const chip::RetiredPacket &RP : R.Retired) {
    ASSERT_TRUE(RP.Result.Ok) << RP.Result.Error.message();
    EXPECT_EQ(RP.Result.HaltValues[0], 0xC0DE0000u + RP.Pkt.Seq)
        << "spill slot collision on packet " << RP.Pkt.Seq;
  }

  // The threaded chip must rebase exactly like the interpreter on both
  // of its tiers. The default budget keeps the 7-instruction block on
  // the fast tier. A budget of 6 fails the block's watchdog gate, so the
  // slow tier runs it: the spill store and reload both issue before the
  // watchdog traps at the halt.
  expectThreadedMatchesInterp(P, CP, 64);
  expectThreadedMatchesInterp(P, CP, 64, 6);
}
