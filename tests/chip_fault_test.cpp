//===- chip_fault_test.cpp - Chip fault model + supervisor tests ------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Coverage for the chip-grade fault model and the self-healing
// supervisor:
//
//  1. Policy layer: FaultSchedule validation inside ChipParams, the
//     Supervisor's pure per-packet plans, and the bounded exponential
//     backoff curve.
//  2. Recovery mechanics: ctx-lockup wedges are detected by the
//     retire-progress watchdog and recovered (correct results, recorded
//     attempts) or typed-dropped when retries exhaust; dma-drop redoes
//     ingress DMA within its retry budget; ring-stall and chan-brownout
//     degrade timing without losing packets; RX backpressure converts
//     unbounded waits into typed in-order drops under a lockup storm.
//  3. Determinism: a (seed, schedule) pair replays bit-identically —
//     double runs agree on trace hash, recovery ledger, and final image,
//     and the interpreter and translated fast path agree under the same
//     schedule (the abort/restart path works in both exec modes).
//  4. sdram-bitflip stays supervisor-invisible: the ledger records the
//     injection but no detection, and the corrupted word is exactly the
//     deterministic (word, bit) target the retire-time oracle recomputes.
//
//===----------------------------------------------------------------------===//

#include "chip/Chip.h"

#include <gtest/gtest.h>

#include <string>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

namespace {

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

/// copy(in, out): *out = *in; halt(*in) — the canonical two-pointer
/// packet shape.
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

/// heavy(in, out): N dependent SDRAM reads then *out = *in — many swap
/// points per packet, so lockups land mid-flight and brownouts bite.
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

/// bursty(in, out): N rounds of an SDRAM read followed by \p Alus ALU
/// ops on the loaded word, then *out = *in — bursts long enough that an
/// engine is often mid-burst with nothing else ready.
AllocatedProgram burstyProgram(unsigned Reads, unsigned Alus) {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  AllocInstr And;
  And.Op = MOp::Alu;
  And.Alu = cps::PrimOp::And;
  And.Srcs = {AOperand::reg({Bank::S, 0}), AOperand::constant(1)};
  And.Dsts = {{Bank::S, 1}};
  std::vector<AllocInstr> Is;
  for (unsigned I = 0; I != Reads; ++I) {
    Is.push_back(sdramRead(AOperand::reg({Bank::A, 0}), {Bank::S, 0}));
    Is.insert(Is.end(), Alus, And);
  }
  Is.push_back(sdramWrite(AOperand::reg({Bank::A, 1}),
                          AOperand::reg({Bank::S, 0})));
  Is.push_back(haltOf({AOperand::reg({Bank::S, 0})}));
  P.Blocks.push_back({std::move(Is)});
  return P;
}

/// aluFirst(in, out): \p Alus ALU ops, then *out = *in — one long burst
/// ends in the packet's first SDRAM read.
AllocatedProgram aluFirstProgram(unsigned Alus) {
  AllocatedProgram P;
  P.Entry = 0;
  P.NumEntryArgs = 2;
  AllocInstr And;
  And.Op = MOp::Alu;
  And.Alu = cps::PrimOp::And;
  And.Srcs = {AOperand::reg({Bank::A, 0}), AOperand::constant(1)};
  And.Dsts = {{Bank::S, 1}};
  std::vector<AllocInstr> Is(Alus, And);
  Is.push_back(sdramRead(AOperand::reg({Bank::A, 0}), {Bank::S, 0}));
  Is.push_back(sdramWrite(AOperand::reg({Bank::A, 1}),
                          AOperand::reg({Bank::S, 0})));
  Is.push_back(haltOf({AOperand::reg({Bank::S, 0})}));
  P.Blocks.push_back({std::move(Is)});
  return P;
}

FaultSchedule schedule(const std::string &Spec) {
  FaultSchedule S;
  std::string Error;
  EXPECT_TRUE(parseFaultSchedule(Spec, S, Error)) << Error;
  return S;
}

/// Tight thresholds so watchdog detection and backpressure fire within
/// small test streams instead of production-scale cycle counts.
chip::SupervisorConfig quickSup() {
  chip::SupervisorConfig C;
  C.WatchdogPeriod = 128;
  C.LockupThreshold = 256;
  C.BackoffBase = 32;
  C.BackpressureThreshold = 1024;
  C.BrownoutWindow = 512;
  return C;
}

struct DriveResult {
  chip::ChipRunStats Stats;
  std::vector<chip::RetiredPacket> Retired;
  uint64_t ImageHash = 0;
};

/// The test packet stream: packet Seq carries 0xC0DE0000 + Seq; \p Next
/// is the dispatch cursor (N packets in all).
chip::Chip::Source packetSource(uint64_t &Next, uint64_t N) {
  return [&Next, N](chip::ChipPacket &Out) {
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
  };
}

uint64_t imageHash(chip::Chip &C) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Addr, Val] : C.memory().Sdram) {
    H = chip::traceFold(H, Addr);
    H = chip::traceFold(H, Val);
  }
  return H;
}

DriveResult drive(const AllocatedProgram &Prog, chip::ChipParams CP,
                  uint64_t N, uint64_t Budget = 50'000) {
  CP.Budget = Budget;
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  chip::Chip C(CP, Progs, sim::Memory{});
  uint64_t Next = 0;
  DriveResult R;
  R.Stats = C.run(
      packetSource(Next, N),
      [&](chip::RetiredPacket &&RP) { R.Retired.push_back(std::move(RP)); });
  R.ImageHash = imageHash(C);
  return R;
}

/// Retirement must stay in arrival order no matter how packets died.
void expectInOrder(const std::vector<chip::RetiredPacket> &Retired) {
  for (uint64_t I = 0; I != Retired.size(); ++I)
    EXPECT_EQ(Retired[I].Pkt.Seq, I);
}

} // namespace

//===----------------------------------------------------------------------===//
// Policy layer
//===----------------------------------------------------------------------===//

TEST(ChipFaultParams, ValidateRejectsBadSchedules) {
  chip::ChipParams P;
  P.Faults = schedule("ctx-lockup@100,dma-drop@50~2");
  EXPECT_TRUE(P.validate().ok());

  chip::ChipParams Bad = P;
  Bad.Faults[0].Kind = FaultKind::MemJitter; // sim-domain, not chip
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.Faults[0].Rate = 0;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.Sup.WatchdogPeriod = 0;
  EXPECT_FALSE(Bad.validate().ok());
  Bad = P;
  Bad.Sup.LockupThreshold = 0;
  EXPECT_FALSE(Bad.validate().ok());
  // Zero thresholds are fine while no schedule is armed.
  Bad.Faults.clear();
  EXPECT_TRUE(Bad.validate().ok());
}

TEST(ChipFaultParams, ValidateRejectsMagnitudesOutsideTheKindTable) {
  // A schedule built in code passes the range checks the parser applies:
  // 0 still means the kind's default.
  chip::ChipParams P;
  P.Faults = schedule("ctx-lockup@100,chan-brownout@50,sdram-bitflip@9");
  ASSERT_TRUE(P.validate().ok());
  for (auto [Entry, Mag] : {std::pair{0, 1e30}, std::pair{0, 1.5},
                            std::pair{0, -1.0}, std::pair{1, 1.0},
                            std::pair{1, 1025.0}, std::pair{2, 1.0}}) {
    chip::ChipParams Bad = P;
    Bad.Faults[Entry].Magnitude = Mag;
    Status S = Bad.validate();
    EXPECT_FALSE(S.ok()) << Entry << " ~" << Mag;
    EXPECT_NE(S.message().find(faultKindName(Bad.Faults[Entry].Kind)),
              std::string::npos)
        << S.message();
  }
  P.Faults[1].Magnitude = 2;
  EXPECT_TRUE(P.validate().ok());
}

TEST(ChipFaultPolicy, PacketPlansArePureAndPeriodic) {
  chip::Supervisor S(schedule("ctx-lockup@4~2,sdram-bitflip@6,dma-drop@10~3"),
                     chip::SupervisorConfig{});
  ASSERT_TRUE(S.enabled());
  for (uint64_t Seq = 0; Seq != 120; ++Seq) {
    chip::Supervisor::PacketPlan P = S.planPacket(Seq);
    EXPECT_EQ(P.LockupAttempts, (Seq + 1) % 4 == 0 ? 2u : 0u) << Seq;
    EXPECT_EQ(P.SdramFlip, (Seq + 1) % 6 == 0) << Seq;
    EXPECT_EQ(P.DmaFailures, (Seq + 1) % 10 == 0 ? 3u : 0u) << Seq;
    // Pure: asking again gives the same answer.
    chip::Supervisor::PacketPlan Q = S.planPacket(Seq);
    EXPECT_EQ(P.LockupAttempts, Q.LockupAttempts);
  }
  // Omitted magnitude falls back to the kind default.
  chip::Supervisor D(schedule("ctx-lockup@1"), chip::SupervisorConfig{});
  EXPECT_EQ(D.planPacket(0).LockupAttempts,
            faultKindInfo(FaultKind::CtxLockup).Default);
}

TEST(ChipFaultPolicy, BackoffDoublesAndSaturates) {
  chip::SupervisorConfig C;
  C.BackoffBase = 100;
  chip::Supervisor S(schedule("ctx-lockup@1"), C);
  EXPECT_EQ(S.backoff(1), 100u);
  EXPECT_EQ(S.backoff(2), 200u);
  EXPECT_EQ(S.backoff(3), 400u);
  EXPECT_EQ(S.backoff(5), 1600u);
  // The shift saturates instead of overflowing into UB.
  EXPECT_EQ(S.backoff(200), 100ull << 32);
}

TEST(ChipFaultPolicy, EmptyScheduleDisablesSupervisor) {
  chip::Supervisor S;
  EXPECT_FALSE(S.enabled());
  EXPECT_EQ(S.planPacket(0).LockupAttempts, 0u);
  EXPECT_FALSE(S.stats().anyInjected());
  EXPECT_TRUE(S.stats().allAccounted());
}

//===----------------------------------------------------------------------===//
// Recovery mechanics
//===----------------------------------------------------------------------===//

TEST(ChipFaultRun, LockupRecoveredWithCorrectResults) {
  // Every 3rd packet wedges its first two attempts; MaxRetries=2 allows
  // a third attempt, which succeeds. All packets must complete with the
  // right halt value, and the faulted ones must record their attempts.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.Faults = schedule("ctx-lockup@3~2");
  CP.Sup = quickSup();
  DriveResult R = drive(copyProgram(), CP, 24);

  ASSERT_EQ(R.Retired.size(), 24u);
  expectInOrder(R.Retired);
  EXPECT_FALSE(R.Stats.Deadlock);
  for (const chip::RetiredPacket &RP : R.Retired) {
    ASSERT_TRUE(RP.Result.Ok) << "seq " << RP.Pkt.Seq;
    EXPECT_EQ(RP.Result.HaltValues[0], 0xC0DE0000u + RP.Pkt.Seq);
    EXPECT_EQ(RP.Drop, chip::DropReason::None);
    bool Faulted = (RP.Pkt.Seq + 1) % 3 == 0;
    EXPECT_EQ(RP.Attempts, Faulted ? 3u : 1u) << "seq " << RP.Pkt.Seq;
  }
  const chip::RecoveryStats &RS = R.Stats.Recovery;
  EXPECT_EQ(RS.PacketsWedged, 8u);
  EXPECT_EQ(RS.PacketsRecovered, 8u);
  EXPECT_EQ(RS.LockupDrops, 0u);
  EXPECT_EQ(RS.LockupsInjected, 16u); // two wedges per faulted packet
  EXPECT_EQ(RS.LockupsDetected, RS.CtxResets);
  EXPECT_EQ(RS.PacketRequeues, 16u);
  EXPECT_GE(RS.MaxBackoffCycles, 2 * CP.Sup.BackoffBase);
  EXPECT_TRUE(RS.allAccounted());
}

TEST(ChipFaultRun, LockupIsNotDetectedBeforeItsThreshold) {
  // A context wedges at the end of a 200-op burst, and watchdog ticks
  // fall inside that burst. A tick earlier than the wedge must not count
  // as elapsed time: the lockup is declared LockupThreshold cycles after
  // the wedge at the earliest. With no retries each detection retires
  // the packet as a typed drop at the tick that declared it, after at
  // least its 200 ALU cycles.
  chip::ChipParams CP;
  CP.MP.MeCount = 3;
  CP.MP.ContextsPerMe = 4;
  CP.Faults = schedule("ctx-lockup@3");
  CP.Sup = quickSup();
  CP.Sup.MaxRetries = 0;
  DriveResult R = drive(aluFirstProgram(200), CP, 36);

  ASSERT_EQ(R.Retired.size(), 36u);
  expectInOrder(R.Retired);
  unsigned Drops = 0;
  for (const chip::RetiredPacket &RP : R.Retired) {
    if (RP.Drop != chip::DropReason::Lockup)
      continue;
    ++Drops;
    EXPECT_GE(RP.CompleteTime,
              RP.DispatchTime + 200 + CP.Sup.LockupThreshold)
        << "seq " << RP.Pkt.Seq;
  }
  EXPECT_EQ(Drops, 12u);
  EXPECT_EQ(R.Stats.Recovery.LockupsDetected, 12u);
}

TEST(ChipFaultRun, RetryExhaustionBecomesTypedLockupDrop) {
  // Magnitude 9 wedges every attempt; after MaxRetries the supervisor
  // must retire the packet as a typed Lockup drop — in order, default
  // Result — instead of hanging the chip.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.Faults = schedule("ctx-lockup@4~9");
  CP.Sup = quickSup();
  DriveResult R = drive(copyProgram(), CP, 20);

  ASSERT_EQ(R.Retired.size(), 20u);
  expectInOrder(R.Retired);
  EXPECT_FALSE(R.Stats.Deadlock);
  unsigned Drops = 0;
  for (const chip::RetiredPacket &RP : R.Retired) {
    if ((RP.Pkt.Seq + 1) % 4 == 0) {
      EXPECT_EQ(RP.Drop, chip::DropReason::Lockup) << "seq " << RP.Pkt.Seq;
      EXPECT_FALSE(RP.Result.Ok);
      EXPECT_EQ(RP.Attempts, 1u + CP.Sup.MaxRetries);
      ++Drops;
    } else {
      EXPECT_EQ(RP.Drop, chip::DropReason::None);
      EXPECT_TRUE(RP.Result.Ok);
    }
  }
  const chip::RecoveryStats &RS = R.Stats.Recovery;
  EXPECT_EQ(Drops, 5u);
  EXPECT_EQ(RS.LockupDrops, 5u);
  EXPECT_EQ(RS.PacketsRecovered, 0u);
  EXPECT_EQ(RS.PacketsWedged, 5u);
  EXPECT_TRUE(RS.allAccounted());
}

TEST(ChipFaultRun, DmaDropRecoversWithinRetryBudget) {
  // One lost burst per 5th packet (default magnitude): the RX engine's
  // redo must recover every packet; the ledger shows the retries.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.Faults = schedule("dma-drop@5");
  CP.Sup = quickSup();
  DriveResult R = drive(copyProgram(), CP, 25);

  ASSERT_EQ(R.Retired.size(), 25u);
  expectInOrder(R.Retired);
  for (const chip::RetiredPacket &RP : R.Retired) {
    ASSERT_TRUE(RP.Result.Ok) << "seq " << RP.Pkt.Seq;
    EXPECT_EQ(RP.Result.HaltValues[0], 0xC0DE0000u + RP.Pkt.Seq);
  }
  const chip::RecoveryStats &RS = R.Stats.Recovery;
  EXPECT_EQ(RS.DmaFaultPackets, 5u);
  EXPECT_EQ(RS.DmaRecoveredPackets, 5u);
  EXPECT_EQ(RS.DmaDropPackets, 0u);
  EXPECT_EQ(RS.DmaRetries, 5u);
  EXPECT_TRUE(RS.allAccounted());
}

TEST(ChipFaultRun, DmaRetryExhaustionBecomesTypedIngressDrop) {
  // Magnitude 9 loses more bursts than DmaRetryLimit allows: the packet
  // never reaches a context and retires as a typed DmaDrop, still in
  // order among its neighbours.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.Faults = schedule("dma-drop@6~9");
  CP.Sup = quickSup();
  DriveResult R = drive(copyProgram(), CP, 24);

  ASSERT_EQ(R.Retired.size(), 24u);
  expectInOrder(R.Retired);
  for (const chip::RetiredPacket &RP : R.Retired) {
    bool Faulted = (RP.Pkt.Seq + 1) % 6 == 0;
    EXPECT_EQ(RP.Drop,
              Faulted ? chip::DropReason::DmaDrop : chip::DropReason::None);
    EXPECT_EQ(RP.Result.Ok, !Faulted);
  }
  const chip::RecoveryStats &RS = R.Stats.Recovery;
  EXPECT_EQ(RS.DmaFaultPackets, 4u);
  EXPECT_EQ(RS.DmaDropPackets, 4u);
  EXPECT_EQ(RS.DmaRecoveredPackets, 0u);
  EXPECT_TRUE(RS.allAccounted());
}

TEST(ChipFaultRun, RingStallsDelayButLoseNothing) {
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  DriveResult Clean = drive(heavyProgram(6), CP, 40);

  CP.Faults = schedule("ring-stall@5~400");
  CP.Sup = quickSup();
  DriveResult R = drive(heavyProgram(6), CP, 40);

  ASSERT_EQ(R.Retired.size(), 40u);
  expectInOrder(R.Retired);
  for (const chip::RetiredPacket &RP : R.Retired)
    EXPECT_TRUE(RP.Result.Ok);
  EXPECT_GT(R.Stats.Recovery.RingStallsInjected, 0u);
  EXPECT_GT(R.Stats.Recovery.RingStallCycles, 0u);
  // Stalled rings cost time but never packets.
  EXPECT_GT(R.Stats.FinalCycles, Clean.Stats.FinalCycles);
  EXPECT_EQ(R.Stats.PacketsRetired, Clean.Stats.PacketsRetired);
  EXPECT_TRUE(R.Stats.Recovery.allAccounted());
}

TEST(ChipFaultRun, BrownoutDegradesBandwidthTransiently) {
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 4;
  DriveResult Clean = drive(heavyProgram(8), CP, 48);

  CP.Faults = schedule("chan-brownout@64~8");
  CP.Sup = quickSup();
  DriveResult R = drive(heavyProgram(8), CP, 48);

  ASSERT_EQ(R.Retired.size(), 48u);
  for (const chip::RetiredPacket &RP : R.Retired)
    EXPECT_TRUE(RP.Result.Ok);
  EXPECT_GT(R.Stats.Recovery.BrownoutsInjected, 0u);
  EXPECT_GT(R.Stats.FinalCycles, Clean.Stats.FinalCycles);
  EXPECT_TRUE(R.Stats.Recovery.allAccounted());
}

TEST(ChipFaultRun, LockupStormBackpressureDropsAreTypedAndInOrder) {
  // Every packet wedges past its retry budget on a tiny topology: the
  // input rings jam, and RX must convert its unbounded wait into typed
  // Backpressure drops. The stream still drains, retirement order
  // holds, and every packet is accounted as some typed drop.
  chip::ChipParams CP;
  CP.MP.MeCount = 1;
  CP.MP.ContextsPerMe = 2;
  CP.RingDepth = 2;
  CP.Faults = schedule("ctx-lockup@1~9");
  CP.Sup = quickSup();
  CP.Sup.MaxRetries = 1;
  // Detection (512 cycles) far slower than the drop deadline (200): the
  // jammed rings starve RX long enough that backpressure must fire.
  CP.Sup.LockupThreshold = 512;
  CP.Sup.BackpressureThreshold = 200;
  DriveResult R = drive(copyProgram(), CP, 16);

  ASSERT_EQ(R.Retired.size(), 16u);
  expectInOrder(R.Retired);
  EXPECT_FALSE(R.Stats.Deadlock);
  uint64_t Lockups = 0, Bp = 0;
  for (const chip::RetiredPacket &RP : R.Retired) {
    EXPECT_FALSE(RP.Result.Ok);
    ASSERT_NE(RP.Drop, chip::DropReason::None) << "seq " << RP.Pkt.Seq;
    if (RP.Drop == chip::DropReason::Lockup)
      ++Lockups;
    else if (RP.Drop == chip::DropReason::Backpressure)
      ++Bp;
  }
  const chip::RecoveryStats &RS = R.Stats.Recovery;
  EXPECT_EQ(Lockups, RS.LockupDrops);
  EXPECT_EQ(Bp, RS.BackpressureDrops);
  EXPECT_EQ(Lockups + Bp, 16u);
  EXPECT_GT(Bp, 0u) << "storm never exercised RX backpressure";
  EXPECT_TRUE(RS.allAccounted());
}

TEST(ChipFaultRun, SdramBitFlipIsSupervisorInvisibleButDeterministic) {
  // The flip corrupts the DMA image after the RX engine's completion
  // check, so the supervisor must record the injection and nothing
  // else; the corrupted halt value is exactly the (word, bit) target
  // the retire-time oracle recomputes from Seq.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  CP.Faults = schedule("sdram-bitflip@4");
  CP.Sup = quickSup();
  DriveResult R = drive(copyProgram(), CP, 16);

  ASSERT_EQ(R.Retired.size(), 16u);
  for (const chip::RetiredPacket &RP : R.Retired) {
    ASSERT_TRUE(RP.Result.Ok);
    uint32_t Want = static_cast<uint32_t>(0xC0DE0000u + RP.Pkt.Seq);
    if ((RP.Pkt.Seq + 1) % 4 == 0)
      Want ^= 1u << chip::Supervisor::flipBit(RP.Pkt.Seq);
    EXPECT_EQ(RP.Result.HaltValues[0], Want) << "seq " << RP.Pkt.Seq;
  }
  const chip::RecoveryStats &RS = R.Stats.Recovery;
  EXPECT_EQ(RS.SdramBitFlipsInjected, 4u);
  EXPECT_EQ(RS.LockupsDetected, 0u);
  EXPECT_EQ(RS.CtxResets, 0u);
  EXPECT_EQ(RS.LockupDrops + RS.BackpressureDrops + RS.DmaDropPackets, 0u);
  EXPECT_TRUE(RS.allAccounted());
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

namespace {

void expectSameRun(const DriveResult &A, const DriveResult &B) {
  EXPECT_EQ(A.Stats.TraceHash, B.Stats.TraceHash);
  EXPECT_EQ(A.Stats.FinalCycles, B.Stats.FinalCycles);
  EXPECT_EQ(A.Stats.Recovery.fold(), B.Stats.Recovery.fold());
  EXPECT_EQ(A.Stats.Recovery.LockupsInjected,
            B.Stats.Recovery.LockupsInjected);
  EXPECT_EQ(A.Stats.Recovery.PacketsRecovered,
            B.Stats.Recovery.PacketsRecovered);
  EXPECT_EQ(A.Stats.Recovery.LockupDrops, B.Stats.Recovery.LockupDrops);
  EXPECT_EQ(A.Stats.Recovery.BackpressureDrops,
            B.Stats.Recovery.BackpressureDrops);
  EXPECT_EQ(A.Stats.CtxPackets, B.Stats.CtxPackets);
  EXPECT_EQ(A.ImageHash, B.ImageHash);
  ASSERT_EQ(A.Retired.size(), B.Retired.size());
  for (size_t I = 0; I != A.Retired.size(); ++I) {
    EXPECT_EQ(A.Retired[I].Me, B.Retired[I].Me);
    EXPECT_EQ(A.Retired[I].Ctx, B.Retired[I].Ctx);
    EXPECT_EQ(A.Retired[I].RetireTime, B.Retired[I].RetireTime);
    EXPECT_EQ(A.Retired[I].Attempts, B.Retired[I].Attempts);
    EXPECT_EQ(A.Retired[I].Drop, B.Retired[I].Drop);
    EXPECT_EQ(A.Retired[I].Result.Ok, B.Retired[I].Result.Ok);
    EXPECT_EQ(A.Retired[I].Result.HaltValues,
              B.Retired[I].Result.HaltValues);
  }
}

chip::ChipParams stormyParams() {
  chip::ChipParams CP;
  CP.MP.MeCount = 3;
  CP.MP.ContextsPerMe = 4;
  CP.Faults =
      schedule("ctx-lockup@6~2,ring-stall@9~300,chan-brownout@80~4,"
               "dma-drop@11,sdram-bitflip@17");
  CP.Sup = quickSup();
  return CP;
}

} // namespace

TEST(ChipFaultRun, DoubleRunUnderFaultsIsBitIdentical) {
  AllocatedProgram Prog = heavyProgram(8);
  chip::ChipParams CP = stormyParams();
  DriveResult A = drive(Prog, CP, 64);
  DriveResult B = drive(Prog, CP, 64);
  EXPECT_TRUE(A.Stats.Recovery.anyInjected());
  EXPECT_GT(A.Stats.Recovery.PacketsRecovered, 0u);
  EXPECT_TRUE(A.Stats.Recovery.allAccounted());
  expectSameRun(A, B);
}

TEST(ChipFaultRun, ThreadedMatchesInterpUnderFaults) {
  // The abort/restart path exists in both execution models; the same
  // schedule must produce the same event sequence, recovery ledger, and
  // per-packet outcomes whether contexts run interpreted or translated.
  AllocatedProgram Prog = heavyProgram(8);
  chip::ChipParams CP = stormyParams();
  CP.Exec = sim::ExecMode::Interp;
  DriveResult A = drive(Prog, CP, 64);
  CP.Exec = sim::ExecMode::Threaded;
  DriveResult B = drive(Prog, CP, 64);
  EXPECT_TRUE(A.Stats.Recovery.anyInjected());
  expectSameRun(A, B);
}

namespace {

/// What the stopped half of driveThroughSnapshot left: the snapshot,
/// the ME runs held outside the event queue when it was taken, and the
/// stopped run's partial stats.
struct SnapshotStop {
  std::string Bytes;
  unsigned HeldRuns = 0;
  chip::ChipRunStats Stats;
};

/// Runs \p N packets, stops at the first retirement >= StopAt with a
/// snapshot, restores it into a fresh chip (which must re-save the
/// identical bytes), and finishes the stream there. The result splices
/// the retirements of both halves; \p Stop, when given, receives the
/// stopped half.
DriveResult driveThroughSnapshot(const AllocatedProgram &Prog,
                                 const chip::ChipParams &CP, uint64_t N,
                                 uint64_t StopAt,
                                 SnapshotStop *Stop = nullptr) {
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  DriveResult R;
  auto Keep = [&](chip::RetiredPacket &&RP) {
    R.Retired.push_back(std::move(RP));
  };
  SnapshotStop Local;
  SnapshotStop &First = Stop ? *Stop : Local;
  std::string &Snap = First.Bytes;
  uint64_t Next = 0, SnapNext = 0;
  {
    chip::Chip C(CP, Progs, sim::Memory{});
    C.setRetireHook([&](uint64_t Retired, uint64_t) {
      if (Retired < StopAt)
        return false;
      BinWriter W;
      C.saveState(W);
      Snap = W.take();
      SnapNext = Next;
      First.HeldRuns = C.heldRuns();
      return true;
    });
    First.Stats = C.run(packetSource(Next, N), Keep);
    EXPECT_TRUE(C.stopped());
  }
  chip::Chip C(CP, Progs, sim::Memory{});
  BinReader Rd(Snap);
  C.restoreState(Rd);
  EXPECT_FALSE(Rd.failed());
  EXPECT_EQ(Rd.remaining(), 0u);
  BinWriter Again;
  C.saveState(Again);
  EXPECT_TRUE(Again.bytes() == Snap) << "re-save differs at " << StopAt;
  Next = SnapNext;
  R.Stats = C.run(packetSource(Next, N), Keep);
  R.ImageHash = imageHash(C);
  return R;
}

} // namespace

TEST(ChipFaultRun, SnapshotsBeyondTheWheelHorizonResumeIdentically) {
  // Backoffs, brownout windows, and ring-stall windows all longer than
  // the event wheel's 4096-cycle horizon, so snapshots catch events in
  // the overflow heap as well as in buckets. Every resumed run must
  // match the uninterrupted one in both execution models.
  AllocatedProgram Prog = heavyProgram(8);
  chip::ChipParams CP = stormyParams();
  CP.Faults = schedule("ctx-lockup@5~2,ring-stall@9~5000,chan-brownout@40~4");
  CP.Sup.BackoffBase = 4500;
  CP.Sup.BrownoutWindow = 6000;
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    CP.Exec = Exec;
    DriveResult Ref = drive(Prog, CP, 64);
    ASSERT_EQ(Ref.Retired.size(), 64u);
    EXPECT_GT(Ref.Stats.Recovery.MaxBackoffCycles, 4096u);
    EXPECT_GT(Ref.Stats.Recovery.BrownoutsInjected, 0u);
    EXPECT_TRUE(Ref.Stats.Recovery.allAccounted());
    for (uint64_t StopAt : {1u, 9u, 23u, 40u, 57u}) {
      SCOPED_TRACE(::testing::Message()
                   << (Exec == sim::ExecMode::Threaded ? "threaded"
                                                         : "interp")
                   << " stop at " << StopAt);
      DriveResult Res = driveThroughSnapshot(Prog, CP, 64, StopAt);
      expectSameRun(Ref, Res);
      EXPECT_EQ(Ref.Stats.MeBusyCycles, Res.Stats.MeBusyCycles);
      EXPECT_EQ(Ref.Stats.PacketsRetired, Res.Stats.PacketsRetired);
      EXPECT_EQ(Ref.Stats.Sdram.StallCycles, Res.Stats.Sdram.StallCycles);
      EXPECT_EQ(Ref.Stats.ReorderHighWater, Res.Stats.ReorderHighWater);
    }
  }
}

TEST(ChipFaultRun, FaultFreeRunsCarryNoSupervisorArtifacts) {
  // An empty schedule must leave the run event-for-event identical to a
  // chip that never heard of the supervisor: zero ledger, no ticks.
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 2;
  DriveResult R = drive(copyProgram(), CP, 16);
  EXPECT_FALSE(R.Stats.Recovery.anyInjected());
  EXPECT_EQ(R.Stats.Recovery.fold(), chip::RecoveryStats{}.fold());
  EXPECT_TRUE(R.Stats.Recovery.allAccounted());
}

//===----------------------------------------------------------------------===//
// Snapshot format
//===----------------------------------------------------------------------===//

namespace {

/// The packet stream of packetSource, except that every fourth packet
/// carries pointers beyond the slot stride, so it runs quarantined on a
/// private memory image.
chip::Chip::Source mixedSource(uint64_t &Next, uint64_t N,
                               uint32_t SlotStride) {
  chip::Chip::Source Base = packetSource(Next, N);
  return [Base, &Next, SlotStride](chip::ChipPacket &Out) {
    if (!Base(Out))
      return false;
    if (Next % 4 == 0)
      Out.Args = {SlotStride + 8, SlotStride + 9};
    return true;
  };
}

/// The bytes Chip::saveState writes at the first retirement >= StopAt.
std::string stormySnapshot(sim::ExecMode Exec, uint64_t StopAt) {
  AllocatedProgram Prog = heavyProgram(8);
  chip::ChipParams CP = stormyParams();
  CP.Exec = Exec;
  CP.Sup.BackoffBase = 4500; // requeues land beyond the wheel horizon
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  chip::Chip C(CP, Progs, sim::Memory{});
  std::string Snap;
  C.setRetireHook([&](uint64_t Retired, uint64_t) {
    if (Retired < StopAt)
      return false;
    BinWriter W;
    C.saveState(W);
    Snap = W.take();
    return true;
  });
  uint64_t Next = 0;
  C.run(mixedSource(Next, 64, CP.SlotStride), [](chip::RetiredPacket &&) {});
  EXPECT_TRUE(C.stopped());
  return Snap;
}

/// A fault-free 6-ME x 4-context chip for burstyProgram(6, 12): engines
/// often end a burst with no context ready and hold their next run.
chip::ChipParams quietParams(sim::ExecMode Exec) {
  chip::ChipParams CP;
  CP.MP.MeCount = 6;
  CP.MP.ContextsPerMe = 4;
  CP.Exec = Exec;
  return CP;
}

/// Stop points of quietParams runs over 64 packets at which a held run
/// is pending.
constexpr uint64_t QuietStops[] = {2, 8, 58};

} // namespace

TEST(ChipSnapshot, BytesArePinned) {
  // The exact snapshot bytes under every chip fault kind: quarantine
  // images, wedged and requeued records, the supervisor ledger, and
  // events in the overflow heap. Save and restore may change only
  // together with a FileVersion bump.
  struct Case {
    sim::ExecMode Exec;
    size_t Bytes;
    uint64_t Hash;
  };
  for (const Case &K :
       {Case{sim::ExecMode::Interp, 15782, 0xa19b4af25ab0412dull},
        Case{sim::ExecMode::Threaded, 16382, 0x870317b7575118c2ull}}) {
    std::string Snap = stormySnapshot(K.Exec, 10);
    EXPECT_EQ(Snap.size(), K.Bytes);
    EXPECT_EQ(fnv1a64(Snap.data(), Snap.size()), K.Hash)
        << (K.Exec == sim::ExecMode::Threaded ? "threaded" : "interp");
  }
  // Fault-free stop points with an ME run held outside the event queue:
  // the snapshot lists it among the pending events at its own (Time,
  // Order), so the bytes are those of a kernel that queues every run.
  AllocatedProgram Prog = burstyProgram(6, 12);
  struct QuietCase {
    sim::ExecMode Exec;
    uint64_t StopAt;
    size_t Bytes;
    uint64_t Hash;
  };
  for (const QuietCase &K :
       {QuietCase{sim::ExecMode::Interp, 2, 13828, 0xa62fb4a86990b9f0ull},
        QuietCase{sim::ExecMode::Interp, 8, 13703, 0x827f6f897a310490ull},
        QuietCase{sim::ExecMode::Interp, 58, 11920, 0x8fe3122b99c83fb3ull},
        QuietCase{sim::ExecMode::Threaded, 2, 15124, 0xabdde0a3fd92525full},
        QuietCase{sim::ExecMode::Threaded, 8, 14999, 0xf68dd0c7ea012d1eull},
        QuietCase{sim::ExecMode::Threaded, 58, 13216,
                  0x731e01bc0ac593ebull}}) {
    SCOPED_TRACE(::testing::Message() << sim::execModeName(K.Exec)
                                      << " stop at " << K.StopAt);
    SnapshotStop Stop;
    driveThroughSnapshot(Prog, quietParams(K.Exec), 64, K.StopAt, &Stop);
    EXPECT_GT(Stop.HeldRuns, 0u);
    EXPECT_EQ(Stop.Bytes.size(), K.Bytes);
    EXPECT_EQ(fnv1a64(Stop.Bytes.data(), Stop.Bytes.size()), K.Hash);
  }
}

TEST(ChipSnapshot, HeldRunsAreListedAndResumeIdentically) {
  // A snapshot taken while an ME's run is held lists it among the
  // pending events; the restored chip queues it, and the resumed run
  // must match the uninterrupted one, events by kind included: the
  // stopped and the resumed half together pop every event once.
  AllocatedProgram Prog = burstyProgram(6, 12);
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    chip::ChipParams CP = quietParams(Exec);
    DriveResult Ref = drive(Prog, CP, 64);
    ASSERT_EQ(Ref.Retired.size(), 64u);
    for (uint64_t StopAt : QuietStops) {
      SCOPED_TRACE(::testing::Message() << sim::execModeName(Exec)
                                        << " stop at " << StopAt);
      SnapshotStop Stop;
      DriveResult Res = driveThroughSnapshot(Prog, CP, 64, StopAt, &Stop);
      EXPECT_GT(Stop.HeldRuns, 0u);
      expectSameRun(Ref, Res);
      EXPECT_EQ(Ref.Stats.FinalCycles, Res.Stats.FinalCycles);
      EXPECT_EQ(Ref.Stats.MeBusyCycles, Res.Stats.MeBusyCycles);
      for (unsigned K = 0; K != chip::NumEventKinds; ++K)
        EXPECT_EQ(Stop.Stats.EventsByKind[K] + Res.Stats.EventsByKind[K],
                  Ref.Stats.EventsByKind[K])
            << chip::evName(static_cast<chip::Ev>(K));
      EXPECT_EQ(Stop.Stats.NoopMeRuns + Res.Stats.NoopMeRuns,
                Ref.Stats.NoopMeRuns);
    }
  }
}

namespace {

/// Single-byte corruption sweep over a mid-run chip snapshot (every third
/// byte set to 0x00, 0x07 and 0xFF in turn). Each image must either read
/// as failed() or restore into a chip whose run returns — to the end of
/// the stream, or to a reported deadlock — in either exec model: never a
/// crash, an uncaught exception or a hang. \p Faults arms the supervisor,
/// whose watchdog tick re-arms itself while work is outstanding.
void hostileSnapshotSweep(const FaultSchedule &Faults) {
  AllocatedProgram Prog = heavyProgram(3);
  chip::ChipParams CP;
  CP.MP.MeCount = 2;
  CP.MP.ContextsPerMe = 4;
  CP.Faults = Faults;
  CP.Sup = quickSup();
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    SCOPED_TRACE(Exec == sim::ExecMode::Threaded ? "threaded" : "interp");
    CP.Exec = Exec;
    std::string Snap;
    uint64_t Next = 0, SnapNext = 0;
    {
      chip::Chip C(CP, Progs, sim::Memory{});
      C.setRetireHook([&](uint64_t Retired, uint64_t) {
        if (Retired < 20)
          return false;
        BinWriter W;
        C.saveState(W);
        Snap = W.take();
        SnapNext = Next;
        return true;
      });
      C.run(packetSource(Next, 64), [](chip::RetiredPacket &&) {});
      ASSERT_TRUE(C.stopped());
    }
    unsigned Rejected = 0, Ran = 0;
    for (size_t I = 0; I < Snap.size(); I += 3)
      for (char B : {'\x00', '\x07', '\xff'}) {
        if (Snap[I] == B)
          continue;
        std::string Bad = Snap;
        Bad[I] = B;
        chip::Chip C(CP, Progs, sim::Memory{});
        BinReader R(Bad);
        C.restoreState(R);
        if (R.failed()) {
          ++Rejected;
          continue;
        }
        Next = SnapNext;
        chip::ChipRunStats St =
            C.run(packetSource(Next, 64), [](chip::RetiredPacket &&) {});
        // An image that runs to completion retires the whole stream, and
        // its report says so: restore ties the counters to the cursors.
        if (!St.Deadlock) {
          EXPECT_EQ(St.PacketsRetired, 64u) << "byte " << I;
        }
        ++Ran;
      }
    EXPECT_GT(Rejected, 0u);
    EXPECT_GT(Ran, 0u);
  }
}

} // namespace

TEST(ChipSnapshot, HostileSnapshotsAreRejectedOrRun) {
  hostileSnapshotSweep(FaultSchedule());
}

// The same sweep with the supervisor armed: a restored image that cannot
// retire (its next-to-retire packet held nowhere, say) must end its run
// as a deadlock instead of ticking the watchdog forever.
TEST(ChipSnapshot, HostileSnapshotsRejectedOrRunUnderFaults) {
  hostileSnapshotSweep(schedule("ctx-lockup@7,chan-brownout@11~4"));
}

TEST(ChipSnapshot, FutureWedgeTimeIsRejected) {
  // A wedged context's WedgeTime is the end of the burst that issued its
  // lost reference, so it never lies past its ME's FreeAt. An image whose
  // WedgeTime is further ahead must fail the restore: the watchdog
  // computes T - WedgeTime unsigned, and a restored future time would
  // wrap it and declare the context locked up at the first tick.
  AllocatedProgram Prog = heavyProgram(8);
  chip::ChipParams CP = stormyParams();
  std::vector<const AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);
  auto Get = [](const std::string &S, size_t At) {
    uint64_t V = 0;
    for (unsigned B = 0; B != 8; ++B)
      V |= uint64_t(uint8_t(S[At + B])) << (8 * B);
    return V;
  };
  auto Put = [](std::string &S, size_t At, uint64_t V) {
    for (unsigned B = 0; B != 8; ++B)
      S[At + B] = static_cast<char>(V >> (8 * B));
  };
  auto Restores = [&](const std::string &Image) {
    chip::Chip C(CP, Progs, sim::Memory{});
    BinReader R(Image);
    C.restoreState(R);
    return !R.failed();
  };
  constexpr char WedgedPhase = 9; // CtxPh::Wedged's byte
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    SCOPED_TRACE(sim::execModeName(Exec));
    CP.Exec = Exec;
    unsigned Wedged = 0;
    for (uint64_t StopAt : {4u, 8u, 12u, 16u, 20u, 24u}) {
      std::string Snap;
      uint64_t SnapTime = 0;
      {
        chip::Chip C(CP, Progs, sim::Memory{});
        C.setRetireHook([&](uint64_t Retired, uint64_t T) {
          if (Retired < StopAt)
            return false;
          BinWriter W;
          C.saveState(W);
          Snap = W.take();
          SnapTime = T;
          return true;
        });
        uint64_t Next = 0;
        C.run(packetSource(Next, 64), [](chip::RetiredPacket &&) {});
        ASSERT_TRUE(C.stopped());
      }
      ASSERT_TRUE(Restores(Snap));
      // A wedged context serializes as its phase byte, the sequence
      // number of a packet of the stream and a time near the snapshot's.
      for (size_t I = 0; I + 17 <= Snap.size(); ++I) {
        uint64_t Seq = Get(Snap, I + 1), When = Get(Snap, I + 9);
        if (Snap[I] != WedgedPhase || Seq >= 64 || When == 0 ||
            When > SnapTime + 4096)
          continue;
        SCOPED_TRACE(::testing::Message() << "stop " << StopAt << " byte "
                                          << I);
        ++Wedged;
        std::string Bad = Snap;
        Put(Bad, I + 9, When - 1);
        EXPECT_TRUE(Restores(Bad)); // an earlier wedge is a reachable state
        Put(Bad, I + 9, SnapTime + (1ull << 32));
        EXPECT_FALSE(Restores(Bad));
      }
    }
    EXPECT_GT(Wedged, 0u);
  }
}
