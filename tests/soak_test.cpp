//===- soak_test.cpp - Trap model and soak harness tests -------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Three layers of coverage:
//
//  1. Trap taxonomy: hand-built allocated programs drive every TrapKind
//     through sim::runAllocated and check the structured Status.
//  2. Shared ALU semantics: the shift clamp (count >= 32 yields 0) is
//     locked across cps::evalPrim, the CPS evaluator, the functional
//     simulator, and the allocated simulator by compiling a Nova program
//     with a runtime shift count and running it through all of them.
//  3. Soak harness: per-app 10k-packet adversarial corpora under a fixed
//     seed must produce zero divergences and exact drop accounting, and
//     an injected ALU bit flip must be caught by the oracle and shrunk
//     to a reproducer that still diverges.
//
// Like apps_test, this compiles the benchmark apps through the ILP
// allocator (cached in-process), so it runs as one ctest entry.
//
//===----------------------------------------------------------------------===//

#include "soak/ChipSoak.h"
#include "soak/Soak.h"

#include "checkpoint/Checkpoint.h"
#include "cps/Eval.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
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

AllocatedProgram oneBlock(std::vector<AllocInstr> Instrs) {
  AllocatedProgram P;
  P.Entry = 0;
  P.Blocks.push_back({std::move(Instrs)});
  return P;
}

/// Compiles a benchmark app once per process (ILP-bound; shared across
/// all soak tests below).
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

} // namespace

//===----------------------------------------------------------------------===//
// Trap taxonomy
//===----------------------------------------------------------------------===//

TEST(TrapModel, IllegalRegisterIndexTraps) {
  // A-bank has 16 registers; reading A20 is a typed trap, not silent
  // index masking.
  AllocatedProgram P =
      oneBlock({haltOf({AOperand::reg({Bank::A, 20})})});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {}, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, sim::TrapKind::IllegalRegister);
  EXPECT_EQ(R.Error.code(), StatusCode::SimTrap);
}

TEST(TrapModel, IllegalMemSpaceTraps) {
  AllocInstr Rd;
  Rd.Op = MOp::MemRead;
  Rd.Space = static_cast<MemSpace>(7);
  Rd.Srcs = {AOperand::constant(0)};
  Rd.Dsts = {{Bank::L, 0}};
  AllocatedProgram P = oneBlock({Rd, haltOf({})});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {}, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, sim::TrapKind::IllegalMemSpace);
}

TEST(TrapModel, OutOfRangePerSpaceTraps) {
  struct Case {
    MemSpace Space;
    sim::TrapKind Want;
  } Cases[] = {
      {MemSpace::Sram, sim::TrapKind::SramOutOfRange},
      {MemSpace::Sdram, sim::TrapKind::SdramOutOfRange},
      {MemSpace::Scratch, sim::TrapKind::ScratchOutOfRange},
  };
  for (const Case &C : Cases) {
    sim::Memory Mem;
    AllocInstr Wr;
    Wr.Op = MOp::MemWrite;
    Wr.Space = C.Space;
    Wr.Srcs = {AOperand::constant(Mem.Limits.words(C.Space)),
               AOperand::reg({Bank::A, 0})};
    AllocatedProgram P = oneBlock({imm(1, {Bank::A, 0}), Wr, haltOf({})});
    sim::RunResult R = sim::runAllocated(P, {}, Mem);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Trap, C.Want);
    // One word below the limit is fine.
    Wr.Srcs[0] = AOperand::constant(Mem.Limits.words(C.Space) - 1);
    AllocatedProgram Q = oneBlock({imm(1, {Bank::A, 0}), Wr, haltOf({})});
    EXPECT_TRUE(sim::runAllocated(Q, {}, Mem).Ok);
  }
}

TEST(TrapModel, MultiWordAccessStraddlingLimitTraps) {
  // A two-word read whose second word crosses the boundary.
  sim::Memory Mem;
  AllocInstr Rd;
  Rd.Op = MOp::MemRead;
  Rd.Space = MemSpace::Sdram;
  Rd.Srcs = {AOperand::constant(Mem.Limits.SdramWords - 1)};
  Rd.Dsts = {{Bank::L, 0}, {Bank::L, 1}};
  AllocatedProgram P = oneBlock({Rd, haltOf({})});
  sim::RunResult R = sim::runAllocated(P, {}, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, sim::TrapKind::SdramOutOfRange);
}

TEST(TrapModel, MalformedJumpTargetTraps) {
  AllocInstr J;
  J.Op = MOp::Jump;
  J.Target = 5; // only block 0 exists
  AllocatedProgram P = oneBlock({J});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {}, Mem);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, sim::TrapKind::MalformedProgram);
}

TEST(TrapModel, ReadsDoNotGrowMemory) {
  // Loads of absent words return 0 without inserting map entries, so a
  // read-heavy hostile packet cannot balloon the image.
  AllocInstr Rd;
  Rd.Op = MOp::MemRead;
  Rd.Space = MemSpace::Sram;
  Rd.Srcs = {AOperand::constant(0x50)};
  Rd.Dsts = {{Bank::L, 0}};
  AllocatedProgram P =
      oneBlock({Rd, haltOf({AOperand::reg({Bank::L, 0})})});
  sim::Memory Mem;
  sim::RunResult R = sim::runAllocated(P, {}, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.HaltValues[0], 0u);
  EXPECT_TRUE(Mem.Sram.empty());
}

//===----------------------------------------------------------------------===//
// Cycle histogram and stream accounting
//===----------------------------------------------------------------------===//

TEST(CycleHistogram, ExactForSmallValuesAndBoundedError) {
  sim::CycleHistogram H;
  H.add(5);
  H.add(5);
  H.add(5);
  H.add(7);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.quantile(0.5), 5u);
  EXPECT_EQ(H.quantile(1.0), 7u);
  // Log-scale buckets: quantile error stays within 12.5% above the
  // exact range.
  for (uint64_t V : {1000ull, 123456ull, 99999999ull}) {
    sim::CycleHistogram H2;
    H2.add(V);
    uint64_t Q = H2.quantile(1.0);
    EXPECT_GE(Q, V);
    EXPECT_LE(Q - V, V / 8);
  }
}

TEST(RunStats, AccountsDeliveredRejectedAndDrops) {
  sim::RunStats S;
  sim::RunResult Ok;
  Ok.Ok = true;
  Ok.Cycles = 100;
  S.account(Ok, /*AppRejected=*/false, /*PayloadBytes=*/64);
  S.account(Ok, /*AppRejected=*/true, 64);
  sim::RunResult Trapped;
  Trapped.Ok = false;
  Trapped.Trap = sim::TrapKind::Watchdog;
  Trapped.Cycles = 50;
  S.account(Trapped, false, 64);
  EXPECT_EQ(S.Packets, 3u);
  EXPECT_EQ(S.Delivered, 1u);
  EXPECT_EQ(S.Rejected, 1u);
  EXPECT_EQ(S.Drops, 1u);
  EXPECT_EQ(S.Traps[static_cast<unsigned>(sim::TrapKind::Watchdog)], 1u);
  EXPECT_EQ(S.TotalCycles, 250u);
  EXPECT_EQ(S.DeliveredPayloadBytes, 64u); // rejected payload not counted
  EXPECT_GT(S.deliveredMbps(), 0.0);
}

//===----------------------------------------------------------------------===//
// Shift semantics locked across all four semantic layers
//===----------------------------------------------------------------------===//

TEST(ShiftSemantics, SharedPrimClampsAtThirtyTwo) {
  EXPECT_EQ(cps::evalPrim(cps::PrimOp::Shl, 0xDEADBEEF, 32), 0u);
  EXPECT_EQ(cps::evalPrim(cps::PrimOp::Shr, 0xDEADBEEF, 33), 0u);
  EXPECT_EQ(cps::evalPrim(cps::PrimOp::Shl, 1, 31), 0x80000000u);
  EXPECT_EQ(cps::evalPrim(cps::PrimOp::Shr, 0x80000000u, 31), 1u);
  EXPECT_TRUE(cps::shiftOutOfRange(cps::PrimOp::Shl, 32));
  EXPECT_FALSE(cps::shiftOutOfRange(cps::PrimOp::Shl, 31));
  EXPECT_FALSE(cps::shiftOutOfRange(cps::PrimOp::Add, 32));
}

TEST(ShiftSemantics, DifferentialAcrossEvaluatorAndBothSimModes) {
  // A runtime shift count defeats constant folding, so every layer
  // actually executes its shift at count 32.
  auto App = driver::compileNova(
      "fun main(x : word, s : word) { (x << s) + (x >> s) }", "shift.nova");
  ASSERT_TRUE(App->Ok) << App->ErrorText;
  for (uint32_t S : {0u, 1u, 31u, 32u, 33u, 63u, 255u}) {
    uint32_t X = 0xDEADBEEF;
    uint32_t Want = cps::evalPrim(cps::PrimOp::Shl, X, S) +
                    cps::evalPrim(cps::PrimOp::Shr, X, S);
    cps::EvalMemory EM;
    cps::EvalResult E = cps::evaluate(App->Cps, {X, S}, EM);
    ASSERT_TRUE(E.Ok) << E.Error;
    ASSERT_EQ(E.HaltValues.size(), 1u);
    EXPECT_EQ(E.HaltValues[0], Want) << "cps, s=" << S;

    sim::Memory MF;
    sim::RunResult F = sim::runFunctional(App->Machine, {X, S}, MF);
    ASSERT_TRUE(F.Ok) << F.Error;
    EXPECT_EQ(F.HaltValues[0], Want) << "functional, s=" << S;

    sim::Memory MA;
    sim::RunResult A = sim::runAllocated(App->Alloc.Prog, {X, S}, MA);
    ASSERT_TRUE(A.Ok) << A.Error;
    EXPECT_EQ(A.HaltValues[0], Want) << "allocated, s=" << S;
  }
}

TEST(ShiftSemantics, StrictModeTrapsOutOfRangeShift) {
  auto App = driver::compileNova(
      "fun main(x : word, s : word) { (x << s) + (x >> s) }", "shift.nova");
  ASSERT_TRUE(App->Ok) << App->ErrorText;
  sim::RunOptions Strict;
  Strict.TrapOnShiftRange = true;
  sim::Memory Mem;
  sim::RunResult R =
      sim::runAllocated(App->Alloc.Prog, {1, 32}, Mem, Strict);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap, sim::TrapKind::ShiftRange);
  // In-range shifts are untouched by strict mode.
  sim::Memory Mem2;
  EXPECT_TRUE(sim::runAllocated(App->Alloc.Prog, {1, 4}, Mem2, Strict).Ok);
}

//===----------------------------------------------------------------------===//
// Soak harness
//===----------------------------------------------------------------------===//

TEST(SoakHarness, PacketGenerationIsDeterministic) {
  soak::AppHarness &H = harness("nat");
  soak::ClassMix Mix;
  for (uint64_t I = 0; I != 50; ++I) {
    soak::SoakPacket A = H.generate(I, 99, Mix);
    soak::SoakPacket B = H.generate(I, 99, Mix);
    EXPECT_EQ(A.Seed, B.Seed);
    EXPECT_EQ(A.Class, B.Class);
    EXPECT_EQ(A.Words, B.Words);
    EXPECT_EQ(A.Args, B.Args);
  }
  // Different stream seeds decorrelate immediately.
  EXPECT_NE(H.generate(0, 99, Mix).Seed, H.generate(0, 100, Mix).Seed);
}

namespace {

uint64_t foldHash(uint64_t H, uint64_t V) {
  H ^= V;
  H *= 0x100000001b3ull;
  return H;
}

uint64_t foldPacket(uint64_t H, const soak::SoakPacket &P) {
  H = foldHash(H, static_cast<uint64_t>(P.Class));
  H = foldHash(H, P.Index);
  H = foldHash(H, P.Seed);
  H = foldHash(H, P.PayloadBytes);
  H = foldHash(H, P.Words.size());
  for (uint32_t W : P.Words)
    H = foldHash(H, W);
  H = foldHash(H, P.Args.size());
  for (uint32_t A : P.Args)
    H = foldHash(H, A);
  return H;
}

void expectSamePacket(const soak::SoakPacket &A, const soak::SoakPacket &B,
                      uint64_t I) {
  EXPECT_EQ(A.Class, B.Class) << "packet " << I;
  EXPECT_EQ(A.Index, B.Index) << "packet " << I;
  EXPECT_EQ(A.Seed, B.Seed) << "packet " << I;
  EXPECT_EQ(A.PayloadBytes, B.PayloadBytes) << "packet " << I;
  EXPECT_EQ(A.Words, B.Words) << "packet " << I;
  EXPECT_EQ(A.Args, B.Args) << "packet " << I;
}

} // namespace

// The template-cache generator must be a pure function of (seed, index):
// reusing one packet and one cache across calls leaves no state behind.
TEST(SoakHarness, BatchedGeneratorMatchesUnbatchedByteForByte) {
  for (const char *Name : {"aes", "kasumi", "nat"}) {
    soak::AppHarness &H = harness(Name);
    soak::ClassMix Mix;
    soak::PacketTemplateCache Cache;
    soak::SoakPacket P;
    for (uint64_t I = 0; I != 512; ++I) {
      H.generateInto(I, 7, Mix, Cache, P);
      expectSamePacket(H.generate(I, 7, Mix), P, I);
    }
  }
}

TEST(SoakHarness, GenerateBatchReusesBuffersAndMatches) {
  soak::AppHarness &H = harness("nat");
  soak::ClassMix Mix;
  soak::PacketTemplateCache Cache;
  std::vector<soak::SoakPacket> Batch;
  // Two chunks into the same vector: the second fully overwrites the
  // first's reused buffers.
  for (uint64_t Base : {0ull, 256ull}) {
    H.generateBatch(Base, 256, 5, Mix, Cache, Batch);
    for (uint64_t I = 0; I != 256; ++I)
      expectSamePacket(H.generate(Base + I, 5, Mix), Batch[I], Base + I);
  }
}

// Golden corpus hashes pinned at the generator rewrite (PR 5 semantics):
// any byte-level drift in the packet streams — class draws, payload
// words, argument blocks — moves one of these folds.
TEST(SoakHarness, GeneratorCorpusHashesArePinned) {
  struct Golden {
    const char *App;
    uint64_t Seed;
    uint64_t Hash;
  };
  const Golden Pins[] = {
      {"aes", 1, 0xce8d1fee0abec8feull},    {"aes", 42, 0xc9c667ba12c16049ull},
      {"kasumi", 1, 0x235782d5c97c5ea2ull}, {"kasumi", 42, 0x0177faf1ee253113ull},
      {"nat", 1, 0x0fd9f6928cdb493eull},    {"nat", 42, 0x0a7f54fb07a0134dull},
  };
  soak::ClassMix Mix;
  for (const Golden &G : Pins) {
    soak::AppHarness &H = harness(G.App);
    soak::PacketTemplateCache Cache;
    soak::SoakPacket P;
    uint64_t Acc = 0xcbf29ce484222325ull;
    for (uint64_t I = 0; I != 4096; ++I) {
      H.generateInto(I, G.Seed, Mix, Cache, P);
      Acc = foldPacket(Acc, P);
    }
    EXPECT_EQ(Acc, G.Hash) << G.App << " seed " << G.Seed;
  }
}

TEST(SoakHarness, AppRejectDetection) {
  soak::AppHarness &Nat = harness("nat");
  EXPECT_TRUE(Nat.isAppReject({0xFFFF0003u}));
  EXPECT_TRUE(Nat.isAppReject({0xFFFFFFFEu}));
  EXPECT_FALSE(Nat.isAppReject({0x123u}));
  EXPECT_FALSE(Nat.isAppReject({}));
  soak::AppHarness &Kas = harness("kasumi");
  EXPECT_TRUE(Kas.isAppReject({0xFFFFFFFFu}));
  EXPECT_TRUE(Kas.isAppReject({0xFFFFFFFEu}));
  // Kasumi's normal result ranges over the whole word; a high half of
  // 0xFFFF alone is not a reject.
  EXPECT_FALSE(Kas.isAppReject({0xFFFF1234u}));
}

namespace {

/// The ISSUE's corpus contract: zero divergences and exact accounting
/// under a fixed seed.
void checkCorpus(const std::string &App) {
  soak::SoakOptions Opts;
  Opts.Packets = 10'000;
  Opts.Seed = 0xC0FFEE;
  soak::SoakReport R = soak::runSoak(harness(App), Opts);
  EXPECT_EQ(R.Divergences, 0u) << App << ": " << R.First.What;
  EXPECT_EQ(R.Stats.Packets, 10'000u);
  // Every packet is accounted exactly once.
  EXPECT_EQ(R.Stats.Delivered + R.Stats.Rejected + R.Stats.Drops,
            R.Stats.Packets);
  uint64_t TrapSum = 0, ClassSum = 0;
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    TrapSum += R.Stats.Traps[K];
  EXPECT_EQ(TrapSum, R.Stats.Drops) << App;
  for (unsigned C = 0; C != soak::NumPacketClasses; ++C)
    ClassSum += R.ClassCounts[C];
  EXPECT_EQ(ClassSum, R.Stats.Packets);
  EXPECT_EQ(R.OracleChecks, 10'000u);
  // The adversarial mix must actually exercise the drop path.
  EXPECT_GT(R.Stats.Drops, 0u) << App;
  EXPECT_GT(R.Stats.Rejected, 0u) << App;
  EXPECT_GT(R.Stats.Delivered, 0u) << App;
}

} // namespace

TEST(SoakCorpus, AesTenThousandPacketsZeroDivergence) {
  checkCorpus("aes");
}
TEST(SoakCorpus, KasumiTenThousandPacketsZeroDivergence) {
  checkCorpus("kasumi");
}
TEST(SoakCorpus, NatTenThousandPacketsZeroDivergence) {
  checkCorpus("nat");
}

TEST(SoakCorpus, AccountingIsReproducible) {
  soak::SoakOptions Opts;
  Opts.Packets = 2'000;
  Opts.Seed = 7;
  soak::SoakReport A = soak::runSoak(harness("kasumi"), Opts);
  soak::SoakReport B = soak::runSoak(harness("kasumi"), Opts);
  EXPECT_EQ(A.Stats.Delivered, B.Stats.Delivered);
  EXPECT_EQ(A.Stats.Rejected, B.Stats.Rejected);
  EXPECT_EQ(A.Stats.Drops, B.Stats.Drops);
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    EXPECT_EQ(A.Stats.Traps[K], B.Stats.Traps[K]);
  EXPECT_EQ(A.Stats.TotalCycles, B.Stats.TotalCycles);
}

TEST(SoakOracle, WatchdogPacketOutcomeIsPinned) {
  // Packet 5 of NAT's seed-7 stream runs the allocated code into the
  // watchdog. A watchdog drop is not compared against the oracles (their
  // budgets differ by design), so its outcome is the allocated run alone,
  // whether or not the oracle is on.
  soak::AppHarness &Nat = harness("nat");
  soak::SoakOptions Opts;
  Opts.Seed = 7;
  soak::PacketTemplateCache Tmpl;
  soak::SoakPacket P;
  Nat.generateInto(5, Opts.Seed, Opts.Mix, Tmpl, P);
  soak::PacketOutcome O = soak::runPacket(Nat, P, Opts, /*WithOracle=*/true);
  EXPECT_FALSE(O.Alloc.Ok);
  EXPECT_EQ(O.Alloc.Trap, sim::TrapKind::Watchdog);
  EXPECT_EQ(O.Alloc.Error.message(),
            "watchdog: instruction budget of 50000 exhausted");
  EXPECT_EQ(O.Alloc.Instructions, 50'001u);
  EXPECT_EQ(O.Alloc.Cycles, 238'096u);
  EXPECT_TRUE(O.Alloc.HaltValues.empty());
  EXPECT_EQ(O.AllocMem.Sdram.size(), 5'888u);
  EXPECT_FALSE(O.AppReject);
  EXPECT_FALSE(O.Diverged);
  EXPECT_FALSE(O.OracleBudgetMiss);
  EXPECT_EQ(O.What, "");

  soak::PacketOutcome Bare =
      soak::runPacket(Nat, P, Opts, /*WithOracle=*/false);
  EXPECT_EQ(Bare.Alloc.Instructions, O.Alloc.Instructions);
  EXPECT_EQ(Bare.Alloc.Cycles, O.Alloc.Cycles);
  EXPECT_TRUE(Bare.AllocMem.Sdram == O.AllocMem.Sdram);
  EXPECT_FALSE(Bare.Diverged);
  EXPECT_FALSE(Bare.OracleBudgetMiss);
}

TEST(SoakOracle, InjectedBitFlipIsCaughtAndShrunk) {
  // An ALU bit flip in allocated mode only: the differential oracle must
  // flag it, and the shrinker must hand back a reproducer that still
  // diverges stand-alone.
  FaultSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseFaultSpec("sim-bitflip@40", FaultDomain::Sim, Spec, Error))
      << Error;
  ScopedFaultInjection Armed({Spec});

  soak::SoakOptions Opts;
  Opts.Packets = 50;
  Opts.Seed = 3;
  Opts.FailFast = true;
  soak::AppHarness &H = harness("nat");
  soak::SoakReport R = soak::runSoak(H, Opts);
  ASSERT_GE(R.Divergences, 1u);
  ASSERT_TRUE(R.First.Found);
  EXPECT_FALSE(R.First.What.empty());
  EXPECT_LE(R.First.ShrunkWords.size(), R.First.Words.size());

  // The shrunk packet reproduces the divergence on its own.
  soak::SoakPacket Q;
  Q.Words = R.First.ShrunkWords;
  Q.Args = R.First.Args;
  EXPECT_TRUE(soak::runPacket(H, Q, Opts, /*WithOracle=*/true).Diverged);
}

TEST(SoakOracle, MemJitterNeverDiverges) {
  // Latency jitter perturbs cycle counts, never values: zero
  // divergences by construction.
  FaultSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseFaultSpec("mem-jitter~16", FaultDomain::Sim, Spec, Error))
      << Error;
  ScopedFaultInjection Armed({Spec});
  soak::SoakOptions Opts;
  Opts.Packets = 500;
  Opts.Seed = 11;
  soak::SoakReport R = soak::runSoak(harness("kasumi"), Opts);
  EXPECT_EQ(R.Divergences, 0u) << R.First.What;
}

//===----------------------------------------------------------------------===//
// Chip-mode soak: the whole-chip pipeline under adversarial traffic
//===----------------------------------------------------------------------===//

TEST(ChipSoak, NatTwoThousandPacketsZeroDivergence) {
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 2'000;
  Opts.Base.Seed = 0xC0FFEE;
  Opts.Chip.MP.MeCount = 2;
  soak::ChipSoakReport R = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(R.Setup.ok()) << R.Setup.message();
  EXPECT_EQ(R.Base.Divergences, 0u) << R.Base.First.What;
  EXPECT_EQ(R.ChipOutcomeMismatches, 0u);
  EXPECT_FALSE(R.Chip.Deadlock);
  EXPECT_EQ(R.Base.Stats.Packets, 2'000u);
  EXPECT_EQ(R.Chip.PacketsRetired, 2'000u);
  // Every packet is accounted exactly once and every drop is typed.
  EXPECT_EQ(R.Base.Stats.Delivered + R.Base.Stats.Rejected +
                R.Base.Stats.Drops,
            R.Base.Stats.Packets);
  uint64_t TrapSum = 0;
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    TrapSum += R.Base.Stats.Traps[K];
  EXPECT_EQ(TrapSum, R.Base.Stats.Drops);
  // The adversarial stream exercised both engines and the shared
  // channels.
  EXPECT_GT(R.Base.Stats.Drops, 0u);
  EXPECT_GT(R.Chip.totalStallCycles(), 0u);
  EXPECT_GT(R.Chip.CtxPackets[0][0], 0u);
  EXPECT_GT(R.Chip.CtxPackets[1][0], 0u);
  EXPECT_GT(R.GoodputMbps, 0.0);
}

TEST(ChipSoak, AccountingAndTracesAreReproducible) {
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 800;
  Opts.Base.Seed = 7;
  Opts.Base.OracleEvery = 0; // determinism of the chip itself
  Opts.Chip.MP.MeCount = 3;
  soak::ChipSoakReport A = soak::runChipSoak(harness("nat"), Opts);
  soak::ChipSoakReport B = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(A.Setup.ok());
  EXPECT_EQ(A.Chip.TraceHash, B.Chip.TraceHash);
  EXPECT_EQ(A.ImageHash, B.ImageHash);
  EXPECT_EQ(A.Chip.FinalCycles, B.Chip.FinalCycles);
  EXPECT_EQ(A.Chip.MeBusyCycles, B.Chip.MeBusyCycles);
  EXPECT_EQ(A.Base.Stats.Delivered, B.Base.Stats.Delivered);
  EXPECT_EQ(A.Base.Stats.Drops, B.Base.Stats.Drops);
  for (unsigned K = 0; K != sim::NumTrapKinds; ++K)
    EXPECT_EQ(A.Base.Stats.Traps[K], B.Base.Stats.Traps[K]);
  EXPECT_EQ(A.GoodputMbps, B.GoodputMbps);
}

TEST(ChipSoak, SetupErrorsAreReportedNotFatal) {
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 10;
  Opts.Chip.MP.MeCount = 0;
  soak::ChipSoakReport R = soak::runChipSoak(harness("nat"), Opts);
  EXPECT_FALSE(R.Setup.ok());
  EXPECT_EQ(R.Base.Stats.Packets, 0u);
  // The JSON path stays usable for the CLI's error reporting.
  std::string J = soak::chipReportJson(R);
  EXPECT_NE(J.find("chip_setup_error"), std::string::npos);
}

TEST(ChipSoak, JsonHasStableChipKeys) {
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 150;
  Opts.Base.Seed = 5;
  Opts.Chip.MP.MeCount = 2;
  soak::ChipSoakReport R = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(R.Setup.ok());
  std::string J = soak::chipReportJson(R);
  for (const char *Key :
       {"\"chip\":{", "\"me_count\":2", "\"contexts\":4",
        "\"final_cycles\"", "\"goodput_mbps\"", "\"me_utilization\"",
        "\"input_ring_high_water\"", "\"stall_cycles\"", "\"trace_hash\"",
        "\"image_hash\"", "\"deadlock\":false"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " in " << J;
  // The kernel's host-work counters: a stable report zeroes them and
  // leaves queue_pushes out; every other report carries it.
  std::string Pushes =
      "\"queue_pushes\":" + std::to_string(R.Chip.QueuePushes) + ",";
  EXPECT_GT(R.Chip.QueuePushes, 0u);
  EXPECT_NE(J.find(Pushes), std::string::npos) << J;
  soak::stabilize(R);
  J = soak::chipReportJson(R);
  EXPECT_EQ(J.find("queue_pushes"), std::string::npos) << J;
  EXPECT_NE(J.find("\"noop_me_runs\":0,"), std::string::npos) << J;
}

TEST(ChipSoak, FaultScheduleRecoversWithZeroDivergences) {
  // Real app, real adversarial stream, chip faults armed: the
  // supervisor must recover or typed-drop every faulted packet, the
  // sampled oracle must stay silent (typed drops are excluded from it),
  // and the whole run must replay bit-identically — including the
  // recovery ledger — in both execution models.
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 2'000;
  Opts.Base.Seed = 42;
  Opts.Chip.MP.MeCount = 2;
  std::string Error;
  ASSERT_TRUE(parseFaultSchedule("ctx-lockup@150,chan-brownout@400~4",
                                 Opts.Chip.Faults, Error))
      << Error;
  soak::ChipSoakReport A = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(A.Setup.ok()) << A.Setup.message();
  EXPECT_EQ(A.Base.Divergences, 0u) << A.Base.First.What;
  EXPECT_EQ(A.ChipOutcomeMismatches, 0u);
  EXPECT_FALSE(A.Chip.Deadlock);
  EXPECT_EQ(A.Chip.PacketsRetired, 2'000u);
  const chip::RecoveryStats &RS = A.Chip.Recovery;
  EXPECT_GT(RS.LockupsInjected, 0u);
  EXPECT_GT(RS.PacketsRecovered + RS.LockupDrops, 0u);
  EXPECT_GT(RS.BrownoutsInjected, 0u);
  EXPECT_TRUE(RS.allAccounted());

  soak::ChipSoakReport B = soak::runChipSoak(harness("nat"), Opts);
  EXPECT_EQ(A.Chip.TraceHash, B.Chip.TraceHash);
  EXPECT_EQ(A.ImageHash, B.ImageHash);
  EXPECT_EQ(A.Chip.Recovery.fold(), B.Chip.Recovery.fold());

  // Same schedule, translated fast path: identical schedule and ledger.
  Opts.Base.Exec = sim::ExecMode::Threaded;
  Opts.Base.OracleEvery = 10;
  soak::ChipSoakReport T = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(T.Setup.ok()) << T.Setup.message();
  EXPECT_EQ(T.Base.Divergences, 0u) << T.Base.First.What;
  EXPECT_EQ(T.Chip.TraceHash, A.Chip.TraceHash);
  EXPECT_EQ(T.Chip.FinalCycles, A.Chip.FinalCycles);
  EXPECT_EQ(T.Chip.Recovery.fold(), A.Chip.Recovery.fold());
}

TEST(ChipSoak, SdramBitFlipIsCaughtAndShrunk) {
  // The one chip fault the supervisor cannot see: post-DMA corruption.
  // The sampled retire-time oracle must flag it as a divergence, and
  // the ddmin shrinker must produce a still-diverging witness by
  // replaying the flip against the shrunk packet.
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 400;
  Opts.Base.Seed = 42;
  Opts.Base.OracleEvery = 1; // sample every retirement: no escapes
  Opts.Chip.MP.MeCount = 2;
  std::string Error;
  // Rate 10 => 40 flips; only flips landing on outcome-affecting words
  // diverge (NAT ignores parts of its payload), so density matters.
  ASSERT_TRUE(
      parseFaultSchedule("sdram-bitflip@10", Opts.Chip.Faults, Error))
      << Error;
  soak::ChipSoakReport R = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(R.Setup.ok()) << R.Setup.message();
  EXPECT_GT(R.Chip.Recovery.SdramBitFlipsInjected, 0u);
  EXPECT_GT(R.Base.Divergences, 0u)
      << "oracle missed every injected corruption";
  // The shrunk witness still diverges and is no larger than the
  // original packet.
  EXPECT_FALSE(R.Base.First.What.empty());
  EXPECT_GT(R.Base.First.ShrinkRuns, 0u);
  // Detection is the oracle's job alone; the supervisor ledger shows
  // the injections and nothing else.
  EXPECT_EQ(R.Chip.Recovery.LockupsDetected, 0u);
  EXPECT_TRUE(R.Chip.Recovery.allAccounted());
}

TEST(ChipSoak, JsonCarriesRecoveryLedger) {
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 300;
  Opts.Base.Seed = 9;
  Opts.Chip.MP.MeCount = 2;
  std::string Error;
  ASSERT_TRUE(
      parseFaultSchedule("ctx-lockup@50,dma-drop@70", Opts.Chip.Faults,
                         Error))
      << Error;
  soak::ChipSoakReport R = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(R.Setup.ok()) << R.Setup.message();
  std::string J = soak::chipReportJson(R);
  for (const char *Key :
       {"\"recovery\":{", "\"lockups_injected\"", "\"lockups_detected\"",
        "\"ctx_resets\"", "\"packet_requeues\"", "\"packets_recovered\"",
        "\"lockup_drops\"", "\"backpressure_drops\"",
        "\"dma_fault_packets\"", "\"dma_recovered_packets\"",
        "\"sdram_bitflips_injected\"", "\"recovery_fold\"",
        "\"all_accounted\":true"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " in " << J;
}

namespace {

/// The newest snapshot a checkpointed run left in \p Dir.
ckpt::LoadedCheckpoint newestSnapshot(const std::string &Dir) {
  ckpt::LoadedCheckpoint Newest;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    ckpt::LoadedCheckpoint LC;
    if (ckpt::readCheckpoint(E.path().string(), LC).ok() &&
        (Newest.Path.empty() ||
         LC.Meta.PacketsRetired > Newest.Meta.PacketsRetired))
      Newest = std::move(LC);
  }
  return Newest;
}

} // namespace

// A resume that fails commits nothing: the caller's report keeps its
// counters and the generator cursor keeps its value. First the run is a
// different one (a threaded chip snapshot resumed as interp); then the
// snapshot matches but its state section does not parse past the
// progress section (the chip state fails to restore).
TEST(ChipSoak, FailedResumeLeavesReportAndCursorUntouched) {
  char Tmpl[] = "/tmp/nova-soak-test-XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  const std::string Dir = Tmpl;
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 600;
  Opts.Base.Seed = 42;
  Opts.Base.OracleEvery = 0;
  Opts.Base.Exec = sim::ExecMode::Threaded;
  Opts.Base.Ckpt.Every = 200;
  Opts.Base.Ckpt.Dir = Dir;
  soak::ChipSoakReport Ran = soak::runChipSoak(harness("nat"), Opts);
  ASSERT_TRUE(Ran.Setup.ok()) << Ran.Setup.message();
  ASSERT_FALSE(Ran.Base.Stopped);
  ckpt::LoadedCheckpoint LC = newestSnapshot(Dir);
  ASSERT_FALSE(LC.Path.empty());
  ASSERT_GT(LC.Meta.PacketsRetired, 0u);

  Opts.Base.Exec = sim::ExecMode::Interp;
  Opts.Base.Ckpt.Resume = true;
  soak::ChipSoakReport Resumed = soak::runChipSoak(harness("nat"), Opts);
  EXPECT_EQ(Resumed.Base.CkptError.code(), StatusCode::CheckpointMismatch)
      << Resumed.Base.CkptError.message();
  EXPECT_EQ(Resumed.Base.Stats.Packets, 0u);
  EXPECT_EQ(Resumed.ChipOutcomeMismatches, 0u);

  soak::CheckpointOptions CK;
  CK.Dir = Dir;
  CK.Resume = true;
  Timer Clock;
  bool ExtraRan = false;
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    SCOPED_TRACE(sim::execModeName(Exec));
    ckpt::CheckpointMeta Meta = LC.Meta;
    Meta.Exec = static_cast<uint8_t>(Exec);
    soak::SoakReport Rep;
    soak::CkptDriver CD(CK, Meta, Rep, Clock, nullptr, [&](BinReader &R) {
      uint64_t Mismatches = 0;
      io(R, Mismatches);
      ExtraRan = true;
      R.check(false); // a chip state that does not restore
    });
    uint64_t Cursor = 12345;
    EXPECT_FALSE(CD.resume(Cursor));
    EXPECT_EQ(Rep.CkptError.code(), Exec == sim::ExecMode::Interp
                                        ? StatusCode::CheckpointMismatch
                                        : StatusCode::CheckpointCorrupt)
        << Rep.CkptError.message();
    EXPECT_EQ(Rep.Stats.Packets, 0u);
    EXPECT_EQ(Rep.OracleChecks, 0u);
    EXPECT_TRUE(Rep.ResumedFrom.empty());
    EXPECT_EQ(Cursor, 12345u);
  }
  EXPECT_TRUE(ExtraRan); // the threaded resume got past the progress
  std::filesystem::remove_all(Dir);
}

TEST(SoakReport, JsonHasStableKeys) {
  soak::SoakOptions Opts;
  Opts.Packets = 100;
  Opts.Seed = 5;
  soak::SoakReport R = soak::runSoak(harness("kasumi"), Opts);
  std::string J = soak::reportJson(R);
  for (const char *Key :
       {"\"app\":\"kasumi\"", "\"packets\":100", "\"classes\"",
        "\"traps\"", "\"p50_cycles\"", "\"p99_cycles\"",
        "\"delivered_mbps\"", "\"exec_mode\":\"interp\"",
        "\"oracle_rate\":1", "\"translate_seconds\"",
        "\"divergences\":0", "\"first_divergence\":null"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " in " << J;
}

//===----------------------------------------------------------------------===//
// Whole-report pins: the stabilized JSON of one run per stream shape
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a-64 over the bytes of \p S.
uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Runs a standalone nat soak and returns its stabilized report.
std::string stableNatReport(const soak::SoakOptions &Opts) {
  soak::SoakReport R = soak::runSoak(harness("nat"), Opts);
  EXPECT_FALSE(R.Stopped);
  soak::stabilize(R);
  return soak::reportJson(R);
}

soak::SoakOptions bitFlipOptions(sim::ExecMode Exec) {
  soak::SoakOptions Opts;
  Opts.Packets = 60;
  Opts.Seed = 3;
  Opts.Exec = Exec;
  Opts.OracleEvery = Exec == sim::ExecMode::Threaded ? 10 : 1;
  return Opts;
}

/// A 6-ME nat chip under a lockup + brownout schedule; its stabilized
/// report.
std::string stableChipReport(sim::ExecMode Exec) {
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 1'500;
  Opts.Base.Seed = 42;
  Opts.Base.OracleEvery = 10;
  Opts.Base.Exec = Exec;
  Opts.Chip.MP.MeCount = 6;
  std::string Error;
  EXPECT_TRUE(parseFaultSchedule("ctx-lockup@500,chan-brownout@1000~4",
                                 Opts.Chip.Faults, Error))
      << Error;
  soak::ChipSoakReport R = soak::runChipSoak(harness("nat"), Opts);
  EXPECT_TRUE(R.Setup.ok()) << R.Setup.message();
  EXPECT_GT(R.Chip.Recovery.LockupsInjected, 0u);
  EXPECT_GT(R.Chip.Recovery.BrownoutsInjected, 0u);
  soak::stabilize(R);
  return soak::chipReportJson(R);
}

} // namespace

TEST(SoakReportPin, NatInterpEveryPacket) {
  soak::SoakOptions Opts;
  Opts.Packets = 400;
  Opts.Seed = 42;
  std::string J = stableNatReport(Opts);
  EXPECT_EQ(fnv1a64(J), 0x1ca3e555242ee4ecull) << J;
}

TEST(SoakReportPin, NatThreadedOracleRateTen) {
  soak::SoakOptions Opts;
  Opts.Packets = 2'000;
  Opts.Seed = 42;
  Opts.Exec = sim::ExecMode::Threaded;
  Opts.OracleEvery = 10;
  std::string J = stableNatReport(Opts);
  EXPECT_EQ(fnv1a64(J), 0xbc622b99a8a6329aull) << J;
}

TEST(SoakReportPin, BitFlipDivergenceInterp) {
  FaultSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseFaultSpec("sim-bitflip@40", FaultDomain::Sim, Spec, Error))
      << Error;
  ScopedFaultInjection Armed({Spec});
  std::string J = stableNatReport(bitFlipOptions(sim::ExecMode::Interp));
  EXPECT_NE(J.find("\"shrunk_words\":["), std::string::npos) << J;
  EXPECT_EQ(fnv1a64(J), 0x4075e50969ee102cull) << J;
}

TEST(SoakReportPin, BitFlipDivergenceThreaded) {
  FaultSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseFaultSpec("sim-bitflip@40", FaultDomain::Sim, Spec, Error))
      << Error;
  ScopedFaultInjection Armed({Spec});
  std::string J =
      stableNatReport(bitFlipOptions(sim::ExecMode::Threaded));
  EXPECT_NE(J.find("\"shrunk_words\":["), std::string::npos) << J;
  EXPECT_EQ(fnv1a64(J), 0x11621b683ba02746ull) << J;
}

TEST(SoakReportPin, ChipFaultScheduleInterp) {
  std::string J = stableChipReport(sim::ExecMode::Interp);
  EXPECT_EQ(fnv1a64(J), 0xcfe899ac60ff284cull) << J;
}

TEST(SoakReportPin, ChipFaultScheduleThreaded) {
  std::string J = stableChipReport(sim::ExecMode::Threaded);
  EXPECT_EQ(fnv1a64(J), 0xe1ff39cb1fd4f337ull) << J;
}
