//===- ChipSoak.cpp - Whole-chip soak runner and reporting ----------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "soak/ChipSoak.h"

#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cassert>
#include <csignal>

using namespace nova;
using namespace nova::soak;

ChipSoakReport soak::runChipSoak(const AppHarness &App,
                                 const ChipSoakOptions &Opts) {
  ChipSoakReport Rep;
  Rep.Base.App = App.name();
  Rep.Base.Seed = Opts.Base.Seed;
  Rep.Base.OracleEvery = Opts.Base.OracleEvery;
  Rep.Base.Exec = Opts.Chip.Exec == chip::ExecModel::Threaded
                      ? ExecMode::Threaded
                      : ExecMode::Interp;

  chip::ChipParams CP = Opts.Chip;
  // One watchdog for chip and oracle: the standalone re-run is then
  // instruction-identical, so even watchdog traps must agree.
  CP.Budget = Opts.Base.Budget;
  Rep.Params = CP;
  Rep.Setup = chip::validateChipSetup(CP, App.compiled().Alloc.Prog,
                                      App.baseSim().Limits);
  if (!Rep.Setup.ok())
    return Rep;

  SoakOptions SO = Opts.Base;
  SO.Lat = CP.latency();

  Timer Clock;
  std::vector<const alloc::AllocatedProgram *> Progs(
      CP.MP.MeCount, &App.compiled().Alloc.Prog);
  chip::Chip C(CP, Progs, App.baseSim());
  // Chip construction covers the one-time program translation in
  // threaded mode; report it like the standalone soak does.
  if (CP.Exec == chip::ExecModel::Threaded)
    Rep.Base.TranslateSeconds = Clock.seconds();

  // Checkpoint identity: the standalone meta plus the chip topology and
  // armed fault schedule, all of which change the event interleaving.
  const CheckpointOptions &CK = SO.Ckpt;
  ckpt::CheckpointMeta Meta = checkpointMeta(App, SO);
  Meta.Chip = true;
  Meta.MeCount = CP.MP.MeCount;
  Meta.ContextsPerMe = CP.MP.ContextsPerMe;
  Meta.RingDepth = CP.RingDepth;
  Meta.SlotStride = CP.SlotStride;
  Meta.Faults = CP.Faults;

  uint64_t Next = 0;
  const uint32_t PtrMask = App.pointerArgMask();
  PacketTemplateCache Tmpl;
  SoakPacket P; // reused staging packet; the chip gets moved-out buffers
  chip::Chip::Source Src = [&](chip::ChipPacket &Out) {
    if (Next == SO.Packets)
      return false;
    App.generateInto(Next, SO.Seed, SO.Mix, Tmpl, P);
    ++Rep.Base.ClassCounts[static_cast<unsigned>(P.Class)];
    Out = chip::ChipPacket();
    Out.Seq = Next++;
    Out.Words = std::move(P.Words);
    Out.Args = std::move(P.Args);
    Out.PtrArgMask = PtrMask;
    Out.PayloadBytes = P.PayloadBytes;
    Out.ClassTag = static_cast<uint8_t>(P.Class);
    Out.SeedTag = P.Seed;
    return true;
  };

  // Recovery-aware oracle policy: packets the fault model killed (typed
  // Lockup/Backpressure/DmaDrop retirements) never executed to
  // completion, so a standalone re-run cannot be compared against them.
  // The supervisor's own plan tells us which sampled packets carry a
  // deliberate sdram-bitflip: those are the negative control — the
  // cross-check MUST diverge, and the shrinker replays the flip.
  chip::Supervisor Plan(CP.Faults, CP.Sup);

  SoakPacket Q; // reused oracle-rerun packet across retirements
  chip::Chip::RetireFn Retire = [&](chip::RetiredPacket &&RP) {
    bool Reject = RP.Result.Ok && App.isAppReject(RP.Result.HaltValues);
    // The histogram gets residence time (dispatch -> in-order retire);
    // instruction counts stay the run's own.
    sim::RunResult Acct = RP.Result;
    Acct.Cycles = RP.RetireTime - RP.DispatchTime;
    Rep.Base.Stats.account(Acct, Reject, RP.Pkt.PayloadBytes);

    if (RP.Drop != chip::DropReason::None)
      return; // typed recovery drop: there is no execution to oracle

    bool WithOracle =
        SO.OracleEvery != 0 && RP.Pkt.Seq % SO.OracleEvery == 0;
    if (!WithOracle)
      return;
    ++Rep.Base.OracleChecks;

    // Standalone re-run of the exact rebased packet on fresh base
    // memory: three-way differential oracle plus the chip cross-check.
    Q.Class = static_cast<PacketClass>(RP.Pkt.ClassTag);
    Q.Index = RP.Pkt.Seq;
    // The per-packet seed rides along in the ChipPacket record, so the
    // reproducer needs no regeneration here.
    Q.Seed = RP.Pkt.SeedTag;
    Q.Words = std::move(RP.Pkt.Words);
    Q.Args = RP.RebasedArgs;
    Q.PayloadBytes = RP.Pkt.PayloadBytes;
    PacketOutcome O = runPacket(App, Q, SO, /*WithOracle=*/true);
    if (O.OracleBudgetMiss)
      ++Rep.Base.OracleBudgetMisses;

    std::string What;
    bool Mismatch = false;
    if (O.Diverged) {
      What = O.What;
    } else if (O.Alloc.Ok != RP.Result.Ok ||
               O.Alloc.Trap != RP.Result.Trap) {
      Mismatch = true;
      What = formatf(
          "chip outcome differs from standalone: chip %s(%s), "
          "standalone %s(%s)",
          RP.Result.Ok ? "ok" : "trap", sim::trapKindName(RP.Result.Trap),
          O.Alloc.Ok ? "ok" : "trap", sim::trapKindName(O.Alloc.Trap));
    } else if (O.Alloc.Ok && O.Alloc.HaltValues != RP.Result.HaltValues) {
      Mismatch = true;
      What = "chip halt values differ from standalone allocated run";
    }
    if (What.empty())
      return;

    ++Rep.Base.Divergences;
    if (Mismatch)
      ++Rep.ChipOutcomeMismatches;
    if (!Rep.Base.First.Found) {
      Rep.Base.First.Found = true;
      Rep.Base.First.Index = Q.Index;
      Rep.Base.First.Seed = Q.Seed;
      Rep.Base.First.Class = Q.Class;
      Rep.Base.First.What = What;
      Rep.Base.First.Words = Q.Words;
      Rep.Base.First.Args = Q.Args;
      if (O.Diverged && SO.Shrink) {
        // Shrinking targets the standalone differential.
        Rep.Base.First.ShrunkWords =
            shrinkDivergence(App, Q, SO, Rep.Base.First.ShrinkRuns);
      } else if (Mismatch && SO.Shrink &&
                 Plan.planPacket(RP.Pkt.Seq).SdramFlip) {
        // A chip-vs-standalone mismatch on a packet the fault schedule
        // deliberately corrupted: delta-debug the packet against a
        // predicate that replays the flip (flipped run vs clean run),
        // so the reproducer isolates the corruption-sensitive words.
        uint64_t Seq = RP.Pkt.Seq;
        SoakPacket Flip; // reused candidate staging
        auto FlipDiverges = [&](const SoakPacket &Cand) {
          if (Cand.Words.empty())
            return false;
          Flip = Cand;
          uint32_t NumWords = static_cast<uint32_t>(Flip.Words.size());
          uint32_t W = chip::Supervisor::flipWordIndex(Seq, NumWords);
          uint32_t B = chip::Supervisor::flipBit(Seq);
          Flip.Words[W] ^= 1u << B;
          PacketOutcome OF = runPacket(App, Flip, SO, /*WithOracle=*/false);
          PacketOutcome OC = runPacket(App, Cand, SO, /*WithOracle=*/false);
          return OF.Alloc.Ok != OC.Alloc.Ok ||
                 OF.Alloc.Trap != OC.Alloc.Trap ||
                 (OF.Alloc.Ok && OF.Alloc.HaltValues != OC.Alloc.HaltValues);
        };
        Rep.Base.First.ShrunkWords = shrinkDivergenceWith(
            Q, Rep.Base.First.ShrinkRuns, FlipDiverges);
      } else {
        // A pure chip mismatch with no known injected corruption keeps
        // the packet as-is.
        Rep.Base.First.ShrunkWords = Q.Words;
      }
    }
  };

  // Resume: restore the report fold, the ChipOutcomeMismatches counter,
  // the dispatch cursor, and the complete chip state into the freshly
  // constructed (identical-topology) chip.
  uint64_t StartRetired = 0;
  if (CK.Resume) {
    ckpt::LoadedCheckpoint LC;
    std::vector<std::string> Notes;
    Status S = ckpt::findLatestValid(CK.Dir, Meta, LC, &Notes);
    for (const std::string &N : Notes)
      std::fprintf(stderr, "novasoak: warning: skipping checkpoint: %s\n",
                   N.c_str());
    if (!S.ok()) {
      Rep.Base.CkptError = S;
      return Rep;
    }
    BinReader R = LC.stateReader();
    restoreSoakProgress(R, Rep.Base, Next);
    io(R, Rep.ChipOutcomeMismatches);
    C.restoreState(R);
    if (R.failed() || R.remaining() != 0) {
      Rep.Base.CkptError = Status::error(
          StatusCode::CheckpointCorrupt, Phase::Driver,
          "checkpoint " + LC.Path + ": state section malformed");
      return Rep;
    }
    Rep.Base.ResumedFrom = LC.Path;
    StartRetired = LC.Meta.PacketsRetired;
    std::fprintf(stderr, "novasoak: resumed %s from %s (%llu retired)\n",
                 Rep.Base.App.c_str(), LC.Path.c_str(),
                 (unsigned long long)StartRetired);
  }

  uint64_t NextCkpt = CK.Every ? (StartRetired / CK.Every + 1) * CK.Every : 0;
  uint64_t NextProg =
      CK.ProgressEvery
          ? (StartRetired / CK.ProgressEvery + 1) * CK.ProgressEvery
          : 0;
  uint64_t LastCkpt = StartRetired;
  if (CK.Every || CK.ProgressEvery || CK.KillAfter || CK.StopAfter)
    C.setRetireHook([&](uint64_t Retired, uint64_t) {
      if (NextCkpt && Retired >= NextCkpt) {
        // The hook fires between events with the chip quiescent, so the
        // dispatch cursor, report fold, and chip image are coherent.
        BinWriter W;
        saveSoakProgress(W, Rep.Base, Next);
        io(W, Rep.ChipOutcomeMismatches);
        C.saveState(W);
        Meta.PacketsRetired = Retired;
        if (Status S = ckpt::writeCheckpoint(CK.Dir, Meta, W.bytes());
            !S.ok())
          std::fprintf(stderr,
                       "novasoak: warning: checkpoint failed: %s\n",
                       S.message().c_str());
        else
          LastCkpt = Retired;
        NextCkpt = (Retired / CK.Every + 1) * CK.Every;
      }
      if (NextProg && Retired >= NextProg) {
        progressHeartbeat(Rep.Base.App, Retired, Clock.seconds(), LastCkpt);
        NextProg = (Retired / CK.ProgressEvery + 1) * CK.ProgressEvery;
      }
      if (CK.KillAfter && Retired >= CK.KillAfter)
        std::raise(SIGKILL);
      return CK.StopAfter != 0 && Retired >= CK.StopAfter;
    });

  Rep.Chip = C.run(Src, Retire);
  Rep.Base.WallSeconds = Clock.seconds();
  // A StopAfter crash simulation ended the run mid-stream: the report is
  // partial (Stopped) and the derived whole-run figures stay zero.
  if (C.stopped()) {
    Rep.Base.Stopped = true;
    return Rep;
  }

  if (Rep.Chip.FinalCycles) {
    double Seconds =
        static_cast<double>(Rep.Chip.FinalCycles) / CP.MP.ClockHz;
    Rep.GoodputMbps =
        static_cast<double>(Rep.Base.Stats.DeliveredPayloadBytes) * 8.0 /
        Seconds / 1e6;
  }
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Addr, Val] : C.memory().Sdram) {
    H = chip::traceFold(H, Addr);
    H = chip::traceFold(H, Val);
  }
  Rep.ImageHash = H;
  // A drained event queue with work in flight is a scheduler bug; make
  // it impossible to miss.
  if (Rep.Chip.Deadlock)
    ++Rep.Base.Divergences;
  return Rep;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

void soak::stabilize(ChipSoakReport &R) {
  R.Base.WallSeconds = 0;
  R.Base.TranslateSeconds = 0;
  R.Chip.EventsByKind = {};
  R.Chip.NoopMeRuns = 0;
}

std::string soak::chipReportJson(const ChipSoakReport &R) {
  if (!R.Setup.ok()) {
    return formatf("{\"app\":\"%s\",\"chip_setup_error\":\"%s\"}",
                   R.Base.App.c_str(), R.Setup.message().c_str());
  }
  std::string J = reportJson(R.Base);
  assert(!J.empty() && J.back() == '}');
  J.pop_back();
  const chip::ChipRunStats &C = R.Chip;
  J += ",\"chip\":{";
  J += formatf("\"me_count\":%u,\"contexts\":%u,\"ring_depth\":%u,",
               R.Params.MP.MeCount, R.Params.MP.ContextsPerMe,
               R.Params.RingDepth);
  J += formatf("\"final_cycles\":%llu,\"goodput_mbps\":%.3f,",
               (unsigned long long)C.FinalCycles, R.GoodputMbps);
  J += formatf("\"packets_dispatched\":%llu,\"packets_retired\":%llu,"
               "\"tail_packets\":%llu,",
               (unsigned long long)C.PacketsDispatched,
               (unsigned long long)C.PacketsRetired,
               (unsigned long long)C.TailPackets);
  J += "\"me_utilization\":[";
  for (unsigned M = 0; M != C.MeBusyCycles.size(); ++M)
    J += formatf("%s%.4f", M ? "," : "", C.utilization(M));
  J += "],\"me_busy_cycles\":[";
  for (unsigned M = 0; M != C.MeBusyCycles.size(); ++M)
    J += formatf("%s%llu", M ? "," : "",
                 (unsigned long long)C.MeBusyCycles[M]);
  J += "],\"input_ring_high_water\":[";
  for (unsigned M = 0; M != C.InputRings.size(); ++M)
    J += formatf("%s%u", M ? "," : "", C.InputRings[M].HighWater);
  J += formatf("],\"tx_ring_high_water\":%u,\"reorder_high_water\":%u,",
               C.TxRing.HighWater, C.ReorderHighWater);
  J += formatf("\"stall_cycles\":{\"sram\":%llu,\"sdram\":%llu,"
               "\"scratch\":%llu},",
               (unsigned long long)C.Sram.StallCycles,
               (unsigned long long)C.Sdram.StallCycles,
               (unsigned long long)C.Scratch.StallCycles);
  J += formatf("\"channel_transactions\":{\"sram\":%llu,\"sdram\":%llu,"
               "\"scratch\":%llu},",
               (unsigned long long)C.Sram.Transactions,
               (unsigned long long)C.Sdram.Transactions,
               (unsigned long long)C.Scratch.Transactions);
  J += formatf("\"rx_dma_transactions\":%llu,",
               (unsigned long long)C.RxDmaTransactions);
  J += formatf("\"exec_mode\":\"%s\",\"superblocks\":%llu,"
               "\"superblock_ops\":%llu,",
               C.Exec == chip::ExecModel::Threaded ? "threaded" : "interp",
               (unsigned long long)C.Superblocks,
               (unsigned long long)C.SuperblockOps);
  J += formatf("\"trace_hash\":\"%016llx\",\"image_hash\":\"%016llx\",",
               (unsigned long long)C.TraceHash,
               (unsigned long long)R.ImageHash);
  J += formatf("\"kernel\":{\"events\":%llu,\"events_per_packet\":%.2f,"
               "\"ns_per_event\":%.2f,\"noop_me_runs\":%llu,"
               "\"events_by_kind\":{",
               (unsigned long long)C.events(), C.eventsPerPacket(),
               C.nsPerEvent(R.Base.WallSeconds),
               (unsigned long long)C.NoopMeRuns);
  for (unsigned K = 0; K != chip::NumEventKinds; ++K)
    J += formatf("%s\"%s\":%llu", K ? "," : "",
                 chip::evName(static_cast<chip::Ev>(K)),
                 (unsigned long long)C.EventsByKind[K]);
  J += "}},";
  const chip::RecoveryStats &RS = C.Recovery;
  J += "\"recovery\":{";
  J += formatf("\"lockups_injected\":%llu,\"lockups_detected\":%llu,"
               "\"ctx_resets\":%llu,\"packet_requeues\":%llu,",
               (unsigned long long)RS.LockupsInjected,
               (unsigned long long)RS.LockupsDetected,
               (unsigned long long)RS.CtxResets,
               (unsigned long long)RS.PacketRequeues);
  J += formatf("\"packets_wedged\":%llu,\"packets_recovered\":%llu,"
               "\"lockup_drops\":%llu,\"max_backoff_cycles\":%llu,",
               (unsigned long long)RS.PacketsWedged,
               (unsigned long long)RS.PacketsRecovered,
               (unsigned long long)RS.LockupDrops,
               (unsigned long long)RS.MaxBackoffCycles);
  J += formatf("\"backpressure_drops\":%llu,",
               (unsigned long long)RS.BackpressureDrops);
  J += formatf("\"ring_stalls_injected\":%llu,\"ring_stall_cycles\":%llu,",
               (unsigned long long)RS.RingStallsInjected,
               (unsigned long long)RS.RingStallCycles);
  J += formatf("\"brownouts_injected\":%llu,\"brownout_cycles\":%llu,",
               (unsigned long long)RS.BrownoutsInjected,
               (unsigned long long)RS.BrownoutCycles);
  J += formatf("\"dma_faults_injected\":%llu,\"dma_retries\":%llu,"
               "\"dma_fault_packets\":%llu,\"dma_recovered_packets\":%llu,"
               "\"dma_drop_packets\":%llu,",
               (unsigned long long)RS.DmaFaultsInjected,
               (unsigned long long)RS.DmaRetries,
               (unsigned long long)RS.DmaFaultPackets,
               (unsigned long long)RS.DmaRecoveredPackets,
               (unsigned long long)RS.DmaDropPackets);
  J += formatf("\"sdram_bitflips_injected\":%llu,"
               "\"recovery_fold\":\"%016llx\",\"all_accounted\":%s},",
               (unsigned long long)RS.SdramBitFlipsInjected,
               (unsigned long long)RS.fold(),
               RS.allAccounted() ? "true" : "false");
  J += formatf("\"chip_outcome_mismatches\":%llu,\"deadlock\":%s}",
               (unsigned long long)R.ChipOutcomeMismatches,
               C.Deadlock ? "true" : "false");
  J += "}";
  return J;
}

void soak::printChipReport(const ChipSoakReport &R, std::FILE *Out) {
  if (!R.Setup.ok()) {
    std::fprintf(Out, "== %s: chip setup error: %s ==\n",
                 R.Base.App.c_str(), R.Setup.message().c_str());
    return;
  }
  printReport(R.Base, Out);
  const chip::ChipRunStats &C = R.Chip;
  std::fprintf(Out,
               "  chip      : me=%u ctx=%u ring=%u exec=%s  final=%llu "
               "cycles  goodput=%.1f Mbps%s\n",
               R.Params.MP.MeCount, R.Params.MP.ContextsPerMe,
               R.Params.RingDepth,
               C.Exec == chip::ExecModel::Threaded ? "threaded" : "interp",
               (unsigned long long)C.FinalCycles, R.GoodputMbps,
               C.Deadlock ? "  DEADLOCK" : "");
  std::fprintf(Out,
               "  stalls    : sram=%llu sdram=%llu scratch=%llu cycles "
               "(txns %llu/%llu/%llu)\n",
               (unsigned long long)C.Sram.StallCycles,
               (unsigned long long)C.Sdram.StallCycles,
               (unsigned long long)C.Scratch.StallCycles,
               (unsigned long long)C.Sram.Transactions,
               (unsigned long long)C.Sdram.Transactions,
               (unsigned long long)C.Scratch.Transactions);
  std::fprintf(Out, "  util      :");
  for (unsigned M = 0; M != C.MeBusyCycles.size(); ++M)
    std::fprintf(Out, " me%u=%.2f", M, C.utilization(M));
  std::fprintf(Out, "\n  rings     : in-hw=[");
  for (unsigned M = 0; M != C.InputRings.size(); ++M)
    std::fprintf(Out, "%s%u", M ? "," : "", C.InputRings[M].HighWater);
  std::fprintf(Out, "] tx-hw=%u reorder-hw=%u tail=%llu\n",
               C.TxRing.HighWater, C.ReorderHighWater,
               (unsigned long long)C.TailPackets);
  std::fprintf(Out,
               "  kernel    : %llu events (%.1f/packet, %.1f ns each), "
               "%llu no-op MeRun pops\n",
               (unsigned long long)C.events(), C.eventsPerPacket(),
               C.nsPerEvent(R.Base.WallSeconds),
               (unsigned long long)C.NoopMeRuns);
  const chip::RecoveryStats &RS = C.Recovery;
  if (RS.anyInjected()) {
    std::fprintf(Out,
                 "  recovery  : lockups=%llu detected=%llu recovered=%llu "
                 "lockup-drops=%llu bp-drops=%llu\n",
                 (unsigned long long)RS.LockupsInjected,
                 (unsigned long long)RS.LockupsDetected,
                 (unsigned long long)RS.PacketsRecovered,
                 (unsigned long long)RS.LockupDrops,
                 (unsigned long long)RS.BackpressureDrops);
    std::fprintf(Out,
                 "  faults    : ring-stalls=%llu brownouts=%llu "
                 "dma-faults=%llu (retries=%llu drops=%llu) bitflips=%llu "
                 "accounted=%s\n",
                 (unsigned long long)RS.RingStallsInjected,
                 (unsigned long long)RS.BrownoutsInjected,
                 (unsigned long long)RS.DmaFaultsInjected,
                 (unsigned long long)RS.DmaRetries,
                 (unsigned long long)RS.DmaDropPackets,
                 (unsigned long long)RS.SdramBitFlipsInjected,
                 RS.allAccounted() ? "yes" : "NO");
  }
  if (R.ChipOutcomeMismatches)
    std::fprintf(Out, "  CHIP MISMATCHES: %llu (chip vs standalone)\n",
                 (unsigned long long)R.ChipOutcomeMismatches);
}
