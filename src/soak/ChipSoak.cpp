//===- ChipSoak.cpp - Whole-chip soak runner and reporting ----------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "soak/ChipSoak.h"

#include "support/StringUtils.h"
#include "support/Timer.h"

using namespace nova;
using namespace nova::soak;

ChipSoakReport soak::runChipSoak(const AppHarness &App,
                                 const ChipSoakOptions &Opts) {
  ChipSoakReport Rep;
  Rep.Base.App = App.name();
  Rep.Base.Seed = Opts.Base.Seed;
  Rep.Base.OracleEvery = Opts.Base.OracleEvery;
  Rep.Base.Exec = Opts.Base.Exec;

  chip::ChipParams CP = Opts.Chip;
  // One watchdog for chip and oracle: the standalone re-run is then
  // instruction-identical, so even watchdog traps must agree. The exec
  // mode has one knob too, so the checkpoint meta records what runs.
  CP.Budget = Opts.Base.Budget;
  CP.Exec = Opts.Base.Exec;
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
  if (CP.Exec == sim::ExecMode::Threaded)
    Rep.Base.TranslateSeconds = Clock.seconds();

  // Checkpoint identity: the standalone meta plus the chip topology and
  // armed fault schedule, all of which change the event interleaving.
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

  SoakPacket Q;         // reused oracle-rerun packet across retirements
  SoakPacket FlipStage; // reused flip-replay candidate while shrinking
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

    // Shrinking targets the standalone differential.
    if (O.Diverged) {
      noteDivergence(Rep.Base, Q, std::move(O.What), SO.Shrink,
                     [&](const SoakPacket &Cand) {
                       return runPacket(App, Cand, SO, /*WithOracle=*/true)
                           .Diverged;
                     });
      return;
    }
    std::string What;
    if (O.Alloc.Ok != RP.Result.Ok || O.Alloc.Trap != RP.Result.Trap)
      What = formatf(
          "chip outcome differs from standalone: chip %s(%s), "
          "standalone %s(%s)",
          RP.Result.Ok ? "ok" : "trap", sim::trapKindName(RP.Result.Trap),
          O.Alloc.Ok ? "ok" : "trap", sim::trapKindName(O.Alloc.Trap));
    else if (O.Alloc.Ok && O.Alloc.HaltValues != RP.Result.HaltValues)
      What = "chip halt values differ from standalone allocated run";
    if (What.empty())
      return;
    ++Rep.ChipOutcomeMismatches;
    // A chip-vs-standalone mismatch on a packet the fault schedule
    // deliberately corrupted is delta-debugged against a replay of the
    // flip (flipped run vs clean run), so the reproducer isolates the
    // corruption-sensitive words; any other chip mismatch keeps the
    // packet as found.
    const uint64_t Seq = RP.Pkt.Seq;
    auto FlipReplay = [&](const SoakPacket &Cand) {
      if (Cand.Words.empty())
        return false;
      FlipStage = Cand;
      uint32_t NumWords = static_cast<uint32_t>(FlipStage.Words.size());
      uint32_t W = chip::Supervisor::flipWordIndex(Seq, NumWords);
      FlipStage.Words[W] ^= 1u << chip::Supervisor::flipBit(Seq);
      PacketOutcome OF = runPacket(App, FlipStage, SO, /*WithOracle=*/false);
      PacketOutcome OC = runPacket(App, Cand, SO, /*WithOracle=*/false);
      return OF.Alloc.Ok != OC.Alloc.Ok || OF.Alloc.Trap != OC.Alloc.Trap ||
             (OF.Alloc.Ok && OF.Alloc.HaltValues != OC.Alloc.HaltValues);
    };
    noteDivergence(Rep.Base, Q, std::move(What),
                   SO.Shrink && Plan.planPacket(Seq).SdramFlip, FlipReplay);
  };

  // A snapshot extends the stream's progress with the
  // ChipOutcomeMismatches counter and the complete chip state; resume
  // restores them into the freshly constructed (identical-topology) chip.
  // The retire hook fires between events with the chip quiescent, so the
  // dispatch cursor, report fold and chip image are coherent.
  const CheckpointOptions &CK = SO.Ckpt;
  uint64_t RestoredMismatches = 0; // committed only by a resume that parsed
  CkptDriver CD(
      CK, std::move(Meta), Rep.Base, Clock,
      [&](BinWriter &W) {
        io(W, Rep.ChipOutcomeMismatches);
        C.saveState(W);
      },
      [&](BinReader &R) {
        io(R, RestoredMismatches);
        C.restoreState(R);
      });
  if (CK.Resume) {
    if (!CD.resume(Next))
      return Rep;
    Rep.ChipOutcomeMismatches = RestoredMismatches;
  }
  if (CK.Every || CK.ProgressEvery || CK.KillAfter || CK.StopAfter)
    C.setRetireHook([&](uint64_t Retired, uint64_t) {
      return CD.onRetired(Retired, Next);
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
  stabilize(R.Base);
  R.Chip.EventsByKind = {};
  R.Chip.NoopMeRuns = 0;
  R.Chip.QueuePushes = 0;
  R.Stable = true;
}

void soak::chipReportFields(JsonWriter &J, const ChipSoakReport &R) {
  if (!R.Setup.ok()) {
    J.field("app", R.Base.App).field("chip_setup_error", R.Setup.message());
    return;
  }
  reportFields(J, R.Base);
  const chip::ChipRunStats &C = R.Chip;
  auto Hex = [](uint64_t V) {
    return formatf("%016llx", (unsigned long long)V);
  };
  J.key("chip").beginObject();
  J.field("me_count", R.Params.MP.MeCount);
  J.field("contexts", R.Params.MP.ContextsPerMe);
  J.field("ring_depth", R.Params.RingDepth);
  J.field("final_cycles", C.FinalCycles);
  J.key("goodput_mbps").fixed(R.GoodputMbps, 3);
  J.field("packets_dispatched", C.PacketsDispatched);
  J.field("packets_retired", C.PacketsRetired);
  J.field("tail_packets", C.TailPackets);
  J.key("me_utilization").beginArray();
  for (unsigned M = 0; M != C.MeBusyCycles.size(); ++M)
    J.fixed(C.utilization(M), 4);
  J.endArray();
  J.key("me_busy_cycles").array(C.MeBusyCycles);
  J.key("input_ring_high_water").beginArray();
  for (const chip::RingStats &Rg : C.InputRings)
    J.value(Rg.HighWater);
  J.endArray();
  J.field("tx_ring_high_water", C.TxRing.HighWater);
  J.field("reorder_high_water", C.ReorderHighWater);
  J.key("stall_cycles").beginObject().field("sram", C.Sram.StallCycles);
  J.field("sdram", C.Sdram.StallCycles);
  J.field("scratch", C.Scratch.StallCycles).endObject();
  J.key("channel_transactions").beginObject();
  J.field("sram", C.Sram.Transactions).field("sdram", C.Sdram.Transactions);
  J.field("scratch", C.Scratch.Transactions).endObject();
  J.field("rx_dma_transactions", C.RxDmaTransactions);
  J.field("exec_mode", sim::execModeName(R.Params.Exec));
  J.field("superblocks", C.Superblocks);
  J.field("trace_hash", Hex(C.TraceHash));
  J.field("image_hash", Hex(R.ImageHash));
  J.key("kernel").beginObject().field("events", C.events());
  J.key("events_per_packet").fixed(C.eventsPerPacket(), 2);
  J.key("ns_per_event").fixed(C.nsPerEvent(R.Base.WallSeconds), 2);
  J.field("noop_me_runs", C.NoopMeRuns);
  if (!R.Stable)
    J.field("queue_pushes", C.QueuePushes);
  J.key("events_by_kind").beginObject();
  for (unsigned K = 0; K != chip::NumEventKinds; ++K)
    J.field(chip::evName(static_cast<chip::Ev>(K)), C.EventsByKind[K]);
  J.endObject().endObject();
  const chip::RecoveryStats &RS = C.Recovery;
  J.key("recovery").beginObject();
  J.field("lockups_injected", RS.LockupsInjected);
  J.field("lockups_detected", RS.LockupsDetected);
  J.field("ctx_resets", RS.CtxResets);
  J.field("packet_requeues", RS.PacketRequeues);
  J.field("packets_wedged", RS.PacketsWedged);
  J.field("packets_recovered", RS.PacketsRecovered);
  J.field("lockup_drops", RS.LockupDrops);
  J.field("max_backoff_cycles", RS.MaxBackoffCycles);
  J.field("backpressure_drops", RS.BackpressureDrops);
  J.field("ring_stalls_injected", RS.RingStallsInjected);
  J.field("ring_stall_cycles", RS.RingStallCycles);
  J.field("brownouts_injected", RS.BrownoutsInjected);
  J.field("brownout_cycles", RS.BrownoutCycles);
  J.field("dma_faults_injected", RS.DmaFaultsInjected);
  J.field("dma_retries", RS.DmaRetries);
  J.field("dma_fault_packets", RS.DmaFaultPackets);
  J.field("dma_recovered_packets", RS.DmaRecoveredPackets);
  J.field("dma_drop_packets", RS.DmaDropPackets);
  J.field("sdram_bitflips_injected", RS.SdramBitFlipsInjected);
  J.field("recovery_fold", Hex(RS.fold()));
  J.field("all_accounted", RS.allAccounted()).endObject();
  J.field("chip_outcome_mismatches", R.ChipOutcomeMismatches);
  J.field("deadlock", C.Deadlock).endObject();
}

std::string soak::chipReportJson(const ChipSoakReport &R) {
  JsonWriter J;
  return J.object([&] { chipReportFields(J, R); }).take();
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
               sim::execModeName(R.Params.Exec),
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
               "%llu no-op MeRun pops, %llu queue pushes\n",
               (unsigned long long)C.events(), C.eventsPerPacket(),
               C.nsPerEvent(R.Base.WallSeconds),
               (unsigned long long)C.NoopMeRuns,
               (unsigned long long)C.QueuePushes);
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
