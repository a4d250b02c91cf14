//===- perfbench.cpp - Repository benchmark program -----------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload through the compiler's and simulators'
// public functions and writes the raw measurements as one JSON document:
// set-up repetitions, per-pass host timings, exact (simulated or
// structural) fields, correctness checks, and the spans of traced passes.
// perfbench/run.py builds this program, runs it, and reduces the document
// to named metrics; see perfbench/NOTES.md for what each metric means.
//
// A pass is a fixed unit of work made from the seed alone, so every pass
// of a run must reproduce the same exact fields. Passes repeat until
// --seconds have elapsed. With --trace 1, odd passes are traced and even
// passes are not, which gives the tracing overhead inside one process.
//
// usage: perfbench --workload <compile|chip-nat|soak-fast>
//                  --seed <n> --seconds <s> --trace <0|1> --out <file>
// Exit codes: 0 document written (checks may still have failed; they are
// in the document), 1 set-up failure, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "alloc/Verifier.h"
#include "apps/AppSources.h"
#include "chip/Chip.h"
#include "cps/Convert.h"
#include "driver/Compiler.h"
#include "fastpath/FastPath.h"
#include "ixp/ISel.h"
#include "nova/Parser.h"
#include "soak/Soak.h"
#include "support/BinIO.h"
#include "support/StringUtils.h"

#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace nova;
using namespace perfbench;

namespace {

constexpr unsigned NumApps = 3;
const char *const AppNames[NumApps] = {"aes", "kasumi", "nat"};
constexpr unsigned NatApp = 2;

// Work per pass. Sizes keep one pass between 0.5 and 3 seconds on a
// 4-core x86 host, so a 30-second run holds several passes.
constexpr unsigned SetupReps = 5; ///< spread over the run, see main()
constexpr uint64_t CodeCheckPackets = 200; ///< per app, compile
constexpr uint64_t ChipPackets = 20000;
constexpr uint64_t ChipOracleEvery = 10;      ///< novasoak's threaded default
constexpr uint64_t ChipSnapshotEvery = 10000; ///< retirements per snapshot
constexpr uint64_t ChipSegment = 2500;        ///< retirements per timed slice
constexpr uint64_t FastPackets = 20000;       ///< per app, soak-fast
constexpr uint64_t FastBatch = 256; ///< packets per generator call, as in
                                    ///< the threaded soak
constexpr uint64_t FastOracleEvery = 1000;

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jnum(double V) {
  return std::isfinite(V) ? formatf("%.17g", V) : std::string("null");
}
std::string jint(uint64_t V) {
  return formatf("%llu", static_cast<unsigned long long>(V));
}
/// An ILP objective, to 12 significant digits: two optimal allocations
/// sum the same terms in another order, which may move the last bit.
std::string jobjective(double V) { return formatf("%.12g", V); }
std::string jhex(uint64_t V) {
  return formatf("\"%016llx\"", static_cast<unsigned long long>(V));
}
std::string jstr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += formatf("\\u%04x", static_cast<unsigned>(C));
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

/// Ordered key -> rendered JSON value.
struct JsonMap {
  std::vector<std::pair<std::string, std::string>> KV;
  void put(std::string Key, std::string Value) {
    KV.emplace_back(std::move(Key), std::move(Value));
  }
  std::string render() const {
    std::string Out = "{";
    for (size_t I = 0; I != KV.size(); ++I)
      Out += (I ? "," : "") + jstr(KV[I].first) + ":" + KV[I].second;
    return Out + "}";
  }
};

std::string appKey(const char *Stem, unsigned App) {
  return formatf("%s.%s", Stem, AppNames[App]);
}

struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few messages

  void expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }
};

struct PassRecord {
  bool Traced = false;
  double WallSeconds = 0;
  /// The timed loop in fixed slices of work, in order; run.py takes each
  /// slice's fastest time over the run's passes.
  std::vector<double> Segments;
  JsonMap Host;   ///< host-time metrics of this pass
  JsonMap Exact;  ///< fields every pass of the run must reproduce
  JsonMap Counts; ///< counters that legitimately vary (B&B search)
  size_t SpanBegin = 0, SpanEnd = 0;
};

/// Appends slice durations to a pass's Segments.
class SegmentClock {
public:
  explicit SegmentClock(std::vector<double> &Out) : Out(Out) {}
  void restart() { Last = nowNs(); }
  void mark() {
    int64_t Now = nowNs();
    Out.push_back(secondsBetween(Last, Now));
    Last = Now;
  }

private:
  std::vector<double> &Out;
  int64_t Last = nowNs();
};

/// The pass's packet rate over its timed slices.
void putRate(PassRecord &Rec, uint64_t Packets) {
  double Seconds = 0;
  for (double S : Rec.Segments)
    Seconds += S;
  Rec.Host.put("pkts_per_s", jnum(static_cast<double>(Packets) / Seconds));
}

/// Exact fields of one stream's RunStats fold.
void putRunStats(JsonMap &M, const sim::RunStats &S) {
  M.put("sim.packets", jint(S.Packets));
  M.put("sim.delivered", jint(S.Delivered));
  M.put("sim.rejected", jint(S.Rejected));
  M.put("sim.drops.watchdog",
        jint(S.Traps[static_cast<unsigned>(sim::TrapKind::Watchdog)]));
  M.put("sim.drops.sdram_oor",
        jint(S.Traps[static_cast<unsigned>(sim::TrapKind::SdramOutOfRange)]));
  M.put("sim.drops.total", jint(S.Drops));
  M.put("sim.total_cycles", jint(S.TotalCycles));
}

/// A stream's RunStats fold plus every packet's cycles: RunStats' own
/// quantiles are histogram bucket edges up to 12.5% apart, so p50/p99
/// come from the exact samples instead.
struct StreamFold {
  sim::RunStats Stats;
  std::vector<uint64_t> Cycles;

  void add(const sim::RunResult &R, bool AppReject, unsigned Payload) {
    Stats.account(R, AppReject, Payload);
    Cycles.push_back(R.Cycles);
  }

  /// Nearest-rank percentile of the packets' cycles (0 < Q <= 1).
  uint64_t percentile(double Q) {
    if (Cycles.empty())
      return 0;
    size_t Rank = static_cast<size_t>(std::ceil(Q * Cycles.size()));
    auto It = Cycles.begin() + (std::max<size_t>(Rank, 1) - 1);
    std::nth_element(Cycles.begin(), It, Cycles.end());
    return *It;
  }
};

/// The e2e sim_ metrics of a stream.
void putSimE2e(JsonMap &M, StreamFold &F, double GoodputMbps) {
  M.put("sim_goodput_mbps", jnum(GoodputMbps));
  M.put("sim_p50_cycles", jint(F.percentile(0.50)));
  M.put("sim_p99_cycles", jint(F.percentile(0.99)));
}

//===----------------------------------------------------------------------===//
// Set-up: the three app harnesses every workload starts from
//===----------------------------------------------------------------------===//

struct Setup {
  std::string Sources[NumApps];
  std::unique_ptr<soak::AppHarness> Apps[NumApps];
  std::vector<double> Seconds;                 ///< per repetition
  std::vector<double> CompileSeconds[NumApps]; ///< per repetition
};

/// One set-up repetition: compiles every app into a fresh soak harness
/// (the one-time cost each workload pays before its loop).
bool setupRep(Setup &S) {
  int64_t T0 = nowNs();
  for (unsigned A = 0; A != NumApps; ++A) {
    S.Apps[A].reset();
    int64_t TA = nowNs();
    std::string Error;
    S.Apps[A] = soak::AppHarness::create(AppNames[A], Error);
    S.CompileSeconds[A].push_back(secondsBetween(TA, nowNs()));
    if (!S.Apps[A]) {
      std::fprintf(stderr, "perfbench: set-up: %s: %s\n", AppNames[A],
                   Error.c_str());
      return false;
    }
  }
  S.Seconds.push_back(secondsBetween(T0, nowNs()));
  return true;
}

//===----------------------------------------------------------------------===//
// Three-way oracle, one layer call at a time
//===----------------------------------------------------------------------===//

/// soak::runPacket(..., WithOracle=true) replayed one public call at a
/// time, so the interpreter, the functional simulator and the CPS
/// evaluator each get a span and the rest (image copies and compares)
/// is the soak.verify span's self time. Verdicts follow runPacket: a
/// watchdog drop is not compared, an oracle-side budget miss is not a
/// divergence.
soak::PacketOutcome verifyPacket(Tracer &T, unsigned App,
                                 const driver::CompileResult &A,
                                 const soak::AppHarness &H,
                                 const soak::SoakPacket &P,
                                 const soak::SoakOptions &SO) {
  Span Top(T, "soak.verify", App, static_cast<int64_t>(P.Index));
  soak::PacketOutcome O;
  const uint32_t Addr = P.Args.empty() ? 0 : P.Args[0];
  sim::RunOptions RO;
  RO.Lat = SO.Lat;
  RO.MaxInstructions = SO.Budget;

  sim::Memory &MA = O.AllocMem;
  MA = H.baseSim();
  apps::storePacket(MA.Sdram, Addr, P.Words);
  {
    Span S(T, "sim.interp", App, static_cast<int64_t>(P.Index));
    O.Alloc = sim::runAllocated(A.Alloc.Prog, P.Args, MA, RO);
  }
  O.AppReject = O.Alloc.Ok && H.isAppReject(O.Alloc.HaltValues);

  sim::RunOptions RF = RO;
  RF.MaxInstructions = SO.Budget * 4;
  sim::Memory MF = H.baseSim();
  apps::storePacket(MF.Sdram, Addr, P.Words);
  sim::RunResult F;
  {
    Span S(T, "sim.functional", App, static_cast<int64_t>(P.Index));
    F = sim::runFunctional(A.Machine, P.Args, MF, RF);
  }
  if (!O.Alloc.Ok) {
    if (O.Alloc.Trap == sim::TrapKind::Watchdog)
      return O;
    if (F.Ok || F.Trap != O.Alloc.Trap) {
      O.Diverged = true;
      O.What = formatf("trap differs: allocated %s, functional %s",
                       sim::trapKindName(O.Alloc.Trap),
                       F.Ok ? "delivered" : sim::trapKindName(F.Trap));
    }
    return O;
  }
  if (!F.Ok) {
    if (F.Trap == sim::TrapKind::Watchdog) {
      O.OracleBudgetMiss = true;
      return O;
    }
    O.Diverged = true;
    O.What = "functional trapped but allocated delivered";
    return O;
  }
  if (O.Alloc.HaltValues != F.HaltValues || MA.Sdram != MF.Sdram) {
    O.Diverged = true;
    O.What = "allocated and functional results differ";
    return O;
  }

  unsigned MaxSteps =
      static_cast<unsigned>(std::min<uint64_t>(SO.Budget * 64, UINT_MAX));
  cps::EvalMemory ME = H.baseEval();
  apps::storePacket(ME.Sdram, Addr, P.Words);
  cps::EvalResult E;
  {
    Span S(T, "cps.eval", App, static_cast<int64_t>(P.Index));
    E = cps::evaluate(A.Cps, P.Args, ME, MaxSteps);
  }
  if (!E.Ok) {
    if (E.Error.find("step limit") != std::string::npos) {
      O.OracleBudgetMiss = true;
      return O;
    }
    O.Diverged = true;
    O.What = "cps evaluator failed: " + E.Error;
    return O;
  }
  if (O.Alloc.HaltValues != E.HaltValues || MA.Sdram != ME.Sdram) {
    O.Diverged = true;
    O.What = "allocated and cps results differ";
  }
  return O;
}

//===----------------------------------------------------------------------===//
// compile: source text -> verified allocated program (Figure 7)
//===----------------------------------------------------------------------===//

/// driver::compileNova's phase calls, one span each.
bool compilePhases(Tracer &T, unsigned A, const std::string &Source,
                   const driver::CompileOptions &Opts,
                   driver::CompileResult &R) {
  uint32_t Buf = R.SM.addBuffer(std::string(AppNames[A]) + ".nova", Source);
  R.Diags = std::make_unique<DiagnosticEngine>(R.SM);
  {
    Span S(T, "nova.parse", A);
    Parser P(R.SM, Buf, R.Arena, *R.Diags);
    R.Ast = P.parseProgram();
  }
  if (R.Diags->hasErrors())
    return false;
  {
    Span S(T, "nova.sema", A);
    R.Sema = std::make_unique<SemaResult>(*R.Diags);
    runSema(R.Ast, R.SM, *R.Diags, *R.Sema);
  }
  if (!R.Sema->Success)
    return false;
  bool Ok = false;
  {
    Span S(T, "cps.convert", A);
    Ok = cps::convertToCps(R.Ast, *R.Sema, *R.Diags, R.Cps);
  }
  if (!Ok)
    return false;
  {
    Span S(T, "cps.opt", A);
    R.Opt = cps::optimize(R.Cps);
    cps::makeStaticSingleUse(R.Cps);
    Ok = cps::allCalleesKnown(R.Cps);
  }
  if (!Ok)
    return false;
  {
    Span S(T, "ixp.isel", A);
    Ok = ixp::selectInstructions(R.Cps, *R.Diags, R.Machine);
  }
  if (!Ok)
    return false;
  {
    Span S(T, "alloc.allocate", A);
    R.Alloc = alloc::allocate(R.Machine, *R.Diags, Opts.Alloc);
  }
  R.Ok = R.Alloc.Ok;
  return R.Ok;
}

/// Solver counters of one allocation; the B&B ones vary with the free-
/// running workers, the model sizes and the objective do not.
void putAllocStats(PassRecord &Rec, unsigned A, const alloc::AllocStats &St,
                   unsigned Instrs) {
  Rec.Exact.put(appKey("alloc.objective", A), jobjective(St.Objective));
  Rec.Exact.put(appKey("ilp.vars", A), jint(St.IlpSize.NumVariables));
  Rec.Exact.put(appKey("ilp.cons", A), jint(St.IlpSize.NumConstraints));
  Rec.Exact.put(appKey("ixp.instrs", A), jint(Instrs));
  Rec.Counts.put(appKey("ilp.nodes", A), jint(St.Solve.Nodes));
  Rec.Counts.put(appKey("ilp.lp_iters", A), jint(St.Solve.LpIterations));
  Rec.Counts.put(appKey("alloc.moves", A), jint(St.Moves));
  Rec.Counts.put(appKey("ilp.root_lp_s", A), jnum(St.Solve.RootLpSeconds));
  Rec.Counts.put(appKey("ilp.solve_s", A), jnum(St.Solve.TotalSeconds));
}

void compilePass(uint64_t Seed, const Setup &S, Tracer &T, Checks &C,
                 PassRecord &Rec) {
  // novac's defaults: auto B&B workers, 600 s budget, incumbent ladder.
  driver::CompileOptions CO;
  CO.Alloc.Mip.TimeLimitSeconds = 600.0;
  CO.Alloc.Mip.Threads = 0;
  soak::SoakOptions SO;
  SO.Seed = Seed;
  // Valid traffic only: the generated code's normal path, whose cycles
  // are the paper's Section 11 throughput (the soaks cover the rest).
  SO.Mix.Truncated = SO.Mix.Oversized = SO.Mix.Corrupt = SO.Mix.Fuzz = 0;

  StreamFold All;
  double Objective = 0;
  for (unsigned A = 0; A != NumApps; ++A) {
    auto R = std::make_unique<driver::CompileResult>();
    bool Ok = false;
    {
      Span Top(T, "driver.compile", A);
      int64_t T0 = nowNs();
      Ok = compilePhases(T, A, S.Sources[A], CO, *R);
      Rec.Host.put(appKey("compile_s", A), jnum(secondsBetween(T0, nowNs())));
    }
    C.expect(Ok, formatf("%s: compile failed: %s", AppNames[A],
                         R->Alloc.Error.render().c_str()));
    if (!Ok)
      continue;
    std::vector<std::string> Violations;
    {
      Span Sv(T, "alloc.verify", A);
      Violations = alloc::verifyAllocated(R->Alloc.Prog);
    }
    const alloc::AllocStats &St = R->Alloc.Stats;
    C.expect(St.Rung == alloc::AllocRung::Optimal && St.ProvedOptimal,
             formatf("%s: allocation stopped at the %s rung", AppNames[A],
                     alloc::rungName(St.Rung)));
    C.expect(Violations.empty(),
             formatf("%s: %zu verifier violations", AppNames[A],
                     Violations.size()));
    C.expect(St.Spills == 0,
             formatf("%s: %u spills", AppNames[A], St.Spills));
    putAllocStats(Rec, A, St, R->Machine.numInstructions());
    Objective += St.Objective;

    // The generated code must compute what the CPS reference evaluator
    // computes on a seeded packet sample.
    const soak::AppHarness &H = *S.Apps[A];
    soak::PacketTemplateCache Tmpl;
    soak::SoakPacket P;
    SegmentClock Seg(Rec.Segments);
    for (uint64_t I = 0; I != CodeCheckPackets; ++I) {
      H.generateInto(I, Seed, SO.Mix, Tmpl, P);
      soak::PacketOutcome O = verifyPacket(T, A, *R, H, P, SO);
      All.add(O.Alloc, O.AppReject, P.PayloadBytes);
      C.expect(!O.Diverged, formatf("%s: generated code, packet %llu: %s",
                                    AppNames[A], (unsigned long long)I,
                                    O.What.c_str()));
    }
    Seg.mark();
  }
  Rec.Exact.put("alloc_objective", jobjective(Objective));
  // Not exact: the free-running B&B workers may return a different
  // allocation of equal objective, whose moves sit on other paths and
  // shift a packet's cycles.
  putSimE2e(Rec.Counts, All, All.Stats.deliveredMbps());
  putRunStats(Rec.Counts, All.Stats);
  putRate(Rec, All.Stats.Packets);
}

//===----------------------------------------------------------------------===//
// chip-nat: 6-ME x 4-context threaded chip, closed loop
//===----------------------------------------------------------------------===//

void chipPass(uint64_t Seed, const Setup &S, Tracer &T, Checks &C,
              PassRecord &Rec) {
  const soak::AppHarness &H = *S.Apps[NatApp];
  const alloc::AllocatedProgram &Prog = H.compiled().Alloc.Prog;
  chip::ChipParams CP;
  CP.Exec = chip::ExecModel::Threaded;
  soak::SoakOptions SO;
  SO.Seed = Seed;
  SO.Lat = CP.latency();
  CP.Budget = SO.Budget; // one watchdog: the oracle rerun is exact
  Status Valid = chip::validateChipSetup(CP, Prog, H.baseSim().Limits);
  C.expect(Valid.ok(), "chip set-up: " + Valid.message());
  if (!Valid.ok())
    return;
  std::vector<const alloc::AllocatedProgram *> Progs(CP.MP.MeCount, &Prog);

  std::unique_ptr<chip::Chip> Chip;
  {
    Span Sp(T, "chip.construct", NatApp);
    Chip = std::make_unique<chip::Chip>(CP, Progs, H.baseSim());
  }

  // Source: RX pulls the next packet whenever a ring slot frees.
  uint64_t Next = 0;
  soak::PacketTemplateCache Tmpl;
  soak::SoakPacket P;
  Batch Gen(T, "soak.gen", NatApp);
  chip::Chip::Source Src = [&](chip::ChipPacket &Out) {
    if (Next == ChipPackets)
      return false;
    int64_t T0 = Gen.stamp();
    H.generateInto(Next, Seed, SO.Mix, Tmpl, P);
    Out = chip::ChipPacket();
    Out.Seq = Next++;
    Out.Words = std::move(P.Words);
    Out.Args = std::move(P.Args);
    Out.PtrArgMask = H.pointerArgMask();
    Out.PayloadBytes = P.PayloadBytes;
    Out.ClassTag = static_cast<uint8_t>(P.Class);
    Out.SeedTag = P.Seed;
    Gen.add(T0, Gen.stamp());
    return true;
  };

  // Retire: residence-time accounting, and every 10th packet re-run
  // standalone through the three-way oracle plus the chip cross-check.
  StreamFold Fold;
  sim::RunStats &Stats = Fold.Stats;
  uint64_t OracleChecks = 0, TypedDrops = 0;
  soak::SoakPacket Q;
  Batch Acct(T, "soak.retire", NatApp);
  chip::Chip::RetireFn Retire = [&](chip::RetiredPacket &&RP) {
    int64_t T0 = Acct.stamp();
    sim::RunResult R = RP.Result;
    R.Cycles = RP.RetireTime - RP.DispatchTime;
    Fold.add(R, RP.Result.Ok && H.isAppReject(RP.Result.HaltValues),
             RP.Pkt.PayloadBytes);
    Acct.add(T0, Acct.stamp());
    if (RP.Drop != chip::DropReason::None) {
      ++TypedDrops;
      return;
    }
    if (RP.Pkt.Seq % ChipOracleEvery != 0)
      return;
    Span Sp(T, "soak.oracle", NatApp, static_cast<int64_t>(RP.Pkt.Seq));
    ++OracleChecks;
    Q.Class = static_cast<soak::PacketClass>(RP.Pkt.ClassTag);
    Q.Index = RP.Pkt.Seq;
    Q.Seed = RP.Pkt.SeedTag;
    Q.Words = std::move(RP.Pkt.Words);
    Q.Args = RP.RebasedArgs;
    Q.PayloadBytes = RP.Pkt.PayloadBytes;
    soak::PacketOutcome O = soak::runPacket(H, Q, SO, /*WithOracle=*/true);
    bool Mismatch = O.Alloc.Ok != RP.Result.Ok ||
                    O.Alloc.Trap != RP.Result.Trap ||
                    (O.Alloc.Ok && O.Alloc.HaltValues != RP.Result.HaltValues);
    C.expect(!O.Diverged && !Mismatch,
             formatf("chip packet %llu: %s", (unsigned long long)Q.Index,
                     O.Diverged ? O.What.c_str()
                                : "chip outcome differs from standalone"));
  };

  // In-memory snapshot every ChipSnapshotEvery retirements.
  std::string Snapshot;
  uint64_t Snapshots = 0, NextSnap = ChipSnapshotEvery;
  uint64_t NextSeg = ChipSegment;
  SegmentClock Seg(Rec.Segments);
  Chip->setRetireHook([&](uint64_t Retired, uint64_t) {
    if (Retired >= NextSeg && NextSeg < ChipPackets) {
      Seg.mark();
      NextSeg += ChipSegment;
    }
    if (Retired < NextSnap)
      return false;
    Span Sp(T, "checkpoint.save", NatApp, static_cast<int64_t>(Retired));
    BinWriter W;
    Chip->saveState(W);
    Snapshot = W.take();
    ++Snapshots;
    NextSnap += ChipSnapshotEvery;
    return false;
  });

  chip::ChipRunStats St;
  {
    Span Sp(T, "chip.run", NatApp);
    Seg.restart();
    St = Chip->run(Src, Retire);
    Seg.mark();
    Gen.flush();
    Acct.flush();
  }
  putRate(Rec, St.PacketsRetired);

  C.expect(!St.Deadlock, "chip deadlocked");
  C.expect(St.PacketsRetired == ChipPackets && Stats.Packets == ChipPackets &&
               Stats.Delivered + Stats.Rejected + Stats.Drops + TypedDrops ==
                   ChipPackets,
           formatf("chip accounting: retired %llu, delivered %llu + "
                   "rejected %llu + drops %llu + typed %llu != %llu",
                   (unsigned long long)St.PacketsRetired,
                   (unsigned long long)Stats.Delivered,
                   (unsigned long long)Stats.Rejected,
                   (unsigned long long)Stats.Drops,
                   (unsigned long long)TypedDrops,
                   (unsigned long long)ChipPackets));
  C.expect(St.Recovery.allAccounted(), "recovery ledger not accounted");

  // Restore the last snapshot into a fresh chip; re-saving must give the
  // same bytes.
  C.expect(Snapshots != 0, "no checkpoint was taken");
  if (Snapshots) {
    auto Fresh = std::make_unique<chip::Chip>(CP, Progs, H.baseSim());
    BinReader R(Snapshot);
    {
      Span Sp(T, "checkpoint.restore", NatApp);
      Fresh->restoreState(R);
    }
    BinWriter W;
    Fresh->saveState(W);
    C.expect(!R.failed() && R.remaining() == 0 && W.bytes() == Snapshot,
             "checkpoint restore does not re-save byte-identically");
  }

  double Seconds = static_cast<double>(St.FinalCycles) / CP.MP.ClockHz;
  double Goodput = St.FinalCycles
                       ? static_cast<double>(Stats.DeliveredPayloadBytes) *
                             8.0 / Seconds / 1e6
                       : 0.0;
  uint64_t ImageHash = 0xcbf29ce484222325ull;
  for (const auto &[Addr, Val] : Chip->memory().Sdram) {
    ImageHash = chip::traceFold(ImageHash, Addr);
    ImageHash = chip::traceFold(ImageHash, Val);
  }
  double Util = 0;
  for (unsigned M = 0; M != St.MeBusyCycles.size(); ++M)
    Util += St.utilization(M);
  Util /= St.MeBusyCycles.empty() ? 1 : St.MeBusyCycles.size();

  JsonMap &X = Rec.Exact;
  putSimE2e(X, Fold, Goodput);
  putRunStats(X, Stats);
  X.put("chip.trace_hash", jhex(St.TraceHash));
  X.put("chip.image_hash", jhex(ImageHash));
  X.put("chip.final_cycles", jint(St.FinalCycles));
  X.put("chip.instructions", jint(Stats.TotalInstructions));
  X.put("chip.sdram_stall_cycles", jint(St.Sdram.StallCycles));
  X.put("chip.sram_stall_cycles", jint(St.Sram.StallCycles));
  X.put("chip.scratch_stall_cycles", jint(St.Scratch.StallCycles));
  X.put("chip.sdram_txns", jint(St.Sdram.Transactions));
  X.put("chip.sram_txns", jint(St.Sram.Transactions));
  X.put("chip.scratch_txns", jint(St.Scratch.Transactions));
  X.put("chip.me_util_mean", jnum(Util));
  X.put("chip.reorder_high_water", jint(St.ReorderHighWater));
  X.put("chip.tail_packets", jint(St.TailPackets));
  X.put("fastpath.superblocks", jint(St.Superblocks));
  X.put("soak.oracle_checks", jint(OracleChecks));
  X.put("checkpoint.bytes", jint(Snapshot.size()));
  X.put("checkpoint.snapshots", jint(Snapshots));
}

//===----------------------------------------------------------------------===//
// soak-fast: fastpath::Engine over BatchMemory, sparse runPacket sample
//===----------------------------------------------------------------------===//

/// The fast path's contract with the interpreter, as the threaded soak
/// holds it: identical RunResult and identical memory images.
bool fastMatches(const sim::RunResult &FR, const fastpath::BatchMemory &BM,
                 const soak::PacketOutcome &O) {
  const sim::RunResult &IR = O.Alloc;
  if (FR.Ok != IR.Ok || FR.Trap != IR.Trap ||
      FR.Error.message() != IR.Error.message() ||
      FR.Instructions != IR.Instructions || FR.Cycles != IR.Cycles ||
      FR.HaltValues != IR.HaltValues)
    return false;
  return BM.image(MemSpace::Sram) == O.AllocMem.Sram &&
         BM.image(MemSpace::Sdram) == O.AllocMem.Sdram &&
         BM.image(MemSpace::Scratch) == O.AllocMem.Scratch;
}

void fastPass(uint64_t Seed, const Setup &S, Tracer &T, Checks &C,
              PassRecord &Rec) {
  soak::SoakOptions SO;
  SO.Seed = Seed;
  sim::RunOptions RO;
  RO.Lat = SO.Lat;
  RO.MaxInstructions = SO.Budget;

  StreamFold All;
  for (unsigned A = 0; A != NumApps; ++A) {
    const soak::AppHarness &H = *S.Apps[A];
    Span Stream(T, "soak.stream", A);
    SegmentClock Seg(Rec.Segments);
    uint64_t NextSeg = FastPackets / 4;
    fastpath::Translated Tr;
    {
      Span Sp(T, "fastpath.translate", A);
      Tr = fastpath::translate(H.compiled().Alloc.Prog, RO.Lat);
    }
    fastpath::Engine Eng(Tr);
    fastpath::BatchMemory BM(H.baseSim());
    uint64_t Instructions = 0;
    std::vector<soak::SoakPacket> Pkts;
    soak::PacketTemplateCache Tmpl;
    Batch Gen(T, "soak.gen", static_cast<int>(A));
    Batch Reset(T, "fastpath.mem_reset", static_cast<int>(A));
    Batch Run(T, "fastpath.engine", static_cast<int>(A));
    for (uint64_t Base = 0; Base < FastPackets; Base += FastBatch) {
      const uint64_t N = std::min(FastBatch, FastPackets - Base);
      int64_t TG = Gen.stamp();
      H.generateBatch(Base, N, Seed, SO.Mix, Tmpl, Pkts);
      Gen.add(TG, Gen.stamp());
      for (uint64_t K = 0; K != N; ++K) {
        const soak::SoakPacket &P = Pkts[K];
        int64_t TA = Reset.stamp();
        BM.reset();
        BM.storePacket(P.Args.empty() ? 0 : P.Args[0], P.Words);
        int64_t TB = Reset.stamp();
        Reset.add(TA, TB);
        sim::RunResult FR = Eng.run(P.Args, BM, RO);
        Run.add(TB, Run.stamp());
        bool Reject = FR.Ok && H.isAppReject(FR.HaltValues);
        Instructions += FR.Instructions;
        All.add(FR, Reject, P.PayloadBytes);
        if ((Base + K) % FastOracleEvery != 0)
          continue;
        Span Sp(T, "soak.oracle", A, static_cast<int64_t>(Base + K));
        soak::PacketOutcome O = soak::runPacket(H, P, SO, /*WithOracle=*/true);
        C.expect(!O.Diverged && fastMatches(FR, BM, O),
                 formatf("%s: fast path packet %llu: %s", AppNames[A],
                         (unsigned long long)(Base + K),
                         O.Diverged ? O.What.c_str()
                                    : "differs from the interpreter"));
      }
      if (Base + N >= NextSeg) {
        Seg.mark();
        NextSeg += FastPackets / 4;
      }
    }
    Gen.flush();
    Reset.flush();
    Run.flush();
    Rec.Exact.put(appKey("sim.instructions", A), jint(Instructions));
  }
  putRate(Rec, All.Stats.Packets);
  putSimE2e(Rec.Exact, All, All.Stats.deliveredMbps());
  putRunStats(Rec.Exact, All.Stats);
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

using PassFn = void (*)(uint64_t, const Setup &, Tracer &, Checks &,
                        PassRecord &);

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string Out;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      return false;
    std::string Flag = Argv[I], V = Argv[I + 1];
    if (Flag == "--workload") {
      O.Workload = V;
    } else if (Flag == "--seed") {
      std::optional<uint64_t> N = parseInteger(V);
      if (!N)
        return false;
      O.Seed = *N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      O.Seconds = std::strtod(V.c_str(), &End);
      if (End == V.c_str() || *End || !(O.Seconds > 0))
        return false;
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (Flag == "--out") {
      O.Out = V;
    } else {
      return false;
    }
  }
  return HaveSeed && HaveSeconds && HaveTrace && !O.Out.empty();
}

std::string renderDocument(const Options &O, const Setup &S,
                           const std::vector<PassRecord> &Passes,
                           const Tracer &T, const Checks &C) {
  JsonMap Doc;
  Doc.put("workload", jstr(O.Workload));
  Doc.put("seed", jint(O.Seed));
  Doc.put("trace", O.Trace ? "1" : "0");
  auto List = [](const std::vector<double> &V) {
    std::string Out = "[";
    for (size_t I = 0; I != V.size(); ++I)
      Out += (I ? "," : "") + jnum(V[I]);
    return Out + "]";
  };
  Doc.put("setup_s", List(S.Seconds));
  JsonMap SetupCompile;
  for (unsigned A = 0; A != NumApps; ++A)
    SetupCompile.put(AppNames[A], List(S.CompileSeconds[A]));
  Doc.put("setup_compile_s", SetupCompile.render());

  // The harnesses' own allocations: the solver counters of every
  // workload's set-up compile.
  PassRecord SetupRec;
  double Objective = 0;
  for (unsigned A = 0; A != NumApps; ++A) {
    const driver::CompileResult &R = S.Apps[A]->compiled();
    putAllocStats(SetupRec, A, R.Alloc.Stats, R.Machine.numInstructions());
    Objective += R.Alloc.Stats.Objective;
  }
  SetupRec.Exact.put("alloc_objective", jobjective(Objective));
  Doc.put("setup_exact", SetupRec.Exact.render());
  Doc.put("setup_counts", SetupRec.Counts.render());

  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  Doc.put("peak_rss_mb", jnum(static_cast<double>(RU.ru_maxrss) / 1024.0));

  JsonMap Chk;
  Chk.put("attempted", jint(C.Attempted));
  Chk.put("failed", jint(C.Failed));
  std::string Failures = "[";
  for (size_t I = 0; I != C.Failures.size(); ++I)
    Failures += (I ? "," : "") + jstr(C.Failures[I]);
  Chk.put("failures", Failures + "]");
  Doc.put("checks", Chk.render());

  std::string PassList = "[";
  for (size_t I = 0; I != Passes.size(); ++I) {
    const PassRecord &P = Passes[I];
    JsonMap M;
    M.put("traced", P.Traced ? "true" : "false");
    M.put("wall_s", jnum(P.WallSeconds));
    std::string Segs = "[";
    for (size_t J = 0; J != P.Segments.size(); ++J)
      Segs += (J ? "," : "") + jnum(P.Segments[J]);
    M.put("segments", Segs + "]");
    M.put("host", P.Host.render());
    M.put("exact", P.Exact.render());
    M.put("counts", P.Counts.render());
    M.put("spans", formatf("[%zu,%zu]", P.SpanBegin, P.SpanEnd));
    PassList += (I ? "," : "") + M.render();
  }
  Doc.put("passes", PassList + "]");

  // Spans: [name, parent, app, seq, start_ns, end_ns, count, busy_ns];
  // a span's id is its index + 1, times are relative to the first span.
  std::vector<const char *> Names;
  auto NameIndex = [&](const char *N) {
    for (size_t I = 0; I != Names.size(); ++I)
      if (Names[I] == N || std::strcmp(Names[I], N) == 0)
        return I;
    Names.push_back(N);
    return Names.size() - 1;
  };
  const std::vector<SpanRecord> &Spans = T.spans();
  int64_t Epoch = Spans.empty() ? 0 : Spans.front().Start;
  std::string SpanList = "[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &R = Spans[I];
    SpanList += formatf("%s[%zu,%u,%d,%lld,%lld,%lld,%llu,%lld]", I ? "," : "",
                        NameIndex(R.Name), R.Parent, R.App, (long long)R.Seq,
                        (long long)(R.Start - Epoch),
                        (long long)(R.End - Epoch),
                        (unsigned long long)R.Count, (long long)R.Busy);
  }
  std::string NameList = "[";
  for (size_t I = 0; I != Names.size(); ++I)
    NameList += (I ? "," : "") + jstr(Names[I]);
  Doc.put("span_names", NameList + "]");
  Doc.put("spans", SpanList + "]");
  return Doc.render() + "\n";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <compile|chip-nat|soak-fast> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "--out <file>\n");
    return 2;
  }
  PassFn Pass = nullptr;
  if (O.Workload == "compile")
    Pass = compilePass;
  else if (O.Workload == "chip-nat")
    Pass = chipPass;
  else if (O.Workload == "soak-fast")
    Pass = fastPass;
  if (!Pass) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  Setup S;
  S.Sources[0] = apps::aesNovaSource();
  S.Sources[1] = apps::kasumiNovaSource();
  S.Sources[2] = apps::natNovaSource();
  if (!setupRep(S))
    return 1;

  Tracer T;
  Checks C;
  std::vector<PassRecord> Passes;
  // Every run has at least two passes (the in-run exact-field check);
  // a traced run has at least two of each kind.
  const unsigned MinPasses = O.Trace ? 4 : 2;
  // The other set-up repetitions are spread over the run (after the
  // passes that cross each fifth of it), so a stretch of host
  // interference cannot slow all of them. Their harnesses replace the
  // first ones: the serial set-up compile is deterministic.
  unsigned Reps = 1;
  int64_t Start = nowNs();
  for (unsigned I = 0;
       I < MinPasses || secondsBetween(Start, nowNs()) < O.Seconds; ++I) {
    if (Reps < SetupReps &&
        secondsBetween(Start, nowNs()) >= Reps * O.Seconds / SetupReps) {
      if (!setupRep(S))
        return 1;
      ++Reps;
    }
    PassRecord Rec;
    Rec.Traced = O.Trace && I % 2 == 1;
    T.setEnabled(Rec.Traced);
    Rec.SpanBegin = T.spans().size();
    {
      Span Root(T, "bench.pass", -1, I);
      int64_t T0 = nowNs();
      Pass(O.Seed, S, T, C, Rec);
      Rec.WallSeconds = secondsBetween(T0, nowNs());
    }
    Rec.SpanEnd = T.spans().size();
    Passes.push_back(std::move(Rec));
  }
  T.setEnabled(false);
  for (; Reps < SetupReps; ++Reps)
    if (!setupRep(S))
      return 1;

  std::string Doc = renderDocument(O, S, Passes, T, C);
  std::FILE *F = std::fopen(O.Out.c_str(), "w");
  if (!F || std::fwrite(Doc.data(), 1, Doc.size(), F) != Doc.size() ||
      std::fclose(F) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.Out.c_str());
    return 1;
  }
  return 0;
}
