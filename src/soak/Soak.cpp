//===- Soak.cpp - Soak runner, differential oracle, shrinker --------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "soak/Soak.h"

#include "apps/AppSources.h"
#include "cps/Eval.h"
#include "fastpath/FastPath.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <climits>
#include <csignal>

using namespace nova;
using namespace nova::soak;

//===----------------------------------------------------------------------===//
// AppHarness
//===----------------------------------------------------------------------===//

driver::CompileOptions AppHarness::defaultCompileOptions() {
  driver::CompileOptions Opts;
  // Soaking wants packets, not optimality proofs: bound the per-app ILP
  // and accept the incumbent rung (the ladder guarantees verified code).
  Opts.Alloc.Mip.TimeLimitSeconds = 60.0;
  Opts.Alloc.FailurePolicy = alloc::OnIlpFailure::Incumbent;
  return Opts;
}

std::unique_ptr<AppHarness>
AppHarness::create(const std::string &Name, std::string &Error,
                   const driver::CompileOptions &Opts) {
  std::unique_ptr<AppHarness> H(new AppHarness());
  H->Name = Name;
  std::string Source;
  if (Name == "aes") {
    H->Id = AppId::Aes;
    Source = apps::aesNovaSource();
  } else if (Name == "kasumi") {
    H->Id = AppId::Kasumi;
    Source = apps::kasumiNovaSource();
  } else if (Name == "nat") {
    H->Id = AppId::Nat;
    Source = apps::natNovaSource();
  } else {
    Error = "unknown application '" + Name + "' (expected aes, kasumi, nat)";
    return nullptr;
  }
  H->App = driver::compileNova(Source, Name + ".nova", Opts);
  if (!H->App->Ok) {
    Error = H->App->ErrorText;
    return nullptr;
  }
  H->Code = sim::decode(H->App->Alloc.Prog);
  H->Lowered = cps::LoweredProgram(H->App->Cps);
  switch (H->Id) {
  case AppId::Aes:
    apps::loadAesEnvironment(H->Base);
    break;
  case AppId::Kasumi:
    apps::loadKasumiEnvironment(H->Base);
    break;
  case AppId::Nat:
    break; // NAT needs no table environment
  }
  return H;
}

bool AppHarness::isAppReject(const std::vector<uint32_t> &Halt) const {
  if (Halt.size() != 1)
    return false;
  // Kasumi's only handler codes are the two top values; its normal result
  // l^r ranges over the whole word, so a high-half test would misfile
  // one delivery in 2^16.
  if (Id == AppId::Kasumi)
    return Halt[0] >= 0xFFFFFFFEu;
  return (Halt[0] >> 16) == 0xFFFFu;
}

//===----------------------------------------------------------------------===//
// Differential oracle
//===----------------------------------------------------------------------===//

namespace {

/// First difference between two final memory images, or true when equal.
/// Templated over the image type: WordMap (the simulators' and the CPS
/// evaluator's memories) and fastpath::BatchMemory's image iterate the
/// same ascending (address, value) sequence.
template <typename ImgA, typename ImgB>
bool sameImage(const ImgA &A, const ImgB &B, const char *AName,
               const char *BName, std::string &Why,
               const char *What = "sdram") {
  auto IA = A.begin(), IB = B.begin();
  while (IA != A.end() && IB != B.end()) {
    if (IA->first != IB->first || IA->second != IB->second) {
      Why = formatf("%s differs: %s has [0x%x]=0x%x, %s has [0x%x]=0x%x",
                    What, AName, IA->first, IA->second, BName, IB->first,
                    IB->second);
      return false;
    }
    ++IA;
    ++IB;
  }
  if (IA != A.end() || IB != B.end()) {
    bool ALeft = IA != A.end();
    uint32_t Addr = ALeft ? IA->first : IB->first;
    uint32_t Val = ALeft ? IA->second : IB->second;
    Why = formatf("%s differs: only %s has [0x%x]=0x%x", What,
                  ALeft ? AName : BName, Addr, Val);
    return false;
  }
  return true;
}

bool sameHalts(const std::vector<uint32_t> &A, const std::vector<uint32_t> &B,
               const char *AName, const char *BName, std::string &Why) {
  if (A.size() != B.size()) {
    Why = formatf("halt arity differs: %s returned %zu values, %s %zu",
                  AName, A.size(), BName, B.size());
    return false;
  }
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I] != B[I]) {
      Why = formatf("halt value %zu differs: %s 0x%x, %s 0x%x", I, AName,
                    A[I], BName, B[I]);
      return false;
    }
  return true;
}

} // namespace

PacketOutcome soak::runPacket(const AppHarness &App, const SoakPacket &P,
                              const SoakOptions &Opts, bool WithOracle) {
  PacketOutcome O;
  sim::Memory &MA = O.AllocMem;
  MA = App.baseSim();
  // Per-packet injection windows: a diverging packet reproduces
  // stand-alone, which is what makes shrinking deterministic.
  if (FaultInjector::armed())
    FaultInjector::instance().rearm();

  sim::RunOptions RO;
  RO.Lat = Opts.Lat;
  RO.MaxInstructions = Opts.Budget;

  apps::storePacket(MA.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
  O.Alloc = sim::runAllocated(App.decoded(), P.Args, MA, RO);
  O.AppReject = O.Alloc.Ok && App.isAppReject(O.Alloc.HaltValues);
  if (!WithOracle)
    return O;
  // Watchdog exhaustion is mode-specific by design (the budgets differ),
  // so a watchdog drop is not compared and the oracle runs are skipped.
  if (!O.Alloc.Ok && O.Alloc.Trap == sim::TrapKind::Watchdog)
    return O;

  // Functional oracle: same machine semantics over virtual temporaries.
  // 4x the instruction budget: no spill reload traffic, but also no
  // reason to starve it into a false watchdog.
  sim::RunOptions RF = RO;
  RF.MaxInstructions = Opts.Budget * 4;
  sim::Memory MF = App.baseSim();
  apps::storePacket(MF.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
  sim::RunResult F =
      sim::runFunctional(App.compiled().Machine, P.Args, MF, RF);

  std::string Why;
  if (!O.Alloc.Ok) {
    // Drop path: every trap but the watchdog must strike functionally
    // too, with the same kind — a bit flip that redirects an address
    // shows up right here.
    if (F.Ok) {
      O.Diverged = true;
      O.What = formatf("allocated trapped (%s) but functional delivered",
                       sim::trapKindName(O.Alloc.Trap));
    } else if (F.Trap != O.Alloc.Trap) {
      O.Diverged = true;
      O.What = formatf("trap kind differs: allocated %s, functional %s",
                       sim::trapKindName(O.Alloc.Trap),
                       sim::trapKindName(F.Trap));
    }
    return O;
  }

  if (!F.Ok) {
    if (F.Trap == sim::TrapKind::Watchdog) {
      O.OracleBudgetMiss = true;
      return O;
    }
    O.Diverged = true;
    O.What = formatf("functional trapped (%s) but allocated delivered",
                     sim::trapKindName(F.Trap));
    return O;
  }
  if (!sameHalts(O.Alloc.HaltValues, F.HaltValues, "allocated",
                 "functional", Why) ||
      !sameImage(MA.Sdram, MF.Sdram, "allocated", "functional", Why)) {
    O.Diverged = true;
    O.What = Why;
    return O;
  }

  // CPS reference evaluator: the language's observable semantics. Only
  // meaningful on delivered packets — the evaluator deliberately has no
  // bounds model. Steps per machine instruction are not one-to-one, so
  // it gets a generous multiple.
  uint64_t Steps64 = Opts.Budget * 64;
  unsigned MaxSteps = static_cast<unsigned>(
      std::min<uint64_t>(Steps64, UINT_MAX));
  cps::EvalMemory ME = App.baseEval();
  apps::storePacket(ME.Sdram, P.Args.empty() ? 0 : P.Args[0], P.Words);
  cps::EvalResult E = cps::evaluate(App.lowered(), P.Args, ME, MaxSteps);
  if (!E.Ok) {
    if (E.Error.find("step limit") != std::string::npos) {
      O.OracleBudgetMiss = true;
      return O;
    }
    O.Diverged = true;
    O.What = "cps evaluator failed: " + E.Error;
    return O;
  }
  if (!sameHalts(O.Alloc.HaltValues, E.HaltValues, "allocated", "cps",
                 Why) ||
      !sameImage(MA.Sdram, ME.Sdram, "allocated", "cps", Why)) {
    O.Diverged = true;
    O.What = Why;
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Fast-path vs interpreter comparison (threaded mode)
//===----------------------------------------------------------------------===//

namespace {

/// Holds the fast path to its contract: bit-identical RunResult and
/// memory effects vs the interpreter's run of the same packet.
bool fastMatches(const sim::RunResult &FR, const fastpath::BatchMemory &BM,
                 const PacketOutcome &O, std::string &Why) {
  const sim::RunResult &IR = O.Alloc;
  if (FR.Ok != IR.Ok) {
    Why = formatf("fastpath %s but interpreter %s",
                  FR.Ok ? "delivered" : "trapped",
                  IR.Ok ? "delivered" : "trapped");
    return false;
  }
  if (FR.Trap != IR.Trap) {
    Why = formatf("trap kind differs: fastpath %s, interpreter %s",
                  sim::trapKindName(FR.Trap), sim::trapKindName(IR.Trap));
    return false;
  }
  if (FR.Error.message() != IR.Error.message()) {
    Why = formatf("trap message differs: fastpath \"%s\", interpreter "
                  "\"%s\"",
                  FR.Error.message().c_str(), IR.Error.message().c_str());
    return false;
  }
  if (FR.Instructions != IR.Instructions) {
    Why = formatf("instruction count differs: fastpath %llu, interpreter "
                  "%llu",
                  (unsigned long long)FR.Instructions,
                  (unsigned long long)IR.Instructions);
    return false;
  }
  if (FR.Cycles != IR.Cycles) {
    Why = formatf("cycle count differs: fastpath %llu, interpreter %llu",
                  (unsigned long long)FR.Cycles,
                  (unsigned long long)IR.Cycles);
    return false;
  }
  if (!sameHalts(FR.HaltValues, IR.HaltValues, "fastpath", "interpreter",
                 Why))
    return false;
  static const char *const SpaceNames[3] = {"sram", "sdram", "scratch"};
  for (unsigned S = 0; S != 3; ++S) {
    MemSpace Space = static_cast<MemSpace>(S);
    if (!sameImage(BM.image(Space), *O.AllocMem.space(Space), "fastpath",
                   "interpreter", Why, SpaceNames[S]))
      return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

namespace {

/// Delta-debugs \p P.Words against \p Diverges; \p Runs counts the
/// candidate executions (bounded).
std::vector<uint32_t>
shrinkWords(const SoakPacket &P, unsigned &Runs,
            const std::function<bool(const SoakPacket &)> &Diverges) {
  constexpr unsigned MaxRuns = 600;
  std::vector<uint32_t> Cur = P.Words;
  SoakPacket Q = P; // reused candidate: only Words vary per run
  auto diverges = [&](const std::vector<uint32_t> &W) {
    if (Runs >= MaxRuns)
      return false;
    ++Runs;
    Q.Words = W;
    return Diverges(Q);
  };
  // Delta-debugging pass: drop chunks, halving the chunk size.
  for (size_t Chunk = std::max<size_t>(Cur.size() / 2, 1);;) {
    for (size_t Pos = 0; Pos + Chunk <= Cur.size();) {
      std::vector<uint32_t> Cand(Cur.begin(), Cur.begin() + Pos);
      Cand.insert(Cand.end(), Cur.begin() + Pos + Chunk, Cur.end());
      if (diverges(Cand))
        Cur = std::move(Cand);
      else
        Pos += Chunk;
    }
    if (Chunk == 1)
      break;
    Chunk /= 2;
  }
  // Simplification pass: zero every surviving word that tolerates it.
  for (size_t I = 0; I != Cur.size(); ++I) {
    if (Cur[I] == 0)
      continue;
    std::vector<uint32_t> Cand = Cur;
    Cand[I] = 0;
    if (diverges(Cand))
      Cur = std::move(Cand);
  }
  return Cur;
}

} // namespace

void soak::noteDivergence(
    SoakReport &Rep, const SoakPacket &P, std::string What, bool Shrink,
    const std::function<bool(const SoakPacket &)> &Diverges) {
  ++Rep.Divergences;
  Divergence &D = Rep.First;
  if (D.Found)
    return;
  D.Found = true;
  D.Index = P.Index;
  D.Seed = P.Seed;
  D.Class = P.Class;
  D.What = std::move(What);
  D.Words = D.ShrunkWords = P.Words;
  D.Args = P.Args;
  if (Shrink)
    D.ShrunkWords = shrinkWords(P, D.ShrinkRuns, Diverges);
}

//===----------------------------------------------------------------------===//
// Checkpoint progress serialization
//===----------------------------------------------------------------------===//

namespace {

template <class Ar, class Self> void divergenceFields(Ar &A, Self &D) {
  io(A, D.Found, D.Index, D.Seed, D.Class, D.What, D.Words, D.Args,
     D.ShrunkWords, D.ShrinkRuns);
}

template <class Ar, class Rep, class Cur>
void progressFields(Ar &A, Rep &R, Cur &Cursor) {
  io(A, Cursor);
  fixed(A, R.ClassCounts);
  io(A, R.Stats, R.OracleChecks, R.OracleBudgetMisses, R.Divergences);
  divergenceFields(A, R.First);
}

} // namespace

void soak::saveSoakProgress(BinWriter &W, const SoakReport &R,
                            uint64_t Cursor) {
  progressFields(W, R, Cursor);
}

void soak::restoreSoakProgress(BinReader &R, SoakReport &Rep,
                               uint64_t &Cursor) {
  progressFields(R, Rep, Cursor);
}

ckpt::CheckpointMeta soak::checkpointMeta(const AppHarness &App,
                                          const SoakOptions &Opts) {
  ckpt::CheckpointMeta M;
  M.App = App.name();
  M.Seed = Opts.Seed;
  M.Exec = static_cast<uint8_t>(Opts.Exec);
  M.Chip = false;
  M.Packets = Opts.Packets;
  M.OracleEvery = Opts.OracleEvery;
  M.Budget = Opts.Budget;
  M.Mix[0] = Opts.Mix.Valid;
  M.Mix[1] = Opts.Mix.Truncated;
  M.Mix[2] = Opts.Mix.Oversized;
  M.Mix[3] = Opts.Mix.Corrupt;
  M.Mix[4] = Opts.Mix.Fuzz;
  M.CodeHash = ckpt::codeHash(App.compiled().Alloc.Prog);
  return M;
}

CkptDriver::CkptDriver(const CheckpointOptions &CK,
                       ckpt::CheckpointMeta Meta, SoakReport &Rep,
                       const Timer &Clock,
                       std::function<void(BinWriter &)> SaveExtra,
                       std::function<void(BinReader &)> RestoreExtra)
    : CK(CK), Meta(std::move(Meta)), Rep(Rep), Clock(Clock),
      SaveExtra(std::move(SaveExtra)), RestoreExtra(std::move(RestoreExtra)) {
  startAt(0);
}

void CkptDriver::startAt(uint64_t Retired) {
  NextCkpt = CK.Every ? (Retired / CK.Every + 1) * CK.Every : 0;
  NextProg =
      CK.ProgressEvery ? (Retired / CK.ProgressEvery + 1) * CK.ProgressEvery
                       : 0;
  LastCkpt = Retired;
}

bool CkptDriver::resume(uint64_t &Cursor) {
  ckpt::LoadedCheckpoint LC;
  std::vector<std::string> Notes;
  Status S = ckpt::findLatestValid(CK.Dir, Meta, LC, &Notes);
  for (const std::string &N : Notes)
    std::fprintf(stderr, "novasoak: warning: skipping checkpoint: %s\n",
                 N.c_str());
  if (!S.ok()) {
    Rep.CkptError = S;
    return false;
  }
  // Restore into scratch copies and commit only once the whole state
  // section parsed: a failed resume leaves the report and the cursor as
  // they were.
  BinReader R = LC.stateReader();
  SoakReport Restored = Rep;
  uint64_t RestoredCursor = Cursor;
  restoreSoakProgress(R, Restored, RestoredCursor);
  if (RestoreExtra)
    RestoreExtra(R);
  if (R.failed() || R.remaining() != 0) {
    Rep.CkptError = Status::error(
        StatusCode::CheckpointCorrupt, Phase::Driver,
        "checkpoint " + LC.Path + ": state section malformed");
    return false;
  }
  Rep = std::move(Restored);
  Cursor = RestoredCursor;
  Rep.ResumedFrom = LC.Path;
  std::fprintf(stderr, "novasoak: resumed %s from %s (%llu retired)\n",
               Rep.App.c_str(), LC.Path.c_str(),
               (unsigned long long)LC.Meta.PacketsRetired);
  startAt(LC.Meta.PacketsRetired);
  return true;
}

bool CkptDriver::onRetired(uint64_t Retired, uint64_t Cursor) {
  if (NextCkpt && Retired >= NextCkpt) {
    BinWriter W;
    saveSoakProgress(W, Rep, Cursor);
    if (SaveExtra)
      SaveExtra(W);
    Meta.PacketsRetired = Retired;
    if (Status S = ckpt::writeCheckpoint(CK.Dir, Meta, W.bytes()); !S.ok())
      std::fprintf(stderr, "novasoak: warning: checkpoint failed: %s\n",
                   S.message().c_str());
    else
      LastCkpt = Retired;
    NextCkpt = (Retired / CK.Every + 1) * CK.Every;
  }
  if (NextProg && Retired >= NextProg) {
    double Seconds = Clock.seconds();
    std::fprintf(stderr,
                 "novasoak: progress: app=%s retired=%llu pkt/s=%.0f "
                 "last_checkpoint=%llu\n",
                 Rep.App.c_str(), (unsigned long long)Retired,
                 Seconds > 0 ? double(Retired) / Seconds : 0,
                 (unsigned long long)LastCkpt);
    std::fflush(stderr);
    NextProg = (Retired / CK.ProgressEvery + 1) * CK.ProgressEvery;
  }
  if (CK.KillAfter && Retired >= CK.KillAfter) {
    // The crash harness wants a real mid-run death, not a clean exit:
    // nothing is flushed, no destructor runs, the checkpoint directory
    // is whatever the last atomic rename left behind.
    std::raise(SIGKILL);
  }
  return CK.StopAfter != 0 && Retired >= CK.StopAfter;
}

//===----------------------------------------------------------------------===//
// Stream runner
//===----------------------------------------------------------------------===//

namespace {

/// Threaded mode's executor: the program translated once and run packet
/// by packet on fastpath::Engine over BatchMemory. An oracle-sampled
/// packet also goes through runPacket, whose interpreter run doubles as
/// the bit-exactness check on the fast path itself (fastMatches).
struct FastStream {
  FastStream(const AppHarness &App, const SoakOptions &Opts)
      : App(App), Opts(Opts),
        T(fastpath::translate(App.compiled().Alloc.Prog, Opts.Lat)), Eng(T),
        BM(App.baseSim()) {
    RO.Lat = Opts.Lat;
    RO.MaxInstructions = Opts.Budget;
  }

  /// runPacket's verdict, but Alloc and AppReject are the fast path's
  /// run, which is what the stream accounts.
  PacketOutcome run(const SoakPacket &P, bool WithOracle) {
    if (FaultInjector::armed())
      FaultInjector::instance().rearm();
    BM.reset();
    BM.storePacket(P.Args.empty() ? 0 : P.Args[0], P.Words);
    sim::RunResult FR = Eng.run(P.Args, BM, RO);
    PacketOutcome O;
    if (WithOracle) {
      // runPacket re-arms the injector itself, so the interpreter
      // replays the exact draw sequence the fast path saw.
      O = runPacket(App, P, Opts, /*WithOracle=*/true);
      std::string Why;
      if (!O.Diverged && !fastMatches(FR, BM, O, Why)) {
        O.Diverged = true;
        O.What = "fastpath vs interpreter: " + Why;
      }
    }
    O.AppReject = FR.Ok && App.isAppReject(FR.HaltValues);
    O.Alloc = std::move(FR);
    return O;
  }

  const AppHarness &App;
  const SoakOptions &Opts;
  fastpath::Translated T;
  fastpath::Engine Eng; ///< runs T, so T must not move
  fastpath::BatchMemory BM;
  sim::RunOptions RO;
};

} // namespace

SoakReport soak::runSoak(const AppHarness &App, const SoakOptions &Opts) {
  SoakReport Rep;
  Rep.App = App.name();
  Rep.Seed = Opts.Seed;
  Rep.Exec = Opts.Exec;
  Rep.OracleEvery = Opts.OracleEvery;
  Timer Clock;

  CkptDriver CD(Opts.Ckpt, checkpointMeta(App, Opts), Rep, Clock);
  uint64_t Start = 0;
  if (Opts.Ckpt.Resume && !CD.resume(Start))
    return Rep;

  // The executor, picked once: the interpreter via runPacket, or the
  // fast path. A packet's own run, oracle included, is also what the
  // shrinker asks whether a candidate still diverges.
  std::unique_ptr<FastStream> Fast;
  if (Opts.Exec == sim::ExecMode::Threaded) {
    Timer TranslateClock;
    Fast = std::make_unique<FastStream>(App, Opts);
    Rep.TranslateSeconds = TranslateClock.seconds();
  }
  auto Run = [&](const SoakPacket &Q, bool WithOracle) {
    return Fast ? Fast->run(Q, WithOracle)
                : runPacket(App, Q, Opts, WithOracle);
  };
  auto Diverges = [&](const SoakPacket &Q) {
    return Run(Q, /*WithOracle=*/true).Diverged;
  };

  // Resuming mid-stream is safe at any index: packet I is a pure
  // function of (seed, I) and the oracle decision uses the absolute
  // index.
  SoakPacket P;
  PacketTemplateCache Tmpl;
  for (uint64_t I = Start; I != Opts.Packets; ++I) {
    App.generateInto(I, Opts.Seed, Opts.Mix, Tmpl, P);
    ++Rep.ClassCounts[static_cast<unsigned>(P.Class)];
    bool WithOracle = Opts.OracleEvery != 0 && I % Opts.OracleEvery == 0;
    PacketOutcome O = Run(P, WithOracle);
    Rep.Stats.account(O.Alloc, O.AppReject, P.PayloadBytes);
    if (WithOracle)
      ++Rep.OracleChecks;
    if (O.OracleBudgetMiss)
      ++Rep.OracleBudgetMisses;
    if (O.Diverged) {
      noteDivergence(Rep, P, std::move(O.What), Opts.Shrink, Diverges);
      if (Opts.FailFast)
        break;
    }
    // Snapshot/heartbeat only after the packet's accounting (and any
    // oracle bookkeeping) has fully landed in Rep.
    if (CD.onRetired(I + 1, I + 1)) {
      Rep.Stopped = true;
      break;
    }
  }
  Rep.WallSeconds = Clock.seconds();
  return Rep;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

void soak::stabilize(SoakReport &R) {
  R.WallSeconds = 0;
  R.TranslateSeconds = 0;
}

void soak::reportFields(JsonWriter &J, const SoakReport &R) {
  const sim::RunStats &S = R.Stats;
  J.field("schema_version", 2).field("app", R.App).field("seed", R.Seed);
  J.field("packets", S.Packets);
  J.key("classes").beginObject();
  for (unsigned C = 0; C != NumPacketClasses; ++C)
    J.field(packetClassName(static_cast<PacketClass>(C)), R.ClassCounts[C]);
  J.endObject();
  J.field("delivered", S.Delivered).field("rejected", S.Rejected);
  J.field("drops", S.Drops);
  J.key("traps").beginObject();
  for (unsigned K = 1; K != sim::NumTrapKinds; ++K)
    J.field(sim::trapKindName(static_cast<sim::TrapKind>(K)), S.Traps[K]);
  J.endObject();
  J.field("p50_cycles", S.p50Cycles()).field("p99_cycles", S.p99Cycles());
  J.field("total_cycles", S.TotalCycles);
  J.field("total_instructions", S.TotalInstructions);
  J.key("delivered_mbps").fixed(S.deliveredMbps(), 3);
  J.field("exec_mode", sim::execModeName(R.Exec));
  J.field("oracle_rate", R.OracleEvery);
  J.key("translate_seconds").fixed(R.TranslateSeconds, 6);
  J.field("oracle_checks", R.OracleChecks);
  J.field("oracle_budget_misses", R.OracleBudgetMisses);
  J.field("divergences", R.Divergences);
  J.key("wall_seconds").fixed(R.WallSeconds, 3);
  J.key("packets_per_sec").fixed(R.packetsPerSec(), 1);
  J.key("first_divergence");
  if (!R.First.Found) {
    J.null();
    return;
  }
  const Divergence &D = R.First;
  J.beginObject().field("index", D.Index).field("seed", D.Seed);
  J.field("class", packetClassName(D.Class)).field("what", D.What);
  J.key("args").array(D.Args);
  J.key("words").array(D.Words);
  J.key("shrunk_words").array(D.ShrunkWords);
  J.field("shrink_runs", D.ShrinkRuns).endObject();
}

std::string soak::reportJson(const SoakReport &R) {
  JsonWriter J;
  return J.object([&] { reportFields(J, R); }).take();
}

void soak::printReport(const SoakReport &R, std::FILE *Out) {
  const sim::RunStats &S = R.Stats;
  std::fprintf(Out, "== %s: %llu packets, seed %llu ==\n", R.App.c_str(),
               (unsigned long long)S.Packets, (unsigned long long)R.Seed);
  std::fprintf(Out, "  exec      : %s  oracle-rate=%llu",
               sim::execModeName(R.Exec), (unsigned long long)R.OracleEvery);
  if (R.Exec == sim::ExecMode::Threaded)
    std::fprintf(Out, "  translate=%.3fs", R.TranslateSeconds);
  std::fprintf(Out, "\n");
  std::fprintf(Out, "  classes   :");
  for (unsigned C = 0; C != NumPacketClasses; ++C)
    std::fprintf(Out, " %s=%llu",
                 packetClassName(static_cast<PacketClass>(C)),
                 (unsigned long long)R.ClassCounts[C]);
  std::fprintf(Out, "\n");
  std::fprintf(Out,
               "  outcome   : delivered=%llu rejected=%llu drops=%llu\n",
               (unsigned long long)S.Delivered,
               (unsigned long long)S.Rejected,
               (unsigned long long)S.Drops);
  std::fprintf(Out, "  traps     :");
  for (unsigned K = 1; K != sim::NumTrapKinds; ++K)
    if (S.Traps[K])
      std::fprintf(Out, " %s=%llu",
                   sim::trapKindName(static_cast<sim::TrapKind>(K)),
                   (unsigned long long)S.Traps[K]);
  std::fprintf(Out, "\n");
  std::fprintf(Out,
               "  cycles    : p50=%llu p99=%llu  goodput=%.1f Mbps\n",
               (unsigned long long)S.p50Cycles(),
               (unsigned long long)S.p99Cycles(), S.deliveredMbps());
  std::fprintf(Out,
               "  oracle    : checks=%llu budget-misses=%llu "
               "divergences=%llu\n",
               (unsigned long long)R.OracleChecks,
               (unsigned long long)R.OracleBudgetMisses,
               (unsigned long long)R.Divergences);
  std::fprintf(Out, "  rate      : %.0f packets/s (%.2fs wall)\n",
               R.packetsPerSec(), R.WallSeconds);
  if (R.First.Found) {
    std::fprintf(Out,
                 "  DIVERGENCE at packet %llu (seed %llu, class %s):\n"
                 "    %s\n    shrunk to %zu word(s) in %u runs:",
                 (unsigned long long)R.First.Index,
                 (unsigned long long)R.First.Seed,
                 packetClassName(R.First.Class), R.First.What.c_str(),
                 R.First.ShrunkWords.size(), R.First.ShrinkRuns);
    for (uint32_t W : R.First.ShrunkWords)
      std::fprintf(Out, " 0x%x", W);
    std::fprintf(Out, "\n");
  }
}
