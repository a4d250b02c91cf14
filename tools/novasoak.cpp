//===- novasoak.cpp - Adversarial packet soak driver ----------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Compiles the paper's benchmark applications once, then streams seeded
// adversarial traffic through the allocated code with the differential
// oracle on. Exit codes: 0 clean soak, 1 oracle divergence found,
// 2 usage error or an unwritable --json file, 4 compile/allocation
// failure, 5 checkpoint/resume failure (no valid snapshot, or the newest
// snapshot belongs to a different run).
//
//===----------------------------------------------------------------------===//

#include "soak/ChipSoak.h"
#include "soak/Soak.h"
#include "support/ArgParser.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace nova;

static void usage() {
  std::fprintf(
      stderr,
      "usage: novasoak [options]\n"
      "  --app <name>        aes, kasumi, nat, or all (default all)\n"
      "  --packets <n>       packets per app (default 10000)\n"
      "  --seed <s>          stream seed (default 1)\n"
      "  --budget <n>        per-packet instruction watchdog (default "
      "50000)\n"
      "  --mix v,t,o,c,f     class weights: valid,truncated,oversized,\n"
      "                      corrupt,fuzz (default 55,15,10,10,10)\n"
      "  --exec <mode>       interp (reference, default) or threaded\n"
      "                      (translate once, computed-goto dispatch,\n"
      "                      sampled interpreter oracle); with --chip,\n"
      "                      threaded runs contexts on the segmented\n"
      "                      fast path, bit-identical to interp\n"
      "  --oracle-every <n>  differential-check every nth packet\n"
      "                      (default 1 = all; 0 disables the oracle;\n"
      "                      threaded mode defaults to 10)\n"
      "  --oracle-rate <n>   alias for --oracle-every\n"
      "  --no-shrink         keep the first diverging packet as-is\n"
      "  --fail-fast         stop a stream at its first divergence\n"
      "  --time-limit <s>    ILP budget per app compile (default 60)\n"
      "  --inject-fault <kind>[@<after>][x<times>][~<m>]\n"
      "                      arm a sim-domain fault (after and times are\n"
      "                      integers in 0..4294967295). Kinds:\n"
      "%s"
      "  --fault-schedule <kind>@<rate>[~<m>][,...]\n"
      "                      chip-domain faults (requires --chip): each\n"
      "                      fires every rate-th opportunity (rate >= 1);\n"
      "                      the supervisor recovers and accounts each in\n"
      "                      the --json recovery object. Kinds:\n"
      "%s"
      "  --json <file>       write per-app reports as a JSON array\n"
      "  --quiet             suppress the per-app summary tables\n"
      "  --chip              run the whole-chip simulator: RX sharding\n"
      "                      across micro-engines, hardware contexts\n"
      "                      swapping on memory references, contended\n"
      "                      channels, in-order TX retirement\n"
      "  --me-count <n>      processing micro-engines, 1..8 (chip mode\n"
      "                      only; default 6)\n"
      "  --contexts <n>      hardware contexts per ME, 1..8 (chip mode\n"
      "                      only; default 4)\n"
      "  --ring-depth <n>    scratch ring capacity, 1..64 (chip mode\n"
      "                      only; default 4)\n"
      "  --checkpoint-every <n>\n"
      "                      snapshot resumable state every n retired\n"
      "                      packets (requires --checkpoint-dir and a\n"
      "                      single --app)\n"
      "  --checkpoint-dir <dir>\n"
      "                      directory for ckpt-<retired>.nova-ckpt\n"
      "                      snapshots (atomic write+rename)\n"
      "  --resume <dir>      resume from the newest valid snapshot in\n"
      "                      dir; the finished report is byte-identical\n"
      "                      to an uninterrupted run (exit 5 when no\n"
      "                      valid matching snapshot exists)\n"
      "  --progress <n>      stderr heartbeat every n retired packets:\n"
      "                      packets, pkt/s, last durable checkpoint\n"
      "  --kill-after <n>    crash harness: raise SIGKILL once n packets\n"
      "                      have retired (tests mid-run death)\n"
      "  --stable-json       zero wall-clock fields (and, with --chip,\n"
      "                      the event-kernel work counters) in --json\n"
      "                      output so resumed and uninterrupted runs\n"
      "                      compare byte-for-byte\n",
      faultKindUsage(FaultDomain::Sim, "                        ").c_str(),
      faultKindUsage(FaultDomain::Chip, "                        ").c_str());
}

namespace {

bool parseMix(const std::string &Text, soak::ClassMix &Mix) {
  uint64_t W[5];
  size_t Pos = 0;
  for (unsigned I = 0; I != 5; ++I) {
    size_t Comma = I == 4 ? Text.size() : Text.find(',', Pos);
    if (Comma == std::string::npos)
      return false;
    std::optional<uint64_t> V = parseInteger(Text.substr(Pos, Comma - Pos));
    if (!V || *V > 1000000)
      return false;
    W[I] = *V;
    Pos = Comma + 1;
  }
  Mix.Valid = static_cast<unsigned>(W[0]);
  Mix.Truncated = static_cast<unsigned>(W[1]);
  Mix.Oversized = static_cast<unsigned>(W[2]);
  Mix.Corrupt = static_cast<unsigned>(W[3]);
  Mix.Fuzz = static_cast<unsigned>(W[4]);
  return Mix.total() != 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string AppName = "all";
  std::string JsonPath;
  bool Quiet = false;
  bool StableJson = false;
  bool ChipMode = false;
  bool SawOracleEvery = false;
  bool SawMeCount = false, SawContexts = false, SawRingDepth = false;
  bool SawFaultSchedule = false;
  chip::ChipParams Chip;
  std::vector<FaultSpec> Faults;
  soak::SoakOptions Opts;
  driver::CompileOptions COpts = soak::AppHarness::defaultCompileOptions();

  ArgParser P{"novasoak", argc, argv};
  while (!P.done()) {
    // Numeric flags: parsed and range-checked in place.
    const char *Positive = "a positive integer";
    if (P.intFlag("--packets", Opts.Packets, Positive, 1) ||
        P.intFlag("--seed", Opts.Seed, "an integer") ||
        P.intFlag("--budget", Opts.Budget, Positive, 1) ||
        P.intFlag("--checkpoint-every", Opts.Ckpt.Every, Positive, 1) ||
        P.intFlag("--progress", Opts.Ckpt.ProgressEvery, Positive, 1) ||
        P.intFlag("--kill-after", Opts.Ckpt.KillAfter, Positive, 1) ||
        P.secondsFlag("--time-limit", COpts.Alloc.Mip.TimeLimitSeconds))
      continue;
    std::string V;
    if (P.valueFlag("--app", V))
      AppName = V;
    else if (P.valueFlag("--mix", V)) {
      if (!P.Failed && !parseMix(V, Opts.Mix))
        P.fail("--mix expects five comma-separated weights with a nonzero "
               "sum, got '%s'",
               V.c_str());
    } else if (P.valueFlag("--exec", V)) {
      if (!P.Failed) {
        if (V == sim::execModeName(sim::ExecMode::Interp))
          Opts.Exec = sim::ExecMode::Interp;
        else if (V == sim::execModeName(sim::ExecMode::Threaded))
          Opts.Exec = sim::ExecMode::Threaded;
        else
          P.fail("--exec expects 'interp' or 'threaded', got '%s'", V.c_str());
      }
    } else if (P.intFlag("--oracle-every", Opts.OracleEvery, "an integer") ||
               P.intFlag("--oracle-rate", Opts.OracleEvery, "an integer"))
      SawOracleEvery = true;
    else if (P.boolFlag("--no-shrink"))
      Opts.Shrink = false;
    else if (P.boolFlag("--fail-fast"))
      Opts.FailFast = true;
    else if (P.boolFlag("--quiet"))
      Quiet = true;
    else if (P.valueFlag("--inject-fault", V)) {
      if (!P.Failed) {
        FaultSpec Spec;
        std::string Error;
        if (!parseFaultSpec(V, FaultDomain::Sim, Spec, Error))
          P.fail("--inject-fault: %s", Error.c_str());
        else
          Faults.push_back(Spec);
      }
    } else if (P.valueFlag("--fault-schedule", V)) {
      SawFaultSchedule = true;
      if (!P.Failed) {
        std::string Error;
        if (!parseFaultSchedule(V, Chip.Faults, Error))
          P.fail("--fault-schedule: %s", Error.c_str());
      }
    } else if (P.valueFlag("--json", V)) {
      if (!P.Failed)
        JsonPath = V;
    } else if (P.boolFlag("--chip"))
      ChipMode = true;
    else if (P.intFlag("--me-count", Chip.MP.MeCount, "an integer in 1..8", 1,
                       8))
      SawMeCount = true;
    else if (P.intFlag("--contexts", Chip.MP.ContextsPerMe,
                       "an integer in 1..8", 1, 8))
      SawContexts = true;
    else if (P.intFlag("--ring-depth", Chip.RingDepth, "an integer in 1..64",
                       1, 64))
      SawRingDepth = true;
    else if (P.valueFlag("--checkpoint-dir", V)) {
      if (!P.Failed)
        Opts.Ckpt.Dir = V;
    } else if (P.valueFlag("--resume", V)) {
      if (!P.Failed) {
        Opts.Ckpt.Dir = V;
        Opts.Ckpt.Resume = true;
      }
    } else if (P.boolFlag("--stable-json"))
      StableJson = true;
    else
      P.fail("unknown option '%s'", P.current());
  }
  // Chip-mode combination rules, enforced before any compile work: the
  // topology flags only mean something with --chip, and a single-shot
  // chip run cannot stop mid-stream. --exec threaded composes with
  // --chip since segmented fast-path execution (fastpath::Segment) keeps
  // the discrete-event schedule bit-identical; --inject-fault composes
  // too — an armed injector pins execution to the interpreter-exact slow
  // tier in both modes, so the retire-time oracle still catches flips.
  if (!ChipMode && (SawMeCount || SawContexts || SawRingDepth))
    P.fail("--me-count/--contexts/--ring-depth require --chip");
  // Chip-domain faults only exist inside the whole-chip scheduler; a
  // schedule without --chip would be a silent no-op, so reject it.
  if (!ChipMode && SawFaultSchedule)
    P.fail("--fault-schedule requires --chip");
  if (ChipMode && Opts.FailFast)
    P.fail("--fail-fast is incompatible with --chip (a chip run drains "
           "its whole stream)");
  // Checkpoints are per-stream: one directory holds one (app, seed,
  // config) run's snapshots, so multi-app invocations would interleave
  // incompatible files. Require a single app.
  if ((Opts.Ckpt.active() || Opts.Ckpt.KillAfter != 0) &&
      AppName == "all")
    P.fail("--checkpoint-every/--resume/--kill-after require a single "
           "--app");
  if (Opts.Ckpt.Every != 0 && Opts.Ckpt.Dir.empty())
    P.fail("--checkpoint-every requires --checkpoint-dir (or --resume)");
  // The fast path exists to amortize the oracle: checking every packet
  // in threaded mode would be interpreter-bound, so default to 1-in-10
  // unless the user picked a rate.
  if (!SawOracleEvery && Opts.Exec == sim::ExecMode::Threaded)
    Opts.OracleEvery = 10;
  if (P.Failed) {
    usage();
    return 2;
  }

  std::vector<std::string> Apps;
  if (AppName == "all")
    Apps = {"aes", "kasumi", "nat"};
  else
    Apps = {AppName};

  // Compile everything before arming faults: injection targets the
  // packet runtime here, not the allocator.
  std::vector<std::unique_ptr<soak::AppHarness>> Harnesses;
  for (const std::string &Name : Apps) {
    std::string Error;
    auto H = soak::AppHarness::create(Name, Error, COpts);
    if (!H) {
      std::fprintf(stderr, "novasoak: %s: %s\n", Name.c_str(),
                   Error.c_str());
      return AppName == "all" || Name == "aes" || Name == "kasumi" ||
                     Name == "nat"
                 ? 4
                 : 2;
    }
    Harnesses.push_back(std::move(H));
  }

  ScopedFaultInjection Armed(std::move(Faults));

  bool AnyDivergence = false;
  bool SetupError = false;
  JsonWriter Json;
  Json.beginArray();
  for (const auto &H : Harnesses) {
    // A standalone run fills only the report's Base; its chip fields stay
    // default and are neither printed nor written.
    soak::ChipSoakReport Rep;
    if (ChipMode) {
      soak::ChipSoakOptions CO;
      CO.Base = Opts;
      CO.Chip = Chip;
      Rep = soak::runChipSoak(*H, CO);
    } else {
      Rep.Base = soak::runSoak(*H, Opts);
    }
    if (const Status &E = Rep.Base.CkptError; !E.ok()) {
      std::fprintf(stderr, "novasoak: %s\n", E.message().c_str());
      for (const std::string &Hint : E.hints())
        std::fprintf(stderr, "novasoak: hint: %s\n", Hint.c_str());
      return 5;
    }
    if (!Rep.Setup.ok()) {
      std::fprintf(stderr, "novasoak: %s: %s\n", H->name().c_str(),
                   Rep.Setup.message().c_str());
      SetupError = true;
    }
    if (StableJson)
      soak::stabilize(Rep);
    if (!Quiet && ChipMode)
      soak::printChipReport(Rep, stdout);
    else if (!Quiet)
      soak::printReport(Rep.Base, stdout);
    if (Rep.Base.Divergences)
      AnyDivergence = true;
    Json.object([&] {
      if (ChipMode)
        soak::chipReportFields(Json, Rep);
      else
        soak::reportFields(Json, Rep.Base);
    });
  }
  Json.endArray();

  if (!JsonPath.empty()) {
    if (Status S = Json.writeFile(JsonPath); !S.ok()) {
      std::fprintf(stderr, "novasoak: %s\n", S.message().c_str());
      return 2;
    }
  }

  if (SetupError)
    return 2;
  return AnyDivergence ? 1 : 0;
}
