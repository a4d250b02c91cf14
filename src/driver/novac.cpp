//===- novac.cpp - The Nova compiler command-line driver ------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Exit codes: 0 success, 1 compile/allocation failure, 2 usage error,
// 3 verifier violation in the emitted program.
//
//===----------------------------------------------------------------------===//

#include "alloc/Verifier.h"
#include "driver/Compiler.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace nova;

static void usage() {
  std::fprintf(
      stderr,
      "usage: novac [options] <file.nova>\n"
      "  --dump-cps        print the optimized CPS\n"
      "  --dump-machine    print the pre-allocation machine IR\n"
      "  --dump-alloc      print the allocated micro-engine code (default)\n"
      "  --no-alloc        stop before register allocation\n"
      "  --stats           print Figure 5/6/7 style statistics\n"
      "  --json <file>     write allocation statistics as JSON\n"
      "  --spill-model     always build the spill-aware ILP model\n"
      "  --time-limit <s>  ILP solve budget in seconds (default 600)\n"
      "  --node-limit <n>  branch & bound node budget\n"
      "  --on-ilp-failure {error,incumbent,baseline}\n"
      "                    how far down the degradation ladder to go when\n"
      "                    the ILP fails (default incumbent): stop with an\n"
      "                    error, accept the best timed-out incumbent, or\n"
      "                    fall back to the heuristic allocator\n"
      "  --inject-fault <kind>[@<after>][x<times>][~<mag>]\n"
      "                    arm a solver fault (testing): singular-basis,\n"
      "                    eta-drift, lp-infeasible, mip-timeout, or\n"
      "                    worker-stall (the search sleeps once per node)\n");
}

namespace {

/// Strict flag cracker: accepts "--flag value" and "--flag=value",
/// rejects missing values and anything that fails its parser. Any
/// malformed input is a usage error (exit 2) — never a silent zero.
struct ArgParser {
  int Argc;
  char **Argv;
  int I = 1;
  bool Failed = false;

  bool done() const { return I >= Argc || Failed; }
  const char *current() const { return Argv[I]; }

  /// If the current argument is --Name or --Name=..., extracts the value
  /// into \p Value and returns true.
  bool valueFlag(const char *Name, std::string &Value) {
    const char *Arg = Argv[I];
    size_t Len = std::strlen(Name);
    if (std::strncmp(Arg, Name, Len) != 0)
      return false;
    if (Arg[Len] == '=') {
      Value = Arg + Len + 1;
      ++I;
      return true;
    }
    if (Arg[Len] != '\0')
      return false; // e.g. --time-limits
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "novac: %s requires a value\n", Name);
      Failed = true;
      return true;
    }
    Value = Argv[++I];
    ++I;
    return true;
  }

  bool boolFlag(const char *Name) {
    if (std::strcmp(Argv[I], Name) != 0)
      return false;
    ++I;
    return true;
  }

  void fail(const char *Fmt, const std::string &Value) {
    std::fprintf(stderr, Fmt, Value.c_str());
    Failed = true;
  }
};

bool parseSeconds(const std::string &Text, double &Out) {
  const char *Begin = Text.c_str();
  char *End = nullptr;
  double V = std::strtod(Begin, &End);
  if (End == Begin || *End != '\0' || !(V > 0.0))
    return false;
  Out = V;
  return true;
}

bool parseCount(const std::string &Text, unsigned &Out) {
  std::optional<uint64_t> V = parseInteger(Text);
  if (!V || *V > ~0u)
    return false;
  Out = static_cast<unsigned>(*V);
  return true;
}

void writeStatsJson(const char *Path, const char *File,
                    const alloc::AllocationResult &A) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "novac: cannot write %s\n", Path);
    return;
  }
  const alloc::AllocStats &S = A.Stats;
  std::fprintf(F,
               "{\n"
               "  \"file\": \"%s\",\n"
               "  \"ok\": %s,\n"
               "  \"rung\": \"%s\",\n"
               "  \"proved_optimal\": %s,\n"
               "  \"ladder_attempts\": %u,\n"
               "  \"verifier_violations\": %u,\n"
               "  \"used_spill_model\": %s,\n"
               "  \"objective\": %.6f,\n"
               "  \"moves\": %u,\n"
               "  \"spills\": %u,\n"
               "  \"ilp\": {\"vars\": %u, \"cons\": %u, \"objterms\": %u},\n"
               "  \"solve\": {\"nodes\": %u, \"total_s\": %.3f, "
               "\"root_lp_s\": %.3f, \"lp_iters\": %u, "
               "\"factorizations\": %u, \"eta_pivots\": %u, "
               "\"factor_s\": %.3f},\n"
               "  \"regassign\": {\"stays\": %u, \"edges\": %u, "
               "\"attempts\": %u, \"splits\": %u, \"seconds\": %.4f}\n"
               "}\n",
               File, A.Ok ? "true" : "false", alloc::rungName(S.Rung),
               S.ProvedOptimal ? "true" : "false", S.LadderAttempts,
               S.VerifierViolations, S.UsedSpillModel ? "true" : "false",
               S.Objective, S.Moves, S.Spills, S.IlpSize.NumVariables,
               S.IlpSize.NumConstraints, S.IlpSize.NumObjectiveTerms,
               S.Solve.Nodes, S.Solve.TotalSeconds, S.Solve.RootLpSeconds,
               S.Solve.LpIterations, S.Solve.Factorizations,
               S.Solve.EtaPivots, S.Solve.FactorSeconds, S.RegAssign.Stays,
               S.RegAssign.Edges, S.RegAssign.Attempts, S.RegAssign.Splits,
               S.RegAssign.Seconds);
  std::fclose(F);
}

} // namespace

int main(int argc, char **argv) {
  bool DumpCps = false, DumpMachine = false, DumpAlloc = false;
  bool Stats = false;
  std::string JsonPath;
  std::vector<FaultSpec> Faults;
  driver::CompileOptions Opts;
  Opts.Alloc.Mip.TimeLimitSeconds = 600.0;
  const char *File = nullptr;

  ArgParser P{argc, argv};
  while (!P.done()) {
    std::string V;
    if (P.boolFlag("--dump-cps"))
      DumpCps = true;
    else if (P.boolFlag("--dump-machine"))
      DumpMachine = true;
    else if (P.boolFlag("--dump-alloc"))
      DumpAlloc = true;
    else if (P.boolFlag("--no-alloc"))
      Opts.Allocate = false;
    else if (P.boolFlag("--stats"))
      Stats = true;
    else if (P.boolFlag("--spill-model"))
      Opts.Alloc.ForceSpillModel = true;
    else if (P.valueFlag("--time-limit", V)) {
      if (!P.Failed && !parseSeconds(V, Opts.Alloc.Mip.TimeLimitSeconds))
        P.fail("novac: --time-limit expects a positive number of seconds, "
               "got '%s'\n",
               V);
    } else if (P.valueFlag("--node-limit", V)) {
      if (!P.Failed && !parseCount(V, Opts.Alloc.Mip.NodeLimit))
        P.fail("novac: --node-limit expects a non-negative integer, got "
               "'%s'\n",
               V);
    } else if (P.valueFlag("--on-ilp-failure", V)) {
      if (!P.Failed &&
          !alloc::parseOnIlpFailure(V, Opts.Alloc.FailurePolicy))
        P.fail("novac: --on-ilp-failure expects error, incumbent, or "
               "baseline, got '%s'\n",
               V);
    } else if (P.valueFlag("--inject-fault", V)) {
      if (!P.Failed) {
        FaultSpec Spec;
        std::string Error;
        if (!parseFaultSpec(V, Spec, Error))
          P.fail("novac: --inject-fault: %s\n", Error);
        else
          Faults.push_back(Spec);
      }
    } else if (P.valueFlag("--json", V)) {
      if (!P.Failed)
        JsonPath = V;
    } else if (P.current()[0] != '-' && !File) {
      File = P.current();
      ++P.I;
    } else {
      std::fprintf(stderr, "novac: unknown option '%s'\n", P.current());
      P.Failed = true;
    }
  }
  if (P.Failed || !File) {
    usage();
    return 2;
  }
  if (!DumpCps && !DumpMachine && !Stats)
    DumpAlloc = true;

  ScopedFaultInjection Armed(std::move(Faults));

  auto R = driver::compileNovaFile(File, Opts);
  if (Opts.Allocate && !JsonPath.empty())
    writeStatsJson(JsonPath.c_str(), File, R->Alloc);
  if (!R->Ok) {
    std::fprintf(stderr, "%s", R->ErrorText.c_str());
    return 1;
  }
  if (Opts.Allocate && R->Alloc.Stats.Rung != alloc::AllocRung::Optimal)
    std::fprintf(stderr,
                 "novac: warning: allocation degraded to the '%s' rung "
                 "(%s); code is verified but may be slower than optimal\n",
                 alloc::rungName(R->Alloc.Stats.Rung),
                 R->Alloc.Stats.ProvedOptimal ? "proved optimal"
                                              : "optimality not proved");

  if (DumpCps)
    std::printf("%s", R->Cps.print().c_str());
  if (DumpMachine)
    std::printf("%s", R->Machine.print().c_str());
  if (DumpAlloc && Opts.Allocate) {
    auto Violations = alloc::verifyAllocated(R->Alloc.Prog);
    std::printf("%s", R->Alloc.Prog.print().c_str());
    if (!Violations.empty()) {
      for (const std::string &V : Violations)
        std::fprintf(stderr, "verifier: %s\n", V.c_str());
      return 3;
    }
  }
  if (Stats) {
    ProgramStats S = R->novaStats();
    std::printf("lines=%u instructions=%u layouts=%u pack=%u unpack=%u "
                "raise=%u handle=%u\n",
                S.NovaLines, R->Machine.numInstructions(), S.LayoutSpecs,
                S.PackCount, S.UnpackCount, S.RaiseCount, S.HandleCount);
    if (Opts.Allocate) {
      const alloc::AllocStats &A = R->Alloc.Stats;
      std::printf("ilp: vars=%u cons=%u objterms=%u rootLP=%.2fs "
                  "total=%.2fs nodes=%u moves=%u spills=%u\n",
                  A.IlpSize.NumVariables, A.IlpSize.NumConstraints,
                  A.IlpSize.NumObjectiveTerms, A.Solve.RootLpSeconds,
                  A.Solve.TotalSeconds, A.Solve.Nodes, A.Moves, A.Spills);
      std::printf("lp: iters=%u factorizations=%u eta-pivots=%u "
                  "pricing-passes=%u factor=%.2fs\n",
                  A.Solve.LpIterations, A.Solve.Factorizations,
                  A.Solve.EtaPivots, A.Solve.PricingPasses,
                  A.Solve.FactorSeconds);
      std::printf("ladder: rung=%s proved-optimal=%s attempts=%u "
                  "rejected-violations=%u\n",
                  alloc::rungName(A.Rung), A.ProvedOptimal ? "yes" : "no",
                  A.LadderAttempts, A.VerifierViolations);
      std::printf("regassign: stays=%u edges=%u attempts=%u splits=%u "
                  "time=%.4fs\n",
                  A.RegAssign.Stays, A.RegAssign.Edges, A.RegAssign.Attempts,
                  A.RegAssign.Splits, A.RegAssign.Seconds);
    }
  }
  return 0;
}
