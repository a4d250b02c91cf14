//===- novac.cpp - The Nova compiler command-line driver ------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Exit codes: 0 success, 1 compile/allocation failure, 2 usage error,
// 3 verifier violation in the emitted program, 4 the --json file cannot
// be written.
//
//===----------------------------------------------------------------------===//

#include "alloc/Verifier.h"
#include "driver/Compiler.h"
#include "support/ArgParser.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include <cstdio>
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
      "  --inject-fault <kind>[@<after>][x<times>][~<m>]\n"
      "                    arm a solver fault (testing); after and times\n"
      "                    are integers in 0..4294967295. Kinds:\n"
      "%s"
      "exit codes: 0 success, 1 compile/allocation failure, 2 usage error,\n"
      "  3 verifier violation, 4 cannot write the --json file\n",
      faultKindUsage(FaultDomain::Solver, "                      ").c_str());
}

namespace {

Status writeStatsJson(const std::string &Path, const char *File,
                      const alloc::AllocationResult &A) {
  const alloc::AllocStats &S = A.Stats;
  JsonWriter J;
  J.beginObject().field("file", File).field("ok", A.Ok);
  J.field("rung", alloc::rungName(S.Rung));
  J.field("proved_optimal", S.ProvedOptimal);
  J.field("ladder_attempts", S.LadderAttempts);
  J.field("verifier_violations", S.VerifierViolations);
  J.field("used_spill_model", S.UsedSpillModel);
  J.key("objective").fixed(S.Objective, 6);
  J.field("moves", S.Moves).field("spills", S.Spills);
  J.key("ilp").beginObject().field("vars", S.IlpSize.NumVariables);
  J.field("cons", S.IlpSize.NumConstraints);
  J.field("objterms", S.IlpSize.NumObjectiveTerms).endObject();
  J.key("solve").beginObject().field("nodes", S.Solve.Nodes);
  J.key("total_s").fixed(S.Solve.TotalSeconds, 3);
  J.key("root_lp_s").fixed(S.Solve.RootLpSeconds, 3);
  J.field("lp_iters", S.Solve.LpIterations);
  J.field("factorizations", S.Solve.Factorizations);
  J.field("eta_pivots", S.Solve.EtaPivots);
  J.key("factor_s").fixed(S.Solve.FactorSeconds, 3).endObject();
  J.key("regassign").beginObject().field("stays", S.RegAssign.Stays);
  J.field("edges", S.RegAssign.Edges);
  J.field("attempts", S.RegAssign.Attempts);
  J.field("splits", S.RegAssign.Splits);
  J.key("seconds").fixed(S.RegAssign.Seconds, 4).endObject();
  return J.endObject().writeFile(Path);
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

  ArgParser P{"novac", argc, argv};
  while (!P.done()) {
    if (P.secondsFlag("--time-limit", Opts.Alloc.Mip.TimeLimitSeconds) ||
        P.intFlag("--node-limit", Opts.Alloc.Mip.NodeLimit,
                  "a non-negative integer", 0, ~0u))
      continue;
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
    else if (P.valueFlag("--on-ilp-failure", V)) {
      if (!P.Failed &&
          !alloc::parseOnIlpFailure(V, Opts.Alloc.FailurePolicy))
        P.fail("--on-ilp-failure expects error, incumbent, or baseline, got "
               "'%s'",
               V.c_str());
    } else if (P.valueFlag("--inject-fault", V)) {
      if (!P.Failed) {
        FaultSpec Spec;
        std::string Error;
        if (!parseFaultSpec(V, FaultDomain::Solver, Spec, Error))
          P.fail("--inject-fault: %s", Error.c_str());
        else
          Faults.push_back(Spec);
      }
    } else if (P.valueFlag("--json", V)) {
      if (!P.Failed)
        JsonPath = V;
    } else if (P.current()[0] != '-' && !File) {
      File = P.current();
      ++P.I;
    } else
      P.fail("unknown option '%s'", P.current());
  }
  if (P.Failed || !File) {
    usage();
    return 2;
  }
  if (!DumpCps && !DumpMachine && !Stats)
    DumpAlloc = true;

  ScopedFaultInjection Armed(std::move(Faults));

  auto R = driver::compileNovaFile(File, Opts);
  if (Opts.Allocate && !JsonPath.empty()) {
    if (Status S = writeStatsJson(JsonPath, File, R->Alloc); !S.ok()) {
      std::fprintf(stderr, "novac: %s\n", S.message().c_str());
      return 4;
    }
  }
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
