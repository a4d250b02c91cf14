//===- fig7_solver.cpp - Figure 7: solver statistics ----------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Regenerates Figure 7: per application, the root-relaxation solve time,
// the integer solve time (within 0.01% of optimal), the model size, and
// the solution quality (inter-bank moves, spills). The paper solved with
// CPLEX on an 800 MHz PIII; we solve with the from-scratch branch & bound
// in src/ilp, so absolute times differ — what must reproduce is the
// *shape*: root faster than integer, model sizes ordered by program
// complexity, moves in the tens, and zero spills everywhere.
//
// Every run is also emitted into a machine-readable BENCH_fig7.json for
// the perf trajectory, one record per program.
//
// Variables/constraints are reported for the generated (segment-reduced)
// model; the "raw" columns give the sizes a naive per-point formulation
// would have had, which is the regime the paper's counts live in.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"
#include "support/ArgParser.h"

#include <cmath>

using namespace nova;

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_fig7.json";
  std::string Only;
  double ExpectRoot = 0.0;
  bool HaveExpectRoot = false;
  ArgParser P{"fig7_solver", argc, argv};
  while (!P.done()) {
    if (P.valueFlag("--json", JsonPath) || P.valueFlag("--only", Only))
      continue;
    if (P.realFlag("--expect-root", ExpectRoot, "a finite number",
                   [](double X) { return std::isfinite(X); }))
      HaveExpectRoot = true;
    else
      P.fail("unknown option '%s'", P.current());
  }
  if (P.Failed) {
    std::fprintf(stderr,
                 "usage: fig7_solver [--json <path>] "
                 "[--only <AES|Kasumi|NAT>] [--expect-root <objective>]\n");
    return 2;
  }

  std::printf("Figure 7: solver statistics\n");
  std::printf("(paper: AES root 30.4s int 35.9s 108k vars 102k cons 37k "
              "obj, 25 moves 0 spills;\n");
  std::printf("         Kasumi 48.2/59.2 138k/131k/50k, 20 moves 0; "
              "NAT 69.2/155.6 208k/203k/72k, 60 moves 0)\n\n");
  std::printf("%-8s %9s %9s %8s %8s %8s %10s %10s %6s %6s\n", "program",
              "root(s)", "integer", "vars", "cons", "objterm", "raw-vars",
              "raw-cons", "moves", "spill");

  std::vector<bench::SolverRun> Runs;
  for (const char *Name : {"AES", "Kasumi", "NAT"}) {
    if (!Only.empty() && Only != Name)
      continue;
    auto C = bench::compileApp(Name);
    if (!C->Ok)
      return 1;
    const alloc::AllocStats &S = C->Alloc.Stats;
    // CI smoke: the root relaxation objective is a deterministic model
    // property; any drift means the LP engine or the model changed.
    if (HaveExpectRoot &&
        std::abs(S.Solve.RootObjective - ExpectRoot) > 1e-6) {
      std::fprintf(stderr, "%s: root objective %.9g != expected %.9g\n",
                   Name, S.Solve.RootObjective, ExpectRoot);
      return 1;
    }
    std::printf("%-8s %9.2f %9.2f %8u %8u %8u %10u %10u %6u %6u\n", Name,
                S.Solve.RootLpSeconds, S.Solve.TotalSeconds,
                S.IlpSize.NumVariables, S.IlpSize.NumConstraints,
                S.IlpSize.NumObjectiveTerms, S.Build.RawVariables,
                S.Build.RawConstraints, S.Moves, S.Spills);
    Runs.push_back(bench::solverRunFrom(Name, S));
  }
  if (!bench::writeSolverJson(JsonPath, Runs))
    return 1;
  std::printf("\nShape checks: integer >= root per program; zero spills; "
              "moves in the tens.\n");
  return 0;
}
