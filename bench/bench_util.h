//===- bench_util.h - Shared helpers for the experiment harnesses ---------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCH_UTIL_H
#define BENCH_BENCH_UTIL_H

#include "apps/AppSources.h"
#include "driver/Compiler.h"
#include "support/Json.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace bench {

inline std::string appSource(const std::string &Name) {
  if (Name == "AES")
    return nova::apps::aesNovaSource();
  if (Name == "Kasumi")
    return nova::apps::kasumiNovaSource();
  return nova::apps::natNovaSource();
}

/// Compiles one of the paper's applications.
inline std::unique_ptr<nova::driver::CompileResult>
compileApp(const std::string &Name, bool Allocate = true) {
  nova::driver::CompileOptions Opts;
  Opts.Allocate = Allocate;
  auto R = nova::driver::compileNova(appSource(Name), Name, Opts);
  if (!R->Ok)
    std::fprintf(stderr, "%s failed: %s\n", Name.c_str(),
                 R->ErrorText.c_str());
  return R;
}

/// One solver run for the machine-readable perf trajectory
/// (BENCH_fig7.json from fig7_solver, BENCH_solver.json from
/// baseline_vs_ilp): what the paper's Figure 7 tabulates plus the
/// search and LP-engine counters.
struct SolverRun {
  std::string Program;
  unsigned Nodes = 0;
  unsigned LpIterations = 0;
  double RootSeconds = 0.0;
  double TotalSeconds = 0.0;
  double Objective = 0.0;
  double RootObjective = 0.0;
  unsigned Moves = 0;
  unsigned Spills = 0;
  // LP-engine counters (sparse LU basis): how often the factors were
  // rebuilt, how many pivots the eta files absorbed, how many full
  // reduced-cost recomputations ran, and the wall time of the rebuilds.
  unsigned Factorizations = 0;
  unsigned EtaPivots = 0;
  unsigned PricingPasses = 0;
  double FactorSeconds = 0.0;
};

inline SolverRun solverRunFrom(const std::string &Program,
                               const nova::alloc::AllocStats &S) {
  SolverRun R;
  R.Program = Program;
  R.Nodes = S.Solve.Nodes;
  R.LpIterations = S.Solve.LpIterations;
  R.RootSeconds = S.Solve.RootLpSeconds;
  R.TotalSeconds = S.Solve.TotalSeconds;
  R.Objective = S.Objective;
  R.RootObjective = S.Solve.RootObjective;
  R.Moves = S.Moves;
  R.Spills = S.Spills;
  R.Factorizations = S.Solve.Factorizations;
  R.EtaPivots = S.Solve.EtaPivots;
  R.PricingPasses = S.Solve.PricingPasses;
  R.FactorSeconds = S.Solve.FactorSeconds;
  return R;
}

/// Writes the accumulated runs as a JSON array, one object per solve.
/// Returns false (with a message on stderr) if the file cannot be written.
inline bool writeSolverJson(const std::string &Path,
                            const std::vector<SolverRun> &Runs) {
  nova::JsonWriter J;
  J.beginArray();
  for (const SolverRun &R : Runs) {
    J.beginObject().field("program", R.Program).field("nodes", R.Nodes);
    J.field("lp_iterations", R.LpIterations);
    J.key("root_seconds").fixed(R.RootSeconds, 6);
    J.key("total_seconds").fixed(R.TotalSeconds, 6);
    J.key("objective").general(R.Objective, 9);
    J.key("root_objective").general(R.RootObjective, 9);
    J.field("moves", R.Moves).field("spills", R.Spills);
    J.field("factorizations", R.Factorizations);
    J.field("eta_pivots", R.EtaPivots);
    J.field("pricing_passes", R.PricingPasses);
    J.key("factor_s").fixed(R.FactorSeconds, 6).endObject();
  }
  J.endArray();
  if (nova::Status S = J.writeFile(Path); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.message().c_str());
    return false;
  }
  std::printf("wrote %s (%zu runs)\n", Path.c_str(), Runs.size());
  return true;
}

} // namespace bench

#endif // BENCH_BENCH_UTIL_H
