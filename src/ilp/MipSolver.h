//===- MipSolver.h - 0-1 branch & bound -------------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serial depth-first branch & bound over LP relaxations, playing the role
/// CPLEX played for the paper. Reports the root-relaxation and integer solve
/// statistics that Figure 7 tabulates.
///
//===----------------------------------------------------------------------===//

#ifndef ILP_MIPSOLVER_H
#define ILP_MIPSOLVER_H

#include "ilp/Model.h"
#include "ilp/Presolve.h"
#include "ilp/Simplex.h"

#include <vector>

namespace nova {
namespace ilp {

enum class MipStatus {
  Optimal,    ///< proved within the gap tolerance
  Feasible,   ///< stopped at a limit with an incumbent in hand
  Infeasible, ///< no integer point exists
  NoSolution  ///< stopped at a limit with no incumbent
};

/// Knobs for the branch & bound search.
struct MipOptions {
  unsigned NodeLimit = 2'000'000;
  double TimeLimitSeconds = 600.0;
  bool EnablePresolve = true;
  /// Ignored: the tree search is serial. Kept only so existing callers
  /// that still assign it compile unchanged.
  unsigned Threads = 1;
  /// Pseudocost branching (per-variable up/down degradation averages),
  /// falling back to most-fractional until degradations have been
  /// observed. Disable to force the legacy most-fractional rule.
  bool PseudocostBranching = true;
};

/// Solve statistics mirroring the paper's Figure 7 columns.
struct MipStats {
  double RootLpSeconds = 0.0;
  double TotalSeconds = 0.0;
  double RootObjective = 0.0;
  unsigned Nodes = 0;
  unsigned LpIterations = 0;
  unsigned PresolveFixedVars = 0;
  unsigned PresolveDroppedConstraints = 0;
  unsigned ReducedVars = 0;
  unsigned ReducedConstraints = 0;
  // LP-engine counters of the one Simplex the root solve, the dive and
  // the tree search share.
  unsigned Factorizations = 0; ///< sparse LU rebuilds
  unsigned EtaPivots = 0;      ///< pivots absorbed into eta files
  unsigned PricingPasses = 0;  ///< full reduced-cost recomputations
  double FactorSeconds = 0.0;  ///< wall time inside the LU rebuilds
};

/// Result of a MIP solve; X is in the *original* model's variable space.
struct MipResult {
  MipStatus Status = MipStatus::NoSolution;
  double Objective = 0.0;
  std::vector<double> X;
  MipStats Stats;
};

/// Branch & bound solver for models whose integer variables are 0-1.
class MipSolver {
public:
  explicit MipSolver(const Model &M, MipOptions Opts = {});

  /// Seeds the search with a known feasible point (e.g. from a heuristic
  /// allocator). Ignored if infeasible for the model.
  void setIncumbent(const std::vector<double> &X);

  MipResult solve();

private:
  const Model &M;
  MipOptions Opts;
  std::vector<double> SeedX; // original space; empty if none
};

} // namespace ilp
} // namespace nova

#endif // ILP_MIPSOLVER_H
