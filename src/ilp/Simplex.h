//===- Simplex.h - Bounded-variable revised simplex -------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A primal revised simplex solver for linear programs with bounded
/// variables, used for the LP relaxations inside MipSolver and to obtain
/// the "root relaxation" numbers of the paper's Figure 7.
///
/// Design notes:
///  - One slack per row turns every constraint into an equality; slack
///    bounds encode <=, >= and ==.
///  - The basis is represented by a sparse LU factorization (Markowitz
///    pivoting, threshold partial pivoting) plus a product-form eta file
///    of the pivots applied since the last refactorization (see Basis.h).
///    FTRAN/BTRAN run through the factors; nothing dense of size m*m is
///    ever formed.
///  - Pricing is Devex (Harris 1973): candidates are ranked by squared
///    reduced cost over a reference weight that approximates steepest
///    edge. Phase-II reduced costs are maintained incrementally from the
///    pivot row; phase I recomputes them each iteration because the
///    composite cost vector changes, but prices only the columns reached
///    by the (usually very sparse) infeasibility duals.
///  - Phase I uses the composite (artificial-free) method: the cost vector
///    is the subgradient of the sum of primal bound violations, recomputed
///    each iteration. This allows warm starts from any basis, which the
///    branch-and-bound driver relies on after bound changes.
///
//===----------------------------------------------------------------------===//

#ifndef ILP_SIMPLEX_H
#define ILP_SIMPLEX_H

#include "ilp/Basis.h"
#include "ilp/Model.h"

#include <vector>

namespace nova {
namespace ilp {

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// Result of one LP solve.
struct LpResult {
  LpStatus Status = LpStatus::IterationLimit;
  double Objective = 0.0;
  unsigned Iterations = 0;
};

/// Engine counters accumulated across all solve() calls of one Simplex.
struct SimplexStats {
  unsigned Factorizations = 0; ///< sparse LU rebuilds
  unsigned EtaPivots = 0;      ///< pivots absorbed into the eta file
  unsigned BoundFlips = 0;     ///< iterations that only flipped a bound
  unsigned PricingPasses = 0;  ///< full reduced-cost recomputations
  unsigned DevexResets = 0;    ///< reference-framework restarts
  unsigned LastFactorNnz = 0;  ///< nnz(L)+nnz(U) of the latest LU
  unsigned LastBasisNnz = 0;   ///< nnz(B) of the latest factorized basis
  double FactorSeconds = 0.0;  ///< wall time inside the LU rebuilds
};

/// Primal bounded-variable revised simplex over the LP relaxation of a
/// Model. The instance keeps its basis (and its factorization) across
/// solve() calls, so bound changes (branching) re-solve quickly.
class Simplex {
public:
  /// Builds the LP relaxation of \p M (integrality dropped).
  explicit Simplex(const Model &M);

  /// Overrides the bounds of structural variable \p Var for subsequent
  /// solves. Used by branch-and-bound; does not modify the Model.
  void setVarBounds(VarId Var, double Lower, double Upper);

  /// Current working bounds of a structural variable.
  double lowerBound(VarId Var) const { return Lower[Var.Index]; }
  double upperBound(VarId Var) const { return Upper[Var.Index]; }

  /// Solves from the current basis (cold start on first call).
  LpResult solve();

  /// Value of a structural variable in the last solved basis.
  double value(VarId Var) const;

  /// Values of all structural variables.
  std::vector<double> values() const;

  unsigned numRows() const { return M; }
  unsigned numCols() const { return NumStructural; }

  /// Total simplex iterations across all solve() calls.
  unsigned totalIterations() const { return TotalIters; }

  /// Engine counters (factorizations, eta pivots, pricing passes, ...).
  /// The factorization-side counters are merged in from the Basis.
  SimplexStats stats() const {
    SimplexStats S = Stats;
    const BasisStats &B = Fact.stats();
    S.Factorizations = B.Factorizations;
    S.EtaPivots = B.EtaPivots;
    S.LastFactorNnz = B.LastFactorNnz;
    S.LastBasisNnz = B.LastBasisNnz;
    S.FactorSeconds = B.FactorSeconds;
    return S;
  }

private:
  enum class State : uint8_t { Basic, AtLower, AtUpper };

  // Problem data. Columns 0..NumStructural-1 are structural, the rest are
  // slacks (one per row). Rows mirrors Cols row-wise (Term.Var.Index is a
  // *column* index there) so the pivot row can be formed by scanning only
  // the rows the BTRAN result touches.
  unsigned M = 0;             ///< number of rows
  unsigned N = 0;             ///< total columns incl. slacks
  unsigned NumStructural = 0; ///< structural column count
  std::vector<std::vector<Term>> Cols; ///< sparse columns (row, coeff)
  std::vector<std::vector<Term>> Rows; ///< sparse rows (col, coeff)
  std::vector<double> Cost;            ///< phase-II objective
  std::vector<double> Lower, Upper;    ///< working bounds per column
  std::vector<double> Rhs;             ///< row right-hand sides

  // Basis state.
  bool HasBasis = false;
  std::vector<uint32_t> Basic;  ///< Basic[i] = column basic in row i
  std::vector<State> VarState;  ///< per-column state
  std::vector<uint32_t> RowOf;  ///< RowOf[col] = basic row, or ~0u
  std::vector<double> BasicVal; ///< value of basic var per row
  Basis Fact;                   ///< sparse LU + eta file of the basis
  unsigned TotalIters = 0;
  SimplexStats Stats;

  // Pricing state.
  std::vector<double> Dj;     ///< maintained phase-II reduced costs
  bool DjValid = false;       ///< Dj matches the current basis
  std::vector<double> DevexW; ///< Devex reference weights per column

  // Scratch (sized in the constructor, reused across iterations).
  IndexedVector WorkCol;   ///< FTRAN result of the entering column
  IndexedVector WorkDual;  ///< BTRAN inputs/results (duals, pivot row rho)
  IndexedVector WorkPrice; ///< pivot-row / phase-I reduced-cost scatter
  IndexedVector WorkRhs;   ///< computeBasicValues right-hand side

  double nonbasicValue(unsigned Col) const;
  void installSlackBasis();
  void computeBasicValues();
  bool refactorize();
  void recomputeDj();
  double infeasibilitySum() const;
  /// Forms the pivot row (rho^T A over nonbasic columns) into WorkPrice
  /// and updates Devex weights and (when maintained) phase-II reduced
  /// costs. Called right before the basis changes.
  void pivotRowUpdate(unsigned Entering, unsigned Leaving, unsigned LeaveRow,
                      bool PhaseOne);

  /// One phase of the simplex loop. \p PhaseOne selects the composite
  /// infeasibility objective. Returns the terminating status.
  LpStatus iterate(bool PhaseOne, unsigned &Iters, unsigned IterLimit);
};

} // namespace ilp
} // namespace nova

#endif // ILP_SIMPLEX_H
