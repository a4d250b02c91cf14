//===- ilp_simplex_test.cpp - LP solver tests ----------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "ilp/Simplex.h"

#include "dense_lp_ref.h"
#include "support/BinIO.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

using namespace nova;
using namespace nova::ilp;

namespace {

Model twoVarModel(VarId &X, VarId &Y) {
  Model M;
  X = M.addContinuous("x", 0.0, 10.0);
  Y = M.addContinuous("y", 0.0, 10.0);
  return M;
}

} // namespace

TEST(Simplex, SimpleMaximizeViaMinimize) {
  // min -x - y  s.t. x + y <= 1  =>  obj -1.
  VarId X, Y;
  Model M = twoVarModel(X, Y);
  M.var(X).Objective = -1.0;
  M.var(Y).Objective = -1.0;
  M.addConstraint(LinExpr(X) + LinExpr(Y), Rel::LE, 1.0);

  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -1.0, 1e-7);
  EXPECT_NEAR(S.value(X) + S.value(Y), 1.0, 1e-7);
}

TEST(Simplex, BoundFlipOnly) {
  // No constraints at all: optimum sits at a variable bound.
  Model M;
  VarId X = M.addContinuous("x", 0.0, 3.0, -1.0);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -3.0, 1e-9);
  EXPECT_NEAR(S.value(X), 3.0, 1e-9);
}

TEST(Simplex, EqualityNeedsPhaseOne) {
  // x + y = 2, min x  =>  x = 0, y = 2.
  VarId X, Y;
  Model M = twoVarModel(X, Y);
  M.var(X).Objective = 1.0;
  M.addConstraint(LinExpr(X) + LinExpr(Y), Rel::EQ, 2.0);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 0.0, 1e-7);
  EXPECT_NEAR(S.value(Y), 2.0, 1e-7);
}

TEST(Simplex, GreaterEqual) {
  Model M;
  VarId X = M.addContinuous("x", 0.0, 3.0, 1.0);
  M.addConstraint(LinExpr(X), Rel::GE, 1.5);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.value(X), 1.5, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  VarId X, Y;
  Model M = twoVarModel(X, Y);
  M.var(X).Upper = 1.0;
  M.var(Y).Upper = 1.0;
  M.addConstraint(LinExpr(X) + LinExpr(Y), Rel::GE, 5.0);
  Simplex S(M);
  EXPECT_EQ(S.solve().Status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model M;
  M.addContinuous("x", 0.0, Inf, -1.0);
  Simplex S(M);
  EXPECT_EQ(S.solve().Status, LpStatus::Unbounded);
}

TEST(Simplex, ClassicDiet) {
  // min 2a + 3b  s.t.  a + b >= 4,  2a + b >= 5,  a,b >= 0.
  // Optimum at a=1, b=3: obj 11.  (Vertices: (4,0)->8? check: a=4,b=0:
  // 2a+b=8>=5 ok, obj 8. Hmm, recompute: obj(4,0)=8 < 11, so optimum is
  // (4,0) with objective 8.)
  Model M;
  VarId A = M.addContinuous("a", 0.0, Inf, 2.0);
  VarId B = M.addContinuous("b", 0.0, Inf, 3.0);
  M.addConstraint(LinExpr(A) + LinExpr(B), Rel::GE, 4.0);
  M.addConstraint(2.0 * LinExpr(A) + LinExpr(B), Rel::GE, 5.0);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, 8.0, 1e-6);
  EXPECT_NEAR(S.value(A), 4.0, 1e-6);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple constraints intersecting at the same vertex.
  Model M;
  VarId X = M.addContinuous("x", 0.0, Inf, -1.0);
  VarId Y = M.addContinuous("y", 0.0, Inf, -1.0);
  M.addConstraint(LinExpr(X) + LinExpr(Y), Rel::LE, 1.0);
  M.addConstraint(LinExpr(X) + 2.0 * LinExpr(Y), Rel::LE, 1.0);
  M.addConstraint(2.0 * LinExpr(X) + LinExpr(Y), Rel::LE, 2.0);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(R.Objective, -1.0, 1e-6);
}

TEST(Simplex, WarmStartAfterBoundChange) {
  VarId X, Y;
  Model M = twoVarModel(X, Y);
  M.var(X).Objective = -1.0;
  M.var(Y).Objective = -1.0;
  M.addConstraint(LinExpr(X) + LinExpr(Y), Rel::LE, 4.0);

  Simplex S(M);
  LpResult R1 = S.solve();
  ASSERT_EQ(R1.Status, LpStatus::Optimal);
  EXPECT_NEAR(R1.Objective, -4.0, 1e-7);

  // Branch-like bound change: x fixed to 1.
  S.setVarBounds(X, 1.0, 1.0);
  LpResult R2 = S.solve();
  ASSERT_EQ(R2.Status, LpStatus::Optimal);
  EXPECT_NEAR(R2.Objective, -4.0, 1e-7);
  EXPECT_NEAR(S.value(X), 1.0, 1e-9);
  EXPECT_NEAR(S.value(Y), 3.0, 1e-7);

  // And restore.
  S.setVarBounds(X, 0.0, 10.0);
  LpResult R3 = S.solve();
  ASSERT_EQ(R3.Status, LpStatus::Optimal);
  EXPECT_NEAR(R3.Objective, -4.0, 1e-7);
}

TEST(Simplex, FixedVariableRespected) {
  VarId X, Y;
  Model M = twoVarModel(X, Y);
  M.var(X).Objective = -5.0;
  M.var(Y).Objective = -1.0;
  M.fix(X, 2.0);
  M.addConstraint(LinExpr(X) + LinExpr(Y), Rel::LE, 3.0);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.value(X), 2.0, 1e-9);
  EXPECT_NEAR(S.value(Y), 1.0, 1e-7);
}

TEST(Simplex, NegativeCoefficients) {
  // min x - y  s.t.  -x + y <= 2, x <= 3, y <= 5 bounds.
  Model M;
  VarId X = M.addContinuous("x", 0.0, 3.0, 1.0);
  VarId Y = M.addContinuous("y", 0.0, 5.0, -1.0);
  M.addConstraint(LinExpr(Y) - LinExpr(X), Rel::LE, 2.0);
  Simplex S(M);
  LpResult R = S.solve();
  ASSERT_EQ(R.Status, LpStatus::Optimal);
  // Best: y - x maximized => pick x to trade 1:1? obj = x - y; y <= x+2.
  // obj >= x - (x+2) = -2; achieved for any x with y = x+2 <= 5.
  EXPECT_NEAR(R.Objective, -2.0, 1e-6);
}

// Property test: random dense-ish LPs where x = 0 is feasible, so status
// must be Optimal or Unbounded; when Optimal, the reported point must be
// feasible and match the reported objective.
class SimplexRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLp, SolutionIsConsistent) {
  Rng R(GetParam() * 7919 + 3);
  unsigned NumVars = 2 + R.below(8);
  unsigned NumRows = 1 + R.below(8);

  Model M;
  std::vector<VarId> Vars;
  for (unsigned J = 0; J != NumVars; ++J)
    Vars.push_back(M.addContinuous("v" + std::to_string(J), 0.0,
                                   1.0 + R.below(9),
                                   R.range(-5, 5)));
  for (unsigned I = 0; I != NumRows; ++I) {
    LinExpr E;
    for (unsigned J = 0; J != NumVars; ++J)
      if (R.chance(2, 3))
        E.add(Vars[J], static_cast<double>(R.range(-4, 4)));
    // Nonnegative rhs keeps x = 0 feasible for LE rows.
    M.addConstraint(std::move(E), Rel::LE, static_cast<double>(R.below(10)));
  }

  Simplex S(M);
  LpResult Res = S.solve();
  ASSERT_TRUE(Res.Status == LpStatus::Optimal ||
              Res.Status == LpStatus::Unbounded);
  if (Res.Status != LpStatus::Optimal)
    return;

  std::vector<double> X = S.values();
  double Obj = 0.0;
  for (unsigned J = 0; J != NumVars; ++J) {
    const Variable &V = M.var(Vars[J]);
    EXPECT_GE(X[J], V.Lower - 1e-6);
    EXPECT_LE(X[J], V.Upper + 1e-6);
    Obj += V.Objective * X[J];
  }
  EXPECT_NEAR(Obj, Res.Objective, 1e-5);
  for (const Constraint &C : M.constraints()) {
    double Act = 0.0;
    for (const Term &T : C.Terms)
      Act += T.Coeff * X[T.Var.Index];
    EXPECT_LE(Act, C.Rhs + 1e-6);
  }
  // x = 0 is feasible, so the optimum can be no worse than 0.
  EXPECT_LE(Res.Objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLp, ::testing::Range(0, 40));

namespace {

/// Random bounded-variable LP with mixed row senses. Infeasible and
/// unbounded instances are intentionally possible: the oracle comparison
/// below requires the two engines to agree on the status too.
Model randomBoundedLp(Rng &R, std::vector<VarId> &Vars) {
  unsigned NumVars = 2 + R.below(10);
  unsigned NumRows = 1 + R.below(10);
  Model M;
  Vars.clear();
  for (unsigned J = 0; J != NumVars; ++J) {
    double Lo = static_cast<double>(R.range(-4, 2));
    double Hi = Lo + 1.0 + R.below(8);
    if (R.chance(1, 10))
      Hi = Inf; // occasional one-sided variable
    Vars.push_back(M.addContinuous("v" + std::to_string(J), Lo, Hi,
                                   static_cast<double>(R.range(-5, 5))));
  }
  for (unsigned I = 0; I != NumRows; ++I) {
    LinExpr E;
    unsigned Nnz = 0;
    for (unsigned J = 0; J != NumVars; ++J)
      if (R.chance(1, 2)) {
        int C = R.range(-4, 4);
        if (C == 0)
          continue;
        E.add(Vars[J], static_cast<double>(C));
        ++Nnz;
      }
    if (Nnz == 0)
      E.add(Vars[0], 1.0);
    Rel Sense = R.chance(1, 4) ? (R.chance(1, 2) ? Rel::GE : Rel::EQ)
                               : Rel::LE;
    M.addConstraint(std::move(E), Rel(Sense),
                    static_cast<double>(R.range(-6, 12)));
  }
  return M;
}

} // namespace

// Oracle fuzz: the sparse-LU engine and the retired dense-inverse engine
// (tests/dense_lp_ref.h, the previous production code kept verbatim) must
// agree on status and, when optimal, on the objective — over LPs with
// negative lower bounds, one-sided variables and mixed row senses.
class SimplexVsDenseOracle : public ::testing::TestWithParam<int> {};

TEST_P(SimplexVsDenseOracle, StatusAndObjectiveMatch) {
  Rng R(GetParam() * 6271 + 101);
  std::vector<VarId> Vars;
  Model M = randomBoundedLp(R, Vars);

  Simplex Sparse(M);
  denseref::DenseSimplex Dense(M);
  LpResult A = Sparse.solve();
  denseref::DenseLpResult B = Dense.solve();

  EXPECT_EQ(static_cast<int>(A.Status), static_cast<int>(B.Status));
  if (A.Status == LpStatus::Optimal &&
      B.Status == denseref::DenseLpStatus::Optimal)
    EXPECT_NEAR(A.Objective, B.Objective, 1e-6);
}

// Warm-start oracle fuzz: after the initial solve, drive both engines
// through the same branch-like bound-change chain. Each re-solve must
// keep the engines in agreement, exercising basis reuse, eta-file growth
// and the periodic refactorization path.
TEST_P(SimplexVsDenseOracle, WarmStartChainMatches) {
  Rng R(GetParam() * 28001 + 7);
  std::vector<VarId> Vars;
  Model M = randomBoundedLp(R, Vars);

  Simplex Sparse(M);
  denseref::DenseSimplex Dense(M);
  Sparse.solve();
  Dense.solve();

  for (unsigned Step = 0; Step != 12; ++Step) {
    VarId V = Vars[R.below(static_cast<uint32_t>(Vars.size()))];
    double Lo = M.var(V).Lower;
    double Hi = M.var(V).Upper;
    if (R.chance(1, 2) && std::isfinite(Lo)) {
      // Fix to a point inside the original range.
      double X = Lo + R.below(3);
      Sparse.setVarBounds(V, X, X);
      Dense.setVarBounds(V, X, X);
    } else {
      // Restore the model bounds.
      Sparse.setVarBounds(V, Lo, Hi);
      Dense.setVarBounds(V, Lo, Hi);
    }
    LpResult A = Sparse.solve();
    denseref::DenseLpResult B = Dense.solve();
    ASSERT_EQ(static_cast<int>(A.Status), static_cast<int>(B.Status))
        << "step " << Step;
    if (A.Status == LpStatus::Optimal)
      ASSERT_NEAR(A.Objective, B.Objective, 1e-6) << "step " << Step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexVsDenseOracle, ::testing::Range(0, 100));

namespace {

/// y = B * x where slot s of the basis holds Cols[Basic[s]] and x is
/// slot-indexed: the direct product used to check the factored solves.
std::vector<double> multiplyBasis(const std::vector<std::vector<Term>> &Cols,
                                  const std::vector<uint32_t> &Basic,
                                  const std::vector<double> &X) {
  std::vector<double> Y(Basic.size(), 0.0);
  for (unsigned S = 0; S != Basic.size(); ++S)
    for (const Term &T : Cols[Basic[S]])
      Y[T.Var.Index] += T.Coeff * X[S];
  return Y;
}

/// Random diagonally dominant m*m column set (guaranteed nonsingular).
std::vector<std::vector<Term>> randomDominantCols(Rng &R, unsigned M) {
  std::vector<std::vector<Term>> Cols(M);
  for (unsigned J = 0; J != M; ++J) {
    Cols[J].push_back({VarId{J}, 4.0 + static_cast<double>(R.below(3))});
    for (unsigned I = 0; I != M; ++I)
      if (I != J && R.chance(1, 4))
        Cols[J].push_back(
            {VarId{I}, static_cast<double>(R.range(-1, 1)) * 0.5});
  }
  return Cols;
}

} // namespace

TEST(Basis, FtranBtranRoundtrip) {
  Rng R(12345);
  for (unsigned Trial = 0; Trial != 20; ++Trial) {
    unsigned M = 3 + R.below(20);
    std::vector<std::vector<Term>> Cols = randomDominantCols(R, M);
    std::vector<uint32_t> Basic(M);
    for (unsigned I = 0; I != M; ++I)
      Basic[I] = I;

    Basis B;
    B.setup(M);
    ASSERT_TRUE(B.factorize(Cols, Basic).empty());
    ASSERT_TRUE(B.valid());

    // FTRAN: B * x = b.
    IndexedVector X;
    X.setup(M);
    std::vector<double> Rhs(M, 0.0);
    for (unsigned I = 0; I != M; ++I)
      if (R.chance(1, 2)) {
        Rhs[I] = static_cast<double>(R.range(-5, 5));
        if (Rhs[I] != 0.0)
          X.set(I, Rhs[I]);
      }
    B.ftran(X);
    std::vector<double> Sol(M, 0.0);
    for (unsigned S = 0; S != M; ++S)
      Sol[S] = X[S];
    std::vector<double> Back = multiplyBasis(Cols, Basic, Sol);
    for (unsigned I = 0; I != M; ++I)
      EXPECT_NEAR(Back[I], Rhs[I], 1e-9) << "trial " << Trial;

    // BTRAN: y * B = c, checked column by column.
    IndexedVector Y;
    Y.setup(M);
    std::vector<double> C(M, 0.0);
    for (unsigned S = 0; S != M; ++S)
      if (R.chance(1, 2)) {
        C[S] = static_cast<double>(R.range(-5, 5));
        if (C[S] != 0.0)
          Y.set(S, C[S]);
      }
    B.btran(Y);
    for (unsigned S = 0; S != M; ++S) {
      double Dot = 0.0;
      for (const Term &T : Cols[Basic[S]])
        Dot += Y[T.Var.Index] * T.Coeff;
      EXPECT_NEAR(Dot, C[S], 1e-9) << "trial " << Trial;
    }
  }
}

TEST(Basis, SingularBasisReportsDeficiency) {
  // Columns 0 and 1 are identical: any basis using both is singular.
  std::vector<std::vector<Term>> Cols(4);
  Cols[0] = {{VarId{0}, 1.0}, {VarId{1}, 1.0}};
  Cols[1] = {{VarId{0}, 1.0}, {VarId{1}, 1.0}};
  Cols[2] = {{VarId{2}, 1.0}};
  Cols[3] = {{VarId{1}, 1.0}}; // unit column used for the repair

  std::vector<uint32_t> Basic = {0, 1, 2};
  Basis B;
  B.setup(3);
  auto Deficient = B.factorize(Cols, Basic);
  ASSERT_EQ(Deficient.size(), 1u);
  EXPECT_FALSE(B.valid());
  auto [Slot, Row] = Deficient[0];
  EXPECT_TRUE(Slot == 0 || Slot == 1);
  EXPECT_TRUE(Row == 0 || Row == 1);

  // Patch the deficient slot the way Simplex::refactorize does (with a
  // unit column covering the uncovered row) and refactorize.
  ASSERT_EQ(Row, 1u) << "rows 0 and 1 differ only via the dup columns";
  Basic[Slot] = 3;
  ASSERT_TRUE(B.factorize(Cols, Basic).empty());
  EXPECT_TRUE(B.valid());

  // The repaired basis must actually solve.
  IndexedVector X;
  X.setup(3);
  X.set(0, 2.0);
  X.set(1, 3.0);
  X.set(2, 5.0);
  B.ftran(X);
  std::vector<double> Sol = {X[0], X[1], X[2]};
  std::vector<double> Back = multiplyBasis(Cols, Basic, Sol);
  EXPECT_NEAR(Back[0], 2.0, 1e-12);
  EXPECT_NEAR(Back[1], 3.0, 1e-12);
  EXPECT_NEAR(Back[2], 5.0, 1e-12);
}

TEST(Basis, EtaUpdateMatchesReplacedBasis) {
  Rng R(999);
  for (unsigned Trial = 0; Trial != 10; ++Trial) {
    unsigned M = 4 + R.below(12);
    std::vector<std::vector<Term>> Cols = randomDominantCols(R, M);
    std::vector<uint32_t> Basic(M);
    for (unsigned I = 0; I != M; ++I)
      Basic[I] = I;

    Basis B;
    B.setup(M);
    ASSERT_TRUE(B.factorize(Cols, Basic).empty());

    // Entering column: a fresh column appended to the matrix.
    Cols.emplace_back();
    for (unsigned I = 0; I != M; ++I)
      if (R.chance(1, 3))
        Cols.back().push_back({VarId{I}, static_cast<double>(R.range(-3, 3)) +
                                             0.25});
    if (Cols.back().empty())
      Cols.back().push_back({VarId{0}, 1.0});

    IndexedVector W;
    W.setup(M);
    for (const Term &T : Cols.back())
      W.add(T.Var.Index, T.Coeff);
    B.ftran(W);
    // Pivot on the largest transformed entry (mirrors the ratio test
    // preferring large pivots).
    uint32_t Pivot = 0;
    double Best = 0.0;
    for (unsigned S = 0; S != M; ++S)
      if (std::fabs(W[S]) > Best) {
        Best = std::fabs(W[S]);
        Pivot = S;
      }
    ASSERT_GT(Best, 1e-9);
    B.update(W, Pivot);
    Basic[Pivot] = M; // the appended column

    // FTRAN through LU + eta must solve the *replaced* basis.
    IndexedVector X;
    X.setup(M);
    std::vector<double> Rhs(M, 0.0);
    for (unsigned I = 0; I != M; ++I) {
      Rhs[I] = static_cast<double>(R.range(-4, 4));
      if (Rhs[I] != 0.0)
        X.set(I, Rhs[I]);
    }
    B.ftran(X);
    std::vector<double> Sol(M, 0.0);
    for (unsigned S = 0; S != M; ++S)
      Sol[S] = X[S];
    std::vector<double> Back = multiplyBasis(Cols, Basic, Sol);
    for (unsigned I = 0; I != M; ++I)
      EXPECT_NEAR(Back[I], Rhs[I], 1e-8) << "trial " << Trial;

    // BTRAN through the eta file as well.
    IndexedVector Y;
    Y.setup(M);
    Y.set(Pivot, 1.0);
    B.btran(Y);
    for (unsigned S = 0; S != M; ++S) {
      double Dot = 0.0;
      for (const Term &T : Cols[Basic[S]])
        Dot += Y[T.Var.Index] * T.Coeff;
      EXPECT_NEAR(Dot, S == Pivot ? 1.0 : 0.0, 1e-8) << "trial " << Trial;
    }
  }
}

namespace {

/// Column pool shaped like the allocator's LPs: columns 0..M-1 are the
/// unit slacks of the rows; the structural columns after them mix short
/// columns with the allocator's coefficients (+-1, 200, 1.01), a few long
/// +-1 columns of 100-250 entries, and mid-length columns whose
/// elimination creates fill.
std::vector<std::vector<Term>> allocatorShapedCols(Rng &R, unsigned M,
                                                   unsigned NumStructural) {
  static const double Coeffs[] = {1.0, -1.0, 1.0, -1.0, 200.0, 1.01, -2.0};
  std::vector<std::vector<Term>> Cols(M);
  for (unsigned I = 0; I != M; ++I)
    Cols[I].push_back({VarId{I}, 1.0});
  for (unsigned J = 0; J != NumStructural; ++J) {
    unsigned Kind = R.below(20);
    unsigned Len = Kind == 0   ? 100 + R.below(151)
                   : Kind < 4 ? 4 + R.below(9)
                              : 1 + R.below(3);
    std::vector<uint8_t> Used(M, 0);
    std::vector<Term> Col;
    for (unsigned E = 0; E != Len; ++E) {
      unsigned Row = R.below(M);
      if (Used[Row])
        continue;
      Used[Row] = 1;
      double V = Kind == 0 ? (R.chance(1, 2) ? 1.0 : -1.0)
                           : Coeffs[R.below(std::size(Coeffs))];
      Col.push_back({VarId{Row}, V});
    }
    Cols.push_back(std::move(Col));
  }
  return Cols;
}

/// Factorizes \p Basic, patching deficient slots with the slack of the
/// uncovered row and refactorizing, the way Simplex::refactorize repairs a
/// singular basis. Folds the deficiency into \p H.
uint64_t factorizeRepairing(Basis &B, const std::vector<std::vector<Term>> &Cols,
                            std::vector<uint32_t> &Basic, uint64_t H) {
  auto Deficient = B.factorize(Cols, Basic);
  while (!Deficient.empty()) {
    for (auto [Slot, Row] : Deficient) {
      H = fnv1a64(&Slot, sizeof Slot, H);
      H = fnv1a64(&Row, sizeof Row, H);
      Basic[Slot] = Row;
    }
    Deficient = B.factorize(Cols, Basic);
  }
  const BasisStats &S = B.stats();
  H = fnv1a64(&S.LastFactorNnz, sizeof S.LastFactorNnz, H);
  return fnv1a64(&S.LastBasisNnz, sizeof S.LastBasisNnz, H);
}

/// Hash of a solve result: the index order and the bit pattern of every
/// value it lists.
uint64_t hashVector(const IndexedVector &X, uint64_t H) {
  for (uint32_t I : X.indices()) {
    double V = X[I];
    H = fnv1a64(&I, sizeof I, H);
    H = fnv1a64(&V, sizeof V, H);
  }
  uint64_t N = X.indices().size();
  return fnv1a64(&N, sizeof N, H);
}

/// One hash per solve of a fixed, seeded battery: FTRANs of sparse
/// right-hand sides and of structural columns (entering columns), BTRANs
/// of unit vectors (pivot rows) and of scattered costs (duals).
std::vector<uint64_t> solveDigest(const Basis &B,
                                  const std::vector<std::vector<Term>> &Cols,
                                  uint64_t Seed) {
  unsigned M = B.dimension();
  Rng R(Seed);
  std::vector<uint64_t> Out;
  IndexedVector X;
  X.setup(M);
  for (unsigned T = 0; T != 12; ++T) {
    X.clear();
    unsigned Kind = T % 4;
    if (Kind == 0) {
      for (unsigned E = 1 + R.below(4); E-- > 0;)
        X.add(R.below(M), static_cast<double>(R.range(-3, 3)) + 0.5);
    } else if (Kind == 1) {
      for (const Term &Tm : Cols[M + R.below(Cols.size() - M)])
        X.add(Tm.Var.Index, Tm.Coeff);
    } else if (Kind == 2) {
      X.set(R.below(M), 1.0);
    } else {
      for (unsigned E = 2 + R.below(M / 4); E-- > 0;)
        X.set(R.below(M), static_cast<double>(R.range(0, 8)));
    }
    if (Kind < 2)
      B.ftran(X);
    else
      B.btran(X);
    Out.push_back(hashVector(X, 0xcbf29ce484222325ull + T));
  }
  return Out;
}

uint64_t foldDigest(const std::vector<uint64_t> &D, uint64_t H) {
  return fnv1a64(D.data(), D.size() * sizeof(uint64_t), H);
}

/// A basis over the allocator-shaped pool: every slot starts on its
/// slack, then a seeded share of the slots take distinct structurals.
std::vector<uint32_t> mixedBasis(Rng &R, unsigned M, unsigned NumCols,
                                 unsigned StructuralPercent) {
  std::vector<uint32_t> Basic(M);
  for (unsigned I = 0; I != M; ++I)
    Basic[I] = I;
  std::vector<uint8_t> InBasis(NumCols, 0);
  for (unsigned I = 0; I != M; ++I) {
    if (R.below(100) >= StructuralPercent)
      continue;
    uint32_t C = M + R.below(NumCols - M);
    if (InBasis[C])
      continue;
    InBasis[C] = 1;
    Basic[I] = C;
  }
  return Basic;
}

} // namespace

// Bit-for-bit pin of the LU and the solves through it. The factorization
// is a pure function of the basis, and the simplex path depends on every
// bit of every solve and on the order the solves list their nonzeros, so
// a change to the elimination or solve loops must leave these hashes
// alone. Covers a fresh factorization, a singular basis repaired with
// slacks, and chains of eta updates with periodic refactorization.
TEST(Basis, SolvesArePinned) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Rng R(Seed * 7919);
    unsigned M = 260 + R.below(140);
    std::vector<std::vector<Term>> Cols = allocatorShapedCols(R, M, 2 * M);
    std::vector<uint32_t> Basic = mixedBasis(R, M, Cols.size(), 45);

    Basis B;
    B.setup(M);
    H = factorizeRepairing(B, Cols, Basic, H);
    ASSERT_TRUE(B.valid());
    H = foldDigest(solveDigest(B, Cols, Seed), H);

    // Eta chain: enter seeded structurals on the largest transformed
    // entry, refactorizing whenever the file asks for it.
    IndexedVector W;
    W.setup(M);
    for (unsigned Step = 0; Step != 90; ++Step) {
      uint32_t Enter = M + R.below(Cols.size() - M);
      W.clear();
      for (const Term &T : Cols[Enter])
        W.add(T.Var.Index, T.Coeff);
      B.ftran(W);
      H = hashVector(W, H);
      uint32_t Pivot = ~0u;
      double Best = 1e-7;
      for (uint32_t I : W.indices())
        if (std::fabs(W[I]) > Best) {
          Best = std::fabs(W[I]);
          Pivot = I;
        }
      if (Pivot == ~0u)
        continue;
      B.update(W, Pivot);
      Basic[Pivot] = Enter;
      if (B.shouldRefactorize())
        H = factorizeRepairing(B, Cols, Basic, H);
      if (Step % 10 == 9)
        H = foldDigest(solveDigest(B, Cols, Seed * 100 + Step), H);
    }
    EXPECT_GT(B.stats().Factorizations, 1u) << "seed " << Seed;
    EXPECT_GT(B.stats().EtaPivots, 60u) << "seed " << Seed;
  }
  EXPECT_EQ(H, 0x0c064f6bdbdd3919ull);
}

// Factoring one Basis through a sequence of different bases (including a
// re-setup to a smaller dimension and a singular basis) must give exactly
// what a fresh Basis gives each time: same deficiency, same solves bit for
// bit. A copy made after the factorization, and a copy factorized in its
// own right, must agree as well.
TEST(Basis, ScratchReuseMatchesFreshBasis) {
  struct Case {
    unsigned M;
    uint64_t Seed;
    unsigned StructuralPercent;
    bool Singular;
  };
  const Case Cases[] = {{300, 11, 40, false}, {300, 12, 60, false},
                        {90, 13, 50, false},  {300, 14, 30, true},
                        {300, 15, 45, false}, {40, 16, 70, true},
                        {40, 17, 35, false}};
  Basis Reused;
  unsigned LastM = 0;
  for (const Case &C : Cases) {
    Rng R(C.Seed);
    std::vector<std::vector<Term>> Cols = allocatorShapedCols(R, C.M, 2 * C.M);
    std::vector<uint32_t> Basic = mixedBasis(R, C.M, Cols.size(),
                                             C.StructuralPercent);
    if (C.Singular) {
      // Two slots holding the same column make the basis singular.
      std::vector<Term> Dup = Cols[C.M + 1];
      Cols.push_back(std::move(Dup));
      Basic[0] = C.M + 1;
      Basic[1] = static_cast<uint32_t>(Cols.size() - 1);
    }

    Basis Cloned = Reused; // factors of the previous case, no scratch
    if (C.M != LastM) {
      Reused.setup(C.M);
      Cloned.setup(C.M);
      LastM = C.M;
    }
    Basis Fresh;
    Fresh.setup(C.M);
    auto DefReused = Reused.factorize(Cols, Basic);
    auto DefCloned = Cloned.factorize(Cols, Basic);
    auto DefFresh = Fresh.factorize(Cols, Basic);
    if (C.Singular)
      EXPECT_FALSE(DefFresh.empty()) << "seed " << C.Seed;
    // Repair with slacks until the basis factorizes; every round's
    // deficiency must agree too.
    while (true) {
      EXPECT_EQ(DefReused, DefFresh) << "seed " << C.Seed;
      EXPECT_EQ(DefCloned, DefFresh) << "seed " << C.Seed;
      EXPECT_EQ(Reused.valid(), DefFresh.empty());
      if (DefFresh.empty())
        break;
      for (auto [Slot, Row] : DefFresh)
        Basic[Slot] = Row;
      DefReused = Reused.factorize(Cols, Basic);
      DefCloned = Cloned.factorize(Cols, Basic);
      DefFresh = Fresh.factorize(Cols, Basic);
    }
    ASSERT_TRUE(Reused.valid());
    ASSERT_TRUE(Cloned.valid());
    std::vector<uint64_t> Want = solveDigest(Fresh, Cols, C.Seed);
    EXPECT_EQ(solveDigest(Reused, Cols, C.Seed), Want) << "seed " << C.Seed;
    EXPECT_EQ(solveDigest(Cloned, Cols, C.Seed), Want) << "seed " << C.Seed;
    Basis Copy = Reused;
    EXPECT_EQ(solveDigest(Copy, Cols, C.Seed), Want) << "seed " << C.Seed;
    EXPECT_EQ(Reused.stats().LastFactorNnz, Fresh.stats().LastFactorNnz);
  }
}

// Long warm-start chain on one structured LP: enough pivots to overflow
// the eta file repeatedly, so the periodic refactorization and the
// basic-value refresh paths are exercised, with the dense engine as the
// oracle at every step.
TEST(Simplex, RefactorizationDriftLongChain) {
  Rng R(424242);
  Model M;
  std::vector<VarId> Vars;
  const unsigned NumVars = 40, NumRows = 25;
  for (unsigned J = 0; J != NumVars; ++J)
    Vars.push_back(M.addContinuous("v" + std::to_string(J), 0.0,
                                   2.0 + R.below(6),
                                   static_cast<double>(R.range(-5, 5))));
  for (unsigned I = 0; I != NumRows; ++I) {
    LinExpr E;
    for (unsigned J = 0; J != NumVars; ++J)
      if (R.chance(1, 3))
        E.add(Vars[J], static_cast<double>(R.range(-3, 3)));
    E.add(Vars[I % NumVars], 1.0);
    M.addConstraint(std::move(E), Rel::LE, 4.0 + R.below(10));
  }

  Simplex Sparse(M);
  denseref::DenseSimplex Dense(M);
  ASSERT_EQ(static_cast<int>(Sparse.solve().Status),
            static_cast<int>(Dense.solve().Status));

  unsigned Optimal = 0;
  for (unsigned Step = 0; Step != 120; ++Step) {
    VarId V = Vars[R.below(NumVars)];
    if (R.chance(1, 2)) {
      double X = static_cast<double>(R.below(3));
      Sparse.setVarBounds(V, X, X);
      Dense.setVarBounds(V, X, X);
    } else {
      Sparse.setVarBounds(V, M.var(V).Lower, M.var(V).Upper);
      Dense.setVarBounds(V, M.var(V).Lower, M.var(V).Upper);
    }
    LpResult A = Sparse.solve();
    denseref::DenseLpResult B = Dense.solve();
    ASSERT_EQ(static_cast<int>(A.Status), static_cast<int>(B.Status))
        << "step " << Step;
    if (A.Status == LpStatus::Optimal) {
      ASSERT_NEAR(A.Objective, B.Objective, 1e-6) << "step " << Step;
      ++Optimal;
    }
  }
  EXPECT_GT(Optimal, 60u); // the chain must not degenerate to infeasible
  // The chain is long enough that the eta file must have been rebuilt.
  EXPECT_GT(Sparse.stats().Factorizations, 2u);
  EXPECT_GT(Sparse.stats().EtaPivots, 100u);
}
