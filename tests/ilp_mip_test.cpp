//===- ilp_mip_test.cpp - Branch & bound tests ----------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "ilp/MipSolver.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace nova;
using namespace nova::ilp;

namespace {

/// Exhaustively minimizes a pure 0-1 model (all variables binary) by
/// enumeration; returns +inf if infeasible. Only usable for <= ~20 vars.
double bruteForce(const Model &M) {
  unsigned N = M.numVars();
  double Best = Inf;
  for (uint64_t Mask = 0; Mask < (1ull << N); ++Mask) {
    std::vector<double> X(N);
    for (unsigned J = 0; J != N; ++J)
      X[J] = (Mask >> J) & 1 ? 1.0 : 0.0;
    if (isFeasible(M, X))
      Best = std::min(Best, objectiveValue(M, X));
  }
  return Best;
}

} // namespace

TEST(MipSolver, Knapsack) {
  // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6  => minimize the negation.
  // Best: a + c (w=5, v=17) vs b + c (w=6, v=20) -> 20.
  Model M;
  VarId A = M.addBinary("a", -10.0);
  VarId B = M.addBinary("b", -13.0);
  VarId C = M.addBinary("c", -7.0);
  M.addConstraint(3.0 * LinExpr(A) + 4.0 * LinExpr(B) + 2.0 * LinExpr(C),
                  Rel::LE, 6.0);
  MipResult R = MipSolver(M).solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, -20.0, 1e-6);
  EXPECT_NEAR(R.X[B.Index], 1.0, 1e-6);
  EXPECT_NEAR(R.X[C.Index], 1.0, 1e-6);
}

TEST(MipSolver, InfeasibleModel) {
  Model M;
  VarId A = M.addBinary("a");
  VarId B = M.addBinary("b");
  M.addConstraint(LinExpr(A) + LinExpr(B), Rel::GE, 3.0);
  EXPECT_EQ(MipSolver(M).solve().Status, MipStatus::Infeasible);
}

TEST(MipSolver, EqualityPartition) {
  // Exactly one of four variables, costs 3,1,4,1 with tie — min is 1.
  Model M;
  std::vector<VarId> V;
  double Costs[] = {3, 1, 4, 1.5};
  LinExpr Sum;
  for (int I = 0; I != 4; ++I) {
    V.push_back(M.addBinary("v" + std::to_string(I), Costs[I]));
    Sum += LinExpr(V.back());
  }
  M.addConstraint(std::move(Sum), Rel::EQ, 1.0);
  MipResult R = MipSolver(M).solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, 1.0, 1e-6);
  EXPECT_NEAR(R.X[V[1].Index], 1.0, 1e-6);
}

TEST(MipSolver, AssignmentProblem) {
  // 3x3 assignment, cost matrix with known optimum 1+2+1 = 4 on the
  // permutation (0->1, 1->2, 2->0).
  double Cost[3][3] = {{9, 1, 9}, {9, 9, 2}, {1, 9, 9}};
  Model M;
  VarId X[3][3];
  for (int I = 0; I != 3; ++I)
    for (int J = 0; J != 3; ++J)
      X[I][J] = M.addBinary("x" + std::to_string(I) + std::to_string(J),
                            Cost[I][J]);
  for (int I = 0; I != 3; ++I) {
    LinExpr Row, Col;
    for (int J = 0; J != 3; ++J) {
      Row += LinExpr(X[I][J]);
      Col += LinExpr(X[J][I]);
    }
    M.addConstraint(std::move(Row), Rel::EQ, 1.0);
    M.addConstraint(std::move(Col), Rel::EQ, 1.0);
  }
  MipResult R = MipSolver(M).solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, 4.0, 1e-6);
}

TEST(MipSolver, SetCover) {
  // Universe {1..4}; sets: {1,2}(c2) {3,4}(c2) {1,2,3}(c3) {4}(c1).
  // Optimum: {1,2} + {3,4} = 4  or {1,2,3}+{4} = 4.
  Model M;
  VarId S1 = M.addBinary("s1", 2);
  VarId S2 = M.addBinary("s2", 2);
  VarId S3 = M.addBinary("s3", 3);
  VarId S4 = M.addBinary("s4", 1);
  M.addConstraint(LinExpr(S1) + LinExpr(S3), Rel::GE, 1.0); // element 1
  M.addConstraint(LinExpr(S1) + LinExpr(S3), Rel::GE, 1.0); // element 2
  M.addConstraint(LinExpr(S2) + LinExpr(S3), Rel::GE, 1.0); // element 3
  M.addConstraint(LinExpr(S2) + LinExpr(S4), Rel::GE, 1.0); // element 4
  MipResult R = MipSolver(M).solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, 4.0, 1e-6);
}

TEST(MipSolver, MixedIntegerContinuous) {
  // min -x - 10 y, x continuous in [0, 2.5], y binary, x + 4y <= 4.
  // y=1 -> x <= 0? x + 4 <= 4 -> x = 0: obj -10. y=0 -> x=2.5: obj -2.5.
  Model M;
  VarId X = M.addContinuous("x", 0.0, 2.5, -1.0);
  VarId Y = M.addBinary("y", -10.0);
  M.addConstraint(LinExpr(X) + 4.0 * LinExpr(Y), Rel::LE, 4.0);
  MipResult R = MipSolver(M).solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, -10.0, 1e-5);
  EXPECT_NEAR(R.X[Y.Index], 1.0, 1e-6);
}

TEST(MipSolver, SeededIncumbentIsUsed) {
  Model M;
  std::vector<VarId> V;
  LinExpr Sum;
  for (int I = 0; I != 6; ++I) {
    V.push_back(M.addBinary("v" + std::to_string(I), I + 1.0));
    Sum += LinExpr(V.back());
  }
  M.addConstraint(std::move(Sum), Rel::GE, 2.0);
  MipSolver Solver(M);
  // Seed with the true optimum (v0 + v1 = 3).
  std::vector<double> Seed(6, 0.0);
  Seed[0] = Seed[1] = 1.0;
  Solver.setIncumbent(Seed);
  MipResult R = Solver.solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, 3.0, 1e-6);
}

TEST(MipSolver, InfeasibleSeedIgnored) {
  Model M;
  VarId A = M.addBinary("a", 1.0);
  M.addConstraint(LinExpr(A), Rel::GE, 1.0);
  MipSolver Solver(M);
  Solver.setIncumbent({0.0}); // violates the constraint
  MipResult R = Solver.solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, 1.0, 1e-6);
}

TEST(MipSolver, PresolveOffMatchesOn) {
  Model M;
  VarId A = M.addBinary("a", -3.0);
  VarId B = M.addBinary("b", -2.0);
  VarId C = M.addBinary("c", -1.0);
  M.addConstraint(LinExpr(A) + LinExpr(B) + LinExpr(C), Rel::LE, 2.0);
  M.addConstraint(LinExpr(A), Rel::EQ, 1.0);

  MipOptions NoPresolve;
  NoPresolve.EnablePresolve = false;
  MipResult R1 = MipSolver(M).solve();
  MipResult R2 = MipSolver(M, NoPresolve).solve();
  ASSERT_EQ(R1.Status, MipStatus::Optimal);
  ASSERT_EQ(R2.Status, MipStatus::Optimal);
  EXPECT_NEAR(R1.Objective, R2.Objective, 1e-6);
  EXPECT_NEAR(R1.Objective, -5.0, 1e-6);
}

TEST(MipSolver, StatsArePopulated) {
  Model M;
  VarId A = M.addBinary("a", -1.0);
  VarId B = M.addBinary("b", -1.0);
  M.addConstraint(LinExpr(A) + LinExpr(B), Rel::LE, 1.0);
  MipResult R = MipSolver(M).solve();
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_GE(R.Stats.Nodes, 1u);
  EXPECT_GE(R.Stats.TotalSeconds, 0.0);
  EXPECT_GE(R.Stats.TotalSeconds, R.Stats.RootLpSeconds);
  // Root LP of this model is x=y=0.5 -> objective -1 (equals integer opt).
  EXPECT_NEAR(R.Stats.RootObjective, -1.0, 1e-6);
}

namespace {

/// Builds a bank-assignment-flavored model at unit-test scale: the shape
/// of the allocator's application models — "exactly one bank per item"
/// partition rows, per-bank capacity rows, pairwise conflict rows, and a
/// nonnegative move-cost objective.
Model makeAppLikeModel(unsigned Items, unsigned Banks, unsigned Conflicts,
                       uint64_t Seed) {
  Rng R(Seed);
  Model M;
  std::vector<std::vector<VarId>> X(Items);
  for (unsigned I = 0; I != Items; ++I) {
    LinExpr Sum;
    for (unsigned B = 0; B != Banks; ++B) {
      X[I].push_back(M.addBinary("x" + std::to_string(I) + "_" +
                                     std::to_string(B),
                                 static_cast<double>(R.below(9))));
      Sum += LinExpr(X[I][B]);
    }
    M.addConstraint(std::move(Sum), Rel::EQ, 1.0);
  }
  for (unsigned B = 0; B != Banks; ++B) {
    LinExpr Load;
    for (unsigned I = 0; I != Items; ++I)
      Load += LinExpr(X[I][B]);
    M.addConstraint(std::move(Load), Rel::LE,
                    1.0 + (Items + Banks - 1) / Banks);
  }
  for (unsigned C = 0; C != Conflicts; ++C) {
    unsigned I = R.below(Items), J = R.below(Items);
    if (I == J)
      continue;
    unsigned B = R.below(Banks);
    M.addConstraint(LinExpr(X[I][B]) + LinExpr(X[J][B]), Rel::LE, 1.0);
  }
  return M;
}

MipResult solveWith(const Model &M, const std::vector<double> *Seed = nullptr,
                    bool Pseudocost = true) {
  MipOptions Opts;
  Opts.PseudocostBranching = Pseudocost;
  MipSolver Solver(M, Opts);
  if (Seed)
    Solver.setIncumbent(*Seed);
  return Solver.solve();
}

} // namespace

// Branching order changes the tree, not the answer: pseudocost and
// most-fractional branching must agree on the optimal objective on
// allocator-shaped models.
TEST(MipSearch, BranchingRulesAgreeOnAppLikeModels) {
  for (uint64_t Seed : {11u, 22u, 33u, 44u}) {
    Model M = makeAppLikeModel(10, 3, 12, Seed);
    MipResult Pc = solveWith(M);
    MipResult MostFrac = solveWith(M, nullptr, /*Pseudocost=*/false);
    ASSERT_EQ(Pc.Status, MipStatus::Optimal) << "seed " << Seed;
    ASSERT_EQ(MostFrac.Status, MipStatus::Optimal) << "seed " << Seed;
    EXPECT_NEAR(Pc.Objective, MostFrac.Objective, 1e-6) << "seed " << Seed;
    EXPECT_TRUE(isFeasible(M, Pc.X));
    EXPECT_TRUE(isFeasible(M, MostFrac.X));
  }
}

TEST(MipSearch, MatchesBruteForceOnAppLikeModel) {
  Model M = makeAppLikeModel(5, 2, 4, 7);
  ASSERT_LE(M.numVars(), 20u);
  double Expected = bruteForce(M);
  ASSERT_TRUE(std::isfinite(Expected));
  MipResult R = solveWith(M);
  ASSERT_EQ(R.Status, MipStatus::Optimal);
  EXPECT_NEAR(R.Objective, Expected, 1e-6);
}

// The search is a pure function of the model: repeated solves expand the
// same tree and return the same point. The second model branches (five
// nodes); the first is solved at the root.
TEST(MipSearch, RepeatedSolvesAreIdentical) {
  for (Model M : {makeAppLikeModel(12, 3, 16, 99),
                  makeAppLikeModel(8, 3, 30, 22)}) {
    MipResult A = solveWith(M);
    MipResult B = solveWith(M);
    ASSERT_EQ(A.Status, MipStatus::Optimal);
    ASSERT_EQ(B.Status, MipStatus::Optimal);
    EXPECT_EQ(A.Stats.Nodes, B.Stats.Nodes);
    EXPECT_EQ(A.Stats.LpIterations, B.Stats.LpIterations);
    EXPECT_EQ(A.Objective, B.Objective);
    EXPECT_EQ(A.X, B.X);
  }
}

// A seeded incumbent can only tighten the cutoff: with the branching rule
// pinned (most-fractional, so decisions do not depend on pruning history),
// seeding the known optimum must not enlarge the tree.
TEST(MipSearch, SeededIncumbentPrunesNoWorse) {
  Model M = makeAppLikeModel(12, 3, 20, 5);
  MipResult Unseeded = solveWith(M, nullptr, /*Pseudocost=*/false);
  ASSERT_EQ(Unseeded.Status, MipStatus::Optimal);
  MipResult Seeded = solveWith(M, &Unseeded.X, /*Pseudocost=*/false);
  ASSERT_EQ(Seeded.Status, MipStatus::Optimal);
  EXPECT_NEAR(Seeded.Objective, Unseeded.Objective, 1e-6);
  EXPECT_LE(Seeded.Stats.Nodes, Unseeded.Stats.Nodes);
}

// The root solve, the dive and the tree search share one Simplex, so the
// engine counters are that instance's own: a model the root solves
// outright reports exactly the root's LP work.
TEST(MipSearch, RootIntegralModelReportsRootLpWork) {
  // A 12x12 assignment problem: totally unimodular, so the root LP is
  // integral and the search ends at the root node.
  Rng R(2024);
  const unsigned N = 12;
  Model M;
  std::vector<std::vector<VarId>> X(N);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = 0; J != N; ++J)
      X[I].push_back(M.addBinary("x" + std::to_string(I) + "_" +
                                     std::to_string(J),
                                 static_cast<double>(1 + R.below(50))));
  for (unsigned I = 0; I != N; ++I) {
    LinExpr Row, Col;
    for (unsigned J = 0; J != N; ++J) {
      Row += LinExpr(X[I][J]);
      Col += LinExpr(X[J][I]);
    }
    M.addConstraint(std::move(Row), Rel::EQ, 1.0);
    M.addConstraint(std::move(Col), Rel::EQ, 1.0);
  }
  MipResult Mip = solveWith(M);
  ASSERT_EQ(Mip.Status, MipStatus::Optimal);
  EXPECT_EQ(Mip.Stats.Nodes, 1u);
  EXPECT_GT(Mip.Stats.Factorizations, 0u);
  EXPECT_GT(Mip.Stats.EtaPivots, 0u);
  // The same LP work by hand: the root solve, then the two warm
  // re-solves of its optimal basis the search makes (one to undo the
  // dive, one as the root node). Each re-solve pivots nothing but prices.
  PresolveResult P = presolve(M);
  Simplex Root(P.Reduced);
  LpResult RootR = Root.solve();
  ASSERT_EQ(RootR.Status, LpStatus::Optimal);
  EXPECT_EQ(Root.solve().Iterations, 0u);
  EXPECT_EQ(Root.solve().Iterations, 0u);
  SimplexStats LS = Root.stats();
  EXPECT_EQ(Mip.Stats.LpIterations, RootR.Iterations);
  EXPECT_EQ(Mip.Stats.Factorizations, LS.Factorizations);
  EXPECT_EQ(Mip.Stats.EtaPivots, LS.EtaPivots);
  EXPECT_EQ(Mip.Stats.PricingPasses, LS.PricingPasses);
}

// Property test: random 0-1 programs vs exhaustive enumeration.
class MipRandom : public ::testing::TestWithParam<int> {};

TEST_P(MipRandom, MatchesBruteForce) {
  Rng R(GetParam() * 104729 + 17);
  unsigned NumVars = 3 + R.below(10); // <= 12 for fast enumeration
  unsigned NumRows = 1 + R.below(6);

  Model M;
  std::vector<VarId> Vars;
  for (unsigned J = 0; J != NumVars; ++J)
    Vars.push_back(
        M.addBinary("v" + std::to_string(J), R.range(-6, 6)));
  for (unsigned I = 0; I != NumRows; ++I) {
    LinExpr E;
    unsigned Nz = 0;
    for (unsigned J = 0; J != NumVars; ++J)
      if (R.chance(1, 2)) {
        E.add(Vars[J], static_cast<double>(R.range(-3, 3)));
        ++Nz;
      }
    if (Nz == 0)
      continue;
    int Kind = static_cast<int>(R.below(3));
    Rel Relation = Kind == 0 ? Rel::LE : Kind == 1 ? Rel::GE : Rel::EQ;
    M.addConstraint(std::move(E), Relation,
                    static_cast<double>(R.range(-2, 4)));
  }

  double Expected = bruteForce(M);
  MipResult Res = MipSolver(M).solve();
  if (!std::isfinite(Expected)) {
    EXPECT_EQ(Res.Status, MipStatus::Infeasible);
    return;
  }
  ASSERT_EQ(Res.Status, MipStatus::Optimal)
      << "expected optimum " << Expected;
  EXPECT_NEAR(Res.Objective, Expected, 1e-5);
  EXPECT_TRUE(isFeasible(M, Res.X));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipRandom, ::testing::Range(0, 60));
