//===- MipSolver.cpp ------------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Serial depth-first branch & bound. The tree search runs on the Simplex
// that solved the root relaxation, warm-starting every node from the
// previous node's basis. Open subproblems sit on one stack, each captured
// as a bound-change trail (the 0/1 fixings from the root); expanding a node
// morphs the LP's bounds from the trail currently applied to the node's
// trail, so a dive changes one bound and a backtrack replays from the
// common ancestor.
//
//===----------------------------------------------------------------------===//

#include "ilp/MipSolver.h"

#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

using namespace nova;
using namespace nova::ilp;

namespace {
constexpr double IntTol = 1e-6;
/// Relative optimality gap; the paper stopped "within 0.01% of optimal".
constexpr double RelGap = 1e-4;
/// Number of LP re-solves the root diving heuristic may spend.
constexpr unsigned DiveLpLimit = 400;

enum class FracPick { Most, Least };

/// Single fractionality scan shared by branching and diving: returns the
/// integer variable whose LP value is farthest from (Most) or closest to
/// (Least) an integer, or ~0u if the point is integral on all integer
/// variables.
unsigned findFractional(const Model &M, const std::vector<double> &X,
                        FracPick Pick) {
  unsigned Best = ~0u;
  double BestScore = Pick == FracPick::Most ? IntTol : 2.0;
  for (unsigned J = 0; J != M.numVars(); ++J) {
    if (!M.var(VarId{J}).Integer)
      continue;
    double Frac = X[J] - std::floor(X[J]);
    double Dist = std::min(Frac, 1.0 - Frac);
    if (Dist <= IntTol)
      continue;
    bool Better = Pick == FracPick::Most ? Dist > BestScore : Dist < BestScore;
    if (Better) {
      BestScore = Dist;
      Best = J;
    }
  }
  return Best;
}

/// Rounds integer variables of \p X to the nearest integer in place.
void roundIntegers(const Model &M, std::vector<double> &X) {
  for (unsigned J = 0; J != M.numVars(); ++J)
    if (M.var(VarId{J}).Integer)
      X[J] = std::round(X[J]);
}

/// Per-variable average objective degradation per unit of fractionality,
/// split by branching direction (Benichou-style pseudocosts).
struct Pseudocosts {
  struct Entry {
    double DownSum = 0.0, UpSum = 0.0;
    unsigned DownCount = 0, UpCount = 0;
  };
  std::vector<Entry> Entries;
  double DownTotal = 0.0, UpTotal = 0.0;
  unsigned DownObs = 0, UpObs = 0;

  explicit Pseudocosts(unsigned NumVars) : Entries(NumVars) {}

  void record(unsigned Var, bool Up, double PerUnit) {
    Entry &E = Entries[Var];
    if (Up) {
      E.UpSum += PerUnit;
      ++E.UpCount;
      UpTotal += PerUnit;
      ++UpObs;
    } else {
      E.DownSum += PerUnit;
      ++E.DownCount;
      DownTotal += PerUnit;
      ++DownObs;
    }
  }
};

/// Pseudocost branching: score every fractional variable by the product of
/// its estimated up/down objective degradations; variables without history
/// inherit the average observed pseudocost. Falls back to most-fractional
/// while nothing has been observed at all. Ties break to the lowest index
/// so the choice is a pure function of (X, pseudocost state).
unsigned selectBranchVar(const Model &M, const std::vector<double> &X,
                         const Pseudocosts *PC) {
  if (!PC || PC->DownObs + PC->UpObs == 0)
    return findFractional(M, X, FracPick::Most);
  double AvgDown = PC->DownObs ? PC->DownTotal / PC->DownObs : 1.0;
  double AvgUp = PC->UpObs ? PC->UpTotal / PC->UpObs : 1.0;
  unsigned Best = ~0u;
  double BestScore = -1.0;
  for (unsigned J = 0; J != M.numVars(); ++J) {
    if (!M.var(VarId{J}).Integer)
      continue;
    double Frac = X[J] - std::floor(X[J]);
    if (std::min(Frac, 1.0 - Frac) <= IntTol)
      continue;
    const Pseudocosts::Entry &E = PC->Entries[J];
    double Down = E.DownCount ? E.DownSum / E.DownCount : AvgDown;
    double Up = E.UpCount ? E.UpSum / E.UpCount : AvgUp;
    double Score =
        std::max(Frac * Down, 1e-12) * std::max((1.0 - Frac) * Up, 1e-12);
    if (Score > BestScore) {
      BestScore = Score;
      Best = J;
    }
  }
  return Best;
}

/// One open subproblem, captured as the 0/1 fixings leading from the root.
/// Replaying Trail onto the Simplex reproduces the node's LP.
struct Node {
  struct Fix {
    uint32_t Var;
    float Val; ///< 0.0 or 1.0
  };
  std::vector<Fix> Trail;
  double ParentObj = -Inf; ///< parent LP objective (node's bound estimate)
  uint32_t BranchVar = ~0u; ///< variable of the last fixing (~0u at root)
  double BranchFrac = 0.0;  ///< its fractional part in the parent LP
};

/// State of one solve: the incumbent, the pseudocost table, and the trail
/// of fixings currently applied to the Simplex the search runs on.
struct Search {
  const Model &RM;
  const MipOptions &Opts;
  Simplex &Lp;
  Pseudocosts PC;
  Timer Clock; ///< started with the search; enforces TimeLimitSeconds

  std::vector<double> IncumbentX;
  double Incumbent = Inf;

  std::vector<double> RootLo, RootUp;
  std::vector<Node::Fix> Cur; ///< fixings currently applied to Lp

  Search(const Model &RM, const MipOptions &Opts, Simplex &Lp)
      : RM(RM), Opts(Opts), Lp(Lp), PC(RM.numVars()) {}

  double cutoff() const {
    if (!std::isfinite(Incumbent))
      return Inf;
    return Incumbent - std::max(1e-9, RelGap * std::fabs(Incumbent));
  }

  void offerIncumbent(std::vector<double> X, double Obj) {
    if (Obj < Incumbent) {
      Incumbent = Obj;
      IncumbentX = std::move(X);
    }
  }

  bool timedOut() const { return Clock.seconds() > Opts.TimeLimitSeconds; }

  /// Morphs Lp's bounds from the currently applied trail to \p T: undoes
  /// the divergent suffix, then applies T's new fixings. For a dive the
  /// diff is one entry; a backtrack replays from the common ancestor.
  void applyTrail(const std::vector<Node::Fix> &T) {
    size_t P = 0;
    while (P < Cur.size() && P < T.size() && Cur[P].Var == T[P].Var &&
           Cur[P].Val == T[P].Val)
      ++P;
    for (size_t I = Cur.size(); I-- > P;)
      Lp.setVarBounds(VarId{Cur[I].Var}, RootLo[Cur[I].Var],
                      RootUp[Cur[I].Var]);
    Cur.resize(P);
    for (size_t I = P; I < T.size(); ++I) {
      Lp.setVarBounds(VarId{T[I].Var}, T[I].Val, T[I].Val);
      Cur.push_back(T[I]);
    }
  }

  /// Expands one node: solves its LP, records its pseudocost, offers an
  /// incumbent or pushes the two children onto \p Stack (preferred child
  /// last, so the next pop dives). Returns false on numerical trouble,
  /// which ends the search without proving optimality.
  bool expand(const Node &N, std::vector<Node> &Stack, MipStats &Stats) {
    applyTrail(N.Trail);
    LpResult R = Lp.solve();
    Stats.LpIterations += R.Iterations;
    ++Stats.Nodes;
    if (R.Status == LpStatus::Infeasible)
      return true;
    if (R.Status != LpStatus::Optimal)
      return false;
    if (N.BranchVar != ~0u && std::isfinite(N.ParentObj)) {
      bool Up = N.Trail.back().Val > 0.5f;
      double Width = Up ? 1.0 - N.BranchFrac : N.BranchFrac;
      if (Width > IntTol)
        PC.record(N.BranchVar, Up,
                  std::max(0.0, R.Objective - N.ParentObj) / Width);
    }
    if (R.Objective >= cutoff())
      return true;
    std::vector<double> X = Lp.values();
    unsigned BranchVar =
        selectBranchVar(RM, X, Opts.PseudocostBranching ? &PC : nullptr);
    if (BranchVar == ~0u) {
      roundIntegers(RM, X);
      if (isFeasible(RM, X, 1e-5))
        offerIncumbent(std::move(X), R.Objective);
      return true;
    }
    double Frac = X[BranchVar] - std::floor(X[BranchVar]);
    float FirstVal = X[BranchVar] >= 0.5 ? 1.0f : 0.0f;
    for (float Val : {1.0f - FirstVal, FirstVal}) {
      Node Child;
      Child.Trail = N.Trail;
      Child.Trail.push_back({BranchVar, Val});
      Child.ParentObj = R.Objective;
      Child.BranchVar = BranchVar;
      Child.BranchFrac = Frac;
      Stack.push_back(std::move(Child));
    }
    return true;
  }

  /// Depth-first tree search from the solved root relaxation. Returns
  /// true when the tree was exhausted, false when a node/time limit or
  /// numerical trouble cut it short. Every bound the search changed is
  /// restored on all exit paths, leaving Lp reusable.
  bool run(MipStats &Stats) {
    RootLo.resize(RM.numVars());
    RootUp.resize(RM.numVars());
    for (unsigned J = 0; J != RM.numVars(); ++J) {
      RootLo[J] = Lp.lowerBound(VarId{J});
      RootUp[J] = Lp.upperBound(VarId{J});
    }
    std::vector<Node> Stack(1);
    unsigned Count = 0;
    bool Complete = true;
    while (!Stack.empty()) {
      Node N = std::move(Stack.back());
      Stack.pop_back();
      ++Count;
      if (FaultInjector::armed()) {
        FaultInjector &FI = FaultInjector::instance();
        if (FI.shouldFire(FaultKind::WorkerStall))
          std::this_thread::sleep_for(std::chrono::duration<double>(
              FI.magnitude(FaultKind::WorkerStall)));
        // Behaves exactly as a tripped wall clock: the caller salvages
        // whatever incumbent exists.
        if (FI.shouldFire(FaultKind::MipTimeout)) {
          Complete = false;
          break;
        }
      }
      if (Count > Opts.NodeLimit || timedOut() || !expand(N, Stack, Stats)) {
        Complete = false;
        break;
      }
    }
    applyTrail({});
    return Complete;
  }
};

/// Diving heuristic run at the root: repeatedly fix the least fractional
/// variable to its rounded value and re-solve, hoping to reach an integer
/// point cheaply. All bound changes are undone afterwards.
void dive(Search &S, MipStats &Stats) {
  struct Saved {
    VarId Var;
    double Lo, Up;
  };
  Simplex &Lp = S.Lp;
  std::vector<Saved> Trail;
  unsigned LpBudget = DiveLpLimit;
  while (LpBudget-- && !S.timedOut()) {
    std::vector<double> X = Lp.values();
    unsigned Pick = findFractional(S.RM, X, FracPick::Least);
    if (Pick == ~0u) {
      roundIntegers(S.RM, X);
      if (isFeasible(S.RM, X, 1e-6)) {
        double Obj = objectiveValue(S.RM, X);
        S.offerIncumbent(std::move(X), Obj);
      }
      break;
    }
    double Val = std::round(X[Pick]);
    Trail.push_back(
        {VarId{Pick}, Lp.lowerBound(VarId{Pick}), Lp.upperBound(VarId{Pick})});
    Lp.setVarBounds(VarId{Pick}, Val, Val);
    LpResult R = Lp.solve();
    Stats.LpIterations += R.Iterations;
    if (R.Status != LpStatus::Optimal || R.Objective >= S.cutoff())
      break;
  }
  for (auto It = Trail.rbegin(); It != Trail.rend(); ++It)
    Lp.setVarBounds(It->Var, It->Lo, It->Up);
}

/// Rounds the current LP point and offers it if it happens to be feasible.
void tryRounding(Search &S) {
  std::vector<double> X = S.Lp.values();
  roundIntegers(S.RM, X);
  if (isFeasible(S.RM, X, 1e-6))
    S.offerIncumbent(std::move(X), objectiveValue(S.RM, X));
}

} // namespace

MipSolver::MipSolver(const Model &Mdl, MipOptions Options)
    : M(Mdl), Opts(Options) {}

void MipSolver::setIncumbent(const std::vector<double> &X) {
  if (isFeasible(M, X, 1e-6))
    SeedX = X;
}

MipResult MipSolver::solve() {
  MipResult Result;
  Timer Total;

  PresolveResult P;
  if (Opts.EnablePresolve) {
    P = presolve(M);
  } else {
    // Identity presolve.
    P.OrigToReduced.resize(M.numVars());
    P.FixedValue.assign(M.numVars(), 0.0);
    for (unsigned I = 0; I != M.numVars(); ++I) {
      const Variable &V = M.var(VarId{I});
      VarId NewId = V.Integer
                        ? P.Reduced.addBinary(V.Name, V.Objective)
                        : P.Reduced.addContinuous(V.Name, V.Lower, V.Upper,
                                                  V.Objective);
      P.Reduced.var(NewId).Lower = V.Lower;
      P.Reduced.var(NewId).Upper = V.Upper;
      P.OrigToReduced[I] = NewId.Index;
    }
    for (const Constraint &C : M.constraints()) {
      LinExpr E;
      for (const Term &T : C.Terms)
        E.add(VarId{P.OrigToReduced[T.Var.Index]}, T.Coeff);
      P.Reduced.addConstraint(std::move(E), C.Relation, C.Rhs);
    }
  }
  Result.Stats.PresolveFixedVars = P.NumFixed;
  Result.Stats.PresolveDroppedConstraints = P.NumDroppedConstraints;
  Result.Stats.ReducedVars = P.Reduced.numVars();
  Result.Stats.ReducedConstraints = P.Reduced.numConstraints();

  if (P.Infeasible) {
    Result.Status = MipStatus::Infeasible;
    Result.Stats.TotalSeconds = Total.seconds();
    return Result;
  }

  Simplex RootLp(P.Reduced);
  Search S(P.Reduced, Opts, RootLp);

  // Seed incumbent from the caller, translated into reduced space.
  if (!SeedX.empty()) {
    std::vector<double> ReducedSeed;
    if (P.reduceSolution(SeedX, ReducedSeed) &&
        isFeasible(P.Reduced, ReducedSeed, 1e-6))
      S.offerIncumbent(std::move(ReducedSeed),
                       objectiveValue(P.Reduced, ReducedSeed));
  }

  // Root relaxation (Figure 7's "Root" column); the tree search then runs
  // on this same instance.
  Timer RootClock;
  LpResult Root = RootLp.solve();
  Result.Stats.LpIterations += Root.Iterations;
  Result.Stats.RootLpSeconds = RootClock.seconds();
  if (Root.Status == LpStatus::Infeasible) {
    Result.Status = MipStatus::Infeasible;
    Result.Stats.TotalSeconds = Total.seconds();
    return Result;
  }
  if (Root.Status == LpStatus::Optimal) {
    Result.Stats.RootObjective =
        Root.Objective + P.FixedObjective + M.objectiveConstant();
    tryRounding(S);
    dive(S, Result.Stats);
    // Diving perturbed the working basis; restore a clean root solve so
    // the tree search starts from the true relaxation.
    LpResult Again = RootLp.solve();
    Result.Stats.LpIterations += Again.Iterations;
  }

  bool Complete = S.run(Result.Stats);
  SimplexStats LS = RootLp.stats();
  Result.Stats.Factorizations = LS.Factorizations;
  Result.Stats.EtaPivots = LS.EtaPivots;
  Result.Stats.PricingPasses = LS.PricingPasses;
  Result.Stats.FactorSeconds = LS.FactorSeconds;
  Result.Stats.TotalSeconds = Total.seconds();
  if (!std::isfinite(S.Incumbent)) {
    Result.Status = Complete ? MipStatus::Infeasible : MipStatus::NoSolution;
    return Result;
  }
  Result.Status = Complete ? MipStatus::Optimal : MipStatus::Feasible;
  Result.X = P.liftSolution(S.IncumbentX);
  Result.Objective = objectiveValue(M, Result.X);
  return Result;
}
