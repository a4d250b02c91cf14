//===- MipSolver.cpp ------------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Parallel branch & bound. The search tree is explored by a pool of
// workers (support/ThreadPool); each worker owns a warm-started Simplex
// cloned from the solved root relaxation plus a private DFS deque. Open
// subproblems are captured as bound-change trails (the 0/1 fixings from
// the root), so any worker can adopt any node by replaying the trail onto
// its own LP — that is what makes subtrees stealable. The incumbent is
// shared: a mutex-protected best point plus an atomic objective that every
// worker reads for pruning without locking.
//
// Two scheduling modes:
//  - asynchronous (default): workers run depth-first on their own deque
//    and steal the shallowest open node from a sibling when empty;
//  - deterministic: nodes are expanded in fixed-order synchronized rounds,
//    making node counts reproducible across runs at a given thread count.
//
//===----------------------------------------------------------------------===//

#include "ilp/MipSolver.h"

#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

using namespace nova;
using namespace nova::ilp;

namespace {
constexpr double IntTol = 1e-6;

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
/// split by branching direction (Benichou-style pseudocosts). Writes are
/// serialized by Mu; the deterministic engine defers all updates to its
/// round barriers so in-round reads see a frozen table.
struct Pseudocosts {
  struct Entry {
    double DownSum = 0.0, UpSum = 0.0;
    unsigned DownCount = 0, UpCount = 0;
  };
  std::vector<Entry> Entries;
  double DownTotal = 0.0, UpTotal = 0.0;
  unsigned DownObs = 0, UpObs = 0;
  std::mutex Mu;

  explicit Pseudocosts(unsigned NumVars) : Entries(NumVars) {}

  void record(unsigned Var, bool Up, double PerUnit) {
    std::lock_guard<std::mutex> L(Mu);
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

/// A deferred pseudocost observation (deterministic mode applies these at
/// the round barrier, in node order).
struct PcObservation {
  uint32_t Var;
  bool Up;
  double PerUnit;
};

/// Pseudocost branching: score every fractional variable by the product of
/// its estimated up/down objective degradations; variables without history
/// inherit the average observed pseudocost. Falls back to most-fractional
/// while nothing has been observed at all. Ties break to the lowest index
/// so the choice is a pure function of (X, pseudocost state).
unsigned selectBranchVar(const Model &M, const std::vector<double> &X,
                         Pseudocosts *PC) {
  if (!PC)
    return findFractional(M, X, FracPick::Most);
  std::lock_guard<std::mutex> L(PC->Mu);
  if (PC->DownObs + PC->UpObs == 0)
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
/// Replaying Trail onto any worker's Simplex reproduces the node's LP.
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

/// State shared by all workers of one solve.
struct SearchShared {
  const Model &RM;
  const MipOptions &Opts;
  Pseudocosts PC;
  Timer Clock; ///< started at solve() entry; enforces TimeLimitSeconds

  std::mutex IncMu;
  std::vector<double> IncumbentX;
  std::atomic<double> Incumbent{Inf};

  std::atomic<unsigned> NodeCount{0};
  std::atomic<long> Outstanding{0}; ///< queued + in-flight nodes
  std::atomic<bool> Stop{false};
  std::atomic<bool> HitLimit{false};
  std::atomic<bool> Trouble{false}; ///< LP numerical trouble: optimality lost

  struct WorkDeque {
    std::mutex Mu;
    std::deque<Node> Q;
  };
  std::vector<std::unique_ptr<WorkDeque>> Deques;

  SearchShared(const Model &RM, const MipOptions &Opts, unsigned NumWorkers)
      : RM(RM), Opts(Opts), PC(RM.numVars()) {
    for (unsigned I = 0; I != NumWorkers; ++I)
      Deques.push_back(std::make_unique<WorkDeque>());
  }

  double cutoff() const {
    double Inc = Incumbent.load(std::memory_order_relaxed);
    if (!std::isfinite(Inc))
      return Inf;
    return Inc - std::max(1e-9, Opts.RelGap * std::fabs(Inc));
  }

  void offerIncumbent(std::vector<double> X, double Obj) {
    std::lock_guard<std::mutex> L(IncMu);
    if (Obj < Incumbent.load(std::memory_order_relaxed)) {
      Incumbent.store(Obj, std::memory_order_relaxed);
      IncumbentX = std::move(X);
    }
  }

  bool timedOut() const { return Clock.seconds() > Opts.TimeLimitSeconds; }
};

/// One worker: a Simplex warm-started from the root basis plus the trail
/// of fixings currently applied to it.
struct Worker {
  SearchShared &S;
  unsigned Id;
  Simplex &Lp;
  const std::vector<double> &RootLo, &RootUp;
  std::vector<Node::Fix> Cur; ///< fixings currently applied to Lp
  MipWorkerStats Stats;

  Worker(SearchShared &S, unsigned Id, Simplex &Lp,
         const std::vector<double> &RootLo, const std::vector<double> &RootUp)
      : S(S), Id(Id), Lp(Lp), RootLo(RootLo), RootUp(RootUp) {}

  /// Morphs Lp's bounds from the currently applied trail to \p T: undoes
  /// the divergent suffix, then applies T's new fixings. For plain DFS the
  /// diff is one entry; a steal replays from the common ancestor.
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

  /// Restores every bound the search changed, leaving Lp reusable — runs
  /// on all exit paths, including node-limit / timeout / numerical-trouble
  /// aborts mid-tree.
  void restoreBounds() { applyTrail({}); }

  /// Expands one node: solves its LP, updates pseudocosts, offers an
  /// incumbent or appends the two children to \p Out (preferred child
  /// last, so a pop from the back dives). \p Cutoff is the pruning bound
  /// the caller chose (live for async, a round snapshot for deterministic
  /// mode); \p DeferPc, when set, collects pseudocost observations instead
  /// of applying them immediately.
  void expand(const Node &N, std::vector<Node> &Out, double Cutoff,
              std::vector<PcObservation> *DeferPc) {
    applyTrail(N.Trail);
    LpResult R = Lp.solve();
    Stats.LpIterations += R.Iterations;
    ++Stats.Nodes;
    if (R.Status == LpStatus::Infeasible)
      return;
    if (R.Status != LpStatus::Optimal) {
      // Numerical trouble: completeness bookkeeping is no longer sound, so
      // give up on proving optimality and stop the whole search.
      S.Trouble.store(true);
      S.Stop.store(true);
      return;
    }
    if (N.BranchVar != ~0u && std::isfinite(N.ParentObj)) {
      bool Up = N.Trail.back().Val > 0.5f;
      double Width = Up ? 1.0 - N.BranchFrac : N.BranchFrac;
      if (Width > IntTol) {
        double PerUnit = std::max(0.0, R.Objective - N.ParentObj) / Width;
        if (DeferPc)
          DeferPc->push_back({N.BranchVar, Up, PerUnit});
        else
          S.PC.record(N.BranchVar, Up, PerUnit);
      }
    }
    if (R.Objective >= Cutoff)
      return;
    std::vector<double> X = Lp.values();
    unsigned BranchVar = selectBranchVar(
        S.RM, X, S.Opts.PseudocostBranching ? &S.PC : nullptr);
    if (BranchVar == ~0u) {
      roundIntegers(S.RM, X);
      if (isFeasible(S.RM, X, 1e-5))
        S.offerIncumbent(std::move(X), R.Objective);
      return;
    }
    double Frac = X[BranchVar] - std::floor(X[BranchVar]);
    float FirstVal = X[BranchVar] >= 0.5 ? 1.0f : 0.0f;
    Node Second;
    Second.Trail = N.Trail;
    Second.Trail.push_back({BranchVar, 1.0f - FirstVal});
    Second.ParentObj = R.Objective;
    Second.BranchVar = BranchVar;
    Second.BranchFrac = Frac;
    Node First;
    First.Trail = N.Trail;
    First.Trail.push_back({BranchVar, FirstVal});
    First.ParentObj = R.Objective;
    First.BranchVar = BranchVar;
    First.BranchFrac = Frac;
    Out.push_back(std::move(Second));
    Out.push_back(std::move(First));
  }
};

bool popOwn(SearchShared &S, unsigned Id, Node &N) {
  SearchShared::WorkDeque &D = *S.Deques[Id];
  std::lock_guard<std::mutex> L(D.Mu);
  if (D.Q.empty())
    return false;
  N = std::move(D.Q.back());
  D.Q.pop_back();
  return true;
}

/// Steals the *front* (shallowest, hence largest) open node of a sibling.
bool stealFrom(SearchShared &S, unsigned Id, Node &N) {
  unsigned T = S.Deques.size();
  for (unsigned Off = 1; Off != T; ++Off) {
    SearchShared::WorkDeque &D = *S.Deques[(Id + Off) % T];
    std::lock_guard<std::mutex> L(D.Mu);
    if (D.Q.empty())
      continue;
    N = std::move(D.Q.front());
    D.Q.pop_front();
    return true;
  }
  return false;
}

/// Asynchronous work-stealing search: each worker runs DFS on its own
/// deque, stealing when empty, until the tree is exhausted or a limit
/// trips. Termination: Outstanding counts queued + in-flight nodes, and
/// children are enqueued before the parent is retired, so Outstanding only
/// reaches zero when no work exists anywhere.
void asyncWorkerLoop(Worker &W) {
  SearchShared &S = W.S;
  std::vector<Node> Children;
  unsigned IdleSpins = 0;
  while (!S.Stop.load(std::memory_order_relaxed)) {
    Node N;
    bool Got = popOwn(S, W.Id, N);
    if (!Got && (Got = stealFrom(S, W.Id, N)))
      ++W.Stats.Steals;
    if (!Got) {
      if (S.Outstanding.load() == 0)
        break;
      if (++IdleSpins > 64)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      else
        std::this_thread::yield();
      continue;
    }
    IdleSpins = 0;
    unsigned Count = S.NodeCount.fetch_add(1) + 1;
    if (FaultInjector::armed()) {
      FaultInjector &FI = FaultInjector::instance();
      if (FI.shouldFire(FaultKind::WorkerStall))
        std::this_thread::sleep_for(std::chrono::duration<double>(
            FI.magnitude(FaultKind::WorkerStall, 0.02)));
      if (FI.shouldFire(FaultKind::MipTimeout)) {
        // Behave exactly as a tripped wall clock: flag the limit and let
        // the shared-state epilogue salvage whatever incumbent exists.
        S.HitLimit.store(true);
        S.Stop.store(true);
        S.Outstanding.fetch_sub(1);
        break;
      }
    }
    if (Count > S.Opts.NodeLimit || S.timedOut()) {
      S.HitLimit.store(true);
      S.Stop.store(true);
      S.Outstanding.fetch_sub(1);
      break;
    }
    Children.clear();
    W.expand(N, Children, S.cutoff(), nullptr);
    if (!Children.empty()) {
      SearchShared::WorkDeque &D = *S.Deques[W.Id];
      std::lock_guard<std::mutex> L(D.Mu);
      for (Node &C : Children)
        D.Q.push_back(std::move(C));
      S.Outstanding.fetch_add(static_cast<long>(Children.size()));
    }
    S.Outstanding.fetch_sub(1);
  }
  W.restoreBounds();
}

/// Deterministic bulk-synchronous search. Each worker dives depth-first on
/// its own stack (keeping the trail diffs small, so its warm LP basis stays
/// useful); rounds are separated by barriers, and *all* cross-worker
/// effects — pseudocost updates, work redistribution to idle workers — are
/// applied at the barrier under a fixed ordering rule. Every scheduling
/// decision is a pure function of the stack contents, so node counts and
/// the optimal objective replay exactly at a given thread count.
void deterministicSearch(SearchShared &S, ThreadPool &Pool,
                         std::vector<std::unique_ptr<Worker>> &Workers,
                         Node Root) {
  unsigned T = Workers.size();
  std::vector<std::deque<Node>> Stacks(T);
  Stacks[0].push_back(std::move(Root));
  std::vector<Node> Batch(T);
  std::vector<bool> Has(T);
  std::vector<std::vector<Node>> Children(T);
  std::vector<std::vector<PcObservation>> Observed(T);
  while (true) {
    // Fixed-order rebalancing: every idle worker (ascending id) adopts the
    // shallowest open node of the worker with the most open nodes (ties to
    // the lowest id) — a deterministic rendition of work stealing.
    for (unsigned W = 0; W != T; ++W) {
      if (!Stacks[W].empty())
        continue;
      unsigned Donor = ~0u;
      size_t DonorSize = 1; // donors must keep at least one node
      for (unsigned V = 0; V != T; ++V)
        if (Stacks[V].size() > DonorSize) {
          Donor = V;
          DonorSize = Stacks[V].size();
        }
      if (Donor == ~0u)
        continue;
      Stacks[W].push_back(std::move(Stacks[Donor].front()));
      Stacks[Donor].pop_front();
      ++Workers[W]->Stats.Steals;
    }
    unsigned K = 0;
    for (unsigned W = 0; W != T; ++W) {
      Has[W] = !Stacks[W].empty();
      if (Has[W]) {
        Batch[W] = std::move(Stacks[W].back());
        Stacks[W].pop_back();
        ++K;
      }
    }
    if (K == 0)
      break;
    if (FaultInjector::armed()) {
      FaultInjector &FI = FaultInjector::instance();
      if (FI.shouldFire(FaultKind::WorkerStall))
        std::this_thread::sleep_for(std::chrono::duration<double>(
            FI.magnitude(FaultKind::WorkerStall, 0.02)));
      if (FI.shouldFire(FaultKind::MipTimeout)) {
        S.HitLimit.store(true);
        break;
      }
    }
    if (S.NodeCount.load() + K > S.Opts.NodeLimit || S.timedOut()) {
      S.HitLimit.store(true);
      break;
    }
    S.NodeCount.fetch_add(K);
    double Cutoff = S.cutoff();
    Pool.runOnWorkers([&](unsigned W) {
      Children[W].clear();
      Observed[W].clear();
      if (Has[W])
        Workers[W]->expand(Batch[W], Children[W], Cutoff, &Observed[W]);
    });
    if (S.Trouble.load())
      break;
    for (unsigned W = 0; W != T; ++W) {
      for (const PcObservation &O : Observed[W])
        S.PC.record(O.Var, O.Up, O.PerUnit);
      for (Node &C : Children[W])
        Stacks[W].push_back(std::move(C));
    }
  }
  Pool.runOnWorkers([&](unsigned W) { Workers[W]->restoreBounds(); });
}

/// Diving heuristic run at the root: repeatedly fix the least fractional
/// variable to its rounded value and re-solve, hoping to reach an integer
/// point cheaply. All bound changes are undone afterwards.
void dive(SearchShared &S, Simplex &Lp, MipStats &Stats) {
  struct Saved {
    VarId Var;
    double Lo, Up;
  };
  std::vector<Saved> Trail;
  unsigned LpBudget = S.Opts.DiveLpLimit;
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
void tryRounding(SearchShared &S, Simplex &Lp) {
  std::vector<double> X = Lp.values();
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
  std::clock_t CpuStart = std::clock();

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

  auto finishTimes = [&] {
    Result.Stats.TotalSeconds = Total.seconds();
    Result.Stats.CpuSeconds =
        double(std::clock() - CpuStart) / CLOCKS_PER_SEC;
  };

  if (P.Infeasible) {
    Result.Status = MipStatus::Infeasible;
    finishTimes();
    return Result;
  }

  // Never run more workers than the machine has hardware threads: the
  // extra workers only time-slice, and the resulting interleaving makes
  // the asynchronous search expand speculative nodes a single-threaded
  // run would have pruned (more nodes *and* more wall clock).
  unsigned Requested =
      Opts.Threads == 0 ? ThreadPool::defaultThreads() : Opts.Threads;
  unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  unsigned NumWorkers = std::max(1u, std::min(Requested, Hardware));
  Result.Stats.Threads = NumWorkers;

  SearchShared S(P.Reduced, Opts, NumWorkers);

  // Seed incumbent from the caller, translated into reduced space.
  if (!SeedX.empty()) {
    std::vector<double> ReducedSeed;
    if (P.reduceSolution(SeedX, ReducedSeed) &&
        isFeasible(P.Reduced, ReducedSeed, 1e-6))
      S.offerIncumbent(std::move(ReducedSeed),
                       objectiveValue(P.Reduced, ReducedSeed));
  }

  // Root relaxation (Figure 7's "Root" column). Worker 0 reuses this
  // instance; the other workers clone its warm basis.
  Simplex RootLp(P.Reduced);
  Timer RootClock;
  LpResult Root = RootLp.solve();
  Result.Stats.LpIterations += Root.Iterations;
  Result.Stats.RootLpSeconds = RootClock.seconds();
  if (Root.Status == LpStatus::Infeasible) {
    Result.Status = MipStatus::Infeasible;
    finishTimes();
    return Result;
  }
  if (Root.Status == LpStatus::Optimal) {
    Result.Stats.RootObjective =
        Root.Objective + P.FixedObjective + M.objectiveConstant();
    tryRounding(S, RootLp);
    dive(S, RootLp, Result.Stats);
    // Diving perturbed the working basis; restore a clean root solve so
    // the tree search starts from the true relaxation.
    LpResult Again = RootLp.solve();
    Result.Stats.LpIterations += Again.Iterations;
  }

  std::vector<double> RootLo(P.Reduced.numVars()), RootUp(P.Reduced.numVars());
  for (unsigned J = 0; J != P.Reduced.numVars(); ++J) {
    RootLo[J] = RootLp.lowerBound(VarId{J});
    RootUp[J] = RootLp.upperBound(VarId{J});
  }

  // Clone the solved root basis into the extra workers (warm starts). A
  // clone starts with the root's engine counters, so its own work is
  // counted from this snapshot.
  const SimplexStats AtClone = RootLp.stats();
  std::vector<Simplex> ExtraLps(NumWorkers - 1, RootLp);
  std::vector<std::unique_ptr<Worker>> Workers;
  Workers.push_back(
      std::make_unique<Worker>(S, 0, RootLp, RootLo, RootUp));
  for (unsigned I = 1; I != NumWorkers; ++I)
    Workers.push_back(
        std::make_unique<Worker>(S, I, ExtraLps[I - 1], RootLo, RootUp));

  ThreadPool Pool(NumWorkers);
  Node RootNode;
  if (Opts.Deterministic) {
    deterministicSearch(S, Pool, Workers, std::move(RootNode));
  } else {
    S.Deques[0]->Q.push_back(std::move(RootNode));
    S.Outstanding.store(1);
    Pool.runOnWorkers([&](unsigned W) { asyncWorkerLoop(*Workers[W]); });
  }

  for (const std::unique_ptr<Worker> &W : Workers) {
    Result.Stats.Nodes += W->Stats.Nodes;
    Result.Stats.Steals += W->Stats.Steals;
    Result.Stats.LpIterations += W->Stats.LpIterations;
    Result.Stats.Workers.push_back(W->Stats);
  }
  auto addLpStats = [&](const Simplex &Lp, const SimplexStats &Base) {
    SimplexStats LS = Lp.stats();
    Result.Stats.Factorizations += LS.Factorizations - Base.Factorizations;
    Result.Stats.EtaPivots += LS.EtaPivots - Base.EtaPivots;
    Result.Stats.PricingPasses += LS.PricingPasses - Base.PricingPasses;
    Result.Stats.FactorSeconds += LS.FactorSeconds - Base.FactorSeconds;
  };
  addLpStats(RootLp, SimplexStats());
  for (const Simplex &Lp : ExtraLps)
    addLpStats(Lp, AtClone);

  bool Complete = !S.HitLimit.load() && !S.Trouble.load();
  finishTimes();
  double Incumbent = S.Incumbent.load();
  if (!std::isfinite(Incumbent)) {
    Result.Status = Complete ? MipStatus::Infeasible : MipStatus::NoSolution;
    return Result;
  }
  Result.Status = Complete ? MipStatus::Optimal : MipStatus::Feasible;
  Result.X = P.liftSolution(S.IncumbentX);
  Result.Objective = objectiveValue(M, Result.X);
  return Result;
}
