//===- Basis.cpp ----------------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "ilp/Basis.h"

#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

using namespace nova;
using namespace nova::ilp;

namespace {
/// Threshold partial pivoting: a pivot candidate must be at least this
/// fraction of the largest entry in its column. Smaller values favour
/// sparsity (Markowitz merit) over stability.
constexpr double Tau = 0.05;
/// Entries below this magnitude are numerically zero.
constexpr double AbsTol = 1e-11;
/// Fill-in below this magnitude is dropped during elimination.
constexpr double DropTol = 1e-12;
/// Pivot search stops after this many candidate-bearing columns have been
/// scored (Markowitz with limited search, a la Suhl & Suhl).
constexpr unsigned SearchLimit = 4;
/// Refactorize after this many eta pivots regardless of their size.
constexpr unsigned MaxEtas = 64;

void markStep(std::vector<uint64_t> &Bits, uint32_t K) {
  Bits[K >> 6] |= uint64_t(1) << (K & 63);
}
} // namespace

void Basis::setup(unsigned Dim) {
  M = Dim;
  Valid = false;
  SlotScratch.setup(M);
  EtaHdr.clear();
  EtaEnt.clear();
}

void Basis::Workspace::reset(unsigned M) {
  ACol.resize(M);
  for (std::vector<ColEnt> &Col : ACol)
    Col.clear();
  RowCols.resize(M);
  for (std::vector<RowRef> &Row : RowCols)
    Row.clear();
  Buckets.resize(M + 1);
  for (std::vector<uint32_t> &Bk : Buckets)
    Bk.clear();
  RCount.assign(M, 0);
  CCount.assign(M, 0);
  RowDone.assign(M, 0);
  ColDone.assign(M, 0);
  Where.assign(M, -1);
}

std::vector<std::pair<uint32_t, uint32_t>>
Basis::factorize(const std::vector<std::vector<Term>> &Cols,
                 const std::vector<uint32_t> &Basic) {
  assert(Basic.size() == M && "basis size mismatch");
  struct ChargeSeconds {
    double &Total;
    Timer Clock;
    ~ChargeSeconds() { Total += Clock.seconds(); }
  } Charge{Stats.FactorSeconds, {}};

  Valid = false;
  PivRow.clear();
  PivCol.clear();
  UDiag.clear();
  LStart.assign(1, 0);
  LEnt.clear();
  LSteps.clear();
  URowStart.assign(1, 0);
  URowEnt.clear();
  UColStart.clear();
  UColEnt.clear();
  EtaHdr.clear();
  EtaEnt.clear();

  Work.reset(M);
  auto &ACol = Work.ACol;
  auto &RowCols = Work.RowCols;
  auto &Buckets = Work.Buckets;
  auto &RCount = Work.RCount, &CCount = Work.CCount;
  auto &RowDone = Work.RowDone, &ColDone = Work.ColDone;
  auto &Where = Work.Where;
  auto &Touched = Work.Touched;

  unsigned BasisNnz = 0;
  for (uint32_t C = 0; C != M; ++C) {
    for (const Term &T : Cols[Basic[C]]) {
      if (T.Coeff == 0.0)
        continue;
      // Every stored entry is at least DropTol in magnitude: fill is
      // compacted as it is created, and this covers the original
      // coefficients. A step without L multipliers relies on it to skip
      // the compaction pass, which could then drop nothing.
      assert(std::fabs(T.Coeff) >= DropTol && "coefficient below DropTol");
      auto &Row = RowCols[T.Var.Index];
      Row.push_back({C, static_cast<uint32_t>(ACol[C].size())});
      ACol[C].push_back({T.Var.Index, static_cast<uint32_t>(Row.size() - 1),
                         T.Coeff});
      ++RCount[T.Var.Index];
      ++BasisNnz;
    }
    CCount[C] = ACol[C].size();
  }
  Stats.LastBasisNnz = BasisNnz;

  for (uint32_t C = 0; C != M; ++C)
    Buckets[CCount[C]].push_back(C);

  // Drops a numerically empty column from the active matrix.
  auto RetireColumn = [&](uint32_t C) {
    ColDone[C] = 1;
    for (const auto &E : ACol[C])
      --RCount[E.Pos];
    ACol[C].clear();
    CCount[C] = 0;
  };

  for (unsigned K = 0; K != M; ++K) {
    // --- Markowitz pivot search over the count buckets ---
    uint32_t BestR = ~0u, BestC = ~0u;
    double BestV = 0.0;
    uint64_t BestMerit = ~0ull;
    unsigned Scored = 0;
    for (unsigned Count = 1; Count <= M && BestMerit != 0; ++Count) {
      std::vector<uint32_t> &Bk = Buckets[Count];
      for (size_t I = 0; I < Bk.size() && BestMerit != 0;) {
        uint32_t C = Bk[I];
        if (ColDone[C] || CCount[C] != Count) {
          Bk[I] = Bk.back();
          Bk.pop_back();
          continue;
        }
        ++I;
        double ColMax = 0.0;
        for (const auto &E : ACol[C])
          ColMax = std::max(ColMax, std::fabs(E.Val));
        if (ColMax < AbsTol) {
          RetireColumn(C);
          --I; // the swap-pop below would skip an entry otherwise
          Bk[I] = Bk.back();
          Bk.pop_back();
          continue;
        }
        bool Candidate = false;
        for (const auto &E : ACol[C]) {
          double A = std::fabs(E.Val);
          if (A < Tau * ColMax || A < AbsTol || RowDone[E.Pos])
            continue;
          Candidate = true;
          uint64_t Merit =
              uint64_t(Count - 1) * uint64_t(RCount[E.Pos] - 1);
          if (Merit < BestMerit ||
              (Merit == BestMerit && A > std::fabs(BestV))) {
            BestMerit = Merit;
            BestR = E.Pos;
            BestC = C;
            BestV = E.Val;
          }
        }
        if (Candidate && ++Scored >= SearchLimit)
          break;
      }
      if (Scored >= SearchLimit)
        break;
    }
    if (BestC == ~0u)
      break; // singular: the remaining slots are reported below

    // --- elimination step K with pivot (BestR, BestC, BestV) ---
    const uint32_t Pr = BestR, Pc = BestC;
    const double Pv = BestV;
    RowDone[Pr] = 1;
    ColDone[Pc] = 1;
    PivRow.push_back(Pr);
    PivCol.push_back(Pc);
    UDiag.push_back(Pv);

    for (const auto &E : ACol[Pc])
      if (E.Pos != Pr) {
        LEnt.push_back({E.Pos, E.Val / Pv});
        --RCount[E.Pos];
      }
    LStart.push_back(LEnt.size());
    const size_t L0 = LStart[K], L1 = LStart[K + 1];
    if (L0 != L1)
      LSteps.push_back(K);

    for (const auto &Ref : RowCols[Pr]) {
      const uint32_t C = Ref.Col;
      if (C == Pc || ColDone[C])
        continue;
      auto &Col = ACol[C];
      // Find and remove the pivot row's entry: at the hinted position, or
      // by search. Rows are unique within a column, so both give the same
      // position. A miss means the entry cancelled earlier and this
      // RowCols slot is stale.
      size_t At = Ref.At;
      if (At >= Col.size() || Col[At].Pos != Pr) {
        At = 0;
        while (At != Col.size() && Col[At].Pos != Pr)
          ++At;
        if (At == Col.size())
          continue;
      }
      const double Upv = Col[At].Val;
      Col[At] = Col.back();
      Col.pop_back();
      if (At != Col.size())
        RowCols[Col[At].Pos][Col[At].Slot].At = static_cast<uint32_t>(At);
      URowEnt.push_back({C, Upv});

      // Without multipliers the column only loses its pivot-row entry:
      // every other entry is untouched and already at least DropTol.
      if (L0 != L1) {
        Touched.clear();
        for (size_t I = 0; I != Col.size(); ++I) {
          Where[Col[I].Pos] = static_cast<int32_t>(I);
          Touched.push_back(Col[I].Pos);
        }
        // Only updated entries and fill can fall below DropTol.
        bool Cancelled = false;
        for (size_t I = L0; I != L1; ++I) {
          const Ent &Le = LEnt[I];
          double Delta = -Le.Val * Upv;
          double V;
          if (Where[Le.Pos] >= 0) {
            V = Col[Where[Le.Pos]].Val += Delta;
          } else {
            V = Delta;
            auto &Row = RowCols[Le.Pos];
            Row.push_back({C, static_cast<uint32_t>(Col.size())});
            Col.push_back(
                {Le.Pos, static_cast<uint32_t>(Row.size() - 1), Delta});
            ++RCount[Le.Pos];
            Where[Le.Pos] = static_cast<int32_t>(Col.size() - 1);
            Touched.push_back(Le.Pos);
          }
          Cancelled |= !(std::fabs(V) >= DropTol);
        }
        if (Cancelled) {
          size_t Out = 0;
          for (size_t I = 0; I != Col.size(); ++I) {
            if (!(std::fabs(Col[I].Val) >= DropTol)) {
              --RCount[Col[I].Pos];
              continue;
            }
            if (Out != I) {
              Col[Out] = Col[I];
              RowCols[Col[Out].Pos][Col[Out].Slot].At =
                  static_cast<uint32_t>(Out);
            }
            ++Out;
          }
          Col.resize(Out);
        }
        for (uint32_t R : Touched)
          Where[R] = -1;
      }
      if (CCount[C] != Col.size()) {
        CCount[C] = Col.size();
        Buckets[CCount[C]].push_back(C);
      }
    }
    URowStart.push_back(URowEnt.size());
    RowCols[Pr].clear();
    ACol[Pc].clear();
  }

  if (PivRow.size() != M) {
    // Singular: pair the unpivoted slots with the uncovered rows.
    std::vector<uint8_t> Pivoted(M, 0);
    for (uint32_t C : PivCol)
      Pivoted[C] = 1;
    std::vector<uint32_t> FreeSlots, FreeRows;
    for (uint32_t C = 0; C != M; ++C)
      if (!Pivoted[C])
        FreeSlots.push_back(C);
    for (uint32_t R = 0; R != M; ++R)
      if (!RowDone[R])
        FreeRows.push_back(R);
    assert(FreeSlots.size() == FreeRows.size() && "deficiency mismatch");
    std::vector<std::pair<uint32_t, uint32_t>> Deficient;
    for (size_t I = 0; I != FreeSlots.size(); ++I)
      Deficient.push_back({FreeSlots[I], FreeRows[I]});
    return Deficient;
  }

  StepOfRow.resize(M);
  StepOfSlot.resize(M);
  for (unsigned K = 0; K != M; ++K) {
    StepOfRow[PivRow[K]] = K;
    StepOfSlot[PivCol[K]] = K;
  }
  Reached.assign((M + 63) / 64, 0);

  // Build U's column-wise mirror (used by FTRAN's backward scatter) from
  // the row-wise entries recorded during elimination.
  std::vector<uint32_t> ColCounts(M, 0);
  for (const Ent &E : URowEnt)
    ++ColCounts[StepOfSlot[E.Pos]];
  UColStart.assign(M + 1, 0);
  for (unsigned K = 0; K != M; ++K)
    UColStart[K + 1] = UColStart[K] + ColCounts[K];
  UColEnt.resize(URowEnt.size());
  std::vector<uint32_t> Fill(UColStart.begin(), UColStart.end() - 1);
  for (unsigned K = 0; K != M; ++K)
    for (uint32_t I = URowStart[K]; I != URowStart[K + 1]; ++I) {
      uint32_t J = StepOfSlot[URowEnt[I].Pos];
      UColEnt[Fill[J]++] = {PivRow[K], URowEnt[I].Val};
    }

  Valid = true;
  ++Stats.Factorizations;
  Stats.LastFactorNnz =
      static_cast<unsigned>(LEnt.size() + URowEnt.size() + M);
  return {};
}

void Basis::ftran(IndexedVector &X) const {
  assert(Valid && "no factorization");
  // L-solve in place on the row-space input, over the steps that have
  // multipliers.
  for (uint32_t K : LSteps) {
    double T = X[PivRow[K]];
    if (T == 0.0)
      continue;
    for (uint32_t I = LStart[K]; I != LStart[K + 1]; ++I)
      X.add(LEnt[I].Pos, -LEnt[I].Val * T);
  }
  // U-solve, backward over the pivot sequence, consuming the row-space
  // vector into the slot-space result. A zero running value contributes
  // nothing, so only the steps the input's dependency closure reaches are
  // visited (hyper-sparsity): Reached marks them, and U column K only
  // reaches steps before K, so the marks are consumed in the same
  // descending order a full sweep would take.
  SlotScratch.clear();
  for (uint32_t R : X.indices())
    markStep(Reached, StepOfRow[R]);
  for (size_t Word = Reached.size(); Word-- > 0;)
    while (uint64_t Bits = Reached[Word]) {
      unsigned Bit = 63 - std::countl_zero(Bits);
      Reached[Word] = Bits & ~(uint64_t(1) << Bit);
      uint32_t K = static_cast<uint32_t>(Word * 64 + Bit);
      double T = X[PivRow[K]];
      if (T == 0.0)
        continue;
      double Xv = T / UDiag[K];
      SlotScratch.set(PivCol[K], Xv);
      for (uint32_t I = UColStart[K]; I != UColStart[K + 1]; ++I) {
        X.add(UColEnt[I].Pos, -UColEnt[I].Val * Xv);
        markStep(Reached, StepOfRow[UColEnt[I].Pos]);
      }
    }
  std::swap(X, SlotScratch);
  SlotScratch.clear();
  // Product-form etas, oldest first, in slot space.
  for (const EtaHeader &H : EtaHdr) {
    double T = X[H.Slot];
    if (T == 0.0)
      continue;
    T /= H.PivVal;
    X.set(H.Slot, T);
    uint32_t End = (&H == &EtaHdr.back()) ? EtaEnt.size()
                                          : (&H)[1].Start;
    for (uint32_t I = H.Start; I != End; ++I)
      X.add(EtaEnt[I].Pos, -EtaEnt[I].Val * T);
  }
}

void Basis::btran(IndexedVector &X) const {
  assert(Valid && "no factorization");
  // Etas newest first, in slot space: c_r <- (c_r - sum W_i c_i) / W_r.
  for (size_t E = EtaHdr.size(); E-- > 0;) {
    const EtaHeader &H = EtaHdr[E];
    uint32_t End =
        (E + 1 == EtaHdr.size()) ? EtaEnt.size() : EtaHdr[E + 1].Start;
    double S = X[H.Slot];
    for (uint32_t I = H.Start; I != End; ++I)
      S -= EtaEnt[I].Val * X[EtaEnt[I].Pos];
    X.set(H.Slot, S / H.PivVal);
  }
  // U^T-solve: forward over the pivot sequence, consuming the slot-space
  // vector into the row-space result. Row K of U only reaches later
  // steps, so the Reached marks are consumed in ascending order.
  SlotScratch.clear();
  for (uint32_t S : X.indices())
    markStep(Reached, StepOfSlot[S]);
  for (size_t Word = 0; Word != Reached.size(); ++Word)
    while (uint64_t Bits = Reached[Word]) {
      unsigned Bit = std::countr_zero(Bits);
      Reached[Word] = Bits & (Bits - 1);
      uint32_t K = static_cast<uint32_t>(Word * 64 + Bit);
      double T = X[PivCol[K]];
      if (T == 0.0)
        continue;
      double W = T / UDiag[K];
      SlotScratch.set(PivRow[K], W);
      for (uint32_t I = URowStart[K]; I != URowStart[K + 1]; ++I) {
        X.add(URowEnt[I].Pos, -URowEnt[I].Val * W);
        markStep(Reached, StepOfSlot[URowEnt[I].Pos]);
      }
    }
  std::swap(X, SlotScratch);
  SlotScratch.clear();
  // L^T-solve in place on the row-space vector (gather form), backward
  // over the steps that have multipliers.
  for (size_t J = LSteps.size(); J-- > 0;) {
    uint32_t K = LSteps[J];
    double S = 0.0;
    for (uint32_t I = LStart[K]; I != LStart[K + 1]; ++I)
      S += LEnt[I].Val * X[LEnt[I].Pos];
    if (S != 0.0)
      X.add(PivRow[K], -S);
  }
}

void Basis::update(const IndexedVector &W, uint32_t PivotSlot) {
  assert(Valid && "no factorization");
  double Pv = W[PivotSlot];
  assert(Pv != 0.0 && "zero pivot in eta update");
  if (FaultInjector::armed() &&
      FaultInjector::instance().shouldFire(FaultKind::EtaDrift)) {
    // Corrupt this eta's pivot so FTRAN/BTRAN through the file silently
    // drift; Simplex's post-optimal primal-residual check must catch it
    // and refactorize from scratch.
    Pv *= 1.0 + FaultInjector::instance().magnitude(FaultKind::EtaDrift);
  }
  EtaHdr.push_back({PivotSlot, static_cast<uint32_t>(EtaEnt.size()), Pv});
  for (uint32_t I : W.indices())
    if (I != PivotSlot && W[I] != 0.0)
      EtaEnt.push_back({I, W[I]});
  ++Stats.EtaPivots;
}

bool Basis::shouldRefactorize() const {
  if (EtaHdr.size() >= MaxEtas)
    return true;
  // Refactorize early if the eta file dwarfs the factors themselves.
  size_t FactorNnz = std::max<size_t>(Stats.LastFactorNnz, 512);
  return EtaEnt.size() > 2 * FactorNnz;
}
