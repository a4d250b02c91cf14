//===- Basis.h - Sparse LU basis factorization ------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse basis factorization for the revised simplex: an LU decomposition
/// of the basis matrix computed with Markowitz pivoting under threshold
/// partial pivoting, plus a product-form eta file of simplex pivots applied
/// since the last refactorization. FTRAN/BTRAN solve through the factors
/// and the eta file, exploiting sparse right-hand sides (hyper-sparsity):
/// a pivot step whose running value is exactly zero performs no arithmetic.
///
/// This replaces the dense m*m basis inverse the solver used to carry
/// (O(m^2) per iteration, O(m^3) per rebuild) with data structures whose
/// cost tracks the number of nonzeros actually present — the Forrest-Tomlin
/// / product-form machinery CPLEX-class codes are built on.
///
//===----------------------------------------------------------------------===//

#ifndef ILP_BASIS_H
#define ILP_BASIS_H

#include "ilp/Expr.h"

#include <cstdint>
#include <vector>

namespace nova {
namespace ilp {

/// A sparse vector over a fixed-size index space: dense value array plus
/// the list of positions that may be nonzero. Scatter-style kernels append
/// to Idx through add()/set(), which keep the list duplicate-free via the
/// Mark byte-map; clear() is O(|Idx|), not O(m).
class IndexedVector {
public:
  void setup(unsigned M) {
    Val.assign(M, 0.0);
    Mark.assign(M, 0);
    Idx.clear();
  }

  void clear() {
    for (uint32_t I : Idx) {
      Val[I] = 0.0;
      Mark[I] = 0;
    }
    Idx.clear();
  }

  void add(uint32_t I, double V) {
    if (!Mark[I]) {
      Mark[I] = 1;
      Idx.push_back(I);
    }
    Val[I] += V;
  }

  void set(uint32_t I, double V) {
    if (!Mark[I]) {
      Mark[I] = 1;
      Idx.push_back(I);
    }
    Val[I] = V;
  }

  double operator[](uint32_t I) const { return Val[I]; }
  const std::vector<uint32_t> &indices() const { return Idx; }
  size_t size() const { return Val.size(); }

  /// Drops positions whose value fell below \p Tol in magnitude, so later
  /// scans over indices() skip cancelled entries.
  void compact(double Tol) {
    size_t Out = 0;
    for (uint32_t I : Idx) {
      if (Val[I] > Tol || Val[I] < -Tol) {
        Idx[Out++] = I;
      } else {
        Val[I] = 0.0;
        Mark[I] = 0;
      }
    }
    Idx.resize(Out);
  }

private:
  std::vector<double> Val;
  std::vector<uint8_t> Mark;
  std::vector<uint32_t> Idx;
};

/// Counters accumulated across the lifetime of one Basis (and surfaced all
/// the way up to BENCH_solver.json).
struct BasisStats {
  unsigned Factorizations = 0; ///< sparse LU rebuilds
  unsigned EtaPivots = 0;      ///< simplex pivots absorbed into the eta file
  unsigned LastFactorNnz = 0;  ///< nnz(L) + nnz(U) of the latest LU
  unsigned LastBasisNnz = 0;   ///< nnz(B) of the latest factorized basis
  double FactorSeconds = 0.0;  ///< wall time spent inside factorize()
};

/// Sparse LU factorization of a simplex basis with a product-form eta
/// update file. Value semantics: copying a Basis clones the factors.
///
/// Every rebuild and every solve does work proportional to the nonzeros it
/// touches, and the result is a pure function of the basis: the pivot
/// sequence, the factor values, the floating-point operation order of
/// every output entry, and the order solves list their nonzeros do not
/// depend on the rebuilds that came before (see factorize()).
class Basis {
public:
  /// Index-space size (rows == basis slots). Invalidates any factors.
  void setup(unsigned M);

  /// Factorizes the basis whose slot i holds column Cols[Basic[i]] of the
  /// constraint matrix. Markowitz pivot selection under threshold partial
  /// pivoting. On success returns an empty vector and clears the eta file.
  /// Every nonzero coefficient of a basis column must be at least the
  /// elimination's drop tolerance (1e-12) in magnitude; the allocator's
  /// coefficients are +-1, 200, 1.01 and the like.
  /// If the basis is (numerically) singular, returns the deficiency as
  /// (slot, row) pairs: slot positions that could not be pivoted, matched
  /// with the rows left uncovered; the factorization is left invalid and
  /// the caller is expected to patch Basic (e.g. with slack columns) and
  /// refactorize.
  std::vector<std::pair<uint32_t, uint32_t>>
  factorize(const std::vector<std::vector<Term>> &Cols,
            const std::vector<uint32_t> &Basic);

  bool valid() const { return Valid; }
  unsigned dimension() const { return M; }

  /// Solves B * x = b. On entry \p X holds b indexed by constraint row; on
  /// exit it holds x indexed by basis slot.
  void ftran(IndexedVector &X) const;

  /// Solves y * B = c (i.e. B^T y = c). On entry \p X holds c indexed by
  /// basis slot; on exit it holds y indexed by constraint row.
  void btran(IndexedVector &X) const;

  /// Absorbs a simplex pivot: the basis column in slot \p PivotSlot is
  /// replaced by the column whose FTRAN result is \p W (slot-indexed).
  /// Appends a product-form eta; factors are untouched.
  void update(const IndexedVector &W, uint32_t PivotSlot);

  /// True when the eta file has grown enough that refactorizing is cheaper
  /// than continuing to apply updates.
  bool shouldRefactorize() const;

  unsigned etaCount() const { return EtaHdr.size(); }
  const BasisStats &stats() const { return Stats; }

private:
  struct Ent {
    uint32_t Pos; ///< row or slot, depending on the owning structure
    double Val;
  };
  struct EtaHeader {
    uint32_t Slot;  ///< pivot slot of this eta
    uint32_t Start; ///< first off-pivot entry in EtaEnt
    double PivVal;  ///< W[Slot] at update time
  };

  unsigned M = 0;
  bool Valid = false;

  // Pivot sequence: at elimination step K the pivot sat at constraint row
  // PivRow[K], basis slot PivCol[K].
  std::vector<uint32_t> PivRow, PivCol;
  std::vector<double> UDiag; ///< pivot values by elimination step

  // L: per step K, the multipliers of the rows eliminated below the pivot;
  // (Pos = constraint row, Val = multiplier). LSteps lists, ascending, the
  // steps that have any: every slack pivot and most structural ones have
  // none, and the L solves visit only the listed steps.
  std::vector<uint32_t> LStart;
  std::vector<Ent> LEnt;
  std::vector<uint32_t> LSteps;

  // U off-diagonals stored twice: by pivot row (Pos = basis slot of the
  // entry's column) for BTRAN's forward scatter, and by pivot column (Pos =
  // constraint row of the entry's pivot row) for FTRAN's backward scatter.
  std::vector<uint32_t> URowStart;
  std::vector<Ent> URowEnt;
  std::vector<uint32_t> UColStart;
  std::vector<Ent> UColEnt;

  // The inverse pivot sequence: elimination step of each row and slot.
  std::vector<uint32_t> StepOfRow, StepOfSlot;
  // Steps a U or U^T solve has reached but not yet processed, one bit per
  // step; all clear between solves.
  mutable std::vector<uint64_t> Reached;

  // Product-form eta file, in creation order.
  std::vector<EtaHeader> EtaHdr;
  std::vector<Ent> EtaEnt;

  BasisStats Stats;

  /// factorize()'s active submatrix, kept across rebuilds so a warm
  /// rebuild allocates (almost) nothing. reset() empties every list in
  /// place, so bucket and entry order are exactly a fresh run's. A copy
  /// starts empty and grows its own on its first rebuild.
  struct Workspace {
    Workspace() = default;
    Workspace(const Workspace &) {}
    Workspace &operator=(const Workspace &) { return *this; }
    void reset(unsigned M);

    /// An active entry; Slot is the index of its column in RowCols[Pos].
    struct ColEnt {
      uint32_t Pos;
      uint32_t Slot;
      double Val;
    };
    /// A column of a row's pattern, with the position its entry in that
    /// row had in the column when last moved: a hint that saves the search
    /// when it is still right, and is verified before it is used.
    struct RowRef {
      uint32_t Col;
      uint32_t At;
    };
    /// Columns with exact live entries. RowCols is a superset pattern per
    /// row: a cancelled entry leaves a stale column there, detected by the
    /// entry missing from ACol.
    std::vector<std::vector<ColEnt>> ACol;
    std::vector<std::vector<RowRef>> RowCols;
    /// Columns by live count; an entry goes stale when its column's count
    /// changes (the column is re-pushed into its new bucket).
    std::vector<std::vector<uint32_t>> Buckets;
    std::vector<uint32_t> RCount, CCount;
    std::vector<uint8_t> RowDone, ColDone;
    /// Position of each row in the column being updated, else -1.
    std::vector<int32_t> Where;
    std::vector<uint32_t> Touched;
  };
  Workspace Work;

  // Scratch for ftran()'s slot-space result (mutable: solves are logically
  // const). Sized M by setup().
  mutable IndexedVector SlotScratch;
};

} // namespace ilp
} // namespace nova

#endif // ILP_BASIS_H
