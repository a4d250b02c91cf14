//===- Allocator.h - ILP-based register/bank allocator ----------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The back end's centerpiece: solves bank assignment, transfer-bank
/// coloring, spilling, and cloning as one 0-1 ILP (paper Sections 5-10),
/// then:
///  - assigns A/B register numbers with an optimistic-coalescing coloring
///    pass in the style of Park-Moon / Appel-George (Section 9);
///  - materializes the chosen inter-bank moves (multi-step paths through
///    spill memory included) with parallel-move sequencing, using the
///    reserved A register to break copy cycles (Section 6);
///  - emits the fully allocated program.
///
/// The fast path solves a spill-free model first and retries with spills
/// enabled only if that is infeasible — the refinement the paper reports
/// reduces AES solve time from 35.9s to 9s (Section 11).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOC_ALLOCATOR_H
#define ALLOC_ALLOCATOR_H

#include "alloc/Allocated.h"
#include "alloc/IlpModel.h"
#include "ilp/MipSolver.h"
#include "support/Status.h"

namespace nova {
namespace alloc {

/// How far down the degradation ladder the allocator may descend when the
/// ILP does not deliver a proved optimum. Each policy admits every rung
/// of the one before it.
enum class OnIlpFailure : uint8_t {
  Error,     ///< proved optimum or nothing: any other exit is an error
  Incumbent, ///< also accept a feasible incumbent / spill-aware recovery
  Baseline   ///< also fall back to the heuristic memory-home allocator
};

/// Which rung of the ladder produced the accepted program.
enum class AllocRung : uint8_t {
  Optimal,    ///< ILP solved to proved optimality (the paper's pipeline)
  Incumbent,  ///< best feasible incumbent at the time/node limit
  SpillRetry, ///< spill-aware model rescued a failed spill-free solve
  Baseline    ///< heuristic memory-home allocation (correct, but slow code)
};

const char *rungName(AllocRung R);

/// Parses "error" / "incumbent" / "baseline"; false on anything else.
bool parseOnIlpFailure(const std::string &Text, OnIlpFailure &Out);

struct AllocOptions {
  ModelOptions Model;
  ilp::MipOptions Mip;
  /// Skip the spill-free fast path and always build the full spill-aware
  /// model (ablation).
  bool ForceSpillModel = false;
  /// Deepest ladder rung the caller is willing to accept.
  OnIlpFailure FailurePolicy = OnIlpFailure::Incumbent;
};

/// Post-ILP register assignment: Chaitin-Briggs coloring of the stays
/// (register-resident value regions) inside each bank.
struct RegAssignStats {
  unsigned Stays = 0;    ///< coloring vertices of the last attempt
  unsigned Edges = 0;    ///< interference edges of the last attempt
  unsigned Attempts = 0; ///< colorings tried, coalescing-undo retries included
  unsigned Splits = 0;   ///< identity-move joins split back into copies
  double Seconds = 0.0;  ///< wall time over all attempts
};

/// Everything the paper's Figures 6 and 7 report, per program, plus the
/// degradation-ladder outcome.
struct AllocStats {
  BuildStats Build;
  ilp::ModelStats IlpSize;
  ilp::MipStats Solve;
  double Objective = 0.0;
  unsigned Moves = 0;
  unsigned Spills = 0;
  bool UsedSpillModel = false;
  RegAssignStats RegAssign;
  /// Ladder rung that produced the accepted program (meaningful when the
  /// allocation succeeded).
  AllocRung Rung = AllocRung::Optimal;
  /// True iff the solver proved the accepted solution optimal.
  bool ProvedOptimal = false;
  /// Solve attempts the ladder made (model builds + baseline).
  unsigned LadderAttempts = 0;
  /// Verifier violations seen across *rejected* rungs. The accepted
  /// program always has zero: no rung may emit unverified code.
  unsigned VerifierViolations = 0;
};

struct AllocationResult {
  bool Ok = false;
  Status Error;
  AllocatedProgram Prog;
  AllocStats Stats;
};

/// Runs the full ILP allocation pipeline on \p M.
AllocationResult allocate(const ixp::MachineProgram &M,
                          DiagnosticEngine &Diags,
                          const AllocOptions &Opts = {});

} // namespace alloc
} // namespace nova

#endif // ALLOC_ALLOCATOR_H
