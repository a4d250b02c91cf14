//===- Status.h - Structured pipeline status/diagnostics --------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured error propagation for the compiler back end. Where the
/// DiagnosticEngine reports *user-input* errors anchored at source
/// locations, Status describes *pipeline* outcomes: which phase failed,
/// with which machine-checkable code, and what the caller (or the user)
/// can do about it. It replaces the ad-hoc `std::string Error` plumbing
/// between the ILP solver, the allocator, and the driver, and is the
/// vocabulary the graceful-degradation ladder uses to decide whether a
/// failure is recoverable (budget exhausted, numerical trouble) or
/// structural (model construction, verification).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_STATUS_H
#define SUPPORT_STATUS_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace nova {

class BinReader;
class BinWriter;

/// Machine-checkable failure categories. Codes are stable identifiers
/// (tests and scripts match on them), messages are for humans.
enum class StatusCode : uint8_t {
  Ok,
  InvalidArgument,    ///< caller handed the phase something malformed
  ModelBuildFailed,   ///< ILP model construction failed (see diagnostics)
  IlpInfeasible,      ///< no integer point exists for the model
  IlpBudgetExceeded,  ///< time/node budget exhausted without a usable point
  IlpNonOptimal,      ///< a feasible incumbent exists but was not proved
                      ///< optimal (rejected under a strict policy)
  LpNumericalTrouble, ///< the LP engine lost numerical soundness
  ExtractFailed,      ///< solution extraction / register assignment failed
  VerifyFailed,       ///< the legality verifier rejected the emitted code
  BaselineFailed,     ///< the last-resort heuristic allocator failed
  IoError,            ///< file system trouble in the driver
  SimTrap,            ///< the micro-engine runtime trapped (sim::TrapKind
                      ///< carries the taxonomy; this code carries it
                      ///< through Status-typed plumbing)
  Internal,           ///< invariant violation; always a bug
  CheckpointCorrupt,  ///< checkpoint failed its checksum / framing checks
                      ///< (truncated tail, bit flip, bad magic/version)
  CheckpointMismatch  ///< a structurally valid checkpoint belongs to a
                      ///< different invocation (seed, app, exec mode,
                      ///< topology, fault schedule, or code hash differ)
};
constexpr unsigned enumCount(StatusCode) {
  return static_cast<unsigned>(StatusCode::CheckpointMismatch) + 1;
}

/// Pipeline phase that produced a Status (coarser than source locations:
/// these name recovery boundaries, not lines).
enum class Phase : uint8_t {
  Driver,
  Frontend,
  ModelBuild,
  Solve,
  Extract,
  Verify,
  Baseline,
  Execute ///< running compiled code on the micro-engine runtime
};
constexpr unsigned enumCount(Phase) {
  return static_cast<unsigned>(Phase::Execute) + 1;
}

const char *statusCodeName(StatusCode C);
const char *phaseName(Phase P);

/// Outcome of a pipeline phase: Ok, or a (code, phase, message) triple
/// with optional recovery hints. Cheap to move, renderable for humans,
/// and comparable by code for policy decisions.
class Status {
public:
  /// Default-constructed Status is success.
  Status() = default;

  static Status error(StatusCode C, Phase P, std::string Message) {
    Status S;
    S.ErrCode = C;
    S.ErrPhase = P;
    S.Msg = std::move(Message);
    return S;
  }

  bool ok() const { return ErrCode == StatusCode::Ok; }
  StatusCode code() const { return ErrCode; }
  Phase phase() const { return ErrPhase; }
  const std::string &message() const { return Msg; }
  const std::vector<std::string> &hints() const { return Hints; }

  /// Appends a recovery hint ("rerun with --on-ilp-failure=baseline").
  /// Chainable on both lvalues and temporaries.
  Status &addHint(std::string Hint) & {
    Hints.push_back(std::move(Hint));
    return *this;
  }
  Status &&addHint(std::string Hint) && {
    Hints.push_back(std::move(Hint));
    return std::move(*this);
  }

  /// "phase: code: message" plus one indented "hint:" line per hint;
  /// "ok" for success. Multi-line, no trailing newline.
  std::string render() const;

  /// Checkpoint serialization (support/BinIO.h), so an in-flight
  /// packet's trap detail survives a snapshot bit-for-bit.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

private:
  template <class Ar, class Self> static void fields(Ar &A, Self &S);

  StatusCode ErrCode = StatusCode::Ok;
  Phase ErrPhase = Phase::Driver;
  std::string Msg;
  std::vector<std::string> Hints;
};

/// Streams render(); lets gtest print a Status on assertion failure.
std::ostream &operator<<(std::ostream &OS, const Status &S);

} // namespace nova

#endif // SUPPORT_STATUS_H
