//===- Status.cpp ---------------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/Status.h"

#include "support/BinIO.h"

#include <ostream>

using namespace nova;

const char *nova::statusCodeName(StatusCode C) {
  switch (C) {
  case StatusCode::Ok:                 return "ok";
  case StatusCode::InvalidArgument:    return "invalid-argument";
  case StatusCode::ModelBuildFailed:   return "model-build-failed";
  case StatusCode::IlpInfeasible:      return "ilp-infeasible";
  case StatusCode::IlpBudgetExceeded:  return "ilp-budget-exceeded";
  case StatusCode::IlpNonOptimal:      return "ilp-non-optimal";
  case StatusCode::LpNumericalTrouble: return "lp-numerical-trouble";
  case StatusCode::ExtractFailed:      return "extract-failed";
  case StatusCode::VerifyFailed:       return "verify-failed";
  case StatusCode::BaselineFailed:     return "baseline-failed";
  case StatusCode::IoError:            return "io-error";
  case StatusCode::SimTrap:            return "sim-trap";
  case StatusCode::Internal:           return "internal";
  case StatusCode::CheckpointCorrupt:  return "checkpoint-corrupt";
  case StatusCode::CheckpointMismatch: return "checkpoint-mismatch";
  }
  return "unknown";
}

const char *nova::phaseName(Phase P) {
  switch (P) {
  case Phase::Driver:     return "driver";
  case Phase::Frontend:   return "frontend";
  case Phase::ModelBuild: return "model-build";
  case Phase::Solve:      return "solve";
  case Phase::Extract:    return "extract";
  case Phase::Verify:     return "verify";
  case Phase::Baseline:   return "baseline";
  case Phase::Execute:    return "execute";
  }
  return "unknown";
}

std::string Status::render() const {
  if (ok())
    return "ok";
  std::string Out = phaseName(ErrPhase);
  Out += ": ";
  Out += statusCodeName(ErrCode);
  Out += ": ";
  Out += Msg;
  for (const std::string &H : Hints) {
    Out += "\n  hint: ";
    Out += H;
  }
  return Out;
}

std::ostream &nova::operator<<(std::ostream &OS, const Status &S) {
  return OS << S.render();
}

template <class Ar, class Self> void Status::fields(Ar &A, Self &S) {
  io(A, S.ErrCode, S.ErrPhase, S.Msg, S.Hints);
}

void Status::saveState(BinWriter &W) const { fields(W, *this); }
void Status::restoreState(BinReader &R) { fields(R, *this); }
