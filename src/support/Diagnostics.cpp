//===- Diagnostics.cpp ----------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <sstream>

using namespace nova;

void DiagnosticEngine::error(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagKind::Error, Loc, std::move(Message)});
  ++NumErrors;
}

void DiagnosticEngine::warning(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagKind::Warning, Loc, std::move(Message)});
}

static const char *kindName(DiagKind Kind) {
  switch (Kind) {
  case DiagKind::Error:
    return "error";
  case DiagKind::Warning:
    return "warning";
  }
  return "diag";
}

std::string DiagnosticEngine::render() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags) {
    if (D.Loc.isValid()) {
      LineColumn LC = SM.lineColumn(D.Loc);
      OS << SM.bufferName(D.Loc.BufferId) << ':' << LC.Line << ':' << LC.Column
         << ": " << kindName(D.Kind) << ": " << D.Message << '\n';
      std::string_view Line = SM.lineText(D.Loc);
      OS << "  " << Line << "\n  ";
      for (uint32_t I = 1; I < LC.Column; ++I)
        OS << (I - 1 < Line.size() && Line[I - 1] == '\t' ? '\t' : ' ');
      OS << "^\n";
    } else {
      OS << kindName(D.Kind) << ": " << D.Message << '\n';
    }
  }
  return OS.str();
}
