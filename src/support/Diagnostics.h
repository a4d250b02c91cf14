//===- Diagnostics.h - Compiler diagnostics ---------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostic engine that collects errors and warnings with source
/// locations. User-input errors are reported through this engine rather
/// than with exceptions or asserts.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_DIAGNOSTICS_H
#define SUPPORT_DIAGNOSTICS_H

#include "support/SourceManager.h"

#include <string>
#include <vector>

namespace nova {

enum class DiagKind { Error, Warning };

/// A single diagnostic message anchored at a source location.
struct Diagnostic {
  DiagKind Kind = DiagKind::Error;
  SourceLoc Loc;
  std::string Message;
};

/// Collects diagnostics emitted during a compilation. The engine never
/// terminates the process; callers check hasErrors() at phase boundaries.
class DiagnosticEngine {
public:
  explicit DiagnosticEngine(const SourceManager &SM) : SM(SM) {}

  void error(SourceLoc Loc, std::string Message);
  void warning(SourceLoc Loc, std::string Message);

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders all diagnostics as "file:line:col: kind: message" lines with a
  /// source-line excerpt and caret, suitable for printing to stderr.
  std::string render() const;

private:
  const SourceManager &SM;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace nova

#endif // SUPPORT_DIAGNOSTICS_H
