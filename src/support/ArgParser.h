//===- ArgParser.h - Strict command-line flag parser ------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag cracker of the command-line tools: accepts "--flag value" and
/// "--flag=value", rejects missing values, and turns every malformed
/// argument into a usage error (the tools exit 2) — never a silent zero.
/// Error messages go to stderr prefixed with the tool's name.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_ARGPARSER_H
#define SUPPORT_ARGPARSER_H

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace nova {

struct ArgParser {
  const char *Tool; ///< prefix of every error message
  int Argc;
  char **Argv;
  int I = 1;
  bool Failed = false;

  bool done() const { return I >= Argc || Failed; }
  const char *current() const { return Argv[I]; }

  /// If the current argument is \p Name or \p Name=..., extracts the
  /// value into \p Value and returns true. A missing value fails the
  /// parse (and still returns true).
  bool valueFlag(const char *Name, std::string &Value) {
    size_t Len = std::strlen(Name);
    if (std::strncmp(Argv[I], Name, Len) != 0)
      return false;
    if (Argv[I][Len] == '=')
      Value = Argv[I] + Len + 1;
    else if (Argv[I][Len] != '\0')
      return false; // e.g. --time-limits
    else if (I + 1 < Argc)
      Value = Argv[++I];
    else
      fail("%s requires a value", Name);
    ++I;
    return true;
  }

  /// valueFlag() for an integer in [\p Lo, \p Hi]; any other value fails
  /// the parse with "<Name> expects <What>, got '<value>'".
  template <class T>
  bool intFlag(const char *Name, T &Out, const char *What, uint64_t Lo = 0,
               uint64_t Hi = UINT64_MAX) {
    std::string V;
    if (!valueFlag(Name, V))
      return false;
    std::optional<uint64_t> N = parseInteger(V);
    if (!Failed && (!N || *N < Lo || *N > Hi))
      fail("%s expects %s, got '%s'", Name, What, V.c_str());
    else if (!Failed)
      Out = static_cast<T>(*N);
    return true;
  }

  /// valueFlag() for a real number that \p Ok accepts; any other value
  /// fails the parse with "<Name> expects <What>, got '<value>'".
  bool realFlag(const char *Name, double &Out, const char *What,
                bool (*Ok)(double)) {
    std::string V;
    if (!valueFlag(Name, V))
      return false;
    std::optional<double> X = parseReal(V);
    if (!Failed && (!X || !Ok(*X)))
      fail("%s expects %s, got '%s'", Name, What, V.c_str());
    else if (!Failed)
      Out = *X;
    return true;
  }

  /// valueFlag() for a positive number of seconds.
  bool secondsFlag(const char *Name, double &Out) {
    return realFlag(Name, Out, "a positive number of seconds",
                    [](double S) { return S > 0.0; });
  }

  /// True (and consumed) when the current argument is exactly \p Name.
  bool boolFlag(const char *Name) {
    if (std::strcmp(Argv[I], Name) != 0)
      return false;
    ++I;
    return true;
  }

  /// Prints "<Tool>: <message>\n" to stderr and fails the parse.
  __attribute__((format(printf, 2, 3))) void fail(const char *Fmt, ...) {
    std::fprintf(stderr, "%s: ", Tool);
    va_list Args;
    va_start(Args, Fmt);
    std::vfprintf(stderr, Fmt, Args);
    va_end(Args);
    std::fputc('\n', stderr);
    Failed = true;
  }
};

} // namespace nova

#endif // SUPPORT_ARGPARSER_H
