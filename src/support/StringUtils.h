//===- StringUtils.h - String helpers ---------------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting and parsing helpers shared across libraries.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_STRINGUTILS_H
#define SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nova {

/// Splits \p Text on \p Sep, keeping empty pieces.
std::vector<std::string_view> split(std::string_view Text, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view Text);

/// Parses a decimal or 0x-prefixed hexadecimal unsigned integer. Returns
/// nullopt on malformed input or overflow of uint64_t.
std::optional<uint64_t> parseInteger(std::string_view Text);

/// Parses a real number as strtod spells one, all of \p Text or nullopt;
/// range checks (finite, positive, ...) are the caller's.
std::optional<double> parseReal(std::string_view Text);

/// printf-style formatting into a std::string.
std::string formatf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins the elements of \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

} // namespace nova

#endif // SUPPORT_STRINGUTILS_H
