//===- StringUtils.cpp ----------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace nova;

std::vector<std::string_view> nova::split(std::string_view Text, char Sep) {
  std::vector<std::string_view> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.push_back(Text.substr(Start));
      return Out;
    }
    Out.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view nova::trim(std::string_view Text) {
  size_t B = 0, E = Text.size();
  while (B < E && std::isspace(static_cast<unsigned char>(Text[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(Text[E - 1])))
    --E;
  return Text.substr(B, E - B);
}

std::optional<uint64_t> nova::parseInteger(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  uint64_t Value = 0;
  if (Text.size() > 2 && Text[0] == '0' && (Text[1] == 'b' || Text[1] == 'B')) {
    for (char C : Text.substr(2)) {
      if (C != '0' && C != '1')
        return std::nullopt;
      if (Value >> 63)
        return std::nullopt;
      Value = (Value << 1) | (C - '0');
    }
    return Value;
  }
  if (Text.size() > 2 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X')) {
    for (char C : Text.substr(2)) {
      unsigned Digit;
      if (C >= '0' && C <= '9')
        Digit = C - '0';
      else if (C >= 'a' && C <= 'f')
        Digit = C - 'a' + 10;
      else if (C >= 'A' && C <= 'F')
        Digit = C - 'A' + 10;
      else
        return std::nullopt;
      if (Value >> 60)
        return std::nullopt;
      Value = (Value << 4) | Digit;
    }
    return Value;
  }
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    unsigned Digit = C - '0';
    if (Value > (UINT64_MAX - Digit) / 10)
      return std::nullopt;
    Value = Value * 10 + Digit;
  }
  return Value;
}

std::optional<double> nova::parseReal(std::string_view Text) {
  std::string Buf(Text); // strtod needs a terminator
  char *End = nullptr;
  double X = std::strtod(Buf.c_str(), &End);
  if (Buf.empty() || End != Buf.c_str() + Buf.size())
    return std::nullopt;
  return X;
}

std::string nova::formatf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Args2;
  va_copy(Args2, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out(Len > 0 ? Len : 0, '\0');
  if (Len > 0)
    std::vsnprintf(Out.data(), Len + 1, Fmt, Args2);
  va_end(Args2);
  return Out;
}

std::string nova::join(const std::vector<std::string> &Parts,
                       std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}
