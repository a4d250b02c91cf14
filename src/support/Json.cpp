//===- Json.cpp - The JSON writer -----------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

using namespace nova;

static std::string quote(std::string_view S) {
  std::string Text = "\"";
  for (char C : S) {
    switch (C) {
    case '"':  Text += "\\\""; break;
    case '\\': Text += "\\\\"; break;
    case '\n': Text += "\\n"; break;
    case '\r': Text += "\\r"; break;
    case '\t': Text += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) >= 0x20) {
        Text += C;
      } else {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", unsigned(C));
        Text += Buf;
      }
    }
  }
  return Text += '"';
}

void JsonWriter::separate() {
  if (!std::exchange(AfterKey, false) && !Open.empty() &&
      std::exchange(Open.back().HasItems, true))
    Out += ',';
}

JsonWriter &JsonWriter::key(std::string_view K) {
  assert(!Open.empty() && Open.back().Close == '}' && !AfterKey &&
         "a key belongs inside an object");
  separate();
  Out += quote(K);
  Out += ':';
  AfterKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) { return scalar(quote(S)); }

JsonWriter &JsonWriter::scalar(std::string_view Text) {
  assert((AfterKey || Open.empty() || Open.back().Close == ']') &&
         "an object member needs a key");
  separate();
  Out += Text;
  return *this;
}

JsonWriter &JsonWriter::open(char C, char Close) {
  scalar(std::string_view(&C, 1));
  Open.push_back({Close, false});
  return *this;
}

JsonWriter &JsonWriter::close(char Close) {
  assert(!Open.empty() && Open.back().Close == Close && !AfterKey &&
         "unbalanced JSON nesting");
  Open.pop_back();
  Out += Close;
  return *this;
}

JsonWriter &JsonWriter::number(const char *Fmt, int Precision, double V) {
  if (!std::isfinite(V))
    return null();
  char Buf[400]; // DBL_MAX spelled out with "%.f" takes 309 digits
  std::snprintf(Buf, sizeof Buf, Fmt, Precision, V);
  return scalar(Buf);
}

Status JsonWriter::writeFile(const std::string &Path) const {
  assert(Open.empty() && !Out.empty() && "writing incomplete JSON");
  std::FILE *F = std::fopen(Path.c_str(), "w");
  bool Ok = F && std::fwrite(Out.data(), 1, Out.size(), F) == Out.size() &&
            std::fputc('\n', F) != EOF;
  int Err = errno;
  if (F && std::fclose(F) != 0 && Ok) {
    Ok = false;
    Err = errno;
  }
  if (Ok)
    return Status();
  return Status::error(StatusCode::IoError, Phase::Driver,
                       "cannot write " + Path + ": " + std::strerror(Err));
}
