//===- Json.h - The JSON writer ---------------------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the compact JSON text (no whitespace) of every machine-readable
/// report: novac --json, novasoak --json and the bench BENCH_*.json files.
/// This is the one place that knows the format: object and array nesting
/// and comma placement, RFC 8259 string escaping, how integers, bools,
/// null and doubles are spelled (a double at the precision its field
/// asks for; a non-finite one as null), and writing the text to a file
/// with every I/O error checked.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_JSON_H
#define SUPPORT_JSON_H

#include "support/Status.h"

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace nova {

class JsonWriter {
public:
  JsonWriter &beginObject() { return open('{', '}'); }
  JsonWriter &endObject() { return close('}'); }
  JsonWriter &beginArray() { return open('[', ']'); }
  JsonWriter &endArray() { return close(']'); }

  /// Names the next value of the enclosing object.
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(bool B) { return scalar(B ? "true" : "false"); }
  template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  JsonWriter &value(T V) {
    return scalar(std::to_string(V));
  }
  JsonWriter &null() { return scalar("null"); }
  /// \p V with \p Decimals digits after the point ("%.*f").
  JsonWriter &fixed(double V, int Decimals) {
    return number("%.*f", Decimals, V);
  }
  /// \p V with \p Digits significant digits ("%.*g").
  JsonWriter &general(double V, int Digits) {
    return number("%.*g", Digits, V);
  }

  /// key(K).value(V).
  template <class T> JsonWriter &field(std::string_view K, const T &V) {
    return key(K).value(V);
  }
  /// An object whose members \p Members writes.
  template <class Fn> JsonWriter &object(Fn &&Members) {
    beginObject();
    Members();
    return endObject();
  }
  /// An array of the values of \p R.
  template <class Range> JsonWriter &array(const Range &R) {
    beginArray();
    for (const auto &V : R)
      value(V);
    return endArray();
  }

  /// The text so far; complete once every container is closed.
  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

  /// Writes the complete text plus a trailing newline to \p Path.
  Status writeFile(const std::string &Path) const;

private:
  JsonWriter &open(char C, char Close);
  JsonWriter &close(char Close);
  JsonWriter &scalar(std::string_view Text);
  JsonWriter &number(const char *Fmt, int Precision, double V);
  void separate();

  struct Level {
    char Close;    ///< '}' or ']'
    bool HasItems; ///< an element was written (the next needs a comma)
  };
  std::string Out;
  std::vector<Level> Open;
  bool AfterKey = false;
};

} // namespace nova

#endif // SUPPORT_JSON_H
