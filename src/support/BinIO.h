//===- BinIO.h - Bounds-checked binary serialization ------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level layer under src/checkpoint: a little-endian append
/// writer, a bounds-checked reader, the FNV-1a-64 checksum the file
/// format seals payloads with, and the io() field visitor. It lives in
/// support so that sim, fastpath, chip, and soak can each serialize
/// their own state (saveState / restoreState members) without depending
/// on the checkpoint subsystem, which owns only files and metadata.
///
/// One field list per type: a checkpointed type lists its fields once,
/// in a template over the archive, and saveState / restoreState are
/// that template instantiated with a BinWriter and a BinReader, so the
/// two directions cannot drift. io() takes each field's encoding from
/// its C++ type: uint8_t and bool (0/1) are one byte; uint32_t and
/// uint64_t are fixed-width little-endian; a double is its IEEE-754 bit
/// pattern; a string or a std::vector is a u64 count, then its bytes or
/// elements; an enum class is one u8, rejected on read at or above the
/// enumCount() declared beside the enum; a unique_ptr is a presence
/// flag, then its object; a pair is its two halves; a class type is its
/// own saveState / restoreState. Two sequence shapes are spelled out in
/// the list: fixed() for a sequence whose length the reader already
/// knows (a C array, or a vector sized by topology at construction),
/// elements only, read in place; counted<N>() for a container rebuilt
/// from an N-typed count — u32 for some sequences and u64 for others,
/// because that is how snapshots have always laid them out.
///
/// A reader never traps on truncated or malformed input: every accessor
/// returns zero once failed() latches, so callers validate once at the
/// end. check() latches the same failure on a value that decodes but
/// that the restored object cannot run with, so a checksum-valid but
/// hostile snapshot reads as corrupt instead of crashing the run after
/// it. DESIGN.md lists the checks and the invariant each protects.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BINIO_H
#define SUPPORT_BINIO_H

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace nova {

/// FNV-1a-64 over a byte range, seedable for incremental folding.
inline uint64_t fnv1a64(const void *Data, size_t Len,
                        uint64_t H = 0xcbf29ce484222325ull) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Append-only little-endian encoder. Backing storage is a std::string
/// so payloads hand off to file writers without a copy.
class BinWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void b(bool V) { u8(V ? 1 : 0); }
  void u32(uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "IEEE-754 double expected");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    Buf.append(S);
  }

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

  /// Read-side validation (see BinReader::check); saved state is the
  /// live state, so a writer has nothing to reject.
  void check(bool) {}

private:
  std::string Buf;
};

/// Bounds-checked decoder over a byte range the caller keeps alive.
/// Reading past the end (or an element count the remaining bytes cannot
/// hold) latches failed() and yields zero values from then on.
class BinReader {
public:
  BinReader(const void *Data, size_t Len)
      : P(static_cast<const unsigned char *>(Data)), Len(Len) {}
  explicit BinReader(const std::string &S) : BinReader(S.data(), S.size()) {}

  bool failed() const { return Fail; }
  size_t remaining() const { return Len - Pos; }

  /// Latches failure unless \p Ok: a value that decodes but that the
  /// restored object cannot run with is as corrupt as a truncated one.
  void check(bool Ok) {
    if (!Ok)
      Fail = true;
  }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return P[Pos - 1];
  }
  bool b() { return u8() != 0; }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (unsigned I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(P[Pos - 4 + I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(P[Pos - 8 + I]) << (8 * I);
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t N = u64();
    if (!take(N))
      return std::string();
    return std::string(reinterpret_cast<const char *>(P + Pos - N),
                       static_cast<size_t>(N));
  }

private:
  bool take(uint64_t N) {
    if (Fail || N > Len - Pos) {
      Fail = true;
      return false;
    }
    Pos += static_cast<size_t>(N);
    return true;
  }

  const unsigned char *P = nullptr;
  size_t Len = 0;
  size_t Pos = 0;
  bool Fail = false;
};

//===----------------------------------------------------------------------===//
// Field visitor
//===----------------------------------------------------------------------===//

inline void io(BinWriter &W, uint8_t V) { W.u8(V); }
inline void io(BinReader &R, uint8_t &V) { V = R.u8(); }
inline void io(BinWriter &W, bool V) { W.b(V); }
inline void io(BinReader &R, bool &V) { V = R.b(); }
inline void io(BinWriter &W, uint32_t V) { W.u32(V); }
inline void io(BinReader &R, uint32_t &V) { V = R.u32(); }
inline void io(BinWriter &W, uint64_t V) { W.u64(V); }
inline void io(BinReader &R, uint64_t &V) { V = R.u64(); }
inline void io(BinWriter &W, double V) { W.f64(V); }
inline void io(BinReader &R, double &V) { V = R.f64(); }
inline void io(BinWriter &W, const std::string &V) { W.str(V); }
inline void io(BinReader &R, std::string &V) { V = R.str(); }

template <class E>
  requires std::is_enum_v<E>
void io(BinWriter &W, E V) { W.u8(static_cast<uint8_t>(V)); }
template <class E>
  requires std::is_enum_v<E>
void io(BinReader &R, E &V) {
  uint8_t X = R.u8();
  R.check(X < enumCount(E{}));
  V = static_cast<E>(X);
}

template <class T>
auto io(BinWriter &W, const T &V) -> decltype(V.saveState(W)) {
  V.saveState(W);
}
template <class T>
auto io(BinReader &R, T &V) -> decltype(V.restoreState(R)) {
  V.restoreState(R);
}

/// Several fields in order: io(A, X, Y, Z) is io(A, X); io(A, Y); ...
template <class Ar, class T, class U, class... Rest>
void io(Ar &A, T &&X, U &&Y, Rest &&...Tail) {
  io(A, X);
  io(A, Y, Tail...);
}

template <class T> void io(BinWriter &W, const std::unique_ptr<T> &P) {
  io(W, P != nullptr);
  if (P)
    io(W, *P);
}
template <class T> void io(BinReader &R, std::unique_ptr<T> &P) {
  bool Present = false;
  io(R, Present);
  P = Present ? std::make_unique<T>() : nullptr;
  if (P)
    io(R, *P);
}

template <class K, class V>
void io(BinWriter &W, const std::pair<K, V> &P) {
  io(W, P.first, P.second);
}
template <class K, class V> void io(BinReader &R, std::pair<K, V> &P) {
  io(R, P.first, P.second);
}

/// Visits one element with io(); counted()'s default element visitor.
struct IoField {
  template <class Ar, class T> void operator()(Ar &A, T &X) const {
    io(A, X);
  }
};

/// A sequence whose length the reader already knows (see file comment):
/// elements only, read in place.
template <class Ar, class Seq> void fixed(Ar &A, Seq &S) {
  for (auto &X : S)
    io(A, X);
}

/// The element a counted sequence is rebuilt from: its value_type, with
/// a map's key made assignable.
template <class Seq> struct CountedElem {
  using type = typename Seq::value_type;
};
template <class K, class V, class... Rest>
struct CountedElem<std::map<K, V, Rest...>> {
  using type = std::pair<K, V>;
};

/// An \p N-typed count, then each element (see file comment). Reading
/// replaces the contents, appending through insert(end(), X), and
/// rejects a count the remaining bytes cannot hold.
template <class N, class Seq, class Fn = IoField>
void counted(BinWriter &W, const Seq &S, Fn Elem = {}) {
  io(W, static_cast<N>(S.size()));
  for (const auto &X : S)
    Elem(W, X);
}
template <class N, class Seq, class Fn = IoField>
void counted(BinReader &R, Seq &S, Fn Elem = {}) {
  N Count = 0;
  io(R, Count);
  R.check(Count <= R.remaining());
  S.clear();
  for (N I = 0; I != Count && !R.failed(); ++I) {
    typename CountedElem<Seq>::type X{};
    Elem(R, X);
    S.insert(S.end(), std::move(X));
  }
}

template <class T> void io(BinWriter &W, const std::vector<T> &V) {
  counted<uint64_t>(W, V);
}
template <class T> void io(BinReader &R, std::vector<T> &V) {
  counted<uint64_t>(R, V);
}

} // namespace nova

#endif // SUPPORT_BINIO_H
