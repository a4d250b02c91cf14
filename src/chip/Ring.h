//===- Ring.h - Bounded scratch ring for inter-ME communication -*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scratch ring: the IXP's bounded circular queue in scratchpad memory,
/// used for inter-micro-engine communication (RX scheduler -> processing
/// MEs, processing MEs -> TX scheduler). This class is the pure data
/// structure — fixed capacity, FIFO order, occupancy high-water mark, and
/// a running trace hash over every operation so two runs can be compared
/// for determinism without storing full traces. Blocking (producers
/// parking on a full ring, consumers on an empty one) is scheduling and
/// lives in chip::Chip; the chip charges each push/pop as a scratch
/// channel transaction.
///
//===----------------------------------------------------------------------===//

#ifndef CHIP_RING_H
#define CHIP_RING_H

#include "support/BinIO.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace nova {
namespace chip {

/// Folds one 64-bit value into a running FNV-1a-style trace hash.
inline uint64_t traceFold(uint64_t H, uint64_t V) {
  H ^= V;
  H *= 0x100000001b3ull;
  return H;
}

class Ring {
public:
  explicit Ring(unsigned Capacity) : Buf(Capacity) {
    assert(Capacity > 0 && "ring capacity must be positive");
  }

  unsigned capacity() const { return static_cast<unsigned>(Buf.size()); }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  bool full() const { return Count == Buf.size(); }
  unsigned highWater() const { return HighWater; }
  uint64_t pushes() const { return Pushes; }
  uint64_t pops() const { return Pops; }

  /// Fault injection: the ring refuses pushes until simulation time
  /// \p Until (a `ring-stall` fault — the scratch controller NAKs the
  /// enqueue). Producers treat a stalled ring exactly like a full one;
  /// the chip schedules a wake at the stall end. Extending an active
  /// stall keeps the later deadline.
  void stallUntil(uint64_t Until) {
    if (Until > StallEnd) {
      StallEnd = Until;
      ++Stalls;
    }
  }

  /// True when a stall is active at time \p Time (pushes must park).
  bool stalled(uint64_t Time) const { return Time < StallEnd; }

  /// The simulation time the current/last stall ends.
  uint64_t stallEnd() const { return StallEnd; }

  /// Number of distinct stall windows injected on this ring.
  uint64_t stalls() const { return Stalls; }

  /// Trace hash over the full operation history: every push and pop
  /// folds (time, op, value, occupancy-after). Two deterministic runs
  /// produce equal hashes; any reordering changes them.
  uint64_t traceHash() const { return Hash; }

  /// Enqueues \p V at simulation time \p Time. Requires !full() — the
  /// chip's scheduler parks producers instead of calling push on a full
  /// ring.
  void push(uint64_t V, uint64_t Time) {
    assert(!full() && "push on full ring");
    Buf[(Head + Count) % Buf.size()] = V;
    ++Count;
    ++Pushes;
    if (Count > HighWater)
      HighWater = Count;
    fold(Time, /*Op=*/0, V);
  }

  /// Dequeues the oldest element at simulation time \p Time. Requires
  /// !empty().
  uint64_t pop(uint64_t Time) {
    assert(!empty() && "pop on empty ring");
    uint64_t V = Buf[Head];
    Head = (Head + 1) % static_cast<unsigned>(Buf.size());
    --Count;
    ++Pops;
    fold(Time, /*Op=*/1, V);
    return V;
  }

  /// The \p I-th oldest element (I < size()).
  uint64_t at(unsigned I) const { return Buf[(Head + I) % Buf.size()]; }

  /// Checkpoint serialization of the full ring state (contents, stats,
  /// stall window, trace hash). The buffer is saved whole, so its length
  /// is the capacity; restoring rejects (BinReader::failed) a buffer
  /// whose length is not this ring's constructed capacity, or a head or
  /// occupancy that does not fit it.
  void saveState(BinWriter &W) const { fields(W, *this); }
  void restoreState(BinReader &R) { fields(R, *this); }

private:
  template <class Ar, class Self> static void fields(Ar &A, Self &S) {
    size_t Capacity = S.Buf.size();
    io(A, S.Buf, S.Head, S.Count, S.HighWater, S.Pushes, S.Pops, S.StallEnd,
       S.Stalls, S.Hash);
    A.check(S.Buf.size() == Capacity && S.Head < Capacity &&
            S.Count <= Capacity);
  }

  void fold(uint64_t Time, uint64_t Op, uint64_t V) {
    Hash = traceFold(Hash, Time);
    Hash = traceFold(Hash, Op);
    Hash = traceFold(Hash, V);
    Hash = traceFold(Hash, Count);
  }

  std::vector<uint64_t> Buf;
  unsigned Head = 0;
  unsigned Count = 0;
  unsigned HighWater = 0;
  uint64_t Pushes = 0;
  uint64_t Pops = 0;
  uint64_t StallEnd = 0;
  uint64_t Stalls = 0;
  uint64_t Hash = 0xcbf29ce484222325ull; // FNV offset basis
};

} // namespace chip
} // namespace nova

#endif // CHIP_RING_H
