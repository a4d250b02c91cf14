//===- BatchMemory.h - Paged, journaled memory for batched runs -*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory backing for the translating fast path (src/fastpath). The
/// interpreter gives every packet a fresh copy of the app's sparse
/// std::map images; at batched-soak rates those per-packet map copies and
/// node allocations dominate. BatchMemory replaces them with lazily
/// allocated zero pages plus a write journal:
///
///  - loads are two dereferences (page table, page), absent words read 0
///    without allocating anything — the interpreter's non-inserting load;
///  - every store records {space, addr, old value} in a journal, so
///    reset() restores the pre-packet state by replaying the journal in
///    reverse — cost proportional to the packet's writes, not the image;
///  - the app's table environment is applied once at construction,
///    *below* the journal floor, so reset() lands back on it;
///  - stores with addresses beyond the per-space bound (the fuzz
///    generator aims pointers at the SDRAM edge and apps::storePacket
///    wraps) land in a small per-packet overflow map, so the dense pages
///    are never indexed out of bounds. Program accesses out there
///    range-trap before touching data, except a bit-test-set whose
///    range check an illegal register skipped.
///
/// image() reconstructs the exact sparse map the interpreter would have
/// ended the run with (base entries, every stored address including
/// stored zeros, overflow entries), which is what lets the soak oracle
/// compare fast-path and interpreter images entry-for-entry.
///
//===----------------------------------------------------------------------===//

#ifndef FASTPATH_BATCHMEMORY_H
#define FASTPATH_BATCHMEMORY_H

#include "sim/Simulator.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace nova {
namespace fastpath {

class BatchMemory {
public:
  /// Captures \p Base's limits and table images as the permanent floor
  /// every reset() returns to.
  explicit BatchMemory(const sim::Memory &Base);

  const sim::MemLimits &limits() const { return Lim; }

  /// Same predicate as sim::Memory::inRange.
  bool inRange(MemSpace S, uint32_t Addr, uint32_t Count) const {
    uint32_t Bound = Lim.words(S);
    return Count <= Bound && Addr <= Bound - Count;
  }

  /// Non-inserting load; absent words are 0.
  uint32_t load(MemSpace S, uint32_t A) const {
    const Spc &P = Spaces[static_cast<unsigned>(S)];
    if (A >= P.Bound)
      return loadOverflow(P, A);
    const std::unique_ptr<uint32_t[]> &Pg = P.Pages[A >> PageShift];
    return Pg ? Pg[A & PageMask] : 0;
  }

  /// Journaled store. A store at or beyond the space's bound lands in
  /// the per-packet overflow map: packet DMA that wraps, or a
  /// bit-test-set whose range check an illegal register skipped.
  void store(MemSpace S, uint32_t A, uint32_t V) {
    Spc &P = Spaces[static_cast<unsigned>(S)];
    if (A >= P.Bound) {
      P.Overflow[A] = V;
      return;
    }
    uint32_t *Pg = pageFor(P, A);
    Journal.push_back({A, Pg[A & PageMask], static_cast<uint8_t>(S)});
    Pg[A & PageMask] = V;
  }

  /// Pre-run packet DMA with apps::storePacket's semantics: word I lands
  /// at Addr + I with uint32 wraparound. Out-of-bound words go to the
  /// per-packet overflow map (cleared by reset()).
  void storePacket(uint32_t Addr, const std::vector<uint32_t> &Words);

  /// Undoes every store since construction or the last reset().
  void reset();

  /// The sparse image the interpreter would hold for \p S right now:
  /// base entries, every address stored since the last reset (stored
  /// zeros included), and overflow entries.
  std::map<uint32_t, uint32_t> image(MemSpace S) const;

private:
  static constexpr unsigned PageShift = 12; ///< 4096 words = 16 KB pages
  static constexpr uint32_t PageMask = (1u << PageShift) - 1;

  struct Spc {
    uint32_t Bound = 0;
    std::vector<std::unique_ptr<uint32_t[]>> Pages;
    std::map<uint32_t, uint32_t> Base;     ///< permanent app tables
    std::map<uint32_t, uint32_t> Overflow; ///< per-packet, beyond Bound
  };

  static uint32_t loadOverflow(const Spc &P, uint32_t A) {
    auto It = P.Overflow.find(A);
    return It == P.Overflow.end() ? 0 : It->second;
  }

  uint32_t *pageFor(Spc &P, uint32_t A) {
    std::unique_ptr<uint32_t[]> &Pg = P.Pages[A >> PageShift];
    if (!Pg)
      Pg = std::make_unique<uint32_t[]>(size_t(1) << PageShift);
    return Pg.get();
  }

  struct JEntry {
    uint32_t Addr;
    uint32_t Old;
    uint8_t Space;
  };

  sim::MemLimits Lim;
  Spc Spaces[3];
  std::vector<JEntry> Journal;
};

} // namespace fastpath
} // namespace nova

#endif // FASTPATH_BATCHMEMORY_H
