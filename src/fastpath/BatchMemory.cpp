//===- BatchMemory.cpp ----------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "fastpath/BatchMemory.h"

using namespace nova;
using namespace nova::fastpath;

BatchMemory::BatchMemory(const sim::Memory &Base) : Lim(Base.Limits) {
  const WordMap *Maps[3] = {&Base.Sram, &Base.Sdram, &Base.Scratch};
  for (unsigned I = 0; I != 3; ++I) {
    Spc &P = Spaces[I];
    P.Bound = Lim.words(static_cast<MemSpace>(I));
    P.Pages.resize((size_t(P.Bound) + PageMask) >> PageShift);
    for (const auto &[A, V] : *Maps[I])
      P.Base.emplace_hint(P.Base.end(), A, V);
    // Apply the table environment below the journal floor: reset()
    // replays the journal back onto these values, never past them.
    for (const auto &[A, V] : P.Base)
      if (A < P.Bound)
        pageFor(P, A)[A & PageMask] = V;
  }
}

void BatchMemory::storePacket(uint32_t Addr,
                              const std::vector<uint32_t> &Words) {
  for (size_t I = 0; I != Words.size(); ++I) // wraps like the apps' DMA
    store(MemSpace::Sdram, Addr + static_cast<uint32_t>(I), Words[I]);
}

void BatchMemory::reset() {
  for (auto It = Journal.rbegin(); It != Journal.rend(); ++It) {
    Spc &P = Spaces[It->Space];
    // The journaled page exists: store() allocated it before journaling.
    P.Pages[It->Addr >> PageShift][It->Addr & PageMask] = It->Old;
  }
  Journal.clear();
  for (Spc &P : Spaces)
    P.Overflow.clear();
}

std::map<uint32_t, uint32_t> BatchMemory::image(MemSpace S) const {
  const Spc &P = Spaces[static_cast<unsigned>(S)];
  std::map<uint32_t, uint32_t> Out = P.Base;
  for (const JEntry &J : Journal)
    if (static_cast<MemSpace>(J.Space) == S)
      Out[J.Addr] = load(S, J.Addr);
  for (const auto &[A, V] : P.Overflow)
    Out[A] = V;
  return Out;
}
