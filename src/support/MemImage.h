//===- MemImage.h - The three IXP address spaces as word images -*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One memory-image type for every executor of a program: the CPS
/// reference evaluator runs on a MemImage as is, and the simulators'
/// sim::Memory is a MemImage plus the address limits the runtime
/// enforces. Because both hold the same paged WordMap spaces, final
/// images compare entry-for-entry and one table image seeds them all.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_MEMIMAGE_H
#define SUPPORT_MEMIMAGE_H

#include "support/WordMap.h"

#include <cassert>
#include <cstdint>

namespace nova {

/// Address spaces of the IXP1200 memory hierarchy.
enum class MemSpace : uint8_t { Sram, Sdram, Scratch };

struct MemImage {
  WordMap Sram;
  WordMap Sdram;
  WordMap Scratch;

  /// The backing map for \p S, or nullptr when S is not a valid space —
  /// an invalid space is a trap for the interpreter and an error for the
  /// evaluator, never a silent coercion to SRAM (and an assert under
  /// debug builds).
  WordMap *space(MemSpace S) {
    switch (S) {
    case MemSpace::Sram:    return &Sram;
    case MemSpace::Sdram:   return &Sdram;
    case MemSpace::Scratch: return &Scratch;
    }
    assert(false && "invalid MemSpace");
    return nullptr;
  }
  const WordMap *space(MemSpace S) const {
    return const_cast<MemImage *>(this)->space(S);
  }

  /// Non-inserting read: absent words are 0 without growing the map, so
  /// a read-heavy hostile packet cannot balloon the image and the final
  /// maps of two agreeing executions compare equal entry-for-entry.
  static uint32_t load(const WordMap &M, uint32_t A) { return M.get(A); }

  /// Word access by space, with fastpath::BatchMemory's signatures so
  /// the allocated-code step is written once for both memory types.
  /// \p S must be a valid space.
  uint32_t load(MemSpace S, uint32_t A) const { return space(S)->get(A); }
  void store(MemSpace S, uint32_t A, uint32_t V) { (*space(S))[A] = V; }
};

} // namespace nova

#endif // SUPPORT_MEMIMAGE_H
