//===- Eval.h - Reference CPS interpreter -----------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct interpreter for CPS programs. It defines the language's
/// observable semantics and serves as the oracle against which the
/// optimizer, the allocator, and the micro-engine simulator are tested:
/// source -> CPS -> evaluate must equal source -> ... -> simulate.
///
//===----------------------------------------------------------------------===//

#ifndef CPS_EVAL_H
#define CPS_EVAL_H

#include "cps/Ir.h"
#include "support/WordMap.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace nova {
namespace cps {

/// Word-addressed memories of the evaluation environment, in the same
/// paged store as sim::Memory so final images compare entry-for-entry
/// and a table image is copied page by page.
struct EvalMemory {
  WordMap Sram;
  WordMap Sdram;
  WordMap Scratch;

  /// The backing store for \p S, or nullptr on an out-of-enum space — the
  /// evaluator reports that as an error rather than silently coercing to
  /// SRAM (mirrors sim::Memory::space; asserts in debug builds).
  WordMap *space(MemSpace S) {
    switch (S) {
    case MemSpace::Sram:    return &Sram;
    case MemSpace::Sdram:   return &Sdram;
    case MemSpace::Scratch: return &Scratch;
    }
    assert(false && "invalid MemSpace");
    return nullptr;
  }

  /// Non-inserting read (absent words are 0), matching sim::Memory::load
  /// so a differential comparison of final images sees identical maps.
  static uint32_t load(const WordMap &M, uint32_t A) { return M.get(A); }
};

struct EvalResult {
  bool Ok = false;
  std::string Error;
  std::vector<uint32_t> HaltValues;
  unsigned Steps = 0;
};

/// Runs the program entry with \p Args (one word per entry parameter).
/// Memory is read and mutated in place. \p MaxSteps bounds execution.
EvalResult evaluate(const CpsProgram &P, const std::vector<uint32_t> &Args,
                    EvalMemory &Mem, unsigned MaxSteps = 1'000'000);

} // namespace cps
} // namespace nova

#endif // CPS_EVAL_H
