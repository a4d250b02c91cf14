//===- Eval.h - Reference CPS interpreter -----------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference interpreter for CPS programs. It defines the language's
/// observable semantics and serves as the oracle against which the
/// optimizer, the allocator, and the micro-engine simulator are tested:
/// source -> CPS -> evaluate must equal source -> ... -> simulate. A
/// program is lowered once into flat, lexically addressed code
/// (LoweredProgram) and then run per input.
///
//===----------------------------------------------------------------------===//

#ifndef CPS_EVAL_H
#define CPS_EVAL_H

#include "cps/Ir.h"
#include "support/MemImage.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nova {
namespace cps {

/// The evaluation environment's memory: the same image type the
/// simulators run on, so final images compare entry-for-entry.
using EvalMemory = MemImage;

struct EvalResult {
  bool Ok = false;
  std::string Error;
  std::vector<uint32_t> HaltValues;
  unsigned Steps = 0;
};

/// A program lowered for evaluation (see Eval.cpp). It reads the
/// program's functions for error messages, so the program must outlive
/// it unchanged. An empty one (default-constructed) reports "program has
/// no entry".
class LoweredProgram {
public:
  LoweredProgram();
  explicit LoweredProgram(const CpsProgram &P);
  LoweredProgram(LoweredProgram &&) noexcept;
  LoweredProgram &operator=(LoweredProgram &&) noexcept;
  ~LoweredProgram();

  struct Code;
  const Code *code() const { return C.get(); }

private:
  std::unique_ptr<Code> C;
};

/// Runs the program entry with \p Args (one word per entry parameter).
/// Memory is read and mutated in place. \p MaxSteps bounds execution.
EvalResult evaluate(const LoweredProgram &L, const std::vector<uint32_t> &Args,
                    EvalMemory &Mem, unsigned MaxSteps = 1'000'000);

/// Lowers \p P and runs it once.
EvalResult evaluate(const CpsProgram &P, const std::vector<uint32_t> &Args,
                    EvalMemory &Mem, unsigned MaxSteps = 1'000'000);

} // namespace cps
} // namespace nova

#endif // CPS_EVAL_H
