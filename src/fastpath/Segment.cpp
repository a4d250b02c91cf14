//===- Segment.cpp - Resumable fast-path execution context ----------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Checkpoint serialization of a SegmentContext. Execution is runStream's
// resumable instantiation (Engine.cpp), pinned by the chip-threaded-vs-
// chip-interp whole-report equality test and the sampled three-way
// oracle: it yields at exactly the instructions sim::AllocContext would
// yield at, with the same space and burst cycle count, the same memory
// data effects already applied (including spill-window rebasing), and
// the same trap kinds, messages, and counts on completion.
//
//===----------------------------------------------------------------------===//

#include "fastpath/Segment.h"

using namespace nova;
using namespace nova::fastpath;

namespace {

template <class Ar, class Ctx> void streamFields(Ar &A, Ctx &C) {
  io(A, C.Frame, C.R, C.Finished, C.Err, C.InSlow, C.FastYield, C.PC,
     C.YieldPC, C.Ins, C.Cyc, C.StartIns, C.StartCyc, C.SB, C.SIdx);
  // runStream indexes the frame with translated slot numbers, and a run
  // in progress resumes at the slow tier's block (which step() indexes
  // unchecked), after the yielding op, or at PC — the same precedence
  // runStream applies.
  const Translated *T = C.T;
  A.check(T && C.Frame.size() == T->frameSize());
  if (!T || C.Finished)
    return;
  const auto &Blocks = T->Code.Blocks;
  if (C.InSlow)
    A.check(C.SB < Blocks.size() && C.SIdx <= Blocks[C.SB].Count);
  else if (C.FastYield)
    A.check(C.YieldPC + 1 < T->Ops.size());
  else
    A.check(C.PC < T->Ops.size());
}

} // namespace

void SegmentContext::saveState(BinWriter &W) const { streamFields(W, C); }
void SegmentContext::restoreState(BinReader &R) { streamFields(R, C); }
