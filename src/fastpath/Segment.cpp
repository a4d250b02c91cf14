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

void SegmentContext::saveState(BinWriter &W) const {
  W.vec32(C.Frame);
  C.R.saveState(W);
  W.b(C.Finished);
  W.b(C.Err);
  W.b(C.InSlow);
  W.b(C.FastYield);
  W.u32(C.PC);
  W.u32(C.YieldPC);
  W.u64(C.Ins);
  W.u64(C.Cyc);
  W.u64(C.StartIns);
  W.u64(C.StartCyc);
  W.u32(C.SB);
  W.u32(C.SIdx);
}

void SegmentContext::restoreState(BinReader &Rd) {
  C.Frame = Rd.vec32();
  C.R.restoreState(Rd);
  C.Finished = Rd.b();
  C.Err = Rd.b();
  C.InSlow = Rd.b();
  C.FastYield = Rd.b();
  C.PC = Rd.u32();
  C.YieldPC = Rd.u32();
  C.Ins = Rd.u64();
  C.Cyc = Rd.u64();
  C.StartIns = Rd.u64();
  C.StartCyc = Rd.u64();
  C.SB = Rd.u32();
  C.SIdx = Rd.u32();
}
