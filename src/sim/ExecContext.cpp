//===- ExecContext.cpp ----------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The allocated-mode interpreter: a resumable loop over detail::step()
// (SimUtil.h), which owns the semantics, trap precedence, Err-latch
// timing and fault-injector draw order, on the program decoded once
// (Decoded.h). Memory data effects happen at issue, before the yield;
// the base memory latency is the caller's to charge() after it.
//
//===----------------------------------------------------------------------===//

#include "sim/ExecContext.h"

#include "sim/SimUtil.h"

#include <cassert>
#include <cstring>

using namespace nova;
using namespace nova::sim;
using namespace nova::sim::detail;

void AllocContext::reset(const std::vector<uint32_t> &Args) {
  assert(Prog && "reset() before setProgram()");
  R = RunResult();
  Err = false;
  B = Prog->Entry;
  Idx = 0;
  std::memset(Frame, 0, sizeof(Frame));
  Finished = !enterAllocated(*Prog, Args, Frame, R);
}

AllocContext::Yield AllocContext::resume(Memory &Mem, const RunOptions &Opts) {
  assert(!Finished && "resume() on a completed context");
  const uint64_t StartCycles = R.Cycles;
  while (true) {
    Stepped S = step(*Prog, Frame, R, Err, B, Idx, Mem, Opts, SpillRebase);
    if (S.K == Stepped::Mem)
      return {Yield::Kind::Mem, S.Space, R.Cycles - StartCycles};
    if (S.K == Stepped::Done) {
      Finished = true;
      return {Yield::Kind::Done, MemSpace::Sram, R.Cycles - StartCycles};
    }
  }
}

//===----------------------------------------------------------------------===//
// runAllocated: the single-threaded driver — resume, pay the flat memory
// latency, resume again.
//===----------------------------------------------------------------------===//

RunResult sim::runAllocated(const alloc::AllocatedProgram &P,
                            const std::vector<uint32_t> &Args, Memory &Mem,
                            const LatencyModel &Lat,
                            uint64_t MaxInstructions) {
  RunOptions Opts;
  Opts.Lat = Lat;
  Opts.MaxInstructions = MaxInstructions;
  return runAllocated(P, Args, Mem, Opts);
}

RunResult sim::runAllocated(const alloc::AllocatedProgram &P,
                            const std::vector<uint32_t> &Args, Memory &Mem,
                            const RunOptions &Opts) {
  Decoded Code = decode(P);
  return runAllocated(Code, Args, Mem, Opts);
}

RunResult sim::runAllocated(const Decoded &P,
                            const std::vector<uint32_t> &Args, Memory &Mem,
                            const RunOptions &Opts) {
  AllocContext C(&P);
  C.reset(Args);
  while (!C.done()) {
    AllocContext::Yield Y = C.resume(Mem, Opts);
    if (Y.K == AllocContext::Yield::Kind::Mem)
      C.charge(Opts.Lat.memAccess(Y.Space));
  }
  return C.takeResult();
}

//===----------------------------------------------------------------------===//
// Checkpoint serialization
//===----------------------------------------------------------------------===//

template <class Ar, class Self> void AllocContext::fields(Ar &A, Self &C) {
  io(A, C.R, C.Finished, C.Err, C.B, C.Idx);
  fixed(A, C.Frame); // A, B, L, S, LD, SD in frame order
  // A run in progress resumes with step(), which indexes the block list
  // with B before any check of its own (it traps on Idx past the end).
  A.check(C.Finished || (C.Prog && C.B < C.Prog->Blocks.size() &&
                         C.Idx <= C.Prog->Blocks[C.B].Count));
}

void AllocContext::saveState(BinWriter &W) const { fields(W, *this); }
void AllocContext::restoreState(BinReader &R) { fields(R, *this); }
