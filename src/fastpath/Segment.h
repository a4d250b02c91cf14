//===- Segment.h - Resumable fast-path execution context --------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SegmentContext runs a fastpath::Translated stream with the resumable
/// contract of sim::AllocContext: resume() executes until the run
/// completes or a memory reference is issued, memory data effects apply
/// at issue, and the caller decides what the reference costs and pays it
/// with charge(). That lets chip::Chip drive each hardware context on
/// the translated fast path between swap points while keeping the
/// discrete-event schedule — swap order, channel contention, stall
/// cycles, ring traces, final memory images — bit-identical to the
/// interpreted chip.
///
/// The trick that makes the flat stream resumable is the same cold-data
/// algebra the Engine uses for traps, applied at yields: the yielding
/// memory op materializes exact interpreter counts from (base + cold),
/// and re-entry recomputes the bases from the updated counters
/// (StartCyc = R.Cycles - CycPrefix), absorbing whatever
/// contention-dependent latency the caller charged between bursts.
/// Memory-op flat costs (FastOp::Y) are never self-charged here — the
/// caller owns them, exactly like the interpreter's yield contract.
///
/// resume() is runStream()'s resumable instantiation — the same loop
/// the Engine runs — and its slow tier is the interpreter's own step,
/// which yields mid-block at memory references too.
///
//===----------------------------------------------------------------------===//

#ifndef FASTPATH_SEGMENT_H
#define FASTPATH_SEGMENT_H

#include "fastpath/FastPath.h"
#include "sim/ExecContext.h"

#include <cassert>

namespace nova {
namespace fastpath {

/// A resumable fast-path execution of one Translated program: private
/// register frame, a stream PC, and in-progress RunResult accounting.
/// Drop-in for sim::AllocContext in the chip's context-swap loop.
class SegmentContext {
public:
  using Yield = sim::AllocContext::Yield;

  SegmentContext() = default;
  explicit SegmentContext(const Translated *Tr) { setProgram(Tr); }

  void setProgram(const Translated *Tr) { C.bind(Tr); }
  const Translated *translated() const { return C.T; }

  /// Per-context spill window displacement in scratch words (see
  /// sim::AllocContext). 0 = run at the program's own spill addresses.
  void setSpillRebase(uint32_t Words) { C.SpillRebase = Words; }

  /// Re-targets the context at a fresh run. On a malformed entry the
  /// context is immediately done() with the trap in result().
  void reset(const std::vector<uint32_t> &Args) {
    assert(C.T && "reset() before setProgram()");
    C.reset(Args);
  }

  bool done() const { return C.Finished; }
  const sim::RunResult &result() const { return C.R; }
  sim::RunResult takeResult() { return std::move(C.R); }

  /// Discards an in-progress run, mirroring sim::AllocContext::abort():
  /// the context becomes done() with an empty (non-Ok) result, all
  /// resume bookkeeping (slow-tier position, fast-yield latch, cold-data
  /// bases) is cleared, and reset() starts a fresh attempt. The chip
  /// supervisor's recovery path relies on this working identically in
  /// both exec modes.
  void abort() {
    C.Finished = true;
    C.InSlow = false;
    C.FastYield = false;
    C.Err = false;
    C.PC = C.YieldPC = 0;
    C.Ins = C.Cyc = C.StartIns = C.StartCyc = 0;
    C.SB = 0;
    C.SIdx = 0;
    C.R = sim::RunResult();
    C.R.Ok = false;
  }

  /// Adds externally-decided cycles (memory latency, queueing delay) to
  /// the run's cycle count.
  void charge(uint64_t Cycles) { C.R.Cycles += Cycles; }

  /// Executes until the next swap point. Requires !done(). Opts.Lat must
  /// be the model the program was translated with.
  Yield resume(sim::Memory &Mem, const sim::RunOptions &Opts) {
    return runStream(C, Mem, Opts);
  }

  /// Checkpoint serialization of the resumable run state (frame, PCs,
  /// cold-data bases, accounting). The Translated binding and spill
  /// rebase are construction-time configuration and are NOT saved —
  /// restore into a context already wired via setProgram() to the same
  /// (deterministically re-translated) program.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

private:
  StreamContext C;
};

} // namespace fastpath
} // namespace nova

#endif // FASTPATH_SEGMENT_H
