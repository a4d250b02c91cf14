//===- ExecContext.h - Re-entrant allocated-mode hardware context -*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One IXP hardware context as a resumable interpreter. The single-ME
/// runAllocated loop was factored into this class so the whole-chip
/// simulator (src/chip) can context-swap a thread whenever it issues a
/// memory reference — the IXP's signature latency-hiding trick — while
/// runAllocated remains a thin driver with bit-identical behaviour.
///
/// resume() loops detail::step() over the program decoded once
/// (sim::Decoded) — the one definition of allocated-code semantics, which
/// the fast path's slow tier also runs — until the run
/// completes (halt or trap) or a memory reference is issued. Memory
/// *data* effects apply at issue, in the issuing context's program
/// order; the caller decides what the reference costs (flat
/// LatencyModel charge for the single-threaded simulator,
/// transaction-queue completion time for the contended chip) and pays
/// it with charge(). Each context owns a private quarter of the
/// register files, exactly like the hardware.
///
/// Spill isolation: allocated code addresses its spill slots as absolute
/// scratch words from its SpillBase. On a chip, several
/// contexts run the same program image concurrently, so each context gets
/// a private spill window: setSpillRebase() shifts every scratch access
/// that lands inside the program's spill window by a per-context offset.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_EXECCONTEXT_H
#define SIM_EXECCONTEXT_H

#include "sim/Decoded.h"
#include "sim/Simulator.h"

namespace nova {
namespace sim {

/// A resumable allocated-mode execution: private register files, a
/// program counter, and the in-progress RunResult accounting.
class AllocContext {
public:
  /// Why resume() returned.
  struct Yield {
    enum class Kind : uint8_t {
      Done, ///< run completed (halt or trap) — see result()
      Mem   ///< a memory reference to Space was issued (data already
            ///< applied); charge() its latency, then resume() again
    };
    Kind K = Kind::Done;
    MemSpace Space = MemSpace::Sram;
    /// Cycles accrued onto the result during this burst (the context's
    /// compute time between swap points; excludes whatever the caller
    /// charges for the memory reference itself).
    uint64_t Cycles = 0;
  };

  AllocContext() = default;
  explicit AllocContext(const Decoded *P) : Prog(P) {}

  /// Binds the decoded program, which must outlive the context.
  void setProgram(const Decoded *P) { Prog = P; }

  /// Per-context spill window displacement in scratch words (see file
  /// comment). 0 = run at the program's own spill addresses.
  void setSpillRebase(uint32_t Words) { SpillRebase = Words; }

  /// Re-targets the context at a fresh run: clears the register files and
  /// accounting, loads \p Args into A0..A(n-1), and validates the entry.
  /// On a malformed entry the context is immediately done() with the
  /// trap in result().
  void reset(const std::vector<uint32_t> &Args);

  /// True when the current run has completed (halt or trap) — result()
  /// is final and resume() must not be called again.
  bool done() const { return Finished; }

  /// Discards an in-progress run: the context becomes done() with an
  /// empty (non-Ok) result and may be reset() for a fresh attempt. The
  /// chip supervisor uses this to recover a wedged hardware context
  /// before requeueing its packet. No-op when already done().
  void abort() {
    Finished = true;
    R = RunResult();
    R.Ok = false;
  }

  const RunResult &result() const { return R; }
  RunResult takeResult() { return std::move(R); }

  /// Adds externally-decided cycles (memory latency, queueing delay) to
  /// the run's cycle count.
  void charge(uint64_t Cycles) { R.Cycles += Cycles; }

  /// Executes until the next swap point (see Yield). Requires !done().
  Yield resume(Memory &Mem, const RunOptions &Opts);

  /// Checkpoint serialization of the resumable run state: register
  /// frame, position, accounting. The program binding and spill rebase
  /// are construction-time configuration and are NOT saved — restore
  /// into a context already wired to the same program.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

private:
  template <class Ar, class Self> static void fields(Ar &A, Self &C);

  const Decoded *Prog = nullptr;
  RunResult R;
  bool Finished = true; ///< no run in progress until reset()
  bool Err = false;     ///< illegal-register latch (see detail::step)
  uint32_t SpillRebase = 0;
  ixp::BlockId B = 0;
  unsigned Idx = 0;
  uint32_t Frame[FrameRegs] = {0}; ///< register banks, see FrameRegs
};

} // namespace sim
} // namespace nova

#endif // SIM_EXECCONTEXT_H
