//===- MachineParams.h - Whole-chip machine parameters ----------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the IXP1200's chip-level parameters, shared by
/// the micro-engine simulator (sim::LatencyModel defaults), the chip
/// contention model (src/chip channel queues), and the ILP cost model
/// (ixp::CostModel spill costs). A Kugelblitz-style design-space sweep
/// would vary these fields and re-solve (ROADMAP, "Deferred").
///
/// Latency magnitudes are the IXP1200's (233 MHz, paper Sections 2 and
/// 11): SRAM ~20 cycles, SDRAM ~33, scratch ~12. Issue intervals model
/// per-channel bandwidth for the chip's transaction queues: a channel
/// accepts a new transaction every IssueInterval cycles (the memory
/// units are pipelined, so sustained throughput is much better than one
/// access per latency), and contention shows up as measurable queueing
/// stalls once concurrent micro-engines saturate a channel.
///
//===----------------------------------------------------------------------===//

#ifndef IXP_MACHINEPARAMS_H
#define IXP_MACHINEPARAMS_H

#include <cstdint>

namespace nova {
namespace ixp {

/// Chip-level machine description: topology, per-space memory timing, and
/// the spill-cost constants of the paper's ILP objective. Aggregate with
/// defaults matching the IXP1200, so `MachineParams{}` is *the*
/// definition everything else reads.
struct MachineParams {
  //===--- Topology (paper Section 2) -------------------------------------===//
  unsigned MeCount = 6;        ///< micro-engines on the chip
  unsigned ContextsPerMe = 4;  ///< hardware threads per micro-engine

  //===--- Clock ----------------------------------------------------------===//
  double ClockHz = 233e6; ///< 233 MHz IXP1200 core clock

  //===--- Per-space access latency (micro-engine cycles) ------------------===//
  unsigned AluCycles = 1;
  unsigned BranchCycles = 1;
  unsigned ImmCycles = 1; ///< 1-2 per paper §12; large constants cost 2
  unsigned HashCycles = 16;
  unsigned SramAccessCycles = 20;
  unsigned SdramAccessCycles = 33;
  unsigned ScratchAccessCycles = 12;

  //===--- Per-channel bandwidth (chip contention model) -------------------===//
  /// A channel starts at most one transaction every IssueInterval cycles;
  /// latency overlaps across in-flight transactions (the units are
  /// pipelined). Queue delay beyond the interval is recorded as
  /// contention stall cycles.
  unsigned SramIssueInterval = 3;
  /// The 64-bit SDRAM bus moves two 32-bit words per bus cycle at half
  /// the core clock: ~1 core cycle per word sustained in bursts; 2 is a
  /// conservative per-word issue interval.
  unsigned SdramIssueInterval = 2;
  unsigned ScratchIssueInterval = 2;

  //===--- ILP objective constants (paper Section 7) -----------------------===//
  double SpillLoadCost = 200.0;  ///< ldC: reload from spill memory
  double SpillStoreCost = 200.0; ///< stC: store to spill memory
  double MoveCost = 1.0;         ///< mvC: register-register move
  double BBias = 1.01;           ///< bias against B-bank moves

  unsigned totalContexts() const { return MeCount * ContextsPerMe; }
};

} // namespace ixp
} // namespace nova

#endif // IXP_MACHINEPARAMS_H
