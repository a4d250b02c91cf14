//===- Baseline.h - Naive memory-home allocator ----------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison baseline for the ILP allocator: every temporary lives
/// in a scratch-memory slot; each instruction loads its operands into
/// fixed staging registers and stores its results back. This is the
/// "no register allocation" strategy the paper's introduction argues is
/// nearly intolerable on the IXP ("because of the penalty for memory
/// accesses ... spilling is nearly intolerable"); the benchmark
/// bench_baseline_vs_ilp quantifies exactly that penalty.
///
/// The output is correct by construction and passes the same legality
/// verifier and simulator as the ILP allocator's output.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOC_BASELINE_H
#define ALLOC_BASELINE_H

#include "alloc/Allocated.h"
#include "support/Status.h"

namespace nova {
namespace alloc {

struct BaselineResult {
  bool Ok = false;
  Status Error;
  AllocatedProgram Prog;
};

/// Allocates \p M with the memory-home strategy; its slots are scratch
/// words from SpillAreaBase.
BaselineResult allocateBaseline(const ixp::MachineProgram &M);

} // namespace alloc
} // namespace nova

#endif // ALLOC_BASELINE_H
