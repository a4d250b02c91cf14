//===- ChipSoak.h - Whole-chip adversarial soak ------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soak harness's chip mode: streams the same seeded adversarial
/// traffic through the whole-chip simulator (src/chip) — RX sharding
/// across processing micro-engines, 4 hardware contexts per ME swapping
/// on memory references, contended channels, in-order TX retirement —
/// under the same trap=>drop policy.
///
/// Oracle strategy in chip mode: per-packet isolation (private SDRAM
/// slots, rebased pointers, scrubbed at dispatch) makes every chip
/// execution data-identical to a standalone run of the same rebased
/// packet on fresh base memory. Each sampled packet therefore gets (a)
/// the standard three-way differential oracle (allocated / functional /
/// CPS, halts + final image word-for-word), and (b) a chip-vs-standalone
/// cross-check: outcome, trap kind, and halt values of the chip's own
/// execution must equal the standalone allocated run's (cycle counts
/// legitimately differ — that's the contention being modeled).
///
/// Accounting differences from the single-ME soak: the per-packet cycle
/// histogram records *residence time* (dispatch to in-order retirement,
/// queueing included), and headline goodput is delivered payload over
/// the chip's final clock — packets overlap, so per-packet sums would
/// double-count time.
///
//===----------------------------------------------------------------------===//

#ifndef SOAK_CHIPSOAK_H
#define SOAK_CHIPSOAK_H

#include "chip/Chip.h"
#include "soak/Soak.h"

namespace nova {
namespace soak {

struct ChipSoakOptions {
  /// Packets, seed, mix, budget, exec mode, oracle sampling.
  SoakOptions Base;
  /// Topology and queueing. Its Budget and Exec are overridden by
  /// Base.Budget (so the oracle cross-check is instruction-exact) and
  /// Base.Exec (so the checkpoint meta names the mode that ran).
  chip::ChipParams Chip;
};

struct ChipSoakReport {
  /// Configuration check (validateChipSetup); when not ok() nothing ran.
  Status Setup;
  /// Stream-level outcome in the single-ME report shape (cycle histogram
  /// holds residence times; see file comment).
  SoakReport Base;
  chip::ChipParams Params;
  chip::ChipRunStats Chip;
  /// Delivered payload over chip wall-clock (FinalCycles at MP.ClockHz).
  double GoodputMbps = 0;
  /// Hash of the final SDRAM image (determinism witness).
  uint64_t ImageHash = 0;
  /// Sampled packets whose chip execution outcome differed from the
  /// standalone allocated run (also counted in Base.Divergences).
  uint64_t ChipOutcomeMismatches = 0;
  /// Set by stabilize(). A stable report leaves `kernel.queue_pushes`
  /// out, so its bytes match stable reports written before that counter
  /// existed; every other report carries the key.
  bool Stable = false;
};

/// Streams Opts.Base.Packets packets through a chip built from \p App's
/// allocated program (every processing ME runs it).
ChipSoakReport runChipSoak(const AppHarness &App,
                           const ChipSoakOptions &Opts);

/// Zeroes the fields a resumed run cannot reproduce: wall-clock times and
/// the kernel's host-work counters (a restored chip counts only the
/// events it processed itself). What remains is byte-comparable between
/// an uninterrupted run and a killed-and-resumed one (--stable-json).
/// Also marks the report Stable.
void stabilize(ChipSoakReport &R);

/// The base report's members extended with a "chip" object: per-ME
/// utilization, ring occupancy high-waters, contention stalls,
/// trace/image hashes, and the event kernel's work (events per packet and
/// per kind, no-op MeRun pops, wall nanoseconds per event). Written into
/// the object \p J has open; a failed setup writes only the app and the
/// setup error.
void chipReportFields(JsonWriter &J, const ChipSoakReport &R);

/// The report as one JSON object.
std::string chipReportJson(const ChipSoakReport &R);

/// Human-readable summary (base report + chip lines).
void printChipReport(const ChipSoakReport &R, std::FILE *Out);

} // namespace soak
} // namespace nova

#endif // SOAK_CHIPSOAK_H
