//===- Soak.h - Adversarial packet soak harness -----------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streams adversarial traffic through a compiled benchmark application
/// and cross-checks every packet against the compiler's semantic oracles.
/// Each application is compiled once (the expensive ILP allocation), then
/// millions of packets flow through sim::runAllocated under a drop
/// policy: a trap never aborts the stream, it becomes a typed drop in
/// sim::RunStats.
///
/// Traffic classes (PacketClass) cover the hostile-input space: valid
/// packets, truncated headers, oversized length fields (driving the
/// watchdog), corrupted fields (driving the apps' raise/handle paths),
/// and pure fuzz (including near-limit addresses that trip the
/// bounds-checked memory).
///
/// Determinism: packet I of a stream with seed S is generated from the
/// seed splitmix(S, I) alone, so any packet reproduces stand-alone from
/// its (seed, index) pair, and the fault injector is re-armed before
/// every run so @after/xTimes windows count per packet.
///
/// The differential oracle runs each delivered packet through three
/// independent semantics — allocated (physical banks + cycle model),
/// functional (virtual temporaries), and the CPS reference evaluator —
/// and compares halt values and the final SDRAM images word-for-word.
/// Trapped packets are cross-checked allocated-vs-functional for an
/// identical trap kind (watchdog excluded: instruction counts are
/// mode-specific by design; the CPS evaluator is excluded because it
/// deliberately has no bounds model). A divergence is shrunk to a
/// minimal reproducer by delta-debugging the packet words.
///
//===----------------------------------------------------------------------===//

#ifndef SOAK_SOAK_H
#define SOAK_SOAK_H

#include "checkpoint/Checkpoint.h"
#include "cps/Eval.h"
#include "driver/Compiler.h"
#include "sim/Decoded.h"
#include "sim/Simulator.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace nova {
namespace soak {

/// Traffic class of a generated packet.
enum class PacketClass : uint8_t {
  Valid,     ///< well-formed packet the app should deliver
  Truncated, ///< header cut short; absent words read as zero
  Oversized, ///< length field beyond any sane buffer (watchdog fodder)
  Corrupt,   ///< one field corrupted (version, alignment, hop limit, ...)
  Fuzz       ///< random words and occasionally near-limit addresses
};
inline constexpr unsigned NumPacketClasses = 5;
constexpr unsigned enumCount(PacketClass) { return NumPacketClasses; }
const char *packetClassName(PacketClass C);

/// Relative weights of the traffic classes (need not sum to 100).
struct ClassMix {
  unsigned Valid = 55;
  unsigned Truncated = 15;
  unsigned Oversized = 10;
  unsigned Corrupt = 10;
  unsigned Fuzz = 10;

  unsigned total() const {
    return Valid + Truncated + Oversized + Corrupt + Fuzz;
  }
};

/// One generated packet: the words to store in SDRAM at Args[0] plus the
/// entry arguments. Fully determined by (stream seed, Index).
struct SoakPacket {
  PacketClass Class = PacketClass::Valid;
  uint64_t Index = 0;
  uint64_t Seed = 0; ///< per-packet seed (splitmix of stream seed + index)
  std::vector<uint32_t> Words; ///< stored at Args[0] in SDRAM
  std::vector<uint32_t> Args;  ///< entry arguments (app calling convention)
  unsigned PayloadBytes = 0;   ///< accounted on delivery
};

/// Reused state for the batched generator: the per-app calling-convention
/// skeleton (constant pointer arguments, built once per (app, stream) and
/// patched per packet) plus a staging buffer for the truncated classes'
/// full-header temporary. With a cache, generateInto stops allocating
/// once the stream's high-water packet shape has been seen — the ~4 us
/// per-packet generation cost is almost entirely vector churn.
struct PacketTemplateCache {
  std::vector<uint32_t> Args;    ///< app skeleton; varying fields patched
  std::vector<uint32_t> Scratch; ///< truncated-class full-header staging
  int PrimedFor = -1;            ///< generator tag Args was built for
};

/// Checkpoint / crash-recovery knobs (novasoak's --checkpoint-every,
/// --checkpoint-dir, --resume, --progress, --kill-after). A soak run
/// with Every > 0 snapshots its complete resumable state every N
/// retired packets; Resume continues from the newest valid snapshot and
/// must reproduce the uninterrupted run's final report byte-for-byte.
struct CheckpointOptions {
  uint64_t Every = 0;   ///< snapshot every N retired packets (0 = off)
  std::string Dir;      ///< snapshot directory (required when active)
  bool Resume = false;  ///< resume from the newest valid snapshot in Dir
  uint64_t ProgressEvery = 0; ///< stderr heartbeat every N retired (0 = off)
  /// Crash harness: raise(SIGKILL) as soon as N packets have retired —
  /// a real mid-run kill for scripts/novacrash.sh (0 = off).
  uint64_t KillAfter = 0;
  /// In-process crash simulation for unit tests: stop the run cleanly
  /// (state coherent, report marked Stopped) once N packets retired.
  uint64_t StopAfter = 0;

  bool active() const { return Every != 0 || Resume; }
};

struct SoakOptions {
  uint64_t Packets = 10'000;
  uint64_t Seed = 1;
  ClassMix Mix;
  /// Interp runs sim::runAllocated per packet (the reference). Threaded
  /// translates the program once and runs packets on fastpath::Engine
  /// over BatchMemory; every OracleEvery'th packet is re-run on the
  /// interpreter (which must match the fast path bit-for-bit) plus the
  /// functional and CPS oracles. A chip soak runs its contexts in this
  /// mode too.
  sim::ExecMode Exec = sim::ExecMode::Interp;
  /// Per-packet instruction watchdog for the allocated run; the
  /// functional oracle gets 4x and the CPS evaluator 64x (steps per
  /// machine instruction are not one-to-one).
  uint64_t Budget = 50'000;
  /// Run the differential oracle on every Nth packet (1 = every packet,
  /// 0 = never).
  uint64_t OracleEvery = 1;
  /// Delta-debug the first diverging packet to a minimal reproducer.
  bool Shrink = true;
  /// Stop the stream at the first divergence.
  bool FailFast = false;
  sim::LatencyModel Lat;
  CheckpointOptions Ckpt;
};

/// A reported oracle divergence with its reproducer.
struct Divergence {
  bool Found = false;
  uint64_t Index = 0;
  uint64_t Seed = 0;
  PacketClass Class = PacketClass::Valid;
  std::string What; ///< first mismatch, human-readable
  std::vector<uint32_t> Words;
  std::vector<uint32_t> Args;
  /// Minimal diverging packet found by the shrinker (equals Words when
  /// shrinking is off or nothing could be removed).
  std::vector<uint32_t> ShrunkWords;
  unsigned ShrinkRuns = 0; ///< candidate executions the shrinker spent
};

/// Everything one soak run produced.
struct SoakReport {
  std::string App;
  uint64_t Seed = 0;
  sim::ExecMode Exec = sim::ExecMode::Interp;
  uint64_t OracleEvery = 1; ///< sampling rate the run used (0 = never)
  /// One-time cost of translating the program for the fast path
  /// (threaded mode only).
  double TranslateSeconds = 0;
  sim::RunStats Stats;
  uint64_t ClassCounts[NumPacketClasses] = {};
  uint64_t OracleChecks = 0;
  /// Oracle runs skipped mid-check because the *oracle* side ran out of
  /// budget while the allocated run completed (not a divergence).
  uint64_t OracleBudgetMisses = 0;
  uint64_t Divergences = 0;
  Divergence First;
  double WallSeconds = 0;
  /// Path of the snapshot this run resumed from (empty for a fresh
  /// start). Surfaced on stderr and in nightly failure records, never
  /// in the JSON report — a resumed run's report must be byte-identical
  /// to an uninterrupted one.
  std::string ResumedFrom;
  /// True when CheckpointOptions::StopAfter ended the run early (crash
  /// simulation); the report is partial and must not be compared.
  bool Stopped = false;
  /// Hard checkpoint/resume failure (corrupt-only directory, metadata
  /// mismatch): nothing ran; novasoak maps this to exit code 5.
  Status CkptError;

  double packetsPerSec() const {
    return WallSeconds > 0 ? double(Stats.Packets) / WallSeconds : 0;
  }
};

/// A benchmark application compiled once and ready to run packets: the
/// compile artifacts plus a pristine base memory image with the app's
/// tables loaded (each packet run copies the base, never mutates it).
class AppHarness {
public:
  /// Compiles \p Name ("aes", "kasumi", or "nat"). Returns nullptr with
  /// \p Error set on unknown names or compile/allocation failure.
  static std::unique_ptr<AppHarness>
  create(const std::string &Name, std::string &Error,
         const driver::CompileOptions &Opts = defaultCompileOptions());

  /// Compile options tuned for soaking: accept the incumbent ladder rung
  /// rather than burning the full ILP time budget per app.
  static driver::CompileOptions defaultCompileOptions();

  const std::string &name() const { return Name; }
  const driver::CompileResult &compiled() const { return *App; }
  /// The allocated program, decoded once for the interpreter.
  const sim::Decoded &decoded() const { return Code; }
  /// The CPS program, lowered once for the reference evaluator.
  const cps::LoweredProgram &lowered() const { return Lowered; }
  /// The base image with the simulators' limits, and the same image as
  /// the CPS evaluator's memory.
  const sim::Memory &baseSim() const { return Base; }
  const cps::EvalMemory &baseEval() const { return Base; }

  /// Deterministically generates packet \p Index of the stream seeded
  /// \p StreamSeed.
  SoakPacket generate(uint64_t Index, uint64_t StreamSeed,
                      const ClassMix &Mix) const;

  /// Byte-identical to generate(), but writes into \p P and reuses
  /// \p Cache across calls, so the steady state allocates nothing.
  void generateInto(uint64_t Index, uint64_t StreamSeed, const ClassMix &Mix,
                    PacketTemplateCache &Cache, SoakPacket &P) const;

  /// Fills Out[0..Count) with packets FirstIndex..FirstIndex+Count-1 of
  /// the stream, reusing Out's slots (grown when needed, never shrunk —
  /// a short final batch leaves stale trailing slots the caller must not
  /// read past Count).
  void generateBatch(uint64_t FirstIndex, uint64_t Count,
                     uint64_t StreamSeed, const ClassMix &Mix,
                     PacketTemplateCache &Cache,
                     std::vector<SoakPacket> &Out) const;

  /// True when a completed run's halt values are the app's own error
  /// result (the 0xFFFFxxxx raise/handle codes).
  bool isAppReject(const std::vector<uint32_t> &Halt) const;

  /// Bit i set => entry argument i is an SDRAM pointer. The chip's RX
  /// scheduler rebases these into per-packet slots (all three benchmark
  /// apps take {in, out, ...} with any further args non-pointers).
  uint32_t pointerArgMask() const { return 0b11; }

private:
  enum class AppId { Aes, Kasumi, Nat };
  AppHarness() = default;

  std::string Name;
  AppId Id = AppId::Aes;
  std::unique_ptr<driver::CompileResult> App;
  sim::Decoded Code;
  cps::LoweredProgram Lowered;
  sim::Memory Base;
};

/// Outcome of running one packet (exposed for tests; runSoak folds these
/// into the report).
struct PacketOutcome {
  sim::RunResult Alloc;
  /// Final memory state of the allocated run — all three spaces. The
  /// threaded stream compares these against BatchMemory::image to hold
  /// the fast path to bit-identical memory effects.
  sim::Memory AllocMem;
  bool AppReject = false;
  bool Diverged = false;
  bool OracleBudgetMiss = false;
  std::string What; ///< divergence description when Diverged
};

/// Runs one packet through the allocated simulator and, when
/// \p WithOracle, through the functional simulator and CPS evaluator.
/// Re-arms the fault injector first so injection windows are per-packet.
PacketOutcome runPacket(const AppHarness &App, const SoakPacket &P,
                        const SoakOptions &Opts, bool WithOracle);

/// Counts one diverging packet \p P in \p Rep. The stream's first is
/// recorded in Rep.First with \p What and, when \p Shrink, delta-debugged
/// to a minimal subsequence of its words that still satisfies
/// \p Diverges (a bounded number of candidate runs, counted in
/// ShrinkRuns). Every runner's divergences go through here: the
/// standalone stream with its own per-packet run as the predicate, the
/// chip's retire hook with the standalone differential or a replay of
/// an injected flip.
void noteDivergence(SoakReport &Rep, const SoakPacket &P, std::string What,
                    bool Shrink,
                    const std::function<bool(const SoakPacket &)> &Diverges);

/// Streams Opts.Packets packets through \p App under the drop policy,
/// executed as Opts.Exec picks (see SoakOptions::Exec).
SoakReport runSoak(const AppHarness &App, const SoakOptions &Opts);

/// Checkpoint identity record for a standalone (non-chip) soak of
/// \p App under \p Opts (chip topology fields stay zero).
ckpt::CheckpointMeta checkpointMeta(const AppHarness &App,
                                    const SoakOptions &Opts);

/// Serializes the resumable progress of a soak stream: the generator
/// cursor (next packet index) plus every report accumulator — the stats
/// fold with its histogram, class counts, oracle counters, and the
/// first-divergence record. Restoring into a fresh report and resuming
/// the stream at the cursor reproduces the uninterrupted run's final
/// report exactly.
void saveSoakProgress(BinWriter &W, const SoakReport &R, uint64_t Cursor);
void restoreSoakProgress(BinReader &R, SoakReport &Rep, uint64_t &Cursor);

/// The checkpoint driver of one soak stream, shared by the standalone
/// and chip runners. Owns resume, the snapshot cadence, the --progress
/// heartbeat (packets retired, rate, last durable checkpoint) and the
/// crash harness (--kill-after, StopAfter). A snapshot's state section
/// is saveSoakProgress(Rep, cursor) followed by whatever \p SaveExtra
/// appends (the chip runner's outcome-mismatch counter and chip image);
/// \p RestoreExtra reads the same bytes back on resume.
class CkptDriver {
public:
  CkptDriver(const CheckpointOptions &CK, ckpt::CheckpointMeta Meta,
             SoakReport &Rep, const Timer &Clock,
             std::function<void(BinWriter &)> SaveExtra = nullptr,
             std::function<void(BinReader &)> RestoreExtra = nullptr);

  /// Restores Rep, \p Cursor and the extra state from the newest valid
  /// snapshot and continues the cadence from its retired count. False =>
  /// hard failure recorded in Rep.CkptError (nothing may run); Rep's
  /// counters and \p Cursor are then untouched, because the progress is
  /// restored into scratch copies and committed only once the whole
  /// state section parsed. \p RestoreExtra commits its own state the
  /// same way (the chip runner keeps the restored mismatch counter
  /// aside until resume() succeeds).
  bool resume(uint64_t &Cursor);

  /// Called once \p Retired packets have fully landed in Rep, with the
  /// generator at \p Cursor. Returns true when the run must stop
  /// (StopAfter crash simulation).
  bool onRetired(uint64_t Retired, uint64_t Cursor);

private:
  void startAt(uint64_t Retired);

  const CheckpointOptions &CK;
  ckpt::CheckpointMeta Meta;
  SoakReport &Rep;
  const Timer &Clock;
  std::function<void(BinWriter &)> SaveExtra;
  std::function<void(BinReader &)> RestoreExtra;
  uint64_t NextCkpt = 0, NextProg = 0, LastCkpt = 0;
};

/// Zeroes the wall-clock fields (WallSeconds, TranslateSeconds) so a
/// report compares byte-for-byte between runs (--stable-json).
void stabilize(SoakReport &R);

/// Writes the report's members into the JSON object \p J has open (the
/// chip report extends the same object). Stable keys; consumed by
/// scripts/ and BENCH_soak.json.
void reportFields(JsonWriter &J, const SoakReport &R);

/// The report as one JSON object.
std::string reportJson(const SoakReport &R);

/// Human-readable summary table.
void printReport(const SoakReport &R, std::FILE *Out);

} // namespace soak
} // namespace nova

#endif // SOAK_SOAK_H
