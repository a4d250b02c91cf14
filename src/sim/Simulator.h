//===- Simulator.h - IXP1200 micro-engine simulator -------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes machine programs. Two modes:
///
///  - functional: operands are virtual temporaries; used to validate
///    instruction selection against the CPS evaluator before register
///    allocation;
///  - allocated: operands are physical registers in the IXP1200's banks;
///    bank legality is enforced at runtime and cycles are counted with
///    the memory-latency model, giving the throughput numbers of the
///    paper's Section 11.
///
/// The runtime is hardened for hostile traffic: every failure is a typed
/// trap (TrapKind) carried on a structured support::Status, memory
/// accesses are bounds-checked against per-space limits, and execution is
/// watchdog-bounded. A trap never aborts the process — the soak harness
/// (src/soak) turns traps into packet drops and keeps streaming.
///
/// Cycle model (one thread, no overlap — the paper measured unoptimized
/// single-threaded code): the latency constants come from the shared chip
/// description ixp::MachineParams (SRAM ~20 cycles, SDRAM ~33, scratch
/// ~12, IXP1200 magnitudes), which the chip contention model (src/chip)
/// and the ILP cost model read too. For the whole-chip simulation — 6
/// micro-engines x 4 hardware contexts with context swap on memory
/// references and contended memory channels — see src/chip.
///
//===----------------------------------------------------------------------===//

#ifndef SIM_SIMULATOR_H
#define SIM_SIMULATOR_H

#include "alloc/Allocated.h"
#include "ixp/MachineIr.h"
#include "ixp/MachineParams.h"
#include "support/Status.h"
#include "support/MemImage.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nova {
namespace sim {

/// Why a run stopped abnormally. The taxonomy is stable (tests, the soak
/// harness, and bench scripts match on it); human-readable detail lives
/// in RunResult::Error.
enum class TrapKind : uint8_t {
  None,             ///< run completed (RunResult::Ok)
  IllegalRegister,  ///< bank with no register file, or index off its end
  IllegalMemSpace,  ///< MemSpace operand outside the enum (corrupt code)
  SramOutOfRange,   ///< SRAM access beyond Memory::Limits
  SdramOutOfRange,  ///< SDRAM access beyond Memory::Limits
  ScratchOutOfRange,///< scratch access beyond Memory::Limits
  Watchdog,         ///< instruction budget exhausted (runaway loop)
  ShiftRange,       ///< shift count >= 32 under RunOptions::TrapOnShiftRange
  MalformedProgram, ///< no entry, bad block target, fell off a block end,
                    ///< clone pseudo in allocated code, bad temp id, or
                    ///< argument-count mismatch
};

inline constexpr unsigned NumTrapKinds = 9;
constexpr unsigned enumCount(TrapKind) { return NumTrapKinds; }
const char *trapKindName(TrapKind K);

/// Per-space word-address limits. Defaults are IXP1200-plausible
/// magnitudes, comfortably above the apps' memory maps (the spill area
/// sits at scratch 0x8000): SRAM 8 MB, SDRAM 64 MB, scratch 256 KB.
struct MemLimits {
  uint32_t SramWords = 1u << 21;
  uint32_t SdramWords = 1u << 24;
  uint32_t ScratchWords = 1u << 16;

  uint32_t words(MemSpace S) const {
    switch (S) {
    case MemSpace::Sram:    return SramWords;
    case MemSpace::Sdram:   return SdramWords;
    case MemSpace::Scratch: return ScratchWords;
    }
    assert(false && "invalid MemSpace");
    return 0;
  }
};

/// The simulators' memory: the three word images (MemImage, the type the
/// CPS evaluator runs on too, so final images compare entry-for-entry),
/// plus the address limits the runtime enforces. The images stay sparse;
/// bounded addresses plus the instruction watchdog bound their growth
/// per run.
struct Memory : MemImage {
  MemLimits Limits;

  const MemLimits &limits() const { return Limits; }

  /// True when the \p Count words starting at \p Addr lie within the
  /// configured limit for \p S.
  bool inRange(MemSpace S, uint32_t Addr, uint32_t Count) const {
    uint32_t Bound = Limits.words(S);
    return Count <= Bound && Addr <= Bound - Count;
  }

  /// Checkpoint serialization: all three images plus the limits.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);
};

/// What an instruction charges itself, before a LatencyModel prices it
/// (LatencyModel::cycleClass is the rule).
enum class CycleClass : uint8_t {
  None,     ///< memory ops (their access is charged apart), Halt, Clone
  Alu,      ///< ALU ops and moves
  Imm,      ///< an immediate that fits one instruction
  LargeImm, ///< an immediate that needs two
  Hash,
  Branch    ///< the branch/jump transfer
};

/// Latency model in micro-engine cycles. Defaults are the shared chip
/// description's (ixp::MachineParams) — one definition for the
/// simulator, the chip contention model, and the ILP cost model.
struct LatencyModel {
  unsigned Alu = ixp::MachineParams{}.AluCycles;
  unsigned Branch = ixp::MachineParams{}.BranchCycles;
  /// 1-2 per paper §12; large constants cost 2.
  unsigned Imm = ixp::MachineParams{}.ImmCycles;
  unsigned SramAccess = ixp::MachineParams{}.SramAccessCycles;
  unsigned SdramAccess = ixp::MachineParams{}.SdramAccessCycles;
  unsigned ScratchAccess = ixp::MachineParams{}.ScratchAccessCycles;
  unsigned HashOp = ixp::MachineParams{}.HashCycles;

  /// The cycle rule: what \p I charges itself. ALU ops and moves,
  /// immediates (large constants need two instructions on the IXP, paper
  /// §12), hashes, and the branch/jump transfer. Memory ops charge
  /// nothing here — their access is the caller's to charge (memAccess,
  /// or the chip's contention model) — and neither do Halt and the
  /// Clone pseudo.
  static CycleClass cycleClass(const alloc::AllocInstr &I) {
    switch (I.Op) {
    case ixp::MOp::Alu:
    case ixp::MOp::Move:
      return CycleClass::Alu;
    case ixp::MOp::Imm:
      return I.Imm <= 0xFFFF || (I.Imm & 0xFFFF) == 0 ? CycleClass::Imm
                                                      : CycleClass::LargeImm;
    case ixp::MOp::Hash:
      return CycleClass::Hash;
    case ixp::MOp::Branch:
    case ixp::MOp::Jump:
      return CycleClass::Branch;
    default:
      return CycleClass::None;
    }
  }

  /// Cycles an instruction of class \p C charges itself. A table in
  /// CycleClass order rather than a switch: the interpreter prices every
  /// instruction with it, and the fast path's translator folds it.
  unsigned cycles(CycleClass C) const {
    const unsigned ByClass[] = {0, Alu, Imm, Imm + 1, HashOp, Branch};
    return ByClass[static_cast<unsigned>(C)];
  }

  /// Cost of an access to \p S. Invalid spaces are rejected by the
  /// interpreter before latency is charged; asking anyway asserts in
  /// debug builds and charges nothing in release (never silently SRAM).
  unsigned memAccess(MemSpace S) const {
    switch (S) {
    case MemSpace::Sram:    return SramAccess;
    case MemSpace::Sdram:   return SdramAccess;
    case MemSpace::Scratch: return ScratchAccess;
    }
    assert(false && "invalid MemSpace");
    return 0;
  }
};

/// Register frame of one hardware context: the six register banks at
/// fixed slots — A at 0 (16), B at 16 (16), L at 32 (8), S at 40 (8),
/// LD at 48 (8), SD at 56 (8). Bank sizes are architectural: 16 GPRs
/// per ALU bank, 8 per transfer bank (one context's quarter of the
/// 32-register files). The interpreter and the fast path share it;
/// sim::decode (Decoded.cpp) is the one place that maps a register to
/// its slot.
inline constexpr unsigned FrameRegs = 64;

/// How allocated code executes, in a soak stream and in the chip's
/// hardware contexts alike. The two give bit-identical results; the
/// checkpoint meta stores the value, so the numbering is fixed.
enum class ExecMode : uint8_t {
  Interp = 0,  ///< the per-instruction interpreter (detail::step)
  Threaded = 1 ///< the fast path's translated op stream (fastpath)
};
const char *execModeName(ExecMode M);

/// Execution knobs shared by both modes.
struct RunOptions {
  LatencyModel Lat;
  /// Watchdog: the run traps TrapKind::Watchdog after this many
  /// instructions.
  uint64_t MaxInstructions = 10'000'000;
  /// Strict mode: trap on shift counts >= 32 instead of yielding the
  /// architected 0 (for flushing out code that relies on the clamp).
  bool TrapOnShiftRange = false;
};

struct RunResult {
  bool Ok = false;
  TrapKind Trap = TrapKind::None;
  /// Structured trap detail (StatusCode::SimTrap, Phase::Execute); ok()
  /// when the run completed.
  Status Error;
  std::vector<uint32_t> HaltValues;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;

  /// Checkpoint serialization (in-flight packets carry partial results).
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);
};

/// Fixed-footprint log-scale histogram of per-run cycle counts: 32
/// power-of-two decades x 8 sub-buckets, exact below 256. Quantile
/// queries return the upper edge of the containing bucket (<= 12.5%
/// relative error), which is plenty for p50/p99 soak reporting.
class CycleHistogram {
public:
  void add(uint64_t Cycles);
  uint64_t count() const { return Total; }
  /// Smallest recorded-bucket upper bound covering fraction \p Q of the
  /// samples (0 < Q <= 1); 0 when empty.
  uint64_t quantile(double Q) const;

  /// Checkpoint serialization of the bucket counts.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

private:
  template <class Ar, class Self> static void fields(Ar &A, Self &S);
  static constexpr unsigned NumBuckets = 256;
  static unsigned bucketOf(uint64_t V);
  static uint64_t bucketHigh(unsigned B);
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Total = 0;
};

/// Stream-level accounting the soak harness (and anything else running
/// packets in bulk) folds every RunResult into. Bounded memory
/// regardless of stream length.
struct RunStats {
  uint64_t Packets = 0;
  uint64_t Delivered = 0;       ///< completed runs (Ok)
  uint64_t Rejected = 0;        ///< completed but app-level error result
  uint64_t Drops = 0;           ///< trapped runs (== sum of Traps[])
  uint64_t Traps[NumTrapKinds] = {};
  uint64_t TotalCycles = 0;     ///< includes cycles burned by drops
  uint64_t TotalInstructions = 0;
  uint64_t DeliveredPayloadBytes = 0;
  CycleHistogram Cycles;

  /// Folds one run in. \p AppRejected marks a completed run whose result
  /// the application itself flagged as an error (e.g. the 0xFFFFxxxx
  /// handler codes of the benchmark apps); \p PayloadBytes counts toward
  /// throughput only when delivered.
  void account(const RunResult &R, bool AppRejected, unsigned PayloadBytes);

  /// Checkpoint serialization of the whole fold (histogram included).
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

  uint64_t p50Cycles() const { return Cycles.quantile(0.50); }
  uint64_t p99Cycles() const { return Cycles.quantile(0.99); }
  /// Delivered goodput at \p ClockHz over *all* cycles spent, including
  /// those burned on dropped/rejected packets — throughput under
  /// degradation, not best-case throughput.
  double deliveredMbps(double ClockHz = ixp::MachineParams{}.ClockHz) const;
};

/// Functional execution over virtual temporaries (no banks, no timing
/// fidelity beyond instruction counting).
RunResult runFunctional(const ixp::MachineProgram &M,
                        const std::vector<uint32_t> &Args, Memory &Mem,
                        const RunOptions &Opts);
RunResult runFunctional(const ixp::MachineProgram &M,
                        const std::vector<uint32_t> &Args, Memory &Mem,
                        uint64_t MaxInstructions = 10'000'000);

struct Decoded;

/// Executes register-allocated code on the modeled micro-engine:
/// physical banks, runtime-enforced data-path legality, bounds-checked
/// memory, and cycle accounting. Arguments arrive in A0..A(n-1). When a
/// FaultInjector plan is armed, mem-jitter inflates memory latencies and
/// sim-bitflip perturbs ALU results (the soak oracle's injected
/// divergence). The AllocatedProgram forms decode \p P for the one run;
/// a holder that runs a program many times decodes it once (sim::decode,
/// Decoded.h) and calls the Decoded form.
RunResult runAllocated(const Decoded &P, const std::vector<uint32_t> &Args,
                       Memory &Mem, const RunOptions &Opts);
RunResult runAllocated(const alloc::AllocatedProgram &P,
                       const std::vector<uint32_t> &Args, Memory &Mem,
                       const RunOptions &Opts);
RunResult runAllocated(const alloc::AllocatedProgram &P,
                       const std::vector<uint32_t> &Args, Memory &Mem,
                       const LatencyModel &Lat = {},
                       uint64_t MaxInstructions = 10'000'000);

/// Throughput in megabits per second for a packet of \p PayloadBytes
/// processed in \p CyclesPerPacket cycles at the IXP1200's 233 MHz
/// (ixp::MachineParams::ClockHz).
double throughputMbps(unsigned PayloadBytes, double CyclesPerPacket,
                      double ClockHz = ixp::MachineParams{}.ClockHz);

} // namespace sim
} // namespace nova

#endif // SIM_SIMULATOR_H
