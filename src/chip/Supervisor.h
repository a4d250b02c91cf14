//===- Supervisor.h - Chip fault model + self-healing policy ----*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chip's fault model and recovery policy. A FaultSchedule (parsed
/// from `novasoak --fault-schedule kind@rate[~mag],...`) arms five
/// chip-grade fault kinds; the Supervisor decides deterministically when
/// each fires and what recovery costs, while chip::Chip performs the
/// mechanics (context abort/reset, slot re-scrub + re-DMA, typed drops,
/// RX backpressure). Every decision is a pure function of the opportunity
/// ordinal — packet sequence number for per-packet kinds, event-ordered
/// counters for per-transaction kinds — so a (seed, schedule) pair
/// replays bit-identically in both exec modes: the interpreter and the
/// translated fast path yield at the same memory references with the
/// same burst cycles, hence see the same opportunity sequence.
///
/// Detection is a retire-progress watchdog: a periodic supervisor tick
/// scans hardware contexts whose outstanding memory reference never
/// completed (`ctx-lockup` wedges the completion signal) and declares a
/// lockup once the context has made no progress for LockupThreshold
/// cycles. Recovery aborts the context, restores the packet's pristine
/// input state (slot scrub + re-DMA, private image rebuild for
/// quarantined packets, spill-window scrub), and requeues with
/// exponential cycle backoff — bounded by MaxRetries, after which the
/// packet is declared dead and retired in order as a *typed* drop.
/// Every detection, reset, requeue, recovery, and drop is counted in
/// RecoveryStats, surfaced through ChipRunStats and `novasoak --json`.
///
//===----------------------------------------------------------------------===//

#ifndef CHIP_SUPERVISOR_H
#define CHIP_SUPERVISOR_H

#include "support/BinIO.h"
#include "support/FaultInjection.h"

#include <cstdint>

namespace nova {
namespace chip {

/// Why a packet was retired dead by the recovery machinery (as opposed
/// to completing with a trap, which stays a normal app-level drop).
enum class DropReason : uint8_t {
  None,         ///< packet completed normally (halt or app trap)
  Lockup,       ///< context wedged repeatedly; retries exhausted
  Backpressure, ///< RX dropped it after all input rings stayed full
  DmaDrop       ///< ingress DMA lost repeatedly; retries exhausted
};
constexpr unsigned enumCount(DropReason) {
  return static_cast<unsigned>(DropReason::DmaDrop) + 1;
}

/// Detection/recovery policy knobs. Defaults suit the production-shape
/// soak configs; tests shrink the thresholds to fire quickly.
struct SupervisorConfig {
  /// Cycles between supervisor ticks (watchdog scan + backpressure
  /// check). Only scheduled when a fault schedule is armed, so
  /// fault-free runs stay event-for-event identical to an unsupervised
  /// chip.
  uint64_t WatchdogPeriod = 4096;
  /// A context with an outstanding memory reference and no progress for
  /// this many cycles is declared locked up.
  uint64_t LockupThreshold = 16384;
  /// Requeue attempts after the first wedge before the packet is
  /// declared dead (typed Lockup drop).
  unsigned MaxRetries = 2;
  /// First requeue waits this many cycles; each further retry doubles it.
  uint64_t BackoffBase = 256;
  /// RX parked on uniformly-full rings for this long drops the pending
  /// packet (typed Backpressure drop) instead of waiting unboundedly.
  uint64_t BackpressureThreshold = 32768;
  /// Ingress DMA redo attempts before a typed DmaDrop.
  unsigned DmaRetryLimit = 2;
  /// Cycles an injected brownout window degrades the SDRAM channel.
  uint64_t BrownoutWindow = 2048;
};

/// Typed accounting of everything the fault model injected and the
/// supervisor did about it. Deterministic for a (seed, schedule) pair.
struct RecoveryStats {
  // ctx-lockup
  uint64_t LockupsInjected = 0;  ///< context wedges actually armed
  uint64_t LockupsDetected = 0;  ///< watchdog declarations
  uint64_t CtxResets = 0;        ///< abort+reset recoveries performed
  uint64_t PacketRequeues = 0;   ///< backoff requeues scheduled
  uint64_t PacketsWedged = 0;    ///< distinct packets that wedged >= once
  uint64_t PacketsRecovered = 0; ///< wedged packets that later completed
  uint64_t LockupDrops = 0;      ///< retries exhausted => typed drop
  uint64_t MaxBackoffCycles = 0; ///< largest backoff delay used
  // RX backpressure
  uint64_t BackpressureDrops = 0;
  // ring-stall
  uint64_t RingStallsInjected = 0;
  uint64_t RingStallCycles = 0;
  // chan-brownout
  uint64_t BrownoutsInjected = 0;
  uint64_t BrownoutCycles = 0;
  // dma-drop
  uint64_t DmaFaultsInjected = 0;   ///< bursts silently lost
  uint64_t DmaRetries = 0;          ///< redo attempts performed
  uint64_t DmaFaultPackets = 0;     ///< distinct packets that lost DMA
  uint64_t DmaRecoveredPackets = 0; ///< of those, recovered by redo
  uint64_t DmaDropPackets = 0;      ///< of those, typed-dropped
  // sdram-bitflip (supervisor-invisible; the oracle must catch it)
  uint64_t SdramBitFlipsInjected = 0;

  /// The recovery ledger balances: every packet the fault model touched
  /// is accounted as recovered or as a typed drop.
  bool allAccounted() const {
    return PacketsWedged == PacketsRecovered + LockupDrops &&
           DmaFaultPackets == DmaRecoveredPackets + DmaDropPackets &&
           LockupsDetected == CtxResets;
  }

  /// True when anything at all was injected.
  bool anyInjected() const {
    return LockupsInjected || BackpressureDrops || RingStallsInjected ||
           BrownoutsInjected || DmaFaultsInjected || SdramBitFlipsInjected;
  }

  /// Order-independent digest for double-run equality assertions.
  uint64_t fold() const;

  /// Checkpoint serialization of every counter.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);
};

/// The policy half of the fault model: owns the armed schedule, decides
/// when kinds fire (pure functions of opportunity ordinals), computes
/// backoff delays, and holds the RecoveryStats ledger the chip's
/// mechanics write into. chip::Chip owns the event-time mechanics.
class Supervisor {
public:
  /// Per-packet fault plan, pure in Seq — ChipSoak's shrinker can
  /// recompute it when replaying a divergence standalone.
  struct PacketPlan {
    unsigned LockupAttempts = 0; ///< initial attempts that wedge
    unsigned DmaFailures = 0;    ///< ingress DMA attempts silently lost
    bool SdramFlip = false;      ///< corrupt one word post-DMA
  };

  Supervisor() = default;
  Supervisor(const FaultSchedule &Sched, const SupervisorConfig &C);

  /// False for an empty schedule: the chip schedules no supervisor
  /// ticks and takes no fault branches, keeping fault-free runs
  /// event-for-event identical to an unsupervised chip.
  bool enabled() const { return Enabled; }
  const SupervisorConfig &config() const { return Cfg; }

  PacketPlan planPacket(uint64_t Seq) const;

  /// Deterministic corruption target for an SdramFlip on packet \p Seq:
  /// word index within the DMA image, and which bit flips.
  static uint32_t flipWordIndex(uint64_t Seq, uint32_t NumWords);
  static uint32_t flipBit(uint64_t Seq);

  /// Counts one ring push attempt chip-wide; nonzero = this attempt
  /// hits an injected stall of that many cycles.
  uint64_t ringStallCycles();

  /// Counts one application SDRAM reference; nonzero = a brownout
  /// window starts with that issue-interval multiplier.
  unsigned brownoutFactor();

  /// The issue-interval multiplier every brownout window applies (0 when
  /// chan-brownout is not armed).
  unsigned brownoutMultiplier() const;

  /// The longest delay the supervisor ever schedules ahead: a watchdog
  /// period, the last retry's backoff, a brownout window, or an injected
  /// ring stall.
  uint64_t maxDelay() const;

  /// Requeue delay before retry number \p Attempt (1-based): BackoffBase
  /// doubled per prior attempt.
  uint64_t backoff(unsigned Attempt) const {
    unsigned Shift = Attempt > 1 ? Attempt - 1 : 0;
    return Cfg.BackoffBase << (Shift > 32 ? 32 : Shift);
  }

  RecoveryStats &stats() { return Rec; }
  const RecoveryStats &stats() const { return Rec; }

  /// Checkpoint serialization of the mutable policy state: the
  /// opportunity ordinals (ring-push and SDRAM-reference counters) and
  /// the RecoveryStats ledger. The armed schedule and config are
  /// construction-time and NOT saved — restore into a Supervisor built
  /// from the same (schedule, config) pair.
  void saveState(BinWriter &W) const;
  void restoreState(BinReader &R);

private:
  template <class Ar, class Self> static void fields(Ar &A, Self &S);

  /// A kind's schedule entry; a magnitude left 0 resolves to the default.
  struct Entry {
    bool Armed = false;
    uint64_t Rate = 0;
    uint64_t Magnitude = 0;
  };
  const Entry &entry(FaultKind K) const {
    return Entries[static_cast<unsigned>(K)];
  }

  SupervisorConfig Cfg;
  Entry Entries[NumFaultKinds];
  bool Enabled = false;
  uint64_t RingPushCtr = 0;
  uint64_t SdramRefCtr = 0;
  RecoveryStats Rec;
};

} // namespace chip
} // namespace nova

#endif // CHIP_SUPERVISOR_H
