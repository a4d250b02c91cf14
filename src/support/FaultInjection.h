//===- FaultInjection.h - Deterministic solver fault injection --*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seedable fault-injection harness for the solver stack. Hooks in
/// Simplex, Basis, and MipSolver consult an armed FaultInjector and, when
/// a spec fires, force the failure modes a production compiler must
/// survive: singular bases (LU repair), eta-file drift (refactorize on
/// drift), spurious LP infeasibility (spill retry / baseline fallback),
/// branch-and-bound timeouts at chosen node counts (incumbent salvage),
/// and search stalls (watchdog deadlines).
///
/// Firing is deterministic: each spec counts *opportunities* (times its
/// hook site was reached) and fires from opportunity `After` on, at most
/// `Times` times. Tests arm
/// a plan with ScopedFaultInjection, run the pipeline, and assert both
/// the recovery rung taken and that the emitted code still runs packets
/// correctly.
///
/// The disarmed fast path is one load of a plain flag, so the hooks are
/// free in production use. No code in the project starts a thread, so
/// the registry takes no lock.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_FAULTINJECTION_H
#define SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <string>
#include <vector>

namespace nova {

enum class FaultKind : uint8_t {
  SingularBasis, ///< Basis factorization reports a fabricated deficiency
  EtaDrift,      ///< an eta-file pivot value is perturbed by Magnitude
  LpInfeasible,  ///< Simplex::solve reports Infeasible without solving
  MipTimeout,    ///< branch & bound behaves as if the time limit tripped
  WorkerStall,   ///< the branch & bound search sleeps Magnitude seconds
                 ///< once per node
  MemJitter,     ///< SRAM/SDRAM access latency inflated by up to Magnitude
                 ///< extra cycles in sim::runAllocated (timing only; never
                 ///< changes values)
  SimBitFlip,    ///< an ALU result bit is flipped in sim::runAllocated —
                 ///< a seeded "hardware" miscomputation the differential
                 ///< oracle must catch and the soak shrinker must minimize
  //===--- Chip-grade kinds (consumed by chip::Supervisor via a
  //===--- FaultSchedule, never by the global injector) ------------------===//
  CtxLockup,     ///< a hardware context stops retiring: its outstanding
                 ///< memory reference never completes, the supervisor's
                 ///< retire-progress watchdog must recover it
  RingStall,     ///< a scratch ring refuses pushes for Magnitude cycles
  ChanBrownout,  ///< the SDRAM channel's issue bandwidth degrades by a
                 ///< factor of Magnitude for a bounded window
  SdramBitFlip,  ///< post-DMA word corruption in a packet's SDRAM slot —
                 ///< invisible to the supervisor, the sampled retire-time
                 ///< oracle must catch it
  DmaDrop        ///< an RX DMA burst is lost in flight; the RX engine's
                 ///< completion count check detects it and redoes the DMA
                 ///< (bounded retries, then a typed ingress drop)
};

constexpr unsigned enumCount(FaultKind) {
  return static_cast<unsigned>(FaultKind::DmaDrop) + 1;
}
const char *faultKindName(FaultKind K);

/// Which layer a fault kind perturbs — the basis for strict CLI
/// validation: novac accepts Solver kinds, novasoak --inject-fault
/// accepts Sim kinds, and novasoak --chip --fault-schedule accepts Chip
/// kinds; everything else is a usage error, never a silent no-op.
enum class FaultDomain : uint8_t {
  Solver, ///< fires inside Simplex/Basis/MipSolver hooks
  Sim,    ///< fires inside the micro-engine runtime (both exec modes)
  Chip    ///< fires inside the whole-chip scheduler (chip::Supervisor)
};

FaultDomain faultKindDomain(FaultKind K);
const char *faultDomainName(FaultDomain D);

/// One injection rule. At most one spec per kind is active at a time
/// (arming replaces the whole plan).
struct FaultSpec {
  FaultKind Kind = FaultKind::LpInfeasible;
  /// Opportunities to let pass before the first fire (0 = fire on the
  /// first one). For MipTimeout this is "time out at node After+1".
  unsigned After = 0;
  /// Maximum number of fires; ~0u = unlimited.
  unsigned Times = ~0u;
  /// Kind-specific knob: relative pivot perturbation for EtaDrift
  /// (default 1e-3), stall seconds for WorkerStall (default 0.02).
  double Magnitude = 0.0;
};

/// Parses a CLI fault spec: `kind[@after][xTimes][~magnitude]`, e.g.
/// "mip-timeout@5", "eta-drift@100x3~1e-3". Returns false (with a
/// message) on malformed input. Kinds: singular-basis, eta-drift,
/// lp-infeasible, mip-timeout, worker-stall, mem-jitter, sim-bitflip.
bool parseFaultSpec(const std::string &Text, FaultSpec &Out,
                    std::string &Error);

/// One entry of a chip fault schedule: kind fires every `Rate`th
/// opportunity (packet for CtxLockup/SdramBitFlip/DmaDrop, channel
/// transaction for ChanBrownout, ring push for RingStall), with a
/// kind-specific magnitude. Firing is a pure function of the
/// opportunity ordinal, so a (seed, schedule) pair replays
/// bit-identically regardless of exec mode.
struct FaultScheduleEntry {
  FaultKind Kind = FaultKind::CtxLockup;
  /// Fire on every Rate-th opportunity (1 = every one). Must be >= 1.
  uint64_t Rate = 1;
  /// Kind-specific knob, 0 = kind default: wedge attempts for
  /// CtxLockup, stall cycles for RingStall, bandwidth divisor for
  /// ChanBrownout, dropped bursts for DmaDrop; unused for SdramBitFlip.
  double Magnitude = 0.0;
};

using FaultSchedule = std::vector<FaultScheduleEntry>;

/// Parses `kind@rate[~magnitude],...` (e.g.
/// "ctx-lockup@5000,chan-brownout@10000~4") into a chip fault
/// schedule. Rejects non-chip-domain kinds, rate < 1, duplicate kinds,
/// and malformed numbers — returning false with a message.
bool parseFaultSchedule(const std::string &Text, FaultSchedule &Out,
                        std::string &Error);

/// Process-wide injection registry; deterministic for a fixed plan.
/// Single-threaded, like every caller.
class FaultInjector {
public:
  static FaultInjector &instance();

  /// True when any plan is armed — the only check on hot paths.
  static bool armed() { return Armed; }

  /// Installs \p Specs as the active plan, resetting all counters.
  void arm(std::vector<FaultSpec> Specs);

  /// Removes the plan; hooks go back to the single-load fast path.
  void disarm();

  /// Resets opportunity/fire counters and draw streams while keeping the
  /// armed plan. The soak harness calls this before every packet so a
  /// spec's @after/xTimes window is counted per packet — a failing
  /// packet then reproduces stand-alone, which is what makes shrinking
  /// a divergence deterministic.
  void rearm();

  /// Records an opportunity for \p K and decides whether it fires.
  bool shouldFire(FaultKind K);

  /// Magnitude of the active spec for \p K, or \p Default when the kind
  /// is not armed / the spec left it 0.
  double magnitude(FaultKind K, double Default) const;

  /// Deterministic draw in [1, max(1, magnitude(K, Default))] from the
  /// kind's fixed-seed stream; the per-fire extra-cycle count for
  /// MemJitter.
  unsigned drawCycles(FaultKind K, double Default);

  /// Total fires of \p K since the last arm() — test observability.
  unsigned fired(FaultKind K) const;

  /// Total opportunities seen for \p K since the last arm().
  unsigned opportunities(FaultKind K) const;

private:
  FaultInjector() = default;

  struct Slot {
    FaultSpec Spec;
    bool Active = false;
    unsigned Opportunities = 0;
    unsigned Fired = 0;
    uint64_t RngState = 0;
  };

  static constexpr unsigned NumKinds = 12;
  static bool Armed;

  Slot Slots[NumKinds];
};

/// RAII plan installer for tests: arms on construction, disarms on
/// destruction (restoring the free fast path for subsequent tests).
class ScopedFaultInjection {
public:
  explicit ScopedFaultInjection(std::vector<FaultSpec> Specs) {
    FaultInjector::instance().arm(std::move(Specs));
  }
  ~ScopedFaultInjection() { FaultInjector::instance().disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection &) = delete;
  ScopedFaultInjection &operator=(const ScopedFaultInjection &) = delete;
};

} // namespace nova

#endif // SUPPORT_FAULTINJECTION_H
