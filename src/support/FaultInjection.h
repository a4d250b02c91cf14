//===- FaultInjection.h - Fault kinds and injection -------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault kinds and their one table, the two CLI spec grammars, and a
/// seedable injector. Hooks in Simplex, Basis, and MipSolver consult an
/// armed FaultInjector and, when a spec fires, force the failure modes a
/// production compiler must survive: singular bases (LU repair), eta-file
/// drift (refactorize on drift), spurious LP infeasibility (spill retry /
/// baseline fallback), branch-and-bound timeouts at chosen node counts
/// (incumbent salvage), and search stalls (watchdog deadlines).
///
/// Firing is deterministic: each spec counts *opportunities* (times its
/// hook site was reached) and fires from opportunity `After` on, at most
/// `Times` times. Tests arm a plan with ScopedFaultInjection, run the
/// pipeline, and assert both the recovery rung taken and that the
/// emitted code still runs packets correctly.
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

/// The fault kinds. faultKindInfo() holds everything else about each:
/// name, domain, and what its magnitude means, accepts and defaults to.
enum class FaultKind : uint8_t {
  SingularBasis, ///< Basis factorization reports a fabricated deficiency
  EtaDrift,      ///< an eta-file pivot value is perturbed
  LpInfeasible,  ///< Simplex::solve reports Infeasible without solving
  MipTimeout,    ///< branch & bound behaves as if the time limit tripped
  WorkerStall,   ///< the branch & bound search sleeps once per node
  MemJitter,     ///< SRAM/SDRAM latency noise (timing only, never values)
  SimBitFlip,    ///< an ALU result bit flips; the oracle must catch it
  CtxLockup,     ///< a context's memory completion is lost; the
                 ///< supervisor's retire-progress watchdog recovers it
  RingStall,     ///< a scratch ring refuses pushes for a window
  ChanBrownout,  ///< the SDRAM issue interval degrades for a window
  SdramBitFlip,  ///< post-DMA word corruption the supervisor cannot see;
                 ///< the sampled retire-time oracle must catch it
  DmaDrop        ///< an RX DMA burst is lost; RX redoes it (bounded
                 ///< retries, then a typed ingress drop)
};

constexpr unsigned enumCount(FaultKind) {
  return static_cast<unsigned>(FaultKind::DmaDrop) + 1;
}
constexpr unsigned NumFaultKinds = enumCount(FaultKind{});

/// Which layer a fault kind perturbs, and so which front door arms it:
/// novac --inject-fault takes Solver kinds, novasoak --inject-fault Sim
/// kinds, and a --fault-schedule (novasoak --chip, chip_scaling) Chip
/// kinds. Any other kind is a usage error there, never a silent no-op.
enum class FaultDomain : uint8_t {
  Solver, ///< fires inside Simplex/Basis/MipSolver hooks
  Sim,    ///< fires inside the micro-engine runtime (both exec modes)
  Chip    ///< fires inside the whole-chip scheduler (chip::Supervisor)
};

const char *faultDomainName(FaultDomain D);

/// How a kind reads its `~magnitude`.
enum class FaultMagnitude : uint8_t {
  None,    ///< the kind has no magnitude; `~` is a usage error
  Integer, ///< a whole count or number of cycles
  Real     ///< a finite real
};

/// Everything the code knows about one fault kind; faultKindInfo() is
/// the one table of these. A magnitude of 0 in a FaultSpec or schedule
/// entry means Default; any other must lie in [Min, Max] (and be whole
/// for an Integer kind). The bounds keep every use finite: no stall can
/// hang a tool, and the chip's products (issue interval x brownout
/// factor, time + stall cycles) stay far inside 64 bits.
struct FaultKindInfo {
  const char *Name;   ///< CLI spelling
  FaultDomain Domain;
  FaultMagnitude Mag;
  double Min, Max;    ///< accepted magnitudes (0 and 0 for None)
  double Default;     ///< the magnitude of a spec that leaves it 0
  const char *Means;  ///< what the magnitude measures (usage text)
};

const FaultKindInfo &faultKindInfo(FaultKind K);
inline const char *faultKindName(FaultKind K) { return faultKindInfo(K).Name; }
inline FaultDomain faultKindDomain(FaultKind K) {
  return faultKindInfo(K).Domain;
}

/// True when \p M is 0 (the kind's default) or an accepted magnitude.
bool faultMagnitudeValid(FaultKind K, double M);

/// "an integer in 1..1024 (default 1)", "a real in [1e-09, 1] (default
/// 0.001)" or "no magnitude": \p K's accepted magnitudes, as error
/// messages and usage texts print them.
std::string faultMagnitudeRange(FaultKind K);

/// Usage text for the kinds of domain \p D: one line per kind, its name
/// and what its `~magnitude` accepts, each line starting with \p Indent.
std::string faultKindUsage(FaultDomain D, const char *Indent);

/// One injection rule. At most one spec per kind is active at a time
/// (arming replaces the whole plan).
struct FaultSpec {
  FaultKind Kind = FaultKind::LpInfeasible;
  /// Opportunities to let pass before the first fire (0 = fire on the
  /// first one). For MipTimeout this is "time out at node After+1".
  unsigned After = 0;
  /// Maximum number of fires; ~0u = unlimited.
  unsigned Times = ~0u;
  /// Kind-specific knob (see faultKindInfo); 0 = the kind's default.
  double Magnitude = 0.0;
};

/// Parses a CLI fault spec: `kind[@after][xTimes][~magnitude]`, e.g.
/// "mip-timeout@5", "eta-drift@100x3~1e-3". The kind must belong to
/// \p Domain (the caller's front door); after and times are 32-bit
/// counts, and the magnitude must be one faultKindInfo accepts. Returns
/// false with a message naming the kind and its accepted range.
bool parseFaultSpec(const std::string &Text, FaultDomain Domain,
                    FaultSpec &Out, std::string &Error);

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
  /// Kind-specific knob (see faultKindInfo); 0 = the kind's default.
  double Magnitude = 0.0;
};

using FaultSchedule = std::vector<FaultScheduleEntry>;

/// Parses `kind@rate[~magnitude],...` (e.g.
/// "ctx-lockup@5000,chan-brownout@10000~4") into a chip fault
/// schedule. Rejects non-chip kinds, a rate that is not a 64-bit integer
/// >= 1, duplicate kinds, and magnitudes faultKindInfo does not accept,
/// returning false with a message.
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

  /// Magnitude of the active spec for \p K, or the kind's default when
  /// it is not armed or the spec left it 0.
  double magnitude(FaultKind K) const;

  /// Deterministic draw in [1, magnitude(K)] from the kind's fixed-seed
  /// stream; the per-fire extra-cycle count for MemJitter.
  unsigned drawCycles(FaultKind K);

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

  static bool Armed;

  Slot Slots[NumFaultKinds];
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
