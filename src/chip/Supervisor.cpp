//===- Supervisor.cpp - Chip fault model + self-healing policy ------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "chip/Supervisor.h"

#include "chip/Ring.h"

#include <algorithm>
#include <cassert>

using namespace nova;
using namespace nova::chip;

/// SplitMix64 finalizer: the same mixing the FaultInjector's seeded
/// streams use, applied statelessly so per-packet draws are pure in Seq.
static uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

Supervisor::Supervisor(const FaultSchedule &Sched, const SupervisorConfig &C)
    : Cfg(C) {
  for (unsigned K = 0; K != NumFaultKinds; ++K)
    Entries[K].Magnitude =
        static_cast<uint64_t>(faultKindInfo(static_cast<FaultKind>(K)).Default);
  for (const FaultScheduleEntry &E : Sched) {
    assert(faultMagnitudeValid(E.Kind, E.Magnitude) &&
           "ChipParams::validate admits only table magnitudes");
    Entry &Slot = Entries[static_cast<unsigned>(E.Kind)];
    Slot.Armed = true;
    Slot.Rate = E.Rate;
    if (E.Magnitude != 0.0)
      Slot.Magnitude = static_cast<uint64_t>(E.Magnitude);
    Enabled = true;
  }
}

Supervisor::PacketPlan Supervisor::planPacket(uint64_t Seq) const {
  PacketPlan Plan;
  const Entry &Lock = entry(FaultKind::CtxLockup);
  if (Lock.Armed && (Seq + 1) % Lock.Rate == 0)
    Plan.LockupAttempts = static_cast<unsigned>(Lock.Magnitude);
  const Entry &Dma = entry(FaultKind::DmaDrop);
  if (Dma.Armed && (Seq + 1) % Dma.Rate == 0)
    Plan.DmaFailures = static_cast<unsigned>(Dma.Magnitude);
  const Entry &Flip = entry(FaultKind::SdramBitFlip);
  if (Flip.Armed && (Seq + 1) % Flip.Rate == 0)
    Plan.SdramFlip = true;
  return Plan;
}

uint32_t Supervisor::flipWordIndex(uint64_t Seq, uint32_t NumWords) {
  if (NumWords == 0)
    return 0;
  return static_cast<uint32_t>(mix(Seq * 2 + 1) % NumWords);
}

uint32_t Supervisor::flipBit(uint64_t Seq) {
  return static_cast<uint32_t>(mix(Seq * 2 + 2) & 31);
}

uint64_t Supervisor::ringStallCycles() {
  const Entry &E = entry(FaultKind::RingStall);
  if (!E.Armed)
    return 0;
  if (++RingPushCtr % E.Rate != 0)
    return 0;
  return E.Magnitude;
}

unsigned Supervisor::brownoutFactor() {
  const Entry &E = entry(FaultKind::ChanBrownout);
  if (!E.Armed)
    return 0;
  if (++SdramRefCtr % E.Rate != 0)
    return 0;
  return brownoutMultiplier();
}

unsigned Supervisor::brownoutMultiplier() const {
  const Entry &E = entry(FaultKind::ChanBrownout);
  if (!E.Armed)
    return 0;
  return static_cast<unsigned>(E.Magnitude);
}

uint64_t Supervisor::maxDelay() const {
  return std::max({Cfg.WatchdogPeriod, backoff(Cfg.MaxRetries + 1),
                   Cfg.BrownoutWindow, entry(FaultKind::RingStall).Magnitude});
}

namespace {

template <class Ar, class Self> void recoveryFields(Ar &A, Self &S) {
  io(A, S.LockupsInjected, S.LockupsDetected, S.CtxResets, S.PacketRequeues,
     S.PacketsWedged, S.PacketsRecovered, S.LockupDrops, S.MaxBackoffCycles,
     S.BackpressureDrops, S.RingStallsInjected, S.RingStallCycles,
     S.BrownoutsInjected, S.BrownoutCycles, S.DmaFaultsInjected,
     S.DmaRetries, S.DmaFaultPackets, S.DmaRecoveredPackets,
     S.DmaDropPackets, S.SdramBitFlipsInjected);
}

/// A third archive over the same list: folds each counter into a trace
/// hash, so the digest covers exactly the checkpointed fields.
struct Folder {
  uint64_t H = 0xcbf29ce484222325ull;
};
void io(Folder &F, uint64_t V) { F.H = traceFold(F.H, V); }

} // namespace

uint64_t RecoveryStats::fold() const {
  Folder F;
  recoveryFields(F, *this);
  return F.H;
}

void RecoveryStats::saveState(BinWriter &W) const { recoveryFields(W, *this); }
void RecoveryStats::restoreState(BinReader &R) { recoveryFields(R, *this); }

template <class Ar, class Self> void Supervisor::fields(Ar &A, Self &S) {
  io(A, S.RingPushCtr, S.SdramRefCtr, S.Rec);
}

void Supervisor::saveState(BinWriter &W) const { fields(W, *this); }
void Supervisor::restoreState(BinReader &R) { fields(R, *this); }
