//===- Chip.cpp - Whole-chip discrete-event simulation --------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Event-driven kernel. Everything runs on one OS thread off an event
// queue that pops in (time, insertion order) — a timing wheel, O(1) per
// event (chip/EventQueue.h) — so a run is a deterministic function of
// (params, programs, base memory, packet stream). The moving parts:
//
//   RX agent      pulls packets from the source, allocates an SDRAM slot,
//                 scrubs it, rebases pointer args into it, DMAs the packet
//                 image (SDRAM issue slots), and pushes a descriptor into
//                 the target ME's input ring (round-robin by sequence).
//   HwCtx         one hardware context: pops a descriptor (scratch txn),
//                 executes via sim::AllocContext — the ME swaps it out at
//                 every memory reference and serves its ready queue FIFO —
//                 then pushes the completion into the shared TX ring.
//   TX agent      drains the TX ring (scratch txns), reorders completions
//                 into arrival order, retires them, and frees slots.
//
// Blocking discipline: rings change state at event time; the issuer pays
// the scratch transaction afterward. A parked party (consumer on empty
// ring, producer on full ring, RX on slots or full rings) is woken by
// scheduling a retry event that re-checks — wakeups can be consumed by a
// faster party, but every state change wakes someone, so nothing is
// lost. Hostile packets whose pointers cannot be rebased into a slot
// run quarantined on a private copy of the pristine base image, so they
// contend for time but are data-isolated and never serialize the chip.
//
//===----------------------------------------------------------------------===//

#include "chip/Chip.h"

#include "chip/EventQueue.h"
#include "fastpath/Segment.h"
#include "sim/ExecContext.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <set>

using namespace nova;
using namespace nova::chip;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

static Status configError(std::string Msg) {
  return Status::error(StatusCode::InvalidArgument, Phase::Driver,
                       std::move(Msg));
}

Status ChipParams::validate() const {
  if (MP.MeCount < 1 || MP.MeCount > 8)
    return configError(
        formatf("me-count %u out of range 1..8", MP.MeCount));
  if (MP.ContextsPerMe < 1 || MP.ContextsPerMe > 8)
    return configError(
        formatf("contexts %u out of range 1..8", MP.ContextsPerMe));
  if (RingDepth < 1 || RingDepth > 64)
    return configError(
        formatf("ring-depth %u out of range 1..64", RingDepth));
  if (Budget == 0)
    return configError("per-packet budget must be positive");
  if (SlotStride < (1u << 16))
    return configError(
        formatf("slot stride 0x%x below minimum 0x10000", SlotStride));
  if (!(MP.ClockHz > 0))
    return configError("clock must be positive");
  for (const FaultScheduleEntry &E : Faults) {
    const FaultKindInfo &K = faultKindInfo(E.Kind);
    if (K.Domain != FaultDomain::Chip)
      return configError(
          formatf("fault kind '%s' is not chip-domain", K.Name));
    if (E.Rate < 1)
      return configError(formatf("fault rate for '%s' must be >= 1", K.Name));
    if (!faultMagnitudeValid(E.Kind, E.Magnitude))
      return configError(formatf("fault magnitude %g for '%s' is not %s",
                                 E.Magnitude, K.Name,
                                 faultMagnitudeRange(E.Kind).c_str()));
  }
  if (!Faults.empty() &&
      (Sup.WatchdogPeriod == 0 || Sup.LockupThreshold == 0 ||
       Sup.BackoffBase == 0 || Sup.BackpressureThreshold == 0 ||
       Sup.BrownoutWindow == 0))
    return configError("supervisor thresholds must be positive");
  return Status();
}

Status chip::validateChipSetup(const ChipParams &P,
                               const alloc::AllocatedProgram &Prog,
                               const sim::MemLimits &Limits) {
  if (Status S = P.validate(); !S.ok())
    return S;
  if (P.SlotStride > Limits.SdramWords)
    return configError(
        formatf("slot stride 0x%x exceeds SDRAM limit 0x%x", P.SlotStride,
                Limits.SdramWords));
  // Each hardware context gets a private copy of the program's spill
  // window in shared scratch; all of them must fit under the limit.
  uint64_t Step = std::max<uint64_t>(64, Prog.NumSpillSlots);
  uint64_t Total = P.MP.totalContexts();
  uint64_t End = Prog.SpillBase + (Total - 1) * Step + Prog.NumSpillSlots;
  if (End > Limits.ScratchWords)
    return configError(
        formatf("%llu spill windows of %llu words from 0x%x overflow the "
                "scratch limit 0x%x",
                (unsigned long long)Total, (unsigned long long)Step,
                Prog.SpillBase, Limits.ScratchWords));
  return Status();
}

//===----------------------------------------------------------------------===//
// Impl state
//===----------------------------------------------------------------------===//

namespace {

/// A memory channel: finite issue bandwidth (one transaction accepted
/// every IssueInterval cycles), pipelined latency. Queue delay beyond
/// the caller's issue time is recorded as contention stall.
struct Channel {
  unsigned IssueInterval = 1;
  unsigned Latency = 1;
  uint64_t FreeAt = 0;
  ChannelStats St;

  /// Full transaction: returns data-completion time.
  uint64_t submit(uint64_t Now) {
    uint64_t Start = std::max(Now, FreeAt);
    St.StallCycles += Start - Now;
    ++St.Transactions;
    FreeAt = Start + IssueInterval;
    return Start + Latency;
  }

  /// Issue-slot-only transaction (RX DMA streaming: the FIFO engine does
  /// not wait for data return). Returns when the channel accepted it.
  uint64_t submitIssueOnly(uint64_t Now) {
    uint64_t Start = std::max(Now, FreeAt);
    St.StallCycles += Start - Now;
    ++St.Transactions;
    FreeAt = Start + IssueInterval;
    return FreeAt;
  }
};

/// Where a context is in its packet loop (each context has at most one
/// outstanding event, so the phase disambiguates CtxResume).
enum class CtxPh : uint8_t {
  ParkedRing, ///< waiting for its ME's input ring to become nonempty
  PopWait,    ///< input-ring pop scratch transaction in flight
  StartReady, ///< in the ME ready queue, packet not yet started
  RunReady,   ///< in the ME ready queue mid-packet
  MemWait,    ///< swapped out on a memory reference
  PushWait,   ///< TX-ring push scratch transaction in flight
  ParkedTx,   ///< waiting for TX-ring space
  RetryPop,   ///< woken to re-attempt an input-ring pop
  RetryPush,  ///< woken to re-attempt a TX-ring push
  Wedged,     ///< ctx-lockup: the memory completion was lost; only the
              ///< supervisor watchdog can move the context again
  RestartWait ///< aborted by the supervisor; CtxRestart pending (backoff)
};
constexpr unsigned enumCount(CtxPh) {
  return static_cast<unsigned>(CtxPh::RestartWait) + 1;
}

/// Where a context in each phase waits (CtxPh order): the one queue
/// entry or pending event that moves it next. A wedged context waits
/// for the supervisor's scan, which finds it by phase.
enum class CtxWait : uint8_t { None, Ready, Consumer, TxProducer, Resume,
                               Restart };
constexpr CtxWait WaitOf[] = {
    CtxWait::Consumer,   // ParkedRing
    CtxWait::Resume,     // PopWait
    CtxWait::Ready,      // StartReady
    CtxWait::Ready,      // RunReady
    CtxWait::Resume,     // MemWait
    CtxWait::Resume,     // PushWait
    CtxWait::TxProducer, // ParkedTx
    CtxWait::Resume,     // RetryPop
    CtxWait::Resume,     // RetryPush
    CtxWait::None,       // Wedged
    CtxWait::Restart};   // RestartWait
static_assert(std::size(WaitOf) == enumCount(CtxPh{}));

/// True when a context in phase \p Ph owns its packet: between popping
/// the descriptor and handing it to the TX ring.
bool holdsPacket(CtxPh Ph) {
  return Ph != CtxPh::ParkedRing && Ph != CtxPh::RetryPop &&
         Ph != CtxPh::PushWait;
}

struct InFlightRec;

/// One hardware context: either a resumable interpreter or a resumable
/// fast-path segment executor, behind the same yield contract. Which one
/// is live is a chip-wide choice (ChipParams::Exec), so a plain bool
/// dispatch keeps the event handlers identical for both models.
struct HwCtx {
  sim::AllocContext Exec;
  fastpath::SegmentContext Seg;
  bool Threaded = false;
  CtxPh Ph = CtxPh::ParkedRing;
  uint64_t CurSeq = 0;
  /// CurSeq's in-flight record, resolved once when the context pops the
  /// descriptor (std::map nodes stay put until TX pops the packet).
  InFlightRec *Rec = nullptr;
  uint64_t WedgeTime = 0; ///< when the lost completion was issued

  void reset(const std::vector<uint32_t> &Args) {
    Threaded ? Seg.reset(Args) : Exec.reset(Args);
  }
  void abort() { Threaded ? Seg.abort() : Exec.abort(); }
  bool done() const { return Threaded ? Seg.done() : Exec.done(); }
  sim::AllocContext::Yield resume(sim::Memory &Mem,
                                  const sim::RunOptions &Opts) {
    return Threaded ? Seg.resume(Mem, Opts) : Exec.resume(Mem, Opts);
  }
  void charge(uint64_t Cycles) {
    Threaded ? Seg.charge(Cycles) : Exec.charge(Cycles);
  }
  sim::RunResult takeResult() {
    return Threaded ? Seg.takeResult() : Exec.takeResult();
  }
};

/// An ME's run event held outside the event queue (see
/// Impl::holdOrSchedRun). It owns its (Time, Order) like any scheduled
/// event; Live until it is released into the queue or expires.
struct HeldRun {
  uint64_t Time = 0, Order = 0;
  bool Live = false;
};

struct MeState {
  uint64_t FreeAt = 0;
  uint64_t Busy = 0;
  std::deque<unsigned> Ready;
  std::vector<HwCtx> Ctx;
  HeldRun Held;
};

struct InFlightRec {
  ChipPacket Pkt;
  std::vector<uint32_t> RebasedArgs;
  sim::RunResult Result;
  unsigned Me = 0, Ctx = 0;
  bool Tail = false;
  uint32_t SlotIdx = 0;
  uint32_t SlotBase = 0;
  uint64_t DispatchTime = 0;
  uint64_t CompleteTime = 0;
  /// Quarantine image for a tail packet: a private copy of the pristine
  /// base memory. Null for slotted packets (they run on shared memory).
  std::unique_ptr<sim::Memory> PrivMem;
  // Fault-injection state (all inert when no schedule is armed).
  unsigned Attempts = 1;        ///< execution attempts started
  unsigned PlannedLockups = 0;  ///< attempts fated to wedge
  bool SdramFlip = false;       ///< corrupt one slot word after DMA
  bool Wedged = false;          ///< wedged at least once
  DropReason Drop = DropReason::None;
};

enum class RxPh : uint8_t { Dispatch, Push };
enum class RxWait : uint8_t { None, Slot, RingFull };
constexpr unsigned enumCount(RxPh) { return unsigned(RxPh::Push) + 1; }
constexpr unsigned enumCount(RxWait) { return unsigned(RxWait::RingFull) + 1; }

//===----------------------------------------------------------------------===//
// Checkpoint field lists (support/BinIO.h)
//===----------------------------------------------------------------------===//

template <class Ar, class Self> void channelFields(Ar &A, Self &C) {
  io(A, C.IssueInterval, C.Latency, C.FreeAt, C.St.Transactions,
     C.St.StallCycles);
}

template <class Ar, class Self> void packetFields(Ar &A, Self &Pk) {
  io(A, Pk.Seq, Pk.Words, Pk.Args, Pk.PtrArgMask, Pk.PayloadBytes,
     Pk.ClassTag, Pk.SeedTag);
}

template <class Ar, class Self> void recFields(Ar &A, Self &Rec) {
  packetFields(A, Rec.Pkt);
  io(A, Rec.RebasedArgs, Rec.Result, Rec.Me, Rec.Ctx, Rec.Tail, Rec.SlotIdx,
     Rec.SlotBase, Rec.DispatchTime, Rec.CompleteTime, Rec.PrivMem,
     Rec.Attempts, Rec.PlannedLockups, Rec.SdramFlip, Rec.Wedged, Rec.Drop);
}

} // namespace

struct Chip::Impl {
  ChipParams P;
  std::vector<const alloc::AllocatedProgram *> Progs;
  /// Each unique program decoded (interp mode) or translated (threaded
  /// mode) once, shared by every context that runs it (the maps keep
  /// addresses stable).
  std::map<const alloc::AllocatedProgram *, sim::Decoded> Codes;
  std::map<const alloc::AllocatedProgram *, fastpath::Translated> Trans;
  sim::Memory Mem;
  /// Pristine copy of the base image; quarantined tail packets run on a
  /// private copy of this (never of the live, packet-dirtied Mem).
  sim::Memory BaseImage;
  sim::RunOptions Opts;

  Channel SramCh, SdramCh, ScratchCh;
  std::vector<MeState> Mes;
  std::vector<Ring> In;                         ///< per-ME input ring
  std::vector<std::deque<unsigned>> Consumers;  ///< per-ME parked contexts
  Ring Tx;
  bool TxIdle = true;
  std::deque<std::pair<unsigned, unsigned>> TxProducers;

  std::map<uint64_t, InFlightRec> InFlight;
  std::map<uint64_t, InFlightRec> Reorder;
  uint64_t NextRetire = 0;
  uint64_t NextDispatch = 0;
  std::set<uint32_t> FreeSlots;
  uint32_t NumSlots = 0; ///< SDRAM slot pool size
  uint64_t InFlightCount = 0;

  // RX agent
  RxPh RxPhase = RxPh::Dispatch;
  RxWait RxWaiting = RxWait::None;
  bool RxDone = false, RxHave = false;
  bool RxPktTail = false;
  ChipPacket RxPkt;
  uint64_t RxPendSeq = 0;
  unsigned RxTarget = 0;
  uint64_t RxGen = 0;

  // Fault model + recovery policy (inert when the schedule is empty).
  Supervisor Sup;
  uint32_t SpillStep = 64;       ///< per-context spill window stride
  unsigned SdramBaseInterval = 1; ///< pristine issue interval (brownouts)
  bool BrownoutActive = false;
  bool RxStuck = false;          ///< parked on uniformly-full rings
  uint64_t RxStuckSince = 0;

  EventQueue Q;
  uint64_t OrderCtr = 0;
  uint64_t LastTime = 0;
  bool Ran = false;

  /// The (Time, Order) of the event being processed.
  uint64_t CurTime = 0, CurOrder = 0;

  const Source *Src = nullptr;
  const RetireFn *Retire = nullptr;

  // Checkpoint plumbing: the retire hook fires between events whenever
  // PacketsRetired advanced; Restored makes runAll continue a restored
  // event stream instead of scheduling the initial RX/supervisor events.
  RetireHook Hook;
  uint64_t LastHookRetired = 0;
  bool Restored = false;
  bool Stopped = false;

  ChipRunStats St;
  uint64_t RetireFold = 0xcbf29ce484222325ull;

  Impl(const ChipParams &Params,
       std::vector<const alloc::AllocatedProgram *> Programs,
       sim::Memory Base)
      : P(Params), Progs(std::move(Programs)), Mem(std::move(Base)),
        BaseImage(Mem), Tx(Params.RingDepth) {
    assert(P.validate().ok() && "invalid ChipParams (see validateChipSetup)");
    assert(Progs.size() == P.MP.MeCount && "one program per processing ME");
    Opts.Lat = P.latency();
    Opts.MaxInstructions = P.Budget;

    SramCh = {P.MP.SramIssueInterval, P.MP.SramAccessCycles, 0, {}};
    SdramCh = {P.MP.SdramIssueInterval, P.MP.SdramAccessCycles, 0, {}};
    ScratchCh = {P.MP.ScratchIssueInterval, P.MP.ScratchAccessCycles, 0, {}};

    Sup = Supervisor(P.Faults, P.Sup);
    SdramBaseInterval = P.MP.SdramIssueInterval;

    // Every context gets a disjoint spill window; one step for the whole
    // chip keeps the geometry independent of which ME runs which program.
    uint32_t Step = 64;
    for (const alloc::AllocatedProgram *Pr : Progs)
      Step = std::max<uint32_t>(Step, Pr->NumSpillSlots);
    SpillStep = Step;

    for (const alloc::AllocatedProgram *Pr : Progs) {
      if (P.Exec == sim::ExecMode::Threaded) {
        if (!Trans.count(Pr))
          Trans.emplace(Pr, fastpath::translate(*Pr, Opts.Lat));
      } else if (!Codes.count(Pr)) {
        Codes.emplace(Pr, sim::decode(*Pr));
      }
    }

    Mes.resize(P.MP.MeCount);
    Consumers.resize(P.MP.MeCount);
    for (unsigned M = 0; M != P.MP.MeCount; ++M) {
      In.emplace_back(P.RingDepth);
      Mes[M].Ctx.resize(P.MP.ContextsPerMe);
      for (unsigned C = 0; C != P.MP.ContextsPerMe; ++C) {
        HwCtx &Cx = Mes[M].Ctx[C];
        uint32_t Rebase = (M * P.MP.ContextsPerMe + C) * Step;
        if (P.Exec == sim::ExecMode::Threaded) {
          Cx.Threaded = true;
          Cx.Seg.setProgram(&Trans.at(Progs[M]));
          Cx.Seg.setSpillRebase(Rebase);
        } else {
          Cx.Exec.setProgram(&Codes.at(Progs[M]));
          Cx.Exec.setSpillRebase(Rebase);
        }
        Consumers[M].push_back(C); // all contexts start parked, in order
      }
    }

    // In-flight slots: the window of packets that can be in the chip at
    // once. Slots recycle at TX pop, so the pool needs to cover the
    // contexts plus the queued descriptors, with headroom for completed
    // packets waiting in the reorder buffer behind a slow head.
    uint32_t ByMem = Mem.Limits.SdramWords / P.SlotStride;
    uint32_t Wanted =
        4 * P.MP.MeCount * (P.MP.ContextsPerMe + P.RingDepth) + 64;
    NumSlots = std::max(1u, std::min(ByMem, Wanted));
    for (uint32_t S = 0; S != NumSlots; ++S)
      FreeSlots.insert(S);

    St.MeBusyCycles.assign(P.MP.MeCount, 0);
    St.CtxPackets.assign(P.MP.MeCount,
                         std::vector<uint64_t>(P.MP.ContextsPerMe, 0));
  }

  void sched(uint64_t T, Ev K, unsigned Me = 0, unsigned Ctx = 0,
             uint64_t A = 0) {
    Q.push(T, ++OrderCtr, K, Me, Ctx, A);
    ++St.QueuePushes;
  }

  //===--- Held ME runs ----------------------------------------------------===//
  //
  // A run event that finds its ME busy or its ready queue empty does
  // nothing. The run an ME schedules for the end of its own burst is
  // such a no-op unless a context becomes ready first: when the ready
  // queue is empty at the burst, and only ctxReady can fill it. So that
  // run is held beside the queue instead of entering it, with its Order
  // taken as if it had. If ctxReady comes for the ME while the held run
  // is still ahead of the event being processed, the run goes into the
  // queue at its own (Time, Order) and pops exactly where it always
  // would have; otherwise the kernel has already passed it, and it
  // expires as the no-op pop it stands for. The (Time, Order) sequence
  // of events — and every snapshot byte, which lists pending held runs
  // among the events — is the one a kernel that queued every run has.

  bool ahead(const HeldRun &H) const {
    return H.Time > CurTime || (H.Time == CurTime && H.Order > CurOrder);
  }

  /// Counts a passed held run as the no-op MeRun pop it stands for.
  void expire(HeldRun &H) {
    ++St.EventsByKind[static_cast<unsigned>(Ev::MeRun)];
    ++St.NoopMeRuns;
    LastTime = std::max(LastTime, H.Time);
    H.Live = false;
  }

  /// Expires every held run the kernel has passed (all of them once the
  /// queue has drained), so the counters, LastTime and saveState's
  /// pending list see the queue a kernel without held runs would hold.
  void expirePassed(bool All) {
    for (MeState &M : Mes)
      if (M.Held.Live && (All || !ahead(M.Held)))
        expire(M.Held);
  }

  /// Schedules ME \p Me 's next run at \p T (the end of its burst, when
  /// the engine frees up), held while no context is ready to use it.
  void holdOrSchedRun(unsigned Me, uint64_t T) {
    if (!Mes[Me].Ready.empty()) {
      sched(T, Ev::MeRun, Me);
      return;
    }
    // A run that does work needs a ready context, and ctxReady settles
    // the ME's held run before it makes one ready.
    assert(!Mes[Me].Held.Live && "ME ran with a run still held");
    Mes[Me].Held = {T, ++OrderCtr, true};
  }

  Channel &chan(MemSpace S) {
    switch (S) {
    case MemSpace::Sram:    return SramCh;
    case MemSpace::Sdram:   return SdramCh;
    case MemSpace::Scratch: return ScratchCh;
    }
    assert(false && "invalid MemSpace reached the channel model");
    return SramCh;
  }

  void scrubSdram(uint32_t Lo, uint64_t Hi) { Mem.Sdram.eraseRange(Lo, Hi); }

  //===--- RX agent --------------------------------------------------------===//

  void schedRx(uint64_t T) { sched(T, Ev::RxStep, 0, 0, ++RxGen); }

  bool pktNeedsTail(const ChipPacket &Pk) const {
    for (unsigned I = 0; I != Pk.Args.size() && I < 32; ++I)
      if ((Pk.PtrArgMask >> I) & 1 && Pk.Args[I] >= P.SlotStride)
        return true;
    return false;
  }

  void rxStep(uint64_t T, uint64_t Gen) {
    if (Gen != RxGen || RxDone)
      return; // stale wakeup
    if (RxPhase == RxPh::Dispatch)
      rxDispatch(T);
    else
      rxPush(T);
  }

  void rxDispatch(uint64_t T) {
    if (!RxHave) {
      ChipPacket Pk;
      if (!(*Src)(Pk)) {
        RxDone = true;
        return;
      }
      assert(Pk.Seq == NextDispatch && "packet Seq must be 0,1,2,...");
      ++NextDispatch;
      RxPkt = std::move(Pk);
      RxHave = true;
      RxPktTail = pktNeedsTail(RxPkt);
    }
    InFlightRec Rec;
    if (RxPktTail) {
      // Quarantine: pointers we cannot rebase run at their original
      // addresses on a private copy of the pristine base image. The
      // packet contends for channels and contexts like any other but is
      // data-isolated by construction, so it neither drains the chip
      // nor consumes an SDRAM slot.
      Rec.Tail = true;
      Rec.SlotIdx = 0;
      Rec.SlotBase = 0;
      Rec.PrivMem = std::make_unique<sim::Memory>(BaseImage);
      Rec.RebasedArgs = RxPkt.Args;
      ++St.TailPackets;
    } else {
      if (FreeSlots.empty()) {
        RxWaiting = RxWait::Slot;
        return;
      }
      Rec.SlotIdx = *FreeSlots.begin();
      FreeSlots.erase(FreeSlots.begin());
      Rec.SlotBase = Rec.SlotIdx * P.SlotStride;
      scrubSdram(Rec.SlotBase, uint64_t(Rec.SlotBase) + P.SlotStride);
      Rec.RebasedArgs = RxPkt.Args;
      for (unsigned I = 0; I != Rec.RebasedArgs.size() && I < 32; ++I)
        if ((RxPkt.PtrArgMask >> I) & 1)
          Rec.RebasedArgs[I] += Rec.SlotBase;
    }

    Rec.DispatchTime = T;
    RxPendSeq = RxPkt.Seq;
    Rec.Pkt = std::move(RxPkt);

    // Per-packet fault plan: pure in Seq, so a divergence replayed
    // standalone sees the same corruption.
    bool DmaLost = false;
    if (Sup.enabled()) {
      Supervisor::PacketPlan Plan = Sup.planPacket(Rec.Pkt.Seq);
      Rec.PlannedLockups = Plan.LockupAttempts;
      Rec.SdramFlip = Plan.SdramFlip;
      DmaLost = !rxDma(Rec, T, Plan.DmaFailures);
    } else {
      (void)rxDma(Rec, T, 0);
    }
    uint64_t Td = RxDmaEnd;

    if (DmaLost) {
      // The packet image never made it into memory: a typed ingress
      // drop, retired in arrival order like every other packet.
      if (!Rec.Tail)
        FreeSlots.insert(Rec.SlotIdx);
      Rec.PrivMem.reset();
      Rec.Drop = DropReason::DmaDrop;
      Rec.Result = sim::RunResult();
      Rec.Result.Ok = false;
      Rec.CompleteTime = Td;
      ++St.PacketsDispatched;
      ++Sup.stats().DmaDropPackets;
      Reorder.emplace(Rec.Pkt.Seq, std::move(Rec));
      St.ReorderHighWater = std::max(
          St.ReorderHighWater, static_cast<unsigned>(Reorder.size()));
      drainReorder(Td);
      RxHave = false;
      RxPhase = RxPh::Dispatch;
      schedRx(Td);
      return;
    }

    InFlight.emplace(RxPendSeq, std::move(Rec));
    ++InFlightCount;
    ++St.PacketsDispatched;

    RxPhase = RxPh::Push;
    schedRx(Td);
  }

  /// One DMA burst set's issue-slot cost (the FIFO engine streams — no
  /// latency wait — but contends for SDRAM issue bandwidth).
  uint64_t chargeDmaBursts(size_t NumWords, uint64_t T) {
    unsigned Bursts = (static_cast<unsigned>(NumWords) + 7) / 8;
    uint64_t Td = T;
    for (unsigned I = 0; I != Bursts; ++I)
      Td = SdramCh.submitIssueOnly(Td);
    St.RxDmaTransactions += Bursts;
    return Td;
  }

  /// DMA completion time of the last rxDma/restart transfer.
  uint64_t RxDmaEnd = 0;

  /// DMAs the packet image into its slot (or private image), surviving
  /// \p Failures silently-lost attempts via the RX engine's completion
  /// count check: each lost burst set is re-issued, up to DmaRetryLimit
  /// redos. Returns false when the image is lost for good. Applies the
  /// packet's planned SdramBitFlip after a successful transfer (the
  /// corruption happens on the wire, every time the data moves).
  bool rxDma(InFlightRec &Rec, uint64_t T, unsigned Failures) {
    uint64_t Td = T;
    RxDmaEnd = T;
    if (Rec.Pkt.Words.empty() || Rec.RebasedArgs.empty())
      return true; // nothing to transfer; nothing can be lost
    RecoveryStats &RS = Sup.stats();
    if (Failures) {
      ++RS.DmaFaultPackets;
      RS.DmaFaultsInjected += Failures;
    }
    unsigned MaxAttempts = Sup.config().DmaRetryLimit + 1;
    for (unsigned A = 1; A <= Failures; ++A) {
      // Lost in flight: the engine streamed the burst set (issue slots
      // burned) but the data vanished; the completion check notices.
      Td = chargeDmaBursts(Rec.Pkt.Words.size(), Td);
      if (A == MaxAttempts) {
        RxDmaEnd = Td;
        return false;
      }
      ++RS.DmaRetries;
    }
    Td = chargeDmaBursts(Rec.Pkt.Words.size(), Td);
    sim::Memory &DM = Rec.PrivMem ? *Rec.PrivMem : Mem;
    uint32_t Base = Rec.RebasedArgs[0];
    for (uint32_t I = 0; I != Rec.Pkt.Words.size(); ++I)
      DM.Sdram[Base + I] = Rec.Pkt.Words[I]; // mirrors apps::storePacket
    if (Rec.SdramFlip) {
      uint32_t NumWords = static_cast<uint32_t>(Rec.Pkt.Words.size());
      uint32_t W = Supervisor::flipWordIndex(Rec.Pkt.Seq, NumWords);
      uint32_t B = Supervisor::flipBit(Rec.Pkt.Seq);
      DM.Sdram[Base + W] = Rec.Pkt.Words[W] ^ (1u << B);
      ++RS.SdramBitFlipsInjected;
    }
    if (Failures)
      ++RS.DmaRecoveredPackets;
    RxDmaEnd = Td;
    return true;
  }

  void rxPush(uint64_t T) {
    // Least-occupied input ring wins, scanning from the packet's natural
    // round-robin position so ties rotate across engines. Picking at
    // push time (not dispatch) and by load (not sequence) keeps one slow
    // engine's full ring from head-of-line-blocking the whole RX stage.
    // A stalled ring (injected NAK window) counts as full in the scan.
    auto EffSize = [&](unsigned M) {
      return In[M].stalled(T) ? In[M].capacity() : In[M].size();
    };
    RxTarget = static_cast<unsigned>(RxPendSeq % P.MP.MeCount);
    for (unsigned I = 1; I != P.MP.MeCount; ++I) {
      unsigned M =
          static_cast<unsigned>((RxPendSeq + I) % P.MP.MeCount);
      if (EffSize(M) < EffSize(RxTarget))
        RxTarget = M;
    }
    Ring &Rg = In[RxTarget];
    maybeStallRing(Rg, RxTarget, T);
    if (Rg.full() || Rg.stalled(T)) {
      // least-occupied is full => every ring is full (or NAKing)
      RxWaiting = RxWait::RingFull;
      if (!RxStuck) {
        RxStuck = true;
        RxStuckSince = T;
      }
      return;
    }
    Rg.push(RxPendSeq, T);
    RxStuck = false;
    wakeOneConsumer(RxTarget, T);
    uint64_t Tc = ScratchCh.submit(T);
    RxHave = false;
    RxPhase = RxPh::Dispatch;
    schedRx(Tc);
  }

  /// Counts one push attempt against the ring-stall schedule; when it
  /// fires, ring \p Id (MeCount = the TX ring) NAKs pushes for the
  /// injected window and a wake is scheduled at the stall end.
  void maybeStallRing(Ring &Rg, unsigned Id, uint64_t T) {
    if (!Sup.enabled())
      return;
    uint64_t Cycles = Sup.ringStallCycles();
    if (!Cycles)
      return;
    Rg.stallUntil(T + Cycles);
    RecoveryStats &RS = Sup.stats();
    ++RS.RingStallsInjected;
    RS.RingStallCycles += Cycles;
    sched(Rg.stallEnd(), Ev::RingUnstall, Id);
  }

  void wakeRxIfSlotFreed(uint64_t T) {
    if (RxWaiting == RxWait::Slot && !FreeSlots.empty()) {
      RxWaiting = RxWait::None;
      schedRx(T);
    }
  }

  void wakeRxIfRingFreed(unsigned Me, uint64_t T) {
    // RX only parks on RingFull when every ring is full, so any pop is a
    // valid wake; the retry re-picks the least-occupied target.
    (void)Me;
    if (RxWaiting == RxWait::RingFull) {
      RxWaiting = RxWait::None;
      schedRx(T);
    }
  }

  //===--- Context packet loop ----------------------------------------------===//

  void wakeOneConsumer(unsigned Me, uint64_t T) {
    if (Consumers[Me].empty())
      return;
    unsigned C = Consumers[Me].front();
    Consumers[Me].pop_front();
    Mes[Me].Ctx[C].Ph = CtxPh::RetryPop;
    sched(T, Ev::CtxResume, Me, C);
  }

  void wantPop(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    Ring &Rg = In[Me];
    if (Rg.empty()) {
      Cx.Ph = CtxPh::ParkedRing;
      Consumers[Me].push_back(C);
      return;
    }
    Cx.CurSeq = Rg.pop(T);
    Cx.Rec = &InFlight.at(Cx.CurSeq);
    wakeRxIfRingFreed(Me, T);
    Cx.Ph = CtxPh::PopWait;
    sched(ScratchCh.submit(T), Ev::CtxResume, Me, C);
  }

  void wantPushTx(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    maybeStallRing(Tx, P.MP.MeCount, T);
    if (Tx.full() || Tx.stalled(T)) {
      Cx.Ph = CtxPh::ParkedTx;
      TxProducers.emplace_back(Me, C);
      return;
    }
    Tx.push(Cx.CurSeq, T);
    Cx.Ph = CtxPh::PushWait;
    sched(ScratchCh.submit(T), Ev::CtxResume, Me, C);
    if (TxIdle)
      txStartPop(T);
  }

  void ctxReady(unsigned Me, unsigned C, uint64_t T) {
    Mes[Me].Ready.push_back(C);
    if (HeldRun &H = Mes[Me].Held; H.Live) {
      if (ahead(H)) {
        Q.push(H.Time, H.Order, Ev::MeRun, Me, 0, 0);
        ++St.QueuePushes;
        H.Live = false;
      } else {
        expire(H);
      }
    }
    sched(std::max(T, Mes[Me].FreeAt), Ev::MeRun, Me);
  }

  void onCtxResume(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    switch (Cx.Ph) {
    case CtxPh::PopWait:
      Cx.Ph = CtxPh::StartReady;
      ctxReady(Me, C, T);
      break;
    case CtxPh::MemWait:
      Cx.Ph = CtxPh::RunReady;
      ctxReady(Me, C, T);
      break;
    case CtxPh::PushWait:
    case CtxPh::RetryPop:
      wantPop(Me, C, T);
      break;
    case CtxPh::RetryPush:
      wantPushTx(Me, C, T);
      break;
    default:
      assert(false && "CtxResume in an unexpected phase");
    }
  }

  void onMeRun(unsigned Me, uint64_t T) {
    MeState &M = Mes[Me];
    if (M.FreeAt > T || M.Ready.empty()) {
      ++St.NoopMeRuns;
      return; // still busy, or a duplicate wakeup already served
    }
    unsigned C = M.Ready.front();
    M.Ready.pop_front();
    HwCtx &Cx = M.Ctx[C];

    InFlightRec &Rec = *Cx.Rec;
    if (Cx.Ph == CtxPh::StartReady) {
      Rec.Me = Me;
      Rec.Ctx = C;
      Cx.reset(Rec.RebasedArgs);
      Cx.Ph = CtxPh::RunReady;
    }

    uint64_t End = T;
    if (!Cx.done()) {
      // Quarantined tail packets execute against their private image;
      // everyone else shares the chip's memory.
      sim::AllocContext::Yield Y =
          Cx.resume(Rec.PrivMem ? *Rec.PrivMem : Mem, Opts);
      End = T + Y.Cycles;
      M.Busy += Y.Cycles;
      St.MeBusyCycles[Me] += Y.Cycles;
      M.FreeAt = End;
      holdOrSchedRun(Me, End); // serve the next ready context
      if (Y.K == sim::AllocContext::Yield::Kind::Mem) {
        // The swap point: issue the reference, park the context until
        // the data returns, and let another context have the engine.
        if (Sup.enabled() && Y.Space == MemSpace::Sdram)
          maybeBrownout(End);
        uint64_t Tc = chan(Y.Space).submit(End);
        Cx.charge(Tc - End); // latency + queueing delay
        if (Sup.enabled() && Rec.PlannedLockups >= Rec.Attempts) {
          // ctx-lockup: the reference went out but its completion
          // signal is lost — the context freezes with no resume event;
          // only the supervisor's watchdog can recover it.
          RecoveryStats &RS = Sup.stats();
          ++RS.LockupsInjected;
          if (!Rec.Wedged) {
            Rec.Wedged = true;
            ++RS.PacketsWedged;
          }
          Cx.Ph = CtxPh::Wedged;
          Cx.WedgeTime = End;
          return;
        }
        Cx.Ph = CtxPh::MemWait;
        sched(Tc, Ev::CtxResume, Me, C);
        return;
      }
    } else {
      holdOrSchedRun(Me, T); // entry trap: engine stays free
    }

    // Packet finished (halt or trap): record and hand to TX.
    Rec.Result = Cx.takeResult();
    Rec.CompleteTime = End;
    if (Rec.Wedged)
      ++Sup.stats().PacketsRecovered;
    ++St.CtxPackets[Me][C];
    wantPushTx(Me, C, End);
  }

  /// Counts one application SDRAM reference against the chan-brownout
  /// schedule; when it fires (and no window is already active) the SDRAM
  /// channel's issue interval degrades for BrownoutWindow cycles.
  void maybeBrownout(uint64_t T) {
    unsigned Factor = Sup.brownoutFactor();
    if (!Factor || BrownoutActive)
      return;
    BrownoutActive = true;
    SdramCh.IssueInterval = SdramBaseInterval * Factor;
    RecoveryStats &RS = Sup.stats();
    ++RS.BrownoutsInjected;
    RS.BrownoutCycles += Sup.config().BrownoutWindow;
    sched(T + Sup.config().BrownoutWindow, Ev::BrownoutEnd);
  }

  //===--- TX agent --------------------------------------------------------===//

  void txStartPop(uint64_t T) {
    TxIdle = false;
    uint64_t Seq = Tx.pop(T);
    if (!TxProducers.empty()) {
      auto [M, C] = TxProducers.front();
      TxProducers.pop_front();
      Mes[M].Ctx[C].Ph = CtxPh::RetryPush;
      sched(T, Ev::CtxResume, M, C);
    }
    sched(ScratchCh.submit(T), Ev::TxPopDone, 0, 0, Seq);
  }

  void onTxPopDone(uint64_t Seq, uint64_t T) {
    auto It = InFlight.find(Seq);
    assert(It != InFlight.end() && "TX popped an unknown packet");
    // TX has pulled the completion off the ring: the packet is done
    // executing and its descriptor is in TX's hands, so its SDRAM slot
    // recycles NOW — not at in-order retirement. Holding slots to
    // retirement would let one slow (watchdog-bound) head packet stall
    // every context behind it; freeing at TX pop keeps the execution
    // window bounded only by contexts and rings. The reorder buffer
    // below re-sequences descriptors for the in-order hand-off.
    if (!It->second.Tail)
      FreeSlots.insert(It->second.SlotIdx);
    --InFlightCount;
    Reorder.emplace(Seq, std::move(It->second));
    InFlight.erase(It);
    St.ReorderHighWater = std::max(
        St.ReorderHighWater, static_cast<unsigned>(Reorder.size()));

    drainReorder(T);
    wakeRxIfSlotFreed(T);

    if (!Tx.empty())
      txStartPop(T);
    else
      TxIdle = true;
  }

  /// Retires every in-order completion at the head of the reorder
  /// buffer. Shared by the TX pop path and the recovery paths that
  /// synthesize typed drops (backpressure, exhausted DMA) directly into
  /// the reorder buffer.
  void drainReorder(uint64_t T) {
    while (!Reorder.empty() && Reorder.begin()->first == NextRetire) {
      InFlightRec Rec = std::move(Reorder.begin()->second);
      Reorder.erase(Reorder.begin());
      ++St.PacketsRetired;
      RetireFold = traceFold(RetireFold, NextRetire);
      RetireFold = traceFold(RetireFold, T);
      ++NextRetire;

      RetiredPacket RP;
      RP.Pkt = std::move(Rec.Pkt);
      RP.RebasedArgs = std::move(Rec.RebasedArgs);
      RP.Result = std::move(Rec.Result);
      RP.Me = Rec.Me;
      RP.Ctx = Rec.Ctx;
      RP.Tail = Rec.Tail;
      RP.SlotBase = Rec.SlotBase;
      RP.DispatchTime = Rec.DispatchTime;
      RP.CompleteTime = Rec.CompleteTime;
      RP.RetireTime = T;
      RP.Drop = Rec.Drop;
      RP.Attempts = Rec.Attempts;
      (*Retire)(std::move(RP));
    }
  }

  //===--- Supervisor ------------------------------------------------------===//

  /// Watchdog scan + RX backpressure check. Scheduled only when a fault
  /// schedule is armed, so fault-free runs stay event-for-event
  /// identical to an unsupervised chip.
  void onSupTick(uint64_t T) {
    const SupervisorConfig &C = Sup.config();
    RecoveryStats &RS = Sup.stats();

    // Retire-progress watchdog: a context whose outstanding memory
    // reference never completed and that has made no progress for
    // LockupThreshold cycles is declared locked up. Recovery aborts
    // it; the packet either requeues (bounded retries, exponential
    // backoff) or retires dead as a typed Lockup drop — in order.
    bool StillWedged = false;
    for (unsigned M = 0; M != P.MP.MeCount; ++M) {
      for (unsigned Cn = 0; Cn != P.MP.ContextsPerMe; ++Cn) {
        HwCtx &Cx = Mes[M].Ctx[Cn];
        if (Cx.Ph != CtxPh::Wedged)
          continue;
        // WedgeTime is the end of the burst that lost the completion, so
        // a tick inside that burst comes before it: not yet elapsed.
        if (T < Cx.WedgeTime || T - Cx.WedgeTime < C.LockupThreshold) {
          StillWedged = true;
          continue;
        }
        ++RS.LockupsDetected;
        Cx.abort();
        ++RS.CtxResets;
        InFlightRec &Rec = *Cx.Rec;
        if (Rec.Attempts - 1 >= C.MaxRetries) {
          // Retries exhausted: declare the packet dead and push the
          // typed drop through the normal TX path so retirement stays
          // in arrival order.
          ++RS.LockupDrops;
          Rec.Drop = DropReason::Lockup;
          Rec.Result = sim::RunResult();
          Rec.Result.Ok = false;
          Rec.CompleteTime = T;
          ++St.CtxPackets[M][Cn];
          wantPushTx(M, Cn, T);
        } else {
          uint64_t Delay = Sup.backoff(Rec.Attempts);
          RS.MaxBackoffCycles = std::max(RS.MaxBackoffCycles, Delay);
          ++RS.PacketRequeues;
          Cx.Ph = CtxPh::RestartWait;
          sched(T + Delay, Ev::CtxRestart, M, Cn);
        }
      }
    }

    // RX backpressure: when every input ring has stayed full (or
    // NAKing) past the threshold, drop the pending packet instead of
    // waiting unboundedly — ingress loss is typed and bounded, and RX
    // moves on to the next arrival.
    if (RxWaiting == RxWait::RingFull && RxStuck &&
        T - RxStuckSince >= C.BackpressureThreshold) {
      auto It = InFlight.find(RxPendSeq);
      assert(It != InFlight.end() && "backpressure drop of unknown packet");
      InFlightRec Rec = std::move(It->second);
      InFlight.erase(It);
      --InFlightCount;
      if (!Rec.Tail)
        FreeSlots.insert(Rec.SlotIdx);
      Rec.PrivMem.reset();
      Rec.Drop = DropReason::Backpressure;
      Rec.Result = sim::RunResult();
      Rec.Result.Ok = false;
      Rec.CompleteTime = T;
      ++RS.BackpressureDrops;
      Reorder.emplace(Rec.Pkt.Seq, std::move(Rec));
      St.ReorderHighWater = std::max(
          St.ReorderHighWater, static_cast<unsigned>(Reorder.size()));
      drainReorder(T);
      RxStuck = false;
      RxWaiting = RxWait::None;
      RxHave = false;
      RxPhase = RxPh::Dispatch;
      schedRx(T);
    }

    // Keep ticking while anything is still moving through the chip. When
    // the tick was the only pending event and nothing waits on the
    // watchdog (a wedged context, RX parked on full rings), no later tick
    // can move anything either: stop, so a chip that cannot finish ends
    // its run and reports the deadlock instead of ticking forever.
    bool Busy = !RxDone || RxHave || InFlightCount != 0 || !Reorder.empty();
    bool RxParked = RxWaiting == RxWait::RingFull && RxStuck;
    // A held run ahead counts as pending, as it would in the queue. It
    // can be the only pending event only once the chip has deadlocked:
    // busy, with nothing queued, wedged or parked. A run from a fresh
    // start never gets there (runChipSoak reports a deadlock as a
    // divergence), but a restored image that passed runnable() can
    // encode one.
    bool HeldAhead =
        std::any_of(Mes.begin(), Mes.end(), [&](const MeState &M) {
          return M.Held.Live && ahead(M.Held);
        });
    assert((Restored || !Busy || !Q.empty() || !HeldAhead || StillWedged ||
            RxParked) &&
           "a chip run from a fresh start deadlocked");
    if (Busy && (!Q.empty() || HeldAhead || StillWedged || RxParked))
      sched(T + C.WatchdogPeriod, Ev::SupTick);
  }

  /// Backoff expired: restore the packet's pristine input state (slot
  /// scrub + re-DMA, fresh quarantine image for tail packets, spill
  /// window scrub) and requeue it on its context. Apps never write
  /// SRAM/scratch outside their spill window, so a restart is
  /// idempotent: the retry sees exactly the state a first run sees.
  void onCtxRestart(unsigned Me, unsigned C, uint64_t T) {
    HwCtx &Cx = Mes[Me].Ctx[C];
    assert(Cx.Ph == CtxPh::RestartWait && "CtxRestart in unexpected phase");
    InFlightRec &Rec = *Cx.Rec;
    ++Rec.Attempts;
    if (Rec.Tail)
      Rec.PrivMem = std::make_unique<sim::Memory>(BaseImage);
    else
      scrubSdram(Rec.SlotBase, uint64_t(Rec.SlotBase) + P.SlotStride);
    (void)rxDma(Rec, T, 0); // restart re-DMA never re-fires dma-drop
    uint64_t Td = RxDmaEnd;
    const alloc::AllocatedProgram *Pr = Progs[Me];
    uint32_t SpillLo =
        Pr->SpillBase + (Me * P.MP.ContextsPerMe + C) * SpillStep;
    Mem.Scratch.eraseRange(SpillLo, uint64_t(SpillLo) + Pr->NumSpillSlots);
    Cx.Ph = CtxPh::StartReady;
    ctxReady(Me, C, Td);
  }

  void onBrownoutEnd() {
    SdramCh.IssueInterval = SdramBaseInterval;
    BrownoutActive = false;
  }

  /// A ring-stall window ended: wake whoever was parked on the ring.
  void onRingUnstall(unsigned RingId, uint64_t T) {
    if (RingId >= P.MP.MeCount) {
      // TX ring: wake one parked producer (each successful push then
      // triggers pops, and each pop wakes the next producer).
      if (!TxProducers.empty() && !Tx.full() && !Tx.stalled(T)) {
        auto [M, Cn] = TxProducers.front();
        TxProducers.pop_front();
        Mes[M].Ctx[Cn].Ph = CtxPh::RetryPush;
        sched(T, Ev::CtxResume, M, Cn);
      }
      return;
    }
    wakeRxIfRingFreed(RingId, T);
  }

  //===--- Checkpoint ------------------------------------------------------===//

  // Every mutable field of the simulation, in declaration order, as one
  // list for both directions. Construction-derived state (P, Progs,
  // Codes, Trans, BaseImage, Opts, SpillStep, SdramBaseInterval, NumSlots,
  // spill rebases, ring geometry) is rebuilt deterministically by the
  // constructor and NOT saved; Ran/Src/Retire/Hook are per-run wiring.
  // The event queue travels as its (Time, Order)-sorted pending list.
  template <class Ar, class Self>
  static void fields(Ar &A, Self &S, std::vector<Event> &Pending) {
    channelFields(A, S.SramCh);
    channelFields(A, S.SdramCh);
    channelFields(A, S.ScratchCh);
    for (auto &M : S.Mes) {
      io(A, M.FreeAt, M.Busy);
      counted<uint32_t>(A, M.Ready);
      for (auto &Cx : M.Ctx) {
        if (Cx.Threaded)
          io(A, Cx.Seg);
        else
          io(A, Cx.Exec);
        io(A, Cx.Ph, Cx.CurSeq, Cx.WedgeTime);
      }
    }
    fixed(A, S.In);
    for (auto &D : S.Consumers)
      counted<uint32_t>(A, D);
    io(A, S.Tx, S.TxIdle);
    counted<uint32_t>(A, S.TxProducers);
    auto Rec = [](auto &Io, auto &KV) {
      io(Io, KV.first);
      recFields(Io, KV.second);
    };
    counted<uint64_t>(A, S.InFlight, Rec);
    counted<uint64_t>(A, S.Reorder, Rec);
    io(A, S.NextRetire, S.NextDispatch);
    counted<uint64_t>(A, S.FreeSlots);
    io(A, S.InFlightCount, S.RxPhase, S.RxWaiting, S.RxDone, S.RxHave,
       S.RxPktTail);
    packetFields(A, S.RxPkt);
    io(A, S.RxPendSeq, S.RxTarget, S.RxGen, S.RxDmaEnd, S.Sup,
       S.BrownoutActive, S.RxStuck, S.RxStuckSince, S.Mem);
    counted<uint64_t>(A, Pending, [](auto &Io, auto &E) {
      io(Io, E.Time, E.Order, E.K, E.Me, E.Ctx, E.A);
    });
    // ChipRunStats accumulators (the derived fields — FinalCycles,
    // channel/ring summaries, TraceHash, Recovery — are produced at
    // finalization from state serialized above).
    io(A, S.OrderCtr, S.LastTime, S.St.PacketsDispatched,
       S.St.PacketsRetired, S.St.TailPackets);
    fixed(A, S.St.MeBusyCycles);
    for (auto &Row : S.St.CtxPackets)
      fixed(A, Row);
    io(A, S.St.ReorderHighWater, S.St.RxDmaTransactions, S.RetireFold);
  }

  void saveState(BinWriter &W) const {
    std::vector<Event> Pending = Q.sorted();
    // Between events every live held run is still ahead (runAll expires
    // the passed ones before the retire hook): pending like any other.
    for (unsigned M = 0; M != Mes.size(); ++M)
      if (const HeldRun &H = Mes[M].Held; H.Live)
        Pending.push_back({H.Time, H.Order, Ev::MeRun, M, 0, 0});
    sortByPopOrder(Pending);
    fields(W, *this, Pending);
  }

  void restoreState(BinReader &R) {
    std::vector<Event> Pending;
    fields(R, *this, Pending);
    R.check(R.failed() || runnable(Pending));
    for (MeState &M : Mes)
      for (HwCtx &Cx : M.Ctx) {
        auto It = InFlight.find(Cx.CurSeq);
        Cx.Rec = It == InFlight.end() ? nullptr : &It->second;
      }
    St.QueuePushes += Pending.size();
    Q.assign(std::move(Pending));
    LastHookRetired = St.PacketsRetired;
    Restored = true;
  }

  /// The restore-side check that the kernel can run a decoded image:
  /// every ME, context, ring and slot index is inside the topology; each
  /// context waits in exactly the one place its phase names; and each
  /// in-flight record has exactly one holder — a ring descriptor, a
  /// context between pop and TX push, a pending TX pop, or RX mid-push.
  /// Retirement can resume: every held packet lies in [NextRetire,
  /// NextDispatch), and NextRetire itself is held (in a record or by RX
  /// waiting for a slot) unless nothing is outstanding, and the retired
  /// and dispatched counters agree with the cursors. RX waits only in
  /// the phase that parks it, and once its source ran dry it holds no
  /// packet, waits for nothing and has no step pending. A wedged
  /// context's WedgeTime is no later than its ME's FreeAt (the watchdog
  /// measures the wedge from it). Channel timings are the configured
  /// ones, and no pending event or busy-until time lies in the past or
  /// further ahead than maxLead(): the supervisor's watchdog ticks
  /// through every idle gap, so a far-future time would make a run take
  /// forever.
  /// Anything else would index past a vector, dereference a missing
  /// record, retire a packet twice, or wait forever on a packet that
  /// does not exist.
  bool runnable(const std::vector<Event> &Pending) const {
    const unsigned NumMe = P.MP.MeCount, NumCtx = P.MP.ContextsPerMe;
    unsigned Brownout = BrownoutActive ? Sup.brownoutMultiplier() : 1;
    bool Ok = InFlightCount == InFlight.size() &&
              (FreeSlots.empty() || *FreeSlots.rbegin() < NumSlots) &&
              SramCh.IssueInterval == P.MP.SramIssueInterval &&
              SramCh.Latency == P.MP.SramAccessCycles &&
              SdramCh.IssueInterval == SdramBaseInterval * Brownout &&
              SdramCh.Latency == P.MP.SdramAccessCycles &&
              ScratchCh.IssueInterval == P.MP.ScratchIssueInterval &&
              ScratchCh.Latency == P.MP.ScratchAccessCycles;
    const uint64_t Lead = maxLead();
    Ok = Ok && LastTime <= UINT64_MAX - Lead; // no scheduled time can wrap
    const uint64_t Horizon = LastTime + Lead;
    auto Ahead = [&](uint64_t T) { Ok = Ok && T <= Horizon; };
    for (const Channel *Ch : {&SramCh, &SdramCh, &ScratchCh})
      Ahead(Ch->FreeAt);
    for (const MeState &M : Mes)
      Ahead(M.FreeAt);
    for (const auto *Recs : {&InFlight, &Reorder})
      for (const auto &[Seq, Rec] : *Recs)
        Ok = Ok && Rec.Me < NumMe && Rec.Ctx < NumCtx &&
             (Rec.Tail || Rec.SlotIdx < NumSlots) && Seq >= NextRetire &&
             Seq < NextDispatch;
    bool RxHoldsPkt = RxHave && RxPhase == RxPh::Dispatch;
    // The counters the report reads move in step with the cursors: RX
    // takes a packet off the source (NextDispatch) before it dispatches
    // it (PacketsDispatched).
    Ok = Ok && St.PacketsRetired == NextRetire && NextDispatch >= RxHoldsPkt &&
         St.PacketsDispatched == NextDispatch - RxHoldsPkt;
    Ok = Ok && NextRetire <= NextDispatch &&
         (NextRetire == NextDispatch || InFlight.count(NextRetire) ||
          Reorder.count(NextRetire) ||
          (RxHoldsPkt && RxPkt.Seq == NextRetire));
    Ok = Ok && (!RxDone || (!RxHave && RxWaiting == RxWait::None));
    Ok = Ok && (RxWaiting != RxWait::Slot || RxHoldsPkt) &&
         (RxWaiting != RxWait::RingFull ||
          (RxHave && RxPhase == RxPh::Push));
    std::vector<CtxWait> Seen(NumMe * NumCtx, CtxWait::None);
    auto Waits = [&](unsigned M, unsigned C, CtxWait W) {
      bool Valid = M < NumMe && C < NumCtx;
      Ok = Ok && Valid && Seen[M * NumCtx + C] == CtxWait::None;
      if (Valid)
        Seen[M * NumCtx + C] = W;
    };
    std::set<uint64_t> Held;
    auto Holds = [&](uint64_t Seq) {
      Ok = Ok && InFlight.count(Seq) && Held.insert(Seq).second;
    };
    for (unsigned M = 0; M != NumMe; ++M) {
      for (unsigned C : Mes[M].Ready)
        Waits(M, C, CtxWait::Ready);
      for (unsigned C : Consumers[M])
        Waits(M, C, CtxWait::Consumer);
      for (unsigned I = 0; I != In[M].size(); ++I)
        Holds(In[M].at(I));
    }
    for (const auto &[M, C] : TxProducers)
      Waits(M, C, CtxWait::TxProducer);
    for (unsigned I = 0; I != Tx.size(); ++I)
      Holds(Tx.at(I));
    for (const Event &E : Pending) {
      // RingUnstall names a ring: an input ring, or TX at MeCount.
      Ahead(E.Time);
      Ok = Ok && E.Time >= LastTime && E.Ctx < NumCtx &&
           (E.Me < NumMe || (E.K == Ev::RingUnstall && E.Me == NumMe));
      if (E.K == Ev::CtxResume)
        Waits(E.Me, E.Ctx, CtxWait::Resume);
      else if (E.K == Ev::CtxRestart)
        Waits(E.Me, E.Ctx, CtxWait::Restart);
      else if (E.K == Ev::TxPopDone)
        Holds(E.A);
      // A finished source leaves RX with nothing to do: no live step.
      Ok = Ok && !(RxDone && E.K == Ev::RxStep && E.A == RxGen);
    }
    for (unsigned M = 0; M != NumMe; ++M)
      for (unsigned C = 0; C != NumCtx; ++C) {
        CtxPh Ph = Mes[M].Ctx[C].Ph;
        Ok = Ok && Seen[M * NumCtx + C] == WaitOf[static_cast<unsigned>(Ph)];
        // A context wedges at the end of its burst: maybe after LastTime,
        // never after its ME's FreeAt, which only grows.
        Ok = Ok && (Ph != CtxPh::Wedged ||
                    Mes[M].Ctx[C].WedgeTime <= Mes[M].FreeAt);
        if (holdsPacket(Ph))
          Holds(Mes[M].Ctx[C].CurSeq);
      }
    if (RxPhase == RxPh::Push)
      Holds(RxPendSeq);
    return Ok && Held.size() == InFlight.size();
  }

  /// The furthest past LastTime a runnable chip can have an event
  /// pending or an engine or channel busy: one ME run slice (the whole
  /// instruction budget), a backlog on the slowest channel of one
  /// transaction per context and agent plus the DMA bursts of every held
  /// packet, and the longest supervisor delay.
  uint64_t maxLead() const {
    sim::LatencyModel L = P.latency();
    uint64_t OpCycles = std::max({L.Alu, L.Branch, L.Imm + 1, L.HashOp});
    uint64_t Txns = uint64_t(P.MP.MeCount) * P.MP.ContextsPerMe + 2;
    for (const auto &KV : InFlight)
      Txns += KV.second.Pkt.Words.size() / 8 + 1;
    if (RxHave)
      Txns += RxPkt.Words.size() / 8 + 1;
    uint64_t Slowest = 0;
    for (const Channel *Ch : {&SramCh, &SdramCh, &ScratchCh})
      Slowest = std::max<uint64_t>(Slowest, Ch->IssueInterval + Ch->Latency);
    Slowest = std::max<uint64_t>(
        Slowest, uint64_t(SdramBaseInterval) *
                         std::max(1u, Sup.brownoutMultiplier()) +
                     SdramCh.Latency);
    return P.Budget * OpCycles + Txns * Slowest + Sup.maxDelay();
  }

  //===--- Event loop ------------------------------------------------------===//

  ChipRunStats runAll(const Source &S, const RetireFn &R) {
    assert(!Ran && "Chip::run is single-shot");
    Ran = true;
    Src = &S;
    Retire = &R;
    if (!Restored) {
      schedRx(0);
      if (Sup.enabled())
        sched(Sup.config().WatchdogPeriod, Ev::SupTick);
    }

    while (!Q.empty()) {
      Event E = Q.pop();
      CurTime = E.Time;
      CurOrder = E.Order;
      LastTime = std::max(LastTime, E.Time);
      ++St.EventsByKind[static_cast<unsigned>(E.K)];
      switch (E.K) {
      case Ev::MeRun:
        onMeRun(E.Me, E.Time);
        break;
      case Ev::CtxResume:
        onCtxResume(E.Me, E.Ctx, E.Time);
        break;
      case Ev::RxStep:
        rxStep(E.Time, E.A);
        break;
      case Ev::TxPopDone:
        onTxPopDone(E.A, E.Time);
        break;
      case Ev::SupTick:
        onSupTick(E.Time);
        break;
      case Ev::CtxRestart:
        onCtxRestart(E.Me, E.Ctx, E.Time);
        break;
      case Ev::BrownoutEnd:
        onBrownoutEnd();
        break;
      case Ev::RingUnstall:
        onRingUnstall(E.Me, E.Time);
        break;
      }
      if (Hook && St.PacketsRetired != LastHookRetired) {
        LastHookRetired = St.PacketsRetired;
        expirePassed(false);
        if (Hook(St.PacketsRetired, LastTime)) {
          Stopped = true;
          return St; // partial: the caller treats this run as crashed
        }
      }
    }
    expirePassed(true); // they pop after the queue's last event

    St.FinalCycles = LastTime;
    St.Deadlock =
        InFlightCount != 0 || !Reorder.empty() || RxHave || !RxDone;
    St.Sram = SramCh.St;
    St.Sdram = SdramCh.St;
    St.Scratch = ScratchCh.St;
    uint64_t H = 0xcbf29ce484222325ull;
    for (const Ring &Rg : In) {
      St.InputRings.push_back({Rg.capacity(), Rg.highWater(), Rg.pushes(),
                               Rg.pops(), Rg.traceHash()});
      H = traceFold(H, Rg.traceHash());
    }
    St.TxRing = {Tx.capacity(), Tx.highWater(), Tx.pushes(), Tx.pops(),
                 Tx.traceHash()};
    H = traceFold(H, Tx.traceHash());
    H = traceFold(H, RetireFold);
    St.TraceHash = H;
    St.Recovery = Sup.stats();
    for (const auto &KV : Trans)
      St.Superblocks += KV.second.Superblocks;
    return St;
  }
};

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Chip::Chip(const ChipParams &P,
           std::vector<const alloc::AllocatedProgram *> ProgramPerMe,
           sim::Memory Base)
    : I(std::make_unique<Impl>(P, std::move(ProgramPerMe),
                               std::move(Base))) {}

Chip::~Chip() = default;

ChipRunStats Chip::run(const Source &Src, const RetireFn &Retire) {
  return I->runAll(Src, Retire);
}

sim::Memory &Chip::memory() { return I->Mem; }

void Chip::setRetireHook(RetireHook H) { I->Hook = std::move(H); }

bool Chip::stopped() const { return I->Stopped; }

unsigned Chip::heldRuns() const {
  return static_cast<unsigned>(
      std::count_if(I->Mes.begin(), I->Mes.end(),
                    [](const MeState &M) { return M.Held.Live; }));
}

void Chip::saveState(BinWriter &W) const { I->saveState(W); }

void Chip::restoreState(BinReader &R) { I->restoreState(R); }
