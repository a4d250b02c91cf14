//===- Simulator.cpp ------------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/SimUtil.h"
#include "support/HwHash.h"
#include "support/StringUtils.h"

using namespace nova;
using namespace nova::sim;
using namespace nova::sim::detail;
using namespace nova::ixp;

const char *sim::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::None:              return "none";
  case TrapKind::IllegalRegister:   return "illegal-register";
  case TrapKind::IllegalMemSpace:   return "illegal-mem-space";
  case TrapKind::SramOutOfRange:    return "sram-out-of-range";
  case TrapKind::SdramOutOfRange:   return "sdram-out-of-range";
  case TrapKind::ScratchOutOfRange: return "scratch-out-of-range";
  case TrapKind::Watchdog:          return "watchdog";
  case TrapKind::ShiftRange:        return "shift-range";
  case TrapKind::MalformedProgram:  return "malformed-program";
  }
  return "unknown";
}

const char *sim::execModeName(ExecMode M) {
  return M == ExecMode::Threaded ? "threaded" : "interp";
}

//===----------------------------------------------------------------------===//
// Cycle histogram / stream stats
//===----------------------------------------------------------------------===//

unsigned CycleHistogram::bucketOf(uint64_t V) {
  // 8 sub-buckets per power of two: exact for V < 256 would need 8
  // buckets/decade starting at decade 3; below 16 the mapping is exact
  // anyway because sub-bucket width is < 1.
  if (V < 16)
    return static_cast<unsigned>(V);
  unsigned Decade = 63 - __builtin_clzll(V); // floor(log2 V), >= 4
  uint64_t Base = 1ull << Decade;
  unsigned Sub = static_cast<unsigned>((V - Base) / (Base / 8));
  unsigned B = 16 + (Decade - 4) * 8 + Sub;
  return B < NumBuckets ? B : NumBuckets - 1;
}

uint64_t CycleHistogram::bucketHigh(unsigned B) {
  if (B < 16)
    return B;
  unsigned Decade = 4 + (B - 16) / 8;
  unsigned Sub = (B - 16) % 8;
  uint64_t Base = 1ull << Decade;
  return Base + (Base / 8) * (Sub + 1) - 1;
}

void CycleHistogram::add(uint64_t Cycles) {
  ++Buckets[bucketOf(Cycles)];
  ++Total;
}

uint64_t CycleHistogram::quantile(double Q) const {
  if (Total == 0)
    return 0;
  uint64_t Need = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (Need == 0)
    Need = 1;
  uint64_t Seen = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen >= Need)
      return bucketHigh(B);
  }
  return bucketHigh(NumBuckets - 1);
}

void RunStats::account(const RunResult &R, bool AppRejected,
                       unsigned PayloadBytes) {
  ++Packets;
  TotalCycles += R.Cycles;
  TotalInstructions += R.Instructions;
  Cycles.add(R.Cycles);
  if (!R.Ok) {
    ++Drops;
    ++Traps[static_cast<unsigned>(R.Trap)];
  } else if (AppRejected) {
    ++Rejected;
  } else {
    ++Delivered;
    DeliveredPayloadBytes += PayloadBytes;
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint serialization
//===----------------------------------------------------------------------===//

// Each type lists its fields once; saveState and restoreState are the
// list instantiated for the two archives (support/BinIO.h).

namespace {

template <class Ar, class Self> void memoryFields(Ar &A, Self &M) {
  io(A, M.Sram, M.Sdram, M.Scratch, M.Limits.SramWords, M.Limits.SdramWords,
     M.Limits.ScratchWords);
}

template <class Ar, class Self> void resultFields(Ar &A, Self &R) {
  io(A, R.Ok, R.Trap, R.Error, R.HaltValues, R.Cycles, R.Instructions);
}

template <class Ar, class Self> void statsFields(Ar &A, Self &S) {
  io(A, S.Packets, S.Delivered, S.Rejected, S.Drops);
  fixed(A, S.Traps);
  io(A, S.TotalCycles, S.TotalInstructions, S.DeliveredPayloadBytes,
     S.Cycles);
}

} // namespace

void Memory::saveState(BinWriter &W) const { memoryFields(W, *this); }
void Memory::restoreState(BinReader &R) { memoryFields(R, *this); }

void RunResult::saveState(BinWriter &W) const { resultFields(W, *this); }
void RunResult::restoreState(BinReader &R) { resultFields(R, *this); }

template <class Ar, class Self> void CycleHistogram::fields(Ar &A, Self &H) {
  fixed(A, H.Buckets);
  io(A, H.Total);
}

void CycleHistogram::saveState(BinWriter &W) const { fields(W, *this); }
void CycleHistogram::restoreState(BinReader &R) { fields(R, *this); }

void RunStats::saveState(BinWriter &W) const { statsFields(W, *this); }
void RunStats::restoreState(BinReader &R) { statsFields(R, *this); }

double RunStats::deliveredMbps(double ClockHz) const {
  if (TotalCycles == 0)
    return 0.0;
  double Seconds = static_cast<double>(TotalCycles) / ClockHz;
  return static_cast<double>(DeliveredPayloadBytes) * 8.0 / Seconds / 1e6;
}

double sim::throughputMbps(unsigned PayloadBytes, double CyclesPerPacket,
                           double ClockHz) {
  if (CyclesPerPacket <= 0)
    return 0.0;
  double PacketsPerSec = ClockHz / CyclesPerPacket;
  return PacketsPerSec * PayloadBytes * 8.0 / 1e6;
}

//===----------------------------------------------------------------------===//
// Allocated-mode execution lives in ExecContext.cpp: the step loop is a
// resumable AllocContext (one IXP hardware context) that the chip
// simulator multiplexes, and runAllocated is a thin driver over it.
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Functional-mode execution
//===----------------------------------------------------------------------===//

RunResult sim::runFunctional(const MachineProgram &M,
                             const std::vector<uint32_t> &Args, Memory &Mem,
                             uint64_t MaxInstructions) {
  RunOptions Opts;
  Opts.MaxInstructions = MaxInstructions;
  return runFunctional(M, Args, Mem, Opts);
}

RunResult sim::runFunctional(const MachineProgram &M,
                             const std::vector<uint32_t> &Args, Memory &Mem,
                             const RunOptions &Opts) {
  RunResult R;
  if (!hasEntry(M, R))
    return R;
  if (Args.size() != M.EntryParams.size())
    return trap(R, TrapKind::MalformedProgram,
                formatf("entry takes %zu args, got %zu",
                        M.EntryParams.size(), Args.size()));
  std::vector<uint32_t> T(M.NumTemps, 0);
  bool Err = false;
  auto Val = [&](const MOperand &O) -> uint32_t {
    if (O.IsConst)
      return O.Value;
    if (O.T >= T.size()) {
      Err = true;
      return 0;
    }
    return T[O.T];
  };
  auto Set = [&](Temp D, uint32_t V) {
    if (D >= T.size()) {
      Err = true;
      return;
    }
    T[D] = V;
  };
  for (unsigned I = 0; I != Args.size(); ++I)
    Set(M.EntryParams[I], Args[I]);

  BlockId B = M.Entry;
  unsigned Idx = 0;
  while (true) {
    if (++R.Instructions > Opts.MaxInstructions)
      return trap(R, TrapKind::Watchdog, budgetMessage(Opts.MaxInstructions));
    if (Idx >= M.Blocks[B].Instrs.size())
      return trap(R, TrapKind::MalformedProgram, fellOffMessage(B));
    const MachineInstr &I = M.Blocks[B].Instrs[Idx++];

    if (hasInvalidSpace(I))
      return trap(R, TrapKind::IllegalMemSpace,
                  invalidSpaceMessage(I.Space, B));

    switch (I.Op) {
    case MOp::Alu: {
      uint32_t A = Val(I.Srcs[0]);
      uint32_t Bv = I.Srcs.size() > 1 ? Val(I.Srcs[1]) : 0;
      if (Opts.TrapOnShiftRange && cps::shiftOutOfRange(I.Alu, Bv))
        return trap(R, TrapKind::ShiftRange, shiftMessage(Bv, B));
      Set(I.Dsts[0], cps::evalPrim(I.Alu, A, Bv));
      break;
    }
    case MOp::Imm:
      Set(I.Dsts[0], I.Imm);
      break;
    case MOp::Move:
      Set(I.Dsts[0], Val(I.Srcs[0]));
      break;
    case MOp::MemRead: {
      uint32_t Addr = Val(I.Srcs[0]);
      uint32_t Count = static_cast<uint32_t>(I.Dsts.size());
      if (!Err && !Mem.inRange(I.Space, Addr, Count))
        return readRangeTrap(R, I.Space, Count, Addr,
                             Mem.Limits.words(I.Space));
      auto &Space = *Mem.space(I.Space);
      for (unsigned K = 0; K != I.Dsts.size(); ++K)
        Set(I.Dsts[K], Memory::load(Space, Addr + K));
      break;
    }
    case MOp::MemWrite: {
      uint32_t Addr = Val(I.Srcs[0]);
      uint32_t Count = static_cast<uint32_t>(I.Srcs.size() - 1);
      if (!Err && !Mem.inRange(I.Space, Addr, Count))
        return writeRangeTrap(R, I.Space, Count, Addr,
                              Mem.Limits.words(I.Space));
      auto &Space = *Mem.space(I.Space);
      for (unsigned K = 1; K != I.Srcs.size(); ++K)
        Space[Addr + K - 1] = Val(I.Srcs[K]);
      break;
    }
    case MOp::Hash:
      Set(I.Dsts[0], hwHash(Val(I.Srcs[0])));
      break;
    case MOp::BitTestSet: {
      uint32_t Addr = Val(I.Srcs[0]);
      uint32_t Bits = Val(I.Srcs[1]);
      if (!Err && !Mem.inRange(I.Space, Addr, 1))
        return bitTestSetRangeTrap(R, I.Space, Addr,
                                   Mem.Limits.words(I.Space));
      auto &Space = *Mem.space(I.Space);
      uint32_t Old = Memory::load(Space, Addr);
      Space[Addr] = Old | Bits;
      Set(I.Dsts[0], Old);
      break;
    }
    case MOp::Clone:
      for (Temp D : I.Dsts)
        Set(D, Val(I.Srcs[0]));
      break;
    case MOp::Branch: {
      BlockId Tgt = cps::evalCmp(I.Cmp, Val(I.Srcs[0]), Val(I.Srcs[1]))
                        ? I.Target
                        : I.TargetElse;
      if (Tgt >= M.Blocks.size())
        return trap(R, TrapKind::MalformedProgram,
                    badTargetMessage("branch", B, Tgt));
      B = Tgt;
      Idx = 0;
      break;
    }
    case MOp::Jump:
      if (I.Target >= M.Blocks.size())
        return trap(R, TrapKind::MalformedProgram,
                    badTargetMessage("jump", B, I.Target));
      B = I.Target;
      Idx = 0;
      break;
    case MOp::Halt:
      for (const MOperand &S : I.Srcs)
        R.HaltValues.push_back(Val(S));
      if (Err)
        return trap(R, TrapKind::MalformedProgram,
                    "temporary id out of range at halt");
      R.Ok = true;
      return R;
    }
    if (Err)
      return trap(R, TrapKind::MalformedProgram,
                  formatf("temporary id out of range in block b%u", B));
  }
}
