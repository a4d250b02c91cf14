//===- Engine.cpp - Threaded-dispatch execution of translated code --------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// runStream: the one loop over a translated stream, with two execution
// tiers chosen per block at BlockEntry:
//
//  - the threaded fast tier: computed-goto dispatch over the pre-decoded
//    stream, operands as direct frame indices, no per-instruction
//    counters. Exits (branch/jump/halt/trap) reconstruct the exact
//    interpreter instruction/cycle counts from the per-op cold data
//    relative to the counters saved at block entry;
//
//  - the slow tier: the interpreter's own step (sim::detail::step) over
//    the same frame, taken when the fault injector is armed, strict
//    shift trapping is on, the block has a statically illegal register
//    operand, or the watchdog could fire inside the block. It hands
//    back to the fast tier when a branch or jump changes the block.
//
// The tiers interleave freely: control returns to a block's or
// superblock's gate at every block boundary with exact counters either
// way. An edge into a superblock runs that gate in the edge's own
// handler (SUPER_GATE), so a loop back edge costs no extra dispatch.
//
// The loop is instantiated twice (see runStream in FastPath.h): flat on
// BatchMemory for Engine, resumable on sim::Memory for SegmentContext.
// The op pointer and the counters live in locals during a burst and are
// written back to the context only at yields and exits.
//
//===----------------------------------------------------------------------===//

#include "fastpath/FastPath.h"

#include "sim/SimUtil.h"

#include <cstring>
#include <type_traits>

using namespace nova;
using namespace nova::fastpath;
using namespace nova::sim::detail;
using Yield = sim::AllocContext::Yield;

void StreamContext::bind(const Translated *Tr) {
  T = Tr;
  Frame.assign(Tr->frameSize(), 0);
  std::copy(Tr->Consts.begin(), Tr->Consts.end(), Frame.begin() + FrameRegs);
  Finished = true;
}

void StreamContext::reset(const std::vector<uint32_t> &Args) {
  R = sim::RunResult();
  Err = false;
  InSlow = false;
  FastYield = false;
  Ins = Cyc = 0;
  StartIns = StartCyc = 0;
  std::memset(Frame.data(), 0, FrameRegs * sizeof(uint32_t));
  Finished = !enterAllocated(T->Code, Args, Frame.data(), R);
  if (!Finished)
    PC = T->Meta[T->Code.Entry].EnterOp;
}

Engine::Engine(const Translated &Tr) { C.bind(&Tr); }

sim::RunResult Engine::run(const std::vector<uint32_t> &Args,
                           BatchMemory &Mem, const sim::RunOptions &Opts) {
  C.reset(Args);
  if (!C.Finished)
    runStream(C, Mem, Opts);
  return std::move(C.R);
}

namespace {
/// The slow tier: steps the interpreter from (SB, SIdx) until the block
/// changes, the run completes, or — on the resumable loop only — a
/// memory reference yields. The flat loop charges each reference's flat
/// latency and steps on, exactly like sim::runAllocated.
template <class MemT>
Stepped slowTier(StreamContext &Ctx, MemT &Mem, const sim::RunOptions &Opts,
                 uint32_t Rebase) {
  while (true) {
    Stepped S = step(Ctx.T->Code, Ctx.Frame.data(), Ctx.R, Ctx.Err, Ctx.SB,
                     Ctx.SIdx, Mem, Opts, Rebase);
    if (S.K == Stepped::Next)
      continue;
    if (std::is_same_v<MemT, BatchMemory> && S.K == Stepped::Mem) {
      Ctx.R.Cycles += Opts.Lat.memAccess(S.Space);
      continue;
    }
    return S;
  }
}
} // namespace

#define VM_CASE(K) L_##K:
#define VM_DISPATCH() goto *JT[static_cast<unsigned>(IP->Kind)]

template <class MemT>
Yield fastpath::runStream(StreamContext &Ctx, MemT &Mem,
                          const sim::RunOptions &Opts) {
  constexpr bool Flat = std::is_same_v<MemT, BatchMemory>;
  static_assert(Flat || std::is_same_v<MemT, sim::Memory>);
  assert(!Ctx.Finished && "runStream() on a completed context");

  const Translated &T = *Ctx.T;
  const sim::Decoded &P = T.Code;
  const FastOp *Ops = T.Ops.data();
  const ColdInfo *ColdA = T.Cold.data();
  const uint16_t *Pool = T.Pool.data();
  const BlockMeta *Meta = T.Meta.data();
  uint32_t *F = Ctx.Frame.data();
  sim::RunResult &R = Ctx.R;
  const uint64_t MaxIns = Opts.MaxInstructions;
  const unsigned BranchCost = Opts.Lat.Branch;
  const bool SlowAll = FaultInjector::armed() || Opts.TrapOnShiftRange;
  const uint32_t Rebase = Flat ? 0 : Ctx.SpillRebase;
  const uint64_t BurstStart = R.Cycles;

  // The op being executed, as a pointer so that a dispatch is one load
  // and one indirect jump; cold paths convert it back to an op index.
  const FastOp *IP = Ops + Ctx.PC;
  auto index = [Ops](const FastOp *At) {
    return static_cast<uint32_t>(At - Ops);
  };
  // Live counters: exact at every block boundary. Interior fast ops
  // never touch them; exits rebuild them from Start + cold data.
  uint64_t Ins = Ctx.Ins, Cyc = Ctx.Cyc;
  uint64_t StartIns = Ctx.StartIns, StartCyc = Ctx.StartCyc;
  uint32_t Ea; // a memory op's effective address, before spill rebasing

  auto park = [&] {
    Ctx.PC = index(IP);
    Ctx.Ins = Ins;
    Ctx.Cyc = Cyc;
    Ctx.StartIns = StartIns;
    Ctx.StartCyc = StartCyc;
  };
  auto finish = [&]() -> Yield {
    park();
    Ctx.Finished = true;
    return {Yield::Kind::Done, MemSpace::Sram, R.Cycles - BurstStart};
  };
  // The exact interpreter counts at the op at \p At.
  auto materialize = [&](uint32_t At) {
    R.Instructions = StartIns + ColdA[At].InsDelta;
    R.Cycles = StartCyc + ColdA[At].CycPrefix;
  };
  // The resumable loop's end of a memory op: yield the reference, with
  // its data effect applied, to the caller who charges it.
  auto yieldMem = [&](MemSpace S) -> Yield {
    materialize(index(IP));
    Ctx.YieldPC = index(IP);
    Ctx.FastYield = true;
    park();
    return {Yield::Kind::Mem, S, R.Cycles - BurstStart};
  };

  static const void *JT[] = {
      &&L_BlockEntry, &&L_AluAdd,    &&L_AluSub,   &&L_AluAnd,
      &&L_AluOr,      &&L_AluXor,    &&L_AluShl,   &&L_AluShr,
      &&L_AluNot,     &&L_Copy,      &&L_Hash,     &&L_MemRead,
      &&L_MemWrite,   &&L_BitTestSet, &&L_BranchEq, &&L_BranchNe,
      &&L_BranchLt,   &&L_BranchGt,  &&L_BranchLe, &&L_BranchGe,
      &&L_Jump,       &&L_Halt,      &&L_TrapStatic,
      &&L_SuperEntry, &&L_GuardEq,   &&L_GuardNe,  &&L_GuardLt,
      &&L_GuardGt,    &&L_GuardLe,   &&L_GuardGe,
      &&L_FuseCopyAdd, &&L_FuseCopySub, &&L_FuseCopyAnd, &&L_FuseCopyOr,
      &&L_FuseCopyXor, &&L_FuseCopyShl, &&L_FuseCopyShr, &&L_FuseCopyNot,
      &&L_FuseCopyCopy, &&L_FuseShlAdd,
      &&L_FuseCopyMemRead, &&L_FuseCopyMemWrite,
      &&L_FuseAddMemRead, &&L_FuseAddMemWrite,
      &&L_FuseAddCopyMemRead, &&L_FuseAddCopyMemWrite,
      &&L_FuseCopyAddMemRead, &&L_FuseCopyAddMemWrite,
      &&L_FuseCopyAddCopyMemRead, &&L_FuseCopyAddCopyMemWrite,
      &&L_FuseShlAddMemRead, &&L_FuseShlAddMemWrite,
      &&L_FuseShlAddCopyMemRead, &&L_FuseShlAddCopyMemWrite,
  };
  static_assert(sizeof(JT) / sizeof(JT[0]) ==
                static_cast<unsigned>(FOp::FuseShlAddCopyMemWrite) + 1);

  if (Ctx.InSlow)
    goto Slow;
  if (Ctx.FastYield) {
    // Re-derive the bases from the counters the yield materialized plus
    // whatever the caller charged: StartCyc absorbs the charge, so every
    // later exit still reconstructs exact interpreter counts.
    const ColdInfo &C = ColdA[Ctx.YieldPC];
    StartIns = R.Instructions - C.InsDelta;
    StartCyc = R.Cycles - C.CycPrefix;
    IP = Ops + Ctx.YieldPC + 1;
    Ctx.FastYield = false;
  }
  VM_DISPATCH();

  VM_CASE(BlockEntry) {
    const FastOp &O = *IP;
    const BlockMeta &M = Meta[O.X];
    if (SlowAll || M.ForceSlow || Ins + M.MaxPath > MaxIns) {
      R.Instructions = Ins;
      R.Cycles = Cyc;
      Ctx.InSlow = true;
      Ctx.SB = O.X;
      Ctx.SIdx = 0;
      goto Slow;
    }
    StartIns = Ins;
    StartCyc = Cyc;
    ++IP;
    VM_DISPATCH();
  }

// The superblock gate for the SuperEntry at IP: the chain's whole path
// must fit in the remaining budget (and the per-instruction escape
// hatches must be off) to run on from its first interior op; otherwise
// fall back to the head block's own stream, whose BlockEntry gate
// decides at block granularity.
#define SUPER_GATE()                                                      \
  {                                                                       \
    const FastOp &E = *IP;                                                \
    if (SlowAll || Ins + E.Y > MaxIns) {                                  \
      IP = Ops + Meta[E.X].FirstOp;                                       \
    } else {                                                              \
      StartIns = Ins;                                                     \
      StartCyc = Cyc;                                                     \
      ++IP;                                                               \
    }                                                                     \
  }

// Control transfer along a resolved edge, with Ins/Cyc exact: an edge
// into a superblock runs the gate in the edge's own handler, saving the
// SuperEntry's dispatch on every loop back edge.
#define VM_GOTO(TARGET)                                                   \
  {                                                                       \
    IP = Ops + (TARGET);                                                  \
    if (IP->Kind == FOp::SuperEntry)                                      \
      SUPER_GATE();                                                       \
    VM_DISPATCH();                                                        \
  }

  VM_CASE(SuperEntry) {
    SUPER_GATE();
    VM_DISPATCH();
  }

#define ALU_CASE(NAME, PRIM)                                              \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = *IP;                                                \
    F[O.D] = cps::evalPrim(cps::PrimOp::PRIM, F[O.A], F[O.B]);            \
    ++IP;                                                                 \
    VM_DISPATCH();                                                        \
  }
  ALU_CASE(AluAdd, Add)
  ALU_CASE(AluSub, Sub)
  ALU_CASE(AluAnd, And)
  ALU_CASE(AluOr, Or)
  ALU_CASE(AluXor, Xor)
  ALU_CASE(AluShl, Shl)
  ALU_CASE(AluShr, Shr)
  ALU_CASE(AluNot, Not)
#undef ALU_CASE

  VM_CASE(Copy) {
    const FastOp &O = *IP;
    F[O.D] = F[O.A];
    ++IP;
    VM_DISPATCH();
  }

// Fused copy pairs: the translator forwarded the second op's reads of
// the copy's destination to its source, so every source is read before
// the first write, and the writes land in program order (a second op
// that overwrites the copy's destination wins, as unfused).
#define FUSE_CASE(NAME, PRIM)                                             \
  VM_CASE(FuseCopy##NAME) {                                               \
    const FastOp &O = *IP;                                                \
    uint32_t V = F[O.Y];                                                  \
    uint32_t Res = cps::evalPrim(cps::PrimOp::PRIM, F[O.A], F[O.B]);      \
    F[O.X] = V;                                                           \
    F[O.D] = Res;                                                         \
    ++IP;                                                                 \
    VM_DISPATCH();                                                        \
  }
  FUSE_CASE(Add, Add)
  FUSE_CASE(Sub, Sub)
  FUSE_CASE(And, And)
  FUSE_CASE(Or, Or)
  FUSE_CASE(Xor, Xor)
  FUSE_CASE(Shl, Shl)
  FUSE_CASE(Shr, Shr)
  FUSE_CASE(Not, Not)
#undef FUSE_CASE

  VM_CASE(FuseCopyCopy) {
    const FastOp &O = *IP;
    uint32_t V = F[O.Y], W = F[O.A];
    F[O.X] = V;
    F[O.D] = W;
    ++IP;
    VM_DISPATCH();
  }

  VM_CASE(FuseShlAdd) {
    const FastOp &O = *IP;
    F[O.D] = cps::evalPrim(cps::PrimOp::Add, F[O.X],
                           cps::evalPrim(cps::PrimOp::Shl, F[O.A], F[O.B]));
    ++IP;
    VM_DISPATCH();
  }

  VM_CASE(Hash) {
    const FastOp &O = *IP;
    F[O.D] = hwHash(F[O.A]);
    ++IP;
    VM_DISPATCH();
  }

// The effective address of a memory op, computed by its fused producer
// (if any), whose registers are written first. The producer's copy or
// base slot sits in the pool after the memory op's word list.
#define EX(K) Pool[O.X + O.N + (K)]
#define EA_REG Ea = F[O.A];
#define EA_ADD                                                            \
  Ea = cps::evalPrim(cps::PrimOp::Add, F[O.A], F[O.B]);                   \
  F[O.D] = Ea;
#define EA_COPYADD                                                        \
  {                                                                       \
    uint32_t V = F[EX(1)];                                                \
    Ea = cps::evalPrim(cps::PrimOp::Add, F[O.A], F[O.B]);                 \
    F[EX(0)] = V;                                                         \
    F[O.D] = Ea;                                                          \
  }
#define EA_SHLADD                                                         \
  Ea = cps::evalPrim(cps::PrimOp::Add, F[EX(0)],                          \
                     cps::evalPrim(cps::PrimOp::Shl, F[O.A], F[O.B]));    \
  F[O.D] = Ea;
// A copy fused into the memory op: it retires after the producer and
// before the access. Plain FuseCopyMem* ops carry it in B (src) and D
// (dst); address-mode ops at EX(K) (dst), EX(K + 1) (src).
#define COPY_BD F[O.D] = F[O.B];
#define COPY_EX(K) F[EX(K)] = F[EX((K) + 1)];

// One memory handler per (producer, fused copy, access) combination:
// each computes the effective address into Ea and goes on to the shared
// access below. A fused op carries the memory op's cold data: it is the
// trap and yield point, and every earlier write in it has retired by
// then, as unfused.
#define MEM_CASE(NAME, PRODUCE, COPY, ACCESS)                             \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = *IP;                                                \
    PRODUCE                                                               \
    COPY                                                                  \
    goto ACCESS;                                                          \
  }
  MEM_CASE(MemRead, EA_REG, , MemReadAccess)
  MEM_CASE(MemWrite, EA_REG, , MemWriteAccess)
  MEM_CASE(FuseCopyMemRead, EA_REG, COPY_BD, MemReadAccess)
  MEM_CASE(FuseCopyMemWrite, EA_REG, COPY_BD, MemWriteAccess)
  MEM_CASE(FuseAddMemRead, EA_ADD, , MemReadAccess)
  MEM_CASE(FuseAddMemWrite, EA_ADD, , MemWriteAccess)
  MEM_CASE(FuseAddCopyMemRead, EA_ADD, COPY_EX(0), MemReadAccess)
  MEM_CASE(FuseAddCopyMemWrite, EA_ADD, COPY_EX(0), MemWriteAccess)
  MEM_CASE(FuseCopyAddMemRead, EA_COPYADD, , MemReadAccess)
  MEM_CASE(FuseCopyAddMemWrite, EA_COPYADD, , MemWriteAccess)
  MEM_CASE(FuseCopyAddCopyMemRead, EA_COPYADD, COPY_EX(2), MemReadAccess)
  MEM_CASE(FuseCopyAddCopyMemWrite, EA_COPYADD, COPY_EX(2), MemWriteAccess)
  MEM_CASE(FuseShlAddMemRead, EA_SHLADD, , MemReadAccess)
  MEM_CASE(FuseShlAddMemWrite, EA_SHLADD, , MemWriteAccess)
  MEM_CASE(FuseShlAddCopyMemRead, EA_SHLADD, COPY_EX(1), MemReadAccess)
  MEM_CASE(FuseShlAddCopyMemWrite, EA_SHLADD, COPY_EX(1), MemWriteAccess)
#undef MEM_CASE
#undef COPY_EX
#undef COPY_BD
#undef EA_SHLADD
#undef EA_COPYADD
#undef EA_ADD
#undef EA_REG
#undef EX

  // Memory accesses at Ea: after the data effect, the flat loop charges
  // the op's flat cost (only once in range) and runs on; the resumable
  // loop yields.
#define MEM_DONE(S)                                                       \
  if constexpr (Flat) {                                                   \
    StartCyc += O.Y;                                                      \
    ++IP;                                                                 \
    VM_DISPATCH();                                                        \
  } else {                                                                \
    return yieldMem(S);                                                   \
  }

MemReadAccess:
  {
    const FastOp &O = *IP;
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = spillRebased(P, Rebase, S, Ea);
    if (!Mem.inRange(S, Addr, O.N)) {
      materialize(index(IP));
      readRangeTrap(R, S, O.N, Addr, Mem.limits().words(S));
      return finish();
    }
    const uint16_t *Dst = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      F[Dst[K]] = Mem.load(S, Addr + K);
    MEM_DONE(S)
  }

MemWriteAccess:
  {
    const FastOp &O = *IP;
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = spillRebased(P, Rebase, S, Ea);
    if (!Mem.inRange(S, Addr, O.N)) {
      materialize(index(IP));
      writeRangeTrap(R, S, O.N, Addr, Mem.limits().words(S));
      return finish();
    }
    const uint16_t *Src = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      Mem.store(S, Addr + K, F[Src[K]]);
    MEM_DONE(S)
  }

  VM_CASE(BitTestSet) {
    const FastOp &O = *IP;
    MemSpace S = static_cast<MemSpace>(O.Aux);
    uint32_t Addr = spillRebased(P, Rebase, S, F[O.A]);
    if (!Mem.inRange(S, Addr, 1)) {
      materialize(index(IP));
      bitTestSetRangeTrap(R, S, Addr, Mem.limits().words(S));
      return finish();
    }
    uint32_t Old = Mem.load(S, Addr);
    Mem.store(S, Addr, Old | F[O.B]);
    F[O.D] = Old;
    MEM_DONE(S)
  }
#undef MEM_DONE

#define BRANCH_CASE(NAME, CMP)                                            \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = *IP;                                                \
    const ColdInfo &C = ColdA[index(IP)];                                 \
    Ins = StartIns + C.InsDelta;                                          \
    Cyc = StartCyc + C.CycPrefix + BranchCost;                            \
    VM_GOTO(cps::evalCmp(cps::CmpOp::CMP, F[O.A], F[O.B]) ? O.X : O.Y);   \
  }
  BRANCH_CASE(BranchEq, Eq)
  BRANCH_CASE(BranchNe, Ne)
  BRANCH_CASE(BranchLt, Lt)
  BRANCH_CASE(BranchGt, Gt)
  BRANCH_CASE(BranchLe, Le)
  BRANCH_CASE(BranchGe, Ge)
#undef BRANCH_CASE

// Superblock side-exit: fall through to the next op while execution
// stays on the chain; on exit, reconstruct cumulative counts (cold data
// is relative to the SuperEntry) and leave. Aux is the polarity of the
// comparison that continues the chain.
#define GUARD_CASE(NAME, CMP)                                             \
  VM_CASE(NAME) {                                                         \
    const FastOp &O = *IP;                                                \
    if (cps::evalCmp(cps::CmpOp::CMP, F[O.A], F[O.B]) == (O.Aux != 0)) {  \
      ++IP;                                                               \
      VM_DISPATCH();                                                      \
    }                                                                     \
    const ColdInfo &C = ColdA[index(IP)];                                 \
    Ins = StartIns + C.InsDelta;                                          \
    Cyc = StartCyc + C.CycPrefix + BranchCost;                            \
    VM_GOTO(O.X);                                                         \
  }
  GUARD_CASE(GuardEq, Eq)
  GUARD_CASE(GuardNe, Ne)
  GUARD_CASE(GuardLt, Lt)
  GUARD_CASE(GuardGt, Gt)
  GUARD_CASE(GuardLe, Le)
  GUARD_CASE(GuardGe, Ge)
#undef GUARD_CASE

  VM_CASE(Jump) {
    const FastOp &O = *IP;
    const ColdInfo &C = ColdA[index(IP)];
    Ins = StartIns + C.InsDelta;
    Cyc = StartCyc + C.CycPrefix + BranchCost;
    VM_GOTO(O.X);
  }

  VM_CASE(Halt) {
    const FastOp &O = *IP;
    materialize(index(IP));
    const uint16_t *Src = Pool + O.X;
    for (uint32_t K = 0; K != O.N; ++K)
      R.HaltValues.push_back(F[Src[K]]);
    R.Ok = true;
    return finish();
  }

  VM_CASE(TrapStatic) {
    const FastOp &O = *IP;
    materialize(index(IP));
    trap(R, static_cast<sim::TrapKind>(O.Aux), T.Messages[O.X]);
    return finish();
  }

Slow:
  // The per-instruction tier, from (SB, SIdx) with exact counters in R.
  {
    Stepped S = slowTier(Ctx, Mem, Opts, Rebase);
    if (S.K == Stepped::Block) {
      Ctx.InSlow = false;
      Ins = R.Instructions;
      Cyc = R.Cycles;
      IP = Ops + Meta[Ctx.SB].EnterOp;
      VM_DISPATCH();
    }
    if (S.K == Stepped::Mem) {
      park();
      return {Yield::Kind::Mem, S.Space, R.Cycles - BurstStart};
    }
    return finish();
  }
}

#undef VM_GOTO
#undef SUPER_GATE
#undef VM_CASE
#undef VM_DISPATCH

template Yield fastpath::runStream(StreamContext &, BatchMemory &,
                                   const sim::RunOptions &);
template Yield fastpath::runStream(StreamContext &, sim::Memory &,
                                   const sim::RunOptions &);
