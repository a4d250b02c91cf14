//===- Translate.cpp - Decoded allocated code -> flat op stream -----------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The input is the decode the slow tier steps (Translated::Code, built
// by sim::decode): ops, operands, cycle classes and the illegal-register
// fact all come from it, so the fast path and the interpreter read
// allocated code through one decoder.
//
// One pass per block, stopping at the first terminal instruction (branch,
// jump, halt, clone pseudo, invalid memory space): everything past it is
// unreachable — blocks have a single entry and execute linearly. Ops past
// the terminal therefore never inflate the block's watchdog bound. A Nop
// emits nothing but counts as an instruction. A block that reads or
// writes an illegal register (DInstr::ReadsIllegal), or has a constant
// that finds no 16-bit frame slot, is pinned to the per-instruction slow
// path (Meta.ForceSlow): it keeps the interpreter's exact Err-latch
// timing (which instruction traps, whether a memory charge lands first)
// and reads its constants from the decode. Real allocator output has
// neither; the hostile programs in the test suite do.
//
// Branch edges to invalid blocks resolve to appendix trap ops that carry
// the branch's own cold data and a pre-formatted message — the taken-edge
// check costs nothing at runtime.
//
// One emitter, Translator::emitRun, writes every linear run: a chain of
// blocks, each of whose terminals continues into the next. A block's
// stream is the run of a one-block chain after its BlockEntry; a
// superblock's is the run of its chain after its SuperEntry. Ops go
// through the fusion rules of FastPath.h (Translator::fuse), and every
// non-fusible op closes the fusion window.
//
// Superblocks (TranslateOptions::Superblocks, on by default): after the
// per-block pass, single-predecessor chains of non-ForceSlow blocks are
// emitted again as one run headed by a SuperEntry gate. Interior jumps
// vanish (their instruction+branch cost folds into the cumulative cold
// bases), interior branches become Guard side-exits, and every op's cold
// data is cumulative from the superblock entry, so any exit still
// reconstructs exact interpreter counts. The per-block streams survive
// unchanged — they are the watchdog/slow-path fallback and the target of
// edges into chain interiors. Predecessor counts include a virtual edge
// into the program entry, which is exactly what keeps a chain from being
// extended *into* the entry block.
//
//===----------------------------------------------------------------------===//

#include "fastpath/FastPath.h"

#include "sim/SimUtil.h"

#include <cassert>
#include <map>

using namespace nova;
using namespace nova::fastpath;
using namespace nova::sim::detail;
using sim::DInstr;
using sim::DOp;
using sim::DOperand;

namespace {

/// The longest chain merged into one superblock.
constexpr size_t MaxChain = 32;

template <class OpT> constexpr unsigned offset(OpT K, OpT Base) {
  return static_cast<unsigned>(K) - static_cast<unsigned>(Base);
}

constexpr FOp shifted(FOp Base, unsigned By) {
  return static_cast<FOp>(static_cast<unsigned>(Base) + By);
}

/// The FastOp kind of a decoded op in DOp's AluAdd..Halt run.
constexpr FOp fastKind(DOp Op) {
  return shifted(FOp::AluAdd, offset(Op, DOp::AluAdd));
}

// The translator maps DOp's AluAdd..Halt run onto FOp's by offset, and a
// branch onto its Guard by its offset in the comparison run; the ALU and
// comparison runs (copy-fused ALU ops too) follow cps::PrimOp and
// cps::CmpOp order, which the decoder and the handlers rely on.
#define ALU(N)                                                            \
  fastKind(DOp::Alu##N) == FOp::Alu##N &&                                 \
      offset(DOp::Alu##N, DOp::AluAdd) == unsigned(cps::PrimOp::N) &&     \
      offset(FOp::FuseCopy##N, FOp::FuseCopyAdd) == unsigned(cps::PrimOp::N)
#define CMP(C)                                                            \
  fastKind(DOp::Branch##C) == FOp::Branch##C &&                           \
      offset(DOp::Branch##C, DOp::BranchEq) == unsigned(cps::CmpOp::C) && \
      offset(FOp::Guard##C, FOp::GuardEq) == unsigned(cps::CmpOp::C)
static_assert(ALU(Add) && ALU(Sub) && ALU(And) && ALU(Or) && ALU(Xor) &&
              ALU(Shl) && ALU(Shr) && ALU(Not));
static_assert(CMP(Eq) && CMP(Ne) && CMP(Lt) && CMP(Gt) && CMP(Le) && CMP(Ge));
static_assert(fastKind(DOp::Move) == FOp::Copy &&
              fastKind(DOp::Hash) == FOp::Hash &&
              fastKind(DOp::MemRead) == FOp::MemRead &&
              fastKind(DOp::MemWrite) == FOp::MemWrite &&
              fastKind(DOp::BitTestSet) == FOp::BitTestSet &&
              fastKind(DOp::Jump) == FOp::Jump &&
              fastKind(DOp::Halt) == FOp::Halt);
#undef CMP
#undef ALU

bool isBranch(DOp Op) { return Op >= DOp::BranchEq && Op <= DOp::BranchGe; }

/// True when \p Op ends the block's linear execution unconditionally.
bool isTerminal(DOp Op) {
  return isBranch(Op) || Op == DOp::Jump || Op == DOp::Halt ||
         Op == DOp::Clone || Op == DOp::InvalidSpace;
}

struct Translator {
  const sim::LatencyModel &Lat;
  const TranslateOptions &Options;
  Translated T;
  const sim::Decoded &Code = T.Code;
  std::map<uint32_t, uint16_t> ConstSlots;
  /// Set when the block being translated reads an illegal register or
  /// a constant finds no 16-bit frame slot: it runs on the slow tier.
  bool Slow = false;

  /// Pending branch/jump/guard edges: resolved to op indices once every
  /// block has its entry ops placed.
  struct Edge {
    enum Kind : uint8_t { KBranch, KJump, KGuard };
    uint32_t OpIdx;
    uint32_t Block;   ///< block the branch/jump lives in (for messages)
    Kind K;
  };
  std::vector<Edge> Edges;

  Translator(const sim::LatencyModel &L, const TranslateOptions &O)
      : Lat(L), Options(O) {}

  uint16_t constSlot(uint32_t V) {
    auto It = ConstSlots.find(V);
    if (It != ConstSlots.end())
      return It->second;
    size_t S = FrameRegs + T.Consts.size();
    if (S > UINT16_MAX) {
      Slow = true;
      return 0;
    }
    ConstSlots.emplace(V, static_cast<uint16_t>(S));
    T.Consts.push_back(V);
    return static_cast<uint16_t>(S);
  }

  /// The frame slot of \p O, a register or a constant. An operand the
  /// op does not use is Illegal and gives 0; a block whose ops use an
  /// Illegal one is taken back (DInstr::ReadsIllegal).
  uint16_t slot(const DOperand &O) {
    return O.K == DOperand::Const ? constSlot(O.V)
                                  : static_cast<uint16_t>(O.V);
  }

  /// Appends the slots of \p I's word list to the pool; returns where
  /// they start.
  uint32_t poolWords(const DInstr &I) {
    uint32_t At = static_cast<uint32_t>(T.Pool.size());
    for (uint32_t K = 0; K != I.Y; ++K)
      T.Pool.push_back(slot(Code.Pool[I.X + K]));
    return At;
  }

  uint32_t message(std::string M) {
    T.Messages.push_back(std::move(M));
    return static_cast<uint32_t>(T.Messages.size() - 1);
  }

  /// Start of the current linear run: ops from here to the end of the
  /// stream are still open to fusion. Every non-fusible emission (entry,
  /// exit, trap) closes the run; a superblock's interior jump emits
  /// nothing, so the run continues across it on purpose.
  size_t FuseFrom = 0;

  void emit(const FastOp &O, const ColdInfo &C) {
    T.Ops.push_back(O);
    T.Cold.push_back(C);
    FuseFrom = T.Ops.size();
  }

  /// Emission with fusion: after appending \p O, the last two ops of the
  /// run merge while a rule in fuse() matches. A merged op may complete
  /// a pair with the op before it (an address producer ahead of a
  /// copy-fused memory op), hence the loop.
  void emitFusible(const FastOp &O, const ColdInfo &C) {
    T.Ops.push_back(O);
    T.Cold.push_back(C);
    while (T.Ops.size() - FuseFrom >= 2) {
      size_t I = T.Ops.size() - 2;
      if (!fuse(T.Ops[I], T.Ops[I + 1]))
        break;
      // The later op's cold data: it is the one a fused memory op traps
      // and yields with, and ALU ops never read theirs.
      T.Cold[I] = T.Cold[I + 1];
      T.Ops.pop_back();
      T.Cold.pop_back();
      ++T.FusedOps;
    }
  }

  static bool isAlu(FOp K) { return K >= FOp::AluAdd && K <= FOp::AluNot; }

  /// The address-mode rule's producers and memory consumers, in the
  /// order of the FuseAddMemRead.. opcode block.
  static int producerIndex(FOp K) {
    switch (K) {
    case FOp::AluAdd:      return 0;
    case FOp::FuseCopyAdd: return 1;
    case FOp::FuseShlAdd:  return 2;
    default:               return -1;
    }
  }
  static int consumerIndex(FOp K) {
    switch (K) {
    case FOp::MemRead:          return 0;
    case FOp::MemWrite:         return 1;
    case FOp::FuseCopyMemRead:  return 2;
    case FOp::FuseCopyMemWrite: return 3;
    default:                    return -1;
    }
  }

  /// The fusion rules. Each merges the stream-adjacent pair \p First;
  /// \p Second into \p First and returns true. Legal because interior op
  /// indices are never control-flow targets (transfers land on
  /// BlockEntry/SuperEntry, one past a SuperEntry, or appendix traps) and
  /// interior ops touch no counters, so cold data reconstructs exact
  /// counts at every exit either way. Every fused handler performs the
  /// pair's writes in program order. The rules key on opcodes and
  /// dataflow only.
  bool fuse(FastOp &First, const FastOp &Second) {
    // Operand forwarding: the second op of a copy pair reads the
    // copy's source wherever it would read the copy's destination, so a
    // handler may read all sources before its first write.
    auto Fwd = [&](uint16_t S) { return S == First.D ? First.A : S; };

    if (First.Kind == FOp::Copy &&
        (isAlu(Second.Kind) || Second.Kind == FOp::Copy)) {
      FastOp N = Second;
      N.Kind = Second.Kind == FOp::Copy
                   ? FOp::FuseCopyCopy
                   : shifted(FOp::FuseCopyAdd,
                             offset(Second.Kind, FOp::AluAdd));
      N.A = Fwd(Second.A);
      N.B = Fwd(Second.B);
      N.X = First.D; // copy destination
      N.Y = First.A; // copy source
      First = N;
      return true;
    }
    // A copy staging a memory op's address or data: the memory op's B
    // and D fields are free and carry the copy.
    if (First.Kind == FOp::Copy &&
        (Second.Kind == FOp::MemRead || Second.Kind == FOp::MemWrite)) {
      FastOp N = Second;
      N.Kind = Second.Kind == FOp::MemRead ? FOp::FuseCopyMemRead
                                           : FOp::FuseCopyMemWrite;
      N.A = Fwd(Second.A);
      if (Second.Kind == FOp::MemWrite)
        for (uint32_t K = 0; K != Second.N; ++K)
          T.Pool[Second.X + K] = Fwd(T.Pool[Second.X + K]);
      N.B = First.A;
      N.D = First.D;
      First = N;
      return true;
    }
    // Address idiom: the shifted value feeds exactly one add operand and
    // dies into the add's destination, so it needs no frame slot.
    if (First.Kind == FOp::AluShl && Second.Kind == FOp::AluAdd &&
        Second.D == First.D &&
        ((Second.A == First.D) != (Second.B == First.D))) {
      FastOp N;
      N.Kind = FOp::FuseShlAdd;
      N.A = First.A;
      N.B = First.B;
      N.D = Second.D;
      N.X = Second.A == First.D ? Second.B : Second.A; // the add's base
      First = N;
      return true;
    }
    // Address-mode memory ops: a memory op whose address is the
    // destination of the add just before it absorbs that producer and
    // computes the address in the same dispatch. The add's operands take
    // the free A/B/D fields; a producer's copy or base slot and the
    // consumer's own copy go to the pool right after the memory op's
    // word list (Pool[X+N..]).
    int Prod = producerIndex(First.Kind);
    int Cons = consumerIndex(Second.Kind);
    if (Prod >= 0 && Cons >= 0 && Second.A == First.D) {
      assert(T.Pool.size() == size_t(Second.X) + Second.N &&
             "a fusing memory op's word list ends the pool");
      if (First.Kind == FOp::FuseCopyAdd) {
        T.Pool.push_back(static_cast<uint16_t>(First.X)); // copy dst
        T.Pool.push_back(static_cast<uint16_t>(First.Y)); // copy src
      } else if (First.Kind == FOp::FuseShlAdd) {
        T.Pool.push_back(static_cast<uint16_t>(First.X)); // base
      }
      if (Cons >= 2) {
        T.Pool.push_back(Second.D); // the consumer copy's dst
        T.Pool.push_back(Second.B); // and src
      }
      FastOp N = Second;
      N.Kind = shifted(FOp::FuseAddMemRead,
                       4 * static_cast<unsigned>(Prod) +
                           static_cast<unsigned>(Cons));
      N.A = First.A;
      N.B = First.B;
      N.D = First.D;
      First = N;
      return true;
    }
    return false;
  }

  /// The FastOp of \p I, an op in DOp's AluAdd..BitTestSet run. An
  /// operand the op does not use decodes as Illegal, so its field is 0.
  FastOp simpleOp(const DInstr &I) {
    FastOp O;
    O.Kind = fastKind(I.Op);
    O.A = slot(I.A);
    O.B = slot(I.B);
    O.D = slot(I.D);
    if (I.Op >= DOp::MemRead) {
      O.Aux = static_cast<uint8_t>(I.Space);
      O.Y = Lat.memAccess(I.Space);
      if (I.Op != DOp::BitTestSet) {
        O.N = I.Y;
        O.X = poolWords(I);
      }
    }
    return O;
  }

  /// A trap op whose message is formatted now, at translation time.
  void emitTrap(sim::TrapKind K, std::string Message, const ColdInfo &C) {
    FastOp O;
    O.Kind = FOp::TrapStatic;
    O.Aux = static_cast<uint8_t>(K);
    O.X = message(std::move(Message));
    emit(O, C);
  }

  /// The op for terminal \p I of block \p B that leaves its run: a
  /// static trap, a branch or jump to be resolved, or a halt.
  void emitExit(const DInstr &I, uint32_t B, const ColdInfo &C) {
    if (I.Op == DOp::Clone) {
      emitTrap(sim::TrapKind::MalformedProgram, ClonePseudoMessage, C);
      return;
    }
    if (I.Op == DOp::InvalidSpace) {
      emitTrap(sim::TrapKind::IllegalMemSpace,
               invalidSpaceMessage(I.Space, B), C);
      return;
    }
    FastOp O;
    O.Kind = fastKind(I.Op);
    if (I.Op == DOp::Halt) {
      O.N = I.Y;
      O.X = poolWords(I);
    } else { // a branch or a jump, whose unused fields decode as 0
      O.A = slot(I.A);
      O.B = slot(I.B);
      O.X = I.X; // block ids until the patch pass
      O.Y = I.Y;
      Edges.push_back({static_cast<uint32_t>(T.Ops.size()), B,
                       I.Op == DOp::Jump ? Edge::KJump : Edge::KBranch});
    }
    emit(O, C);
  }

  /// Emits the linear run of \p Chain, a chain of blocks each of whose
  /// terminals continues into the next: every instruction up to the last
  /// block's terminal (or its end, which traps). Cold data is cumulative
  /// from the run's start. Between two chain blocks a jump emits nothing
  /// (its fetch and branch cost fold into the cumulative bases) and a
  /// branch becomes a Guard that side-exits off the chain. Returns the
  /// last block's path: the instructions a traversal of it can consume.
  uint32_t emitRun(const std::vector<uint32_t> &Chain) {
    // Instructions retired and cycles charged by the chain *before* the
    // current block (memory-op costs excluded: they accrue into the
    // runtime cycle base as the ops execute).
    uint32_t InsBase = 0, CycBase = 0;
    for (size_t J = 0;; ++J) {
      uint32_t B = Chain[J];
      const DInstr *Instrs = Code.Instrs.data() + Code.Blocks[B].First;
      const uint32_t Count = Code.Blocks[B].Count;
      uint32_t K = 0, CycPrefix = 0;
      for (; K != Count && !isTerminal(Instrs[K].Op); ++K) {
        Slow |= Instrs[K].ReadsIllegal;
        ColdInfo C{InsBase + K + 1, CycBase + CycPrefix};
        if (Instrs[K].Op != DOp::Nop)
          emitFusible(simpleOp(Instrs[K]), C);
        // Memory ops add 0: their flat cost is FastOp::Y, charged as the
        // op executes so the stream stays resumable.
        CycPrefix += Lat.cycles(Instrs[K].Cyc);
      }
      ColdInfo C{InsBase + K + 1, CycBase + CycPrefix};
      if (K == Count) {
        // Fell off the end: one more instruction fetch, then the trap
        // (only in the last block: a block with no terminal has no
        // successor).
        emitTrap(sim::TrapKind::MalformedProgram, fellOffMessage(B), C);
        return K + 1;
      }
      const DInstr &I = Instrs[K];
      Slow |= I.ReadsIllegal;
      if (J + 1 == Chain.size()) {
        emitExit(I, B, C);
        return K + 1;
      }
      if (isBranch(I.Op)) {
        // Interior branch: a Guard that continues into the next chain
        // block and side-exits with cumulative counts.
        bool ContinueOnTrue = Chain[J + 1] == I.X;
        FastOp O;
        O.Kind = shifted(FOp::GuardEq, offset(I.Op, DOp::BranchEq));
        O.Aux = ContinueOnTrue ? 1 : 0;
        O.A = slot(I.A);
        O.B = slot(I.B);
        O.X = ContinueOnTrue ? I.Y : I.X;
        Edges.push_back({static_cast<uint32_t>(T.Ops.size()), B, Edge::KGuard});
        emit(O, C);
      }
      InsBase += K + 1;
      CycBase += CycPrefix + Lat.cycles(I.Cyc);
    }
  }

  void translateBlock(uint32_t B) {
    BlockMeta &M = T.Meta[B];
    M.FirstOp = static_cast<uint32_t>(T.Ops.size());

    FastOp Entry;
    Entry.Kind = FOp::BlockEntry;
    Entry.X = B;
    emit(Entry, {});

    const size_t Ops = T.Ops.size(), Pool = T.Pool.size(),
                 Consts = T.Consts.size(), Messages = T.Messages.size(),
                 NumEdges = Edges.size();
    const unsigned Fused = T.FusedOps;
    M.MaxPath = emitRun({B});
    if (!Slow)
      return;
    // One illegal register pins the whole block to the slow path (the
    // Err latch makes per-instruction timing observable from the first
    // instruction that touches it), and so does a constant without a
    // slot. Everything the block added is taken back.
    Slow = false;
    for (; T.Consts.size() != Consts; T.Consts.pop_back())
      ConstSlots.erase(T.Consts.back());
    T.Ops.resize(Ops);
    T.Cold.resize(Ops);
    T.Pool.resize(Pool);
    T.Messages.resize(Messages);
    Edges.resize(NumEdges);
    T.FusedOps = Fused;
    M.ForceSlow = true;
    ++T.SlowBlocks;
    M.MaxPath = Code.Blocks[B].Count + 1;
  }

  /// The first terminal instruction of \p B, or null when the block
  /// falls off its end.
  const DInstr *terminalOf(uint32_t B) const {
    const DInstr *Instrs = Code.Instrs.data() + Code.Blocks[B].First;
    for (uint32_t K = 0; K != Code.Blocks[B].Count; ++K)
      if (isTerminal(Instrs[K].Op))
        return &Instrs[K];
    return nullptr;
  }

  /// Superblock formation: collapse single-predecessor chains into one
  /// linear stream with cumulative cold data and Guard side-exits. Every
  /// block keeps its standalone stream; Meta.EnterOp redirects resolved
  /// edges at chain heads into the superblock.
  void buildSuperblocks() {
    const uint32_t N = static_cast<uint32_t>(Code.Blocks.size());
    std::vector<uint32_t> Pred(N, 0);
    if (validEntry(Code))
      ++Pred[Code.Entry]; // virtual edge: keeps chains out of the entry
    for (uint32_t B = 0; B != N; ++B) {
      // A branch whose targets agree counts twice on purpose: a
      // degenerate guard (exit == continue) is never worth forming.
      const DInstr *I = terminalOf(B);
      if (I && (I->Op == DOp::Jump || isBranch(I->Op)) && I->X < N)
        ++Pred[I->X];
      if (I && isBranch(I->Op) && I->Y < N)
        ++Pred[I->Y];
    }

    std::vector<uint8_t> InChain(N, 0);
    auto eligible = [&](uint32_t S, uint32_t Head) {
      return S < N && S != Head && !InChain[S] && !T.Meta[S].ForceSlow &&
             Pred[S] == 1;
    };
    for (uint32_t B = 0; B != N; ++B) {
      if (InChain[B] || T.Meta[B].ForceSlow)
        continue;
      std::vector<uint32_t> Chain{B};
      uint32_t Cur = B;
      while (Chain.size() < MaxChain) {
        const DInstr *I = terminalOf(Cur);
        uint32_t Next = ixp::NoBlock;
        if (I && (I->Op == DOp::Jump || isBranch(I->Op)) && eligible(I->X, B))
          Next = I->X;
        else if (I && isBranch(I->Op) && eligible(I->Y, B))
          Next = I->Y;
        if (Next == ixp::NoBlock)
          break;
        Chain.push_back(Next);
        InChain[Next] = 1;
        Cur = Next;
      }
      if (Chain.size() < 2)
        continue;
      InChain[B] = 1;
      emitSuperblock(Chain);
    }
  }

  void emitSuperblock(const std::vector<uint32_t> &Chain) {
    uint32_t EntryIdx = static_cast<uint32_t>(T.Ops.size());
    uint64_t CumPath = 0;
    for (uint32_t B : Chain)
      CumPath += T.Meta[B].MaxPath;

    FastOp E;
    E.Kind = FOp::SuperEntry;
    E.X = Chain.front();
    E.Y = static_cast<uint32_t>(CumPath);
    emit(E, {});
    emitRun(Chain);
    assert(!Slow && "a chain block's constants all have slots");

    T.Meta[Chain.front()].EnterOp = EntryIdx;
    ++T.Superblocks;
    T.SuperblockOps += static_cast<uint32_t>(T.Ops.size()) - EntryIdx;
  }

  /// Resolves one stored block id to an op index, appending a trap op
  /// for edges that leave the program.
  uint32_t resolveEdge(uint32_t TargetBlock, const Edge &E,
                       const char *What) {
    if (TargetBlock < T.Meta.size())
      return T.Meta[TargetBlock].EnterOp;
    uint32_t Idx = static_cast<uint32_t>(T.Ops.size());
    ColdInfo C = T.Cold[E.OpIdx]; // taken-branch counts, sans branch cost
    emitTrap(sim::TrapKind::MalformedProgram,
             badTargetMessage(What, E.Block, TargetBlock), C);
    return Idx;
  }

  Translated run(const alloc::AllocatedProgram &P) {
    T.Code = sim::decode(P);
    T.Lat = Lat;
    const uint32_t N = static_cast<uint32_t>(Code.Blocks.size());
    T.Meta.resize(N);
    for (uint32_t B = 0; B != N; ++B)
      translateBlock(B);
    for (uint32_t B = 0; B != N; ++B)
      T.Meta[B].EnterOp = T.Meta[B].FirstOp;
    if (Options.Superblocks)
      buildSuperblocks();
    for (const Edge &E : Edges) {
      const char *What = E.K == Edge::KJump ? "jump" : "branch";
      // resolveEdge may append an op and reallocate T.Ops — re-index
      // after every call rather than holding a reference.
      uint32_t X = resolveEdge(T.Ops[E.OpIdx].X, E, What);
      T.Ops[E.OpIdx].X = X;
      if (E.K == Edge::KBranch) {
        uint32_t Y = resolveEdge(T.Ops[E.OpIdx].Y, E, What);
        T.Ops[E.OpIdx].Y = Y;
      }
    }
    return std::move(T);
  }
};

} // namespace

Translated fastpath::translate(const alloc::AllocatedProgram &P,
                               const sim::LatencyModel &Lat) {
  return translate(P, Lat, TranslateOptions());
}

Translated fastpath::translate(const alloc::AllocatedProgram &P,
                               const sim::LatencyModel &Lat,
                               const TranslateOptions &Options) {
  return Translator(Lat, Options).run(P);
}
