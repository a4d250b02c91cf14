//===- Translate.cpp - AllocatedProgram -> flat pre-decoded op stream -----===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// One pass per block, stopping at the first terminal instruction (branch,
// jump, halt, clone pseudo, invalid memory space): everything past it is
// unreachable — blocks have a single entry and execute linearly. Ops past
// the terminal therefore never inflate the block's watchdog bound. Blocks
// that contain a statically illegal register operand are pinned to the
// per-instruction slow path (Meta.ForceSlow): the Err-latch timing of the
// interpreter is observable (which instruction traps, whether a memory
// charge lands first), so those blocks keep the interpreter's exact
// step-by-step schedule. Real allocator output never contains them; the
// hostile hand-built programs in the test suite do.
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
using alloc::AllocInstr;
using alloc::AOperand;
using alloc::PhysLoc;
using ixp::MOp;

namespace {

using sim::frameSlot;

/// The longest chain merged into one superblock.
constexpr size_t MaxChain = 32;

/// True when \p I ends the block's linear execution unconditionally.
bool isTerminal(const AllocInstr &I) {
  return I.Op == MOp::Branch || I.Op == MOp::Jump || I.Op == MOp::Halt ||
         I.Op == MOp::Clone || hasInvalidSpace(I);
}

struct Translator {
  const alloc::AllocatedProgram &P;
  const sim::LatencyModel &Lat;
  const TranslateOptions &Options;
  Translated T;
  std::map<uint32_t, uint16_t> ConstSlots;

  /// Pending branch/jump/guard edges: resolved to op indices once every
  /// block has its entry ops placed.
  struct Edge {
    enum Kind : uint8_t { KBranch, KJump, KGuard };
    uint32_t OpIdx;
    uint32_t Block;   ///< block the branch/jump lives in (for messages)
    Kind K;
  };
  std::vector<Edge> Edges;

  Translator(const alloc::AllocatedProgram &Prog, const sim::LatencyModel &L,
             const TranslateOptions &O)
      : P(Prog), Lat(L), Options(O) {}

  uint16_t constSlot(uint32_t V) {
    auto It = ConstSlots.find(V);
    if (It != ConstSlots.end())
      return It->second;
    uint16_t S = static_cast<uint16_t>(FrameRegs + T.Consts.size());
    ConstSlots.emplace(V, S);
    T.Consts.push_back(V);
    return S;
  }

  int srcSlot(const AOperand &O) {
    return O.IsConst ? constSlot(O.Value) : frameSlot(O.Loc);
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
  static unsigned offset(FOp K, FOp Base) {
    return static_cast<unsigned>(K) - static_cast<unsigned>(Base);
  }
  static FOp shifted(FOp Base, unsigned By) {
    return static_cast<FOp>(static_cast<unsigned>(Base) + By);
  }

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

  /// True when every register operand \p I names exists (constants are
  /// always fine). Terminal-before-read cases never reach here.
  bool operandsLegal(const AllocInstr &I) {
    for (const AOperand &S : I.Srcs)
      if (!S.IsConst && frameSlot(S.Loc) < 0)
        return false;
    for (PhysLoc D : I.Dsts)
      if (frameSlot(D) < 0)
        return false;
    return true;
  }

  /// Decodes a non-terminal instruction into a FastOp. Terminals and
  /// invalid-space memory ops never reach here; operands are legal (the
  /// block passed the pre-scan).
  FastOp decodeSimple(const AllocInstr &I) {
    FastOp O;
    switch (I.Op) {
    case MOp::Alu:
      O.Kind = static_cast<FOp>(static_cast<unsigned>(FOp::AluAdd) +
                                static_cast<unsigned>(I.Alu));
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.B = static_cast<uint16_t>(
          I.Srcs.size() > 1 ? srcSlot(I.Srcs[1]) : constSlot(0));
      O.D = static_cast<uint16_t>(frameSlot(I.Dsts[0]));
      break;
    case MOp::Imm:
      O.Kind = FOp::Copy;
      O.A = constSlot(I.Imm);
      O.D = static_cast<uint16_t>(frameSlot(I.Dsts[0]));
      break;
    case MOp::Move:
      O.Kind = FOp::Copy;
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.D = static_cast<uint16_t>(frameSlot(I.Dsts[0]));
      break;
    case MOp::Hash:
      O.Kind = FOp::Hash;
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.D = static_cast<uint16_t>(frameSlot(I.Dsts[0]));
      break;
    case MOp::MemRead:
      O.Kind = FOp::MemRead;
      O.Aux = static_cast<uint8_t>(I.Space);
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.N = static_cast<uint32_t>(I.Dsts.size());
      O.X = static_cast<uint32_t>(T.Pool.size());
      O.Y = Lat.memAccess(I.Space);
      for (PhysLoc D : I.Dsts)
        T.Pool.push_back(static_cast<uint16_t>(frameSlot(D)));
      break;
    case MOp::MemWrite:
      O.Kind = FOp::MemWrite;
      O.Aux = static_cast<uint8_t>(I.Space);
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.N = static_cast<uint32_t>(I.Srcs.size() - 1);
      O.X = static_cast<uint32_t>(T.Pool.size());
      O.Y = Lat.memAccess(I.Space);
      for (size_t S = 1; S != I.Srcs.size(); ++S)
        T.Pool.push_back(static_cast<uint16_t>(srcSlot(I.Srcs[S])));
      break;
    case MOp::BitTestSet:
      O.Kind = FOp::BitTestSet;
      O.Aux = static_cast<uint8_t>(I.Space);
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.B = static_cast<uint16_t>(srcSlot(I.Srcs[1]));
      O.D = static_cast<uint16_t>(frameSlot(I.Dsts[0]));
      O.Y = Lat.memAccess(I.Space);
      break;
    default:
      break; // unreachable: terminals handled by callers
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
  void emitExit(const AllocInstr &I, uint32_t B, const ColdInfo &C) {
    FastOp O;
    switch (I.Op) {
    case MOp::Clone:
      emitTrap(sim::TrapKind::MalformedProgram, ClonePseudoMessage, C);
      return;
    case MOp::Branch:
      O.Kind = static_cast<FOp>(static_cast<unsigned>(FOp::BranchEq) +
                                static_cast<unsigned>(I.Cmp));
      O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
      O.B = static_cast<uint16_t>(srcSlot(I.Srcs[1]));
      O.X = I.Target;     // block ids until the patch pass
      O.Y = I.TargetElse;
      Edges.push_back({static_cast<uint32_t>(T.Ops.size()), B, Edge::KBranch});
      break;
    case MOp::Jump:
      O.Kind = FOp::Jump;
      O.X = I.Target;
      Edges.push_back({static_cast<uint32_t>(T.Ops.size()), B, Edge::KJump});
      break;
    case MOp::Halt:
      O.Kind = FOp::Halt;
      O.N = static_cast<uint32_t>(I.Srcs.size());
      O.X = static_cast<uint32_t>(T.Pool.size());
      for (const AOperand &S : I.Srcs)
        T.Pool.push_back(static_cast<uint16_t>(srcSlot(S)));
      break;
    default: // a memory op on an invalid space
      emitTrap(sim::TrapKind::IllegalMemSpace,
               invalidSpaceMessage(I.Space, B), C);
      return;
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
      const std::vector<AllocInstr> &Instrs = P.Blocks[B].Instrs;
      uint32_t K = 0, CycPrefix = 0;
      for (; K != Instrs.size() && !isTerminal(Instrs[K]); ++K) {
        ColdInfo C{InsBase + K + 1, CycBase + CycPrefix};
        emitFusible(decodeSimple(Instrs[K]), C);
        // Memory ops add 0: their flat cost is FastOp::Y, charged as the
        // op executes so the stream stays resumable.
        CycPrefix += Lat.opCycles(Instrs[K]);
      }
      ColdInfo C{InsBase + K + 1, CycBase + CycPrefix};
      if (K == Instrs.size()) {
        // Fell off the end: one more instruction fetch, then the trap
        // (only in the last block: a block with no terminal has no
        // successor).
        emitTrap(sim::TrapKind::MalformedProgram, fellOffMessage(B), C);
        return K + 1;
      }
      const AllocInstr &I = Instrs[K];
      if (J + 1 == Chain.size()) {
        emitExit(I, B, C);
        return K + 1;
      }
      if (I.Op == MOp::Branch) {
        // Interior branch: a Guard that continues into the next chain
        // block and side-exits with cumulative counts.
        bool ContinueOnTrue = Chain[J + 1] == I.Target;
        FastOp O;
        O.Kind = static_cast<FOp>(static_cast<unsigned>(FOp::GuardEq) +
                                  static_cast<unsigned>(I.Cmp));
        O.Aux = ContinueOnTrue ? 1 : 0;
        O.A = static_cast<uint16_t>(srcSlot(I.Srcs[0]));
        O.B = static_cast<uint16_t>(srcSlot(I.Srcs[1]));
        O.X = ContinueOnTrue ? I.TargetElse : I.Target;
        Edges.push_back({static_cast<uint32_t>(T.Ops.size()), B, Edge::KGuard});
        emit(O, C);
      }
      InsBase += K + 1;
      CycBase += CycPrefix + Lat.opCycles(I);
    }
  }

  void translateBlock(uint32_t B) {
    const std::vector<AllocInstr> &Instrs = P.Blocks[B].Instrs;
    BlockMeta &M = T.Meta[B];
    M.FirstOp = static_cast<uint32_t>(T.Ops.size());

    FastOp Entry;
    Entry.Kind = FOp::BlockEntry;
    Entry.X = B;
    emit(Entry, {});

    // Legality pre-scan: one statically illegal register pins the whole
    // block to the slow path (the Err latch makes per-instruction timing
    // observable from the first instruction that touches it).
    for (const AllocInstr &I : Instrs) {
      bool ReadsOperands = I.Op != MOp::Clone && !hasInvalidSpace(I);
      if (ReadsOperands && !operandsLegal(I)) {
        M.ForceSlow = true;
        ++T.SlowBlocks;
        M.MaxPath = static_cast<uint32_t>(Instrs.size()) + 1;
        return;
      }
      if (isTerminal(I))
        break;
    }
    M.MaxPath = emitRun({B});
  }

  /// The first terminal instruction of \p B, or null when the block
  /// falls off its end.
  const AllocInstr *terminalOf(uint32_t B) const {
    for (const AllocInstr &I : P.Blocks[B].Instrs)
      if (isTerminal(I))
        return &I;
    return nullptr;
  }

  /// Superblock formation: collapse single-predecessor chains into one
  /// linear stream with cumulative cold data and Guard side-exits. Every
  /// block keeps its standalone stream; Meta.EnterOp redirects resolved
  /// edges at chain heads into the superblock.
  void buildSuperblocks() {
    const uint32_t N = static_cast<uint32_t>(P.Blocks.size());
    std::vector<uint32_t> Pred(N, 0);
    if (validEntry(P))
      ++Pred[P.Entry]; // virtual edge: keeps chains out of the entry
    for (uint32_t B = 0; B != N; ++B) {
      const AllocInstr *I = terminalOf(B);
      if (!I)
        continue;
      if (I->Op == MOp::Jump) {
        if (I->Target < N)
          ++Pred[I->Target];
      } else if (I->Op == MOp::Branch) {
        // Target == TargetElse counts twice on purpose: a degenerate
        // guard (exit == continue) is never worth forming.
        if (I->Target < N)
          ++Pred[I->Target];
        if (I->TargetElse < N)
          ++Pred[I->TargetElse];
      }
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
        const AllocInstr *I = terminalOf(Cur);
        uint32_t Next = ixp::NoBlock;
        if (I && I->Op == MOp::Jump && eligible(I->Target, B)) {
          Next = I->Target;
        } else if (I && I->Op == MOp::Branch) {
          if (eligible(I->Target, B))
            Next = I->Target;
          else if (eligible(I->TargetElse, B))
            Next = I->TargetElse;
        }
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

  Translated run() {
    T.Code = sim::decode(P);
    T.Lat = Lat;
    T.Meta.resize(P.Blocks.size());
    for (uint32_t B = 0; B != P.Blocks.size(); ++B)
      translateBlock(B);
    for (uint32_t B = 0; B != P.Blocks.size(); ++B)
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
  return Translator(P, Lat, Options).run();
}
