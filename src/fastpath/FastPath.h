//===- FastPath.h - Translating fast path for allocated code ----*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A translating execution mode for alloc::AllocatedProgram: each program
/// is decoded once (sim::decode, the interpreter's own decoder) and its
/// decode translated into a flat op stream executed by a computed-goto
/// dispatch loop (src/fastpath/Engine.cpp). The fast path is itself a
/// compiler, so it plugs into the soak harness's differential oracle
/// with the interpreter (sim::AllocContext) as the reference — the
/// contract is *bit-identical* RunResults: same trap kinds and message
/// strings, same instruction and cycle counts at the trap point, same
/// halt values and final memory images, same fault-injector draw
/// sequences.
///
/// Translation scheme:
///  - the decode's frame slots become direct offsets into a flat register
///    frame with constants folded into slots after the registers, so an
///    operand read is one unchecked array index;
///  - the decode's fused opcodes map onto specialized opcodes (AluAdd..
///    AluNot, BranchEq..BranchGe) whose handlers call the centralized
///    cps::evalPrim/evalCmp with a compile-time op;
///  - block targets resolve to op indices; a branch edge to an invalid
///    block resolves to a pre-formatted trap op, so the runtime check
///    disappears;
///  - instruction and cycle accounting is block-aggregated: interior ops
///    touch no counters. Every exit op (branch, jump, halt, trap)
///    reconstructs the exact interpreter counts from per-op cold data
///    (index in block, exclusive cycle prefix sum) relative to the
///    counters saved at block entry. Latency costs (including the
///    per-Imm 1-vs-2-cycle split) are folded at translation time, which
///    is why the translation is specific to one LatencyModel;
///  - adjacent ops fuse into superinstructions. Interior op indices are
///    never control-flow targets and interior ops touch no counters, so
///    merging ops is invisible to both control flow and the reconstructed
///    counts. The rules key on opcodes and dataflow within the linear run
///    of a block or superblock, never on an app or a profile:
///      * copy pairs: a Copy followed by an ALU op, a Copy or a memory op
///        becomes FuseCopy* (and AluShl feeding one AluAdd operand into
///        the same register becomes FuseShlAdd);
///      * operand forwarding: the second op of a copy pair reads the
///        copy's source wherever it would read the copy's destination,
///        so the handler reads every source before its first write and
///        no value round-trips through the frame within the pair;
///      * address-mode memory ops: a MemRead, MemWrite or FuseCopyMem*
///        whose address is the destination of the AluAdd, FuseCopyAdd or
///        FuseShlAdd just before it absorbs that producer. One dispatch
///        writes the producer's registers in program order, computes the
///        address in a register and accesses memory; it carries the
///        memory op's cold data, being the trap and yield point;
///      * back-edge gates: a jump, branch or guard edge whose target is a
///        SuperEntry runs the superblock's budget gate in its own handler
///        and continues at the target's first interior op (or falls back
///        to the head block's BlockEntry), saving a dispatch per loop
///        iteration.
///    Fused forms keep FastOp at 20 bytes: the extra slots of an
///    address-mode op (a producer's copy or base, the consumer's copy)
///    sit in the Pool right after its memory word list. Fusion adds no
///    constants, so frameSize() — and a snapshot's frame — is the same
///    with or without it.
///
/// Superblocks: hot single-predecessor block chains are additionally
/// collapsed into superblock streams (SuperEntry + interior ops with
/// cumulative cold data + Guard side-exits), so interior block
/// boundaries cost nothing. Every block keeps its standalone per-block
/// stream — the superblock is an alternate entry used by resolved edges;
/// the watchdog gate at SuperEntry falls back to the per-block stream
/// whenever the whole chain might not fit in the remaining budget.
///
/// Exactness escape hatches: a block whose code can observe per-
/// instruction state — a statically illegal register operand (the Err
/// latch), an armed fault injector, strict shift trapping, or a watchdog
/// that may fire inside the block — runs on the slow tier, which is the
/// interpreter's own per-instruction step (sim::detail::step) over the
/// same register frame and decode. So does a block with a constant past
/// the 16-bit slot space. Everything else runs on the threaded dispatch
/// loop with zero per-instruction bookkeeping.
///
/// Memory-access cycle costs are *not* folded into the cold prefix sums:
/// each memory op carries its flat cost in FastOp::Y, charged into the
/// block-entry cycle base as the op executes. That split is what makes
/// the stream resumable. runStream() is the one dispatch loop, in two
/// instantiations: Engine's flat one charges Y itself (standalone soak,
/// flat latency), while SegmentContext's resumable one (Segment.h)
/// yields to the whole-chip scheduler instead and absorbs whatever
/// contention-dependent charge the caller applied, keeping the chip's
/// discrete-event schedule bit-identical to the interpreted chip.
///
//===----------------------------------------------------------------------===//

#ifndef FASTPATH_FASTPATH_H
#define FASTPATH_FASTPATH_H

#include "fastpath/BatchMemory.h"
#include "sim/Decoded.h"
#include "sim/ExecContext.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nova {
namespace fastpath {

/// Frame layout: the interpreter's FrameRegs register slots, then
/// folded constants.
using sim::FrameRegs;

/// Specialized opcodes of the pre-decoded stream.
enum class FOp : uint8_t {
  BlockEntry, ///< X=block id: watchdog/slow-path gate, saves counters
  AluAdd, AluSub, AluAnd, AluOr, AluXor, AluShl, AluShr, AluNot,
  Copy,       ///< Frame[D] = Frame[A] (Move, and Imm via a const slot)
  Hash,       ///< Frame[D] = hwHash(Frame[A])
  MemRead,    ///< Aux=space, A=addr slot, N dsts at Pool[X]
  MemWrite,   ///< Aux=space, A=addr slot, N srcs at Pool[X]
  BitTestSet, ///< Aux=space, A=addr, B=bits, D=old value
  BranchEq, BranchNe, BranchLt, BranchGt, BranchLe, BranchGe,
              ///< A,B compared; goto op X (then) / Y (else)
  Jump,       ///< goto op X
  Halt,       ///< push N frame slots at Pool[X]; Ok
  TrapStatic, ///< Aux=TrapKind, X=message index; counts from cold data
  SuperEntry, ///< X=head block id, Y=chain max path: superblock gate
  GuardEq, GuardNe, GuardLt, GuardGt, GuardLe, GuardGe,
              ///< superblock side-exit: continue when cmp == Aux,
              ///< else exit to op X with cumulative counts + branch cost
  FuseCopyAdd, FuseCopySub, FuseCopyAnd, FuseCopyOr, FuseCopyXor,
  FuseCopyShl, FuseCopyShr, FuseCopyNot,
              ///< fused pair: Frame[X] = Frame[Y], then the ALU op
              ///< A,B -> D (operands forwarded past the copy)
  FuseCopyCopy, ///< fused pair: Frame[X] = Frame[Y]; Frame[D] = Frame[A]
  FuseShlAdd,   ///< fused address idiom: D = Frame[X] + (Frame[A]<<Frame[B])
  FuseCopyMemRead, FuseCopyMemWrite,
              ///< Frame[D] = Frame[B], then the memory op (A=addr, N,
              ///< X=pool, Y=cost, Aux=space); carries the memory op's
              ///< cold data — it is a trap and yield point
  FuseAddMemRead, FuseAddMemWrite, FuseAddCopyMemRead, FuseAddCopyMemWrite,
  FuseCopyAddMemRead, FuseCopyAddMemWrite, FuseCopyAddCopyMemRead,
  FuseCopyAddCopyMemWrite,
  FuseShlAddMemRead, FuseShlAddMemWrite, FuseShlAddCopyMemRead,
  FuseShlAddCopyMemWrite,
              ///< address-mode memory ops: the producer (AluAdd,
              ///< FuseCopyAdd or FuseShlAdd: A, B -> D, its copy or base
              ///< at Pool[X+N..]) computes the address, then the memory
              ///< op (plain or copy-fused, its copy next in the pool)
              ///< accesses it; Aux, N, X, Y and cold data as MemRead
};

struct FastOp {
  FOp Kind = FOp::TrapStatic;
  uint8_t Aux = 0;  ///< MemSpace for memory ops, TrapKind for TrapStatic,
                    ///< continue-polarity for Guard ops
  uint16_t A = 0;   ///< frame slot: src0 / address
  uint16_t B = 0;   ///< frame slot: src1 / bits
  uint16_t D = 0;   ///< frame slot: destination
  uint32_t N = 0;   ///< word count (MemRead/MemWrite/Halt)
  uint32_t X = 0;   ///< target op / pool offset / message index
  uint32_t Y = 0;   ///< branch else-target op; flat cycle cost for memory
                    ///< ops; chain max path for SuperEntry
};

/// Cold per-op data consulted only on block exits and traps.
struct ColdInfo {
  uint32_t InsDelta = 0;  ///< instructions from block entry through this op
  uint32_t CycPrefix = 0; ///< cycles charged by the ops before this one
};

struct BlockMeta {
  uint32_t FirstOp = 0; ///< index of the block's BlockEntry op
  uint32_t EnterOp = 0; ///< entry from a block boundary: the superblock
                        ///< entry when this block heads a chain, else
                        ///< FirstOp
  uint32_t MaxPath = 0; ///< max instruction count a traversal can consume
  bool ForceSlow = false; ///< runs on the slow tier (see Translate.cpp)
};

/// Translation knobs. The default — superblocks on — is what both the
/// soak harness and the chip use; the differential fuzz also exercises
/// the plain per-block translation to triangulate.
struct TranslateOptions {
  bool Superblocks = true; ///< collapse single-predecessor chains
};

/// A translated program. It stands alone: the per-instruction slow tier
/// steps its own decode of the source program.
struct Translated {
  sim::Decoded Code;     ///< what the slow tier steps (sim::detail::step)
  sim::LatencyModel Lat; ///< the model the cycle folding assumed
  std::vector<FastOp> Ops;
  std::vector<ColdInfo> Cold;     ///< parallel to Ops
  std::vector<uint16_t> Pool;     ///< operand lists (frame slots)
  std::vector<uint32_t> Consts;   ///< frame slots FrameRegs..
  std::vector<std::string> Messages;
  std::vector<BlockMeta> Meta;
  unsigned SlowBlocks = 0;    ///< blocks pinned to the slow path
  unsigned Superblocks = 0;   ///< single-predecessor chains collapsed
  unsigned SuperblockOps = 0; ///< ops emitted into superblock streams
  unsigned FusedOps = 0;      ///< adjacent op pairs merged into one dispatch

  unsigned frameSize() const {
    return FrameRegs + static_cast<unsigned>(Consts.size());
  }
};

/// Translates \p P for execution under \p Lat. Never fails (nor does
/// sim::decode): malformed constructs translate to trap ops with the
/// interpreter's exact messages, or to slow-tier blocks.
Translated translate(const alloc::AllocatedProgram &P,
                     const sim::LatencyModel &Lat);
Translated translate(const alloc::AllocatedProgram &P,
                     const sim::LatencyModel &Lat,
                     const TranslateOptions &Options);

/// One run of a Translated program: the register frame, the fast and
/// slow tiers' positions, and the accounting. Engine runs one flat and
/// SegmentContext (Segment.h) resumes one; runStream() is the only loop
/// over it.
struct StreamContext {
  const Translated *T = nullptr;
  std::vector<uint32_t> Frame;
  sim::RunResult R;
  bool Finished = true;   ///< no run in progress until reset()
  bool Err = false;       ///< slow-tier illegal-register latch
  bool InSlow = false;    ///< resuming inside the per-instruction tier
  bool FastYield = false; ///< resuming after a fast-tier memory yield
  uint32_t SpillRebase = 0;
  uint32_t PC = 0;        ///< fast-tier op index
  uint32_t YieldPC = 0;   ///< the memory op the last fast burst yielded at
  uint64_t Ins = 0, Cyc = 0;           ///< exact at block boundaries
  uint64_t StartIns = 0, StartCyc = 0; ///< bases for cold-data exits
  ixp::BlockId SB = 0;    ///< slow-tier block
  unsigned SIdx = 0;      ///< slow-tier instruction index

  /// Binds \p Tr: sizes the frame and loads its constant slots. No run
  /// is in progress until reset().
  void bind(const Translated *Tr);
  /// Starts a fresh run with \p Args in A0... On a malformed entry the
  /// run is immediately Finished with the trap in R.
  void reset(const std::vector<uint32_t> &Args);
};

/// Runs \p C until the next swap point (Engine.cpp). Requires
/// !C.Finished; Opts.Lat must be the model C.T was translated with. The
/// two instantiations differ only in what a memory op does after its
/// data effect:
///  - on BatchMemory (flat): charge the op's flat latency and run on, to
///    completion. No spill rebasing, like sim::runAllocated;
///  - on sim::Memory (resumable): materialize the exact counts and yield
///    the reference to the caller, who charges it. The context's spill
///    window rebasing applies.
///
/// Both instantiations start on a 64-byte boundary, so the dispatch
/// loop's placement against cache lines and fetch blocks does not move
/// with unrelated edits to code linked before it.
template <class MemT>
[[gnu::aligned(64)]] sim::AllocContext::Yield
runStream(StreamContext &C, MemT &Mem, const sim::RunOptions &Opts);

/// Executes a Translated program packet by packet: a thin owner of one
/// flat StreamContext.
class Engine {
public:
  explicit Engine(const Translated &T);

  /// Runs one packet: arguments in A0.., memory state in \p Mem.
  /// Opts.Lat must be the model the program was translated with.
  /// Bit-identical to sim::runAllocated on a sim::Memory holding the
  /// same image.
  sim::RunResult run(const std::vector<uint32_t> &Args, BatchMemory &Mem,
                     const sim::RunOptions &Opts);

private:
  StreamContext C;
};

} // namespace fastpath
} // namespace nova

#endif // FASTPATH_FASTPATH_H
