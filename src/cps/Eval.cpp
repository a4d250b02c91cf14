//===- Eval.cpp - Reference CPS interpreter -------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The interpreter implements full closure semantics: a Fix node creates
// closures capturing the current environment, and a jump enters the
// callee's captured environment. Compiled Nova never *needs* heap
// closures (the paper's restriction guarantees it), but the unoptimized
// CPS of a tail-recursive function still instantiates a fresh return
// continuation per activation, so the oracle must be closure-correct to
// judge every stage of the pipeline.
//
// A program is lowered once into flat code. Its static scopes are one per
// function entry (its parameters and what its body binds before any Fix)
// and one per Fix node reached in a scope (what the rest of the chain
// binds after it). One walk emits an op per (expression, scope) pair,
// memoized on the pair so a tail that two paths of one scope share is
// emitted once, and gives every binding site a slot in its scope. A
// scope's static parent is the scope its Fix was reached in, or for an
// entry the one Fix scope that declares the function (none if no Fix
// does). Every operand is resolved along that static chain into a
// constant, a (hops, slot) address, or a label with the hop count to its
// declaring Fix frame (or closed): a value bound earlier in the operand's
// own scope as the walk emits it, the rest once every static parent is
// known. Every result is a slot, every Fix its child scope, and every
// function its parameter slots. An op whose operands are slots or
// constants and whose results never take a closure also gets a handler
// specialized on its operator, and each handler dispatches its successor
// itself.
//
// A runtime frame is one activation of a scope: a header and its slots,
// each slot with a bound mark, chained to the frame it was entered from
// (a Fix) or the frame its closure captured (a jump). The static
// addresses hold while each frame's runtime chain is its scope's static
// chain, which a run checks where that can break, on entering a function:
// the closure's frame must be of the entry's static parent scope, and a
// function no Fix declares must be entered closed. A run that fails the
// check (a function declared by two Fix scopes, or entered through a
// label that no Fix on the chain declares) finishes in dynamic mode,
// where every value and label is found by searching the frame chain; a
// read whose static slot is unbound searches the same way. Either way an
// ill-formed program reports the same error at the same step.
//
// Frames are reference counted (the current frame, child frames, and
// closure values stored in slots hold references) and recycled through a
// free list per scope, so a long loop reuses two frames per scope rather
// than allocating one per iteration. They are carved from an arena that
// lives for one run.
//
//===----------------------------------------------------------------------===//

#include "cps/Eval.h"

#include "support/HwHash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <new>

using namespace nova;
using namespace nova::cps;

namespace {

constexpr uint32_t None = ~0u;
/// The closure scope of a function whose entries are never on their
/// static chain (two Fix scopes declare it, or only its own body does).
constexpr uint32_t Untrusted = None - 1;

enum class OperandKind : uint8_t {
  Const,  ///< the word X
  Slot,   ///< slot X of the frame Hops parents up, bound to value Id
  Label,  ///< function X closing over the frame Hops parents up
  Closed, ///< function X without an environment
  Search, ///< value Id, found by searching the frame chain
};

/// One operand. A temporary the walk cannot place in its own scope starts
/// as Search and a label as Closed; resolution rewrites them once every
/// scope is known.
struct Operand {
  uint32_t X = 0;
  ValueId Id = 0;
  uint32_t Hops = 0;
  OperandKind K = OperandKind::Const;
};

/// What a run with static addresses executes for an op: its expression
/// kind, or a specialized form whose result slots never take a closure.
/// A specialized Prim names its operator; its first operand is a slot and
/// its second is one too (SS) or a constant (SC).
enum class Handler : uint8_t {
  Prim, MemRead, MemWrite, Hash, BitTestSet, Clone, Fix, Branch, App, Halt,
  AddSS, SubSS, AndSS, OrSS, XorSS, ShlSS, ShrSS, NotSS,
  AddSC, SubSC, AndSC, OrSC, XorSC, ShlSC, ShrSC, NotSC,
  MemReadS, ///< a MemRead of a valid space at an address in a slot
};

/// Whether an op of kind \p K keeps its operands (at most two) in
/// itself rather than in Code::Operands.
constexpr bool inlineOperands(ExpKind K) {
  return K != ExpKind::MemWrite && K != ExpKind::App && K != ExpKind::Halt;
}

/// One expression lowered in one scope, in 64 bytes.
struct Op {
  ExpKind K = ExpKind::Halt;
  Handler H = Handler::Halt;
  uint8_t Sub = 0;      ///< PrimOp, CmpOp or MemSpace
  bool ClosureResult = false; ///< a result slot may take a closure
  uint32_t Scope = 0;   ///< the scope it runs in
  uint32_t Res = None;  ///< result slot; MemRead, Clone: first in Slots;
                        ///< Fix: the scope it opens
  uint32_t NumRes = 0;
  uint32_t Next = None; ///< continuation (Branch: Then); None falls off
  uint32_t Else = None; ///< Branch only
  uint32_t Args = 0;    ///< first in Operands, unless inlineOperands(K);
                        ///< an App's callee comes first
  uint32_t NumArgs = 0;
  Operand In[2];        ///< the operands, if inlineOperands(K)
};
static_assert(sizeof(Op) == 64);

struct ScopeInfo {
  const Exp *Fix = nullptr; ///< the Fix that opens it; null for an entry
  uint32_t Parent = None;   ///< static parent; None for a root
  uint32_t Depth = None;    ///< parent hops to its root
  uint32_t NumSlots = 0;
  uint32_t Closures = None; ///< first binding whose slot may take a closure
};

struct FuncInfo {
  uint32_t Entry = None;    ///< first op; None without a body
  uint32_t Scope = None;    ///< entry scope
  uint32_t Params = 0;      ///< first parameter slot in Slots
  uint32_t NumParams = 0;
  uint32_t EnvScope = None; ///< its closures' frame scope; None: closed
};

/// A value's slot in one scope. A value's bindings in further scopes
/// chain through Next, and a scope's parameter and clone-result bindings
/// (the slots a closure may take) through NextClosure.
struct Binding {
  uint32_t Scope, Slot;
  uint32_t Next = None;
  uint32_t NextClosure = None;
  bool Closure = false;
};

bool declares(const Exp *Fix, FuncId Fn) {
  return Fix && std::find(Fix->FixFuncs.begin(), Fix->FixFuncs.end(), Fn) !=
                    Fix->FixFuncs.end();
}

} // namespace

struct LoweredProgram::Code {
  Operand *args(Op &O) {
    return inlineOperands(O.K) ? O.In : Operands.data() + O.Args;
  }

  const CpsProgram *P = nullptr;
  FuncId Entry = NoFunc;
  std::vector<Op> Ops;
  std::vector<Operand> Operands;
  std::vector<uint32_t> Slots; ///< result and parameter slot lists
  std::vector<ScopeInfo> Scopes;
  std::vector<FuncInfo> Funcs;         ///< by FuncId
  std::vector<Binding> Bindings;
  std::vector<uint32_t> FirstBinding;  ///< by ValueId
};

namespace {

using Code = LoweredProgram::Code;

/// Builds one Code. The walk resolves an operand bound earlier in its own
/// scope on the spot and defers the rest until every scope's static
/// parent is known; a value bound in two scopes sends every operand back
/// through resolution.
class Lowerer {
public:
  Lowerer(const CpsProgram &P, Code &C) : P(P), C(C) {}

  void run() {
    C.P = &P;
    C.Entry = P.Entry;
    C.Funcs.resize(P.functions().size());
    C.FirstBinding.assign(P.numValues(), None);
    // A program has about as many expressions as values.
    const size_t Size = P.numValues();
    size_t MemoSize = 64;
    while (MemoSize < 2 * Size)
      MemoSize *= 2;
    Memo.assign(MemoSize, None);
    OpExp.reserve(Size);
    C.Ops.reserve(Size);
    C.Operands.reserve(Size / 2);
    C.Bindings.reserve(Size);
    C.Slots.reserve(Size / 2);
    C.Scopes.reserve(P.functions().size() * 2);
    Deferred.reserve(Size / 4);
    for (const Function &F : P.functions()) {
      C.Funcs[F.Id].NumParams = static_cast<uint32_t>(F.Params.size());
      if (F.Body)
        lowerFunction(F);
    }
    linkScopes();
    if (BoundTwice)
      resolveAll();
    else
      for (const auto &[Ref, S] : Deferred)
        resolve(Ref & InlineRef ? C.Ops[(Ref & ~InlineRef) >> 1].In[Ref & 1]
                                : C.Operands[Ref],
                S);
    if (WordSlotTookClosure)
      for (Op &O : C.Ops)
        O.H = static_cast<Handler>(O.K);
  }

private:
  enum class Field : uint8_t { Next, Else, Entry };
  /// Where a lowered chain's first op is recorded.
  struct Link {
    uint32_t Index;
    Field F;
  };
  struct Pending {
    const Exp *E;
    uint32_t Scope;
    Link L;
  };

  const CpsProgram &P;
  Code &C;
  std::vector<uint32_t> Decl; ///< by FuncId: its Fix scope
  std::vector<Pending> Work;
  /// Operands to resolve once every scope is known, with their scopes:
  /// an index into Operands, or InlineRef | op << 1 | operand.
  std::vector<std::pair<uint32_t, uint32_t>> Deferred;
  static constexpr uint32_t InlineRef = 1u << 31;
  /// (expression, scope) -> op, by open addressing over OpExp and the
  /// ops' scopes.
  std::vector<uint32_t> Memo;
  std::vector<const Exp *> OpExp; ///< by op: the expression it lowers
  bool BoundTwice = false; ///< a value has slots in two scopes
  /// A slot that a specialized handler writes as a word may take a
  /// closure after all; every op then runs its generic handler.
  bool WordSlotTookClosure = false;

  size_t memoHome(const Exp *E, uint32_t S) const {
    uint64_t H = (reinterpret_cast<uintptr_t>(E) ^ (uint64_t(S) << 40)) *
                 0x9E3779B97F4A7C15ull;
    return (H >> 32) & (Memo.size() - 1);
  }

  /// The op already lowered for (\p E, \p S), or None after claiming
  /// the pair for the op emitted next.
  uint32_t memo(const Exp *E, uint32_t S) {
    if (2 * (OpExp.size() + 1) > Memo.size()) {
      Memo.assign(2 * Memo.size(), None);
      for (uint32_t Op = 0; Op != OpExp.size(); ++Op) {
        size_t I = memoHome(OpExp[Op], C.Ops[Op].Scope);
        while (Memo[I] != None)
          I = (I + 1) & (Memo.size() - 1);
        Memo[I] = Op;
      }
    }
    for (size_t I = memoHome(E, S);; I = (I + 1) & (Memo.size() - 1)) {
      uint32_t Op = Memo[I];
      if (Op == None) {
        Memo[I] = static_cast<uint32_t>(OpExp.size());
        OpExp.push_back(E);
        return None;
      }
      if (OpExp[Op] == E && C.Ops[Op].Scope == S)
        return Op;
    }
  }

  uint32_t newScope(const Exp *Fix, uint32_t Parent) {
    C.Scopes.push_back({});
    C.Scopes.back().Fix = Fix;
    C.Scopes.back().Parent = Parent;
    return static_cast<uint32_t>(C.Scopes.size() - 1);
  }

  [[gnu::always_inline]] uint32_t newSlot(uint32_t S, bool Closure) {
    uint32_t B = static_cast<uint32_t>(C.Bindings.size());
    C.Bindings.push_back({S, C.Scopes[S].NumSlots++});
    if (Closure)
      markClosure(B);
    return B;
  }

  void markClosure(uint32_t B) {
    Binding &Bd = C.Bindings[B];
    if (Bd.Closure)
      return;
    Bd.Closure = true;
    Bd.NextClosure = C.Scopes[Bd.Scope].Closures;
    C.Scopes[Bd.Scope].Closures = B;
  }

  /// The binding of \p V in scope \p S; a second site in one scope
  /// rebinds the same slot. An id the program never allocated names no
  /// value: its sites write slots that every read finds unbound.
  [[gnu::always_inline]] uint32_t bind(ValueId V, uint32_t S,
                                       bool Closure) {
    if (V >= C.FirstBinding.size())
      return newSlot(S, Closure);
    uint32_t B = C.FirstBinding[V];
    if (B == None) {
      C.FirstBinding[V] = static_cast<uint32_t>(C.Bindings.size());
      return newSlot(S, Closure);
    }
    for (;; B = C.Bindings[B].Next) {
      if (C.Bindings[B].Scope == S) {
        if (Closure && !C.Bindings[B].Closure) {
          // An earlier result op writes this slot as a plain word.
          WordSlotTookClosure = true;
          markClosure(B);
        }
        return B;
      }
      if (C.Bindings[B].Next == None)
        break;
    }
    BoundTwice = true;
    C.Bindings[B].Next = static_cast<uint32_t>(C.Bindings.size());
    return newSlot(S, Closure);
  }

  /// The result slot of \p O; a malformed node without results writes a
  /// slot no value owns.
  [[gnu::always_inline]] void result(const Exp *E, uint32_t S, Op &O) {
    const Binding &B = C.Bindings[E->Results.empty()
                                      ? newSlot(S, false)
                                      : bind(E->Results[0], S, false)];
    O.Res = B.Slot;
    O.ClosureResult = B.Closure;
  }

  void results(const Exp *E, uint32_t S, Op &O, bool Closure) {
    O.Res = static_cast<uint32_t>(C.Slots.size());
    O.NumRes = static_cast<uint32_t>(E->Results.size());
    for (ValueId R : E->Results) {
      const Binding &B = C.Bindings[bind(R, S, Closure)];
      C.Slots.push_back(B.Slot);
      O.ClosureResult |= B.Closure;
    }
  }

  /// Lowers the atom \p A read in scope \p S into \p X, whose Deferred
  /// reference is \p Ref.
  [[gnu::always_inline]] void operand(const Atom &A, uint32_t S, Operand &X,
                                      uint32_t Ref) {
    if (A.isConst()) {
      X.X = A.Value;
      return;
    }
    if (A.isTemp()) {
      X.Id = A.Id;
      uint32_t B = A.Id < C.FirstBinding.size() ? C.FirstBinding[A.Id] : None;
      if (B != None && C.Bindings[B].Scope == S) {
        X.K = OperandKind::Slot;
        X.X = C.Bindings[B].Slot;
        return;
      }
      X.K = OperandKind::Search;
    } else {
      X.K = OperandKind::Closed;
      X.X = A.Func;
    }
    Deferred.push_back({Ref, S});
  }

  /// Appends the operand \p A to Operands.
  void sideOperand(const Atom &A, uint32_t S) {
    uint32_t Ref = static_cast<uint32_t>(C.Operands.size());
    operand(A, S, C.Operands.emplace_back(), Ref);
  }

  /// Lowers operand \p I of \p E into op \p Op, which holds it; one a
  /// malformed node lacks reads as 0.
  [[gnu::always_inline]] void arg(const Exp *E, unsigned I, uint32_t S,
                                  uint32_t Op) {
    operand(I < E->Args.size() ? E->Args[I] : Atom::constant(0), S,
            C.Ops[Op].In[I], InlineRef | Op << 1 | I);
  }

  void patch(Link L, uint32_t Op) {
    switch (L.F) {
    case Field::Next:
      C.Ops[L.Index].Next = Op;
      break;
    case Field::Else:
      C.Ops[L.Index].Else = Op;
      break;
    case Field::Entry:
      C.Funcs[L.Index].Entry = Op;
      break;
    }
  }

  void lowerFunction(const Function &F) {
    FuncInfo &FI = C.Funcs[F.Id];
    FI.Scope = newScope(nullptr, None);
    FI.Params = static_cast<uint32_t>(C.Slots.size());
    for (ValueId V : F.Params)
      C.Slots.push_back(C.Bindings[bind(V, FI.Scope, true)].Slot);
    Work.push_back({F.Body, FI.Scope, {F.Id, Field::Entry}});
    while (!Work.empty()) {
      Pending W = Work.back();
      Work.pop_back();
      lowerChain(W.E, W.Scope, W.L);
    }
  }

  /// Emits the chain from \p E in scope \p S, Branch arms to the work
  /// list, and records its first op at \p L. A node of no known kind
  /// ends the chain: the run falls off there.
  void lowerChain(const Exp *E, uint32_t S, Link L) {
    while (E && E->Kind <= ExpKind::Halt) {
      if (uint32_t Shared = memo(E, S); Shared != None) {
        patch(L, Shared); // a tail already lowered in this scope
        return;
      }
      uint32_t I = static_cast<uint32_t>(C.Ops.size());
      patch(L, I);
      Op &O = C.Ops.emplace_back();
      O.K = E->Kind;
      O.Scope = S;
      L = {I, Field::Next};
      const Exp *Next = E->Cont;
      switch (E->Kind) {
      case ExpKind::Prim:
        O.Sub = static_cast<uint8_t>(E->Prim);
        arg(E, 0, S, I);
        arg(E, 1, S, I);
        result(E, S, O);
        O.NumArgs = 2;
        break;
      case ExpKind::MemRead:
        O.Sub = static_cast<uint8_t>(E->Space);
        arg(E, 0, S, I);
        results(E, S, O, false);
        O.NumArgs = 1;
        break;
      case ExpKind::MemWrite:
        O.Sub = static_cast<uint8_t>(E->Space);
        O.Args = static_cast<uint32_t>(C.Operands.size());
        sideOperand(E->Args.empty() ? Atom::constant(0) : E->Args[0], S);
        for (unsigned A = 1; A < E->Args.size(); ++A)
          sideOperand(E->Args[A], S);
        O.NumArgs = static_cast<uint32_t>(C.Operands.size()) - O.Args;
        break;
      case ExpKind::Hash:
        arg(E, 0, S, I);
        result(E, S, O);
        O.NumArgs = 1;
        break;
      case ExpKind::BitTestSet:
        O.Sub = static_cast<uint8_t>(E->Space);
        arg(E, 0, S, I);
        arg(E, 1, S, I);
        result(E, S, O);
        O.NumArgs = 2;
        break;
      case ExpKind::Clone:
        arg(E, 0, S, I);
        results(E, S, O, true);
        O.NumArgs = 1;
        break;
      case ExpKind::Fix:
        S = O.Res = newScope(E, S);
        break;
      case ExpKind::Branch:
        O.Sub = static_cast<uint8_t>(E->Cmp);
        arg(E, 0, S, I);
        arg(E, 1, S, I);
        O.NumArgs = 2;
        Work.push_back({E->Then, S, {I, Field::Next}});
        L = {I, Field::Else};
        Next = E->Else;
        break;
      case ExpKind::App:
      case ExpKind::Halt:
        O.Args = static_cast<uint32_t>(C.Operands.size());
        if (E->Kind == ExpKind::App)
          sideOperand(E->Callee, S);
        for (const Atom &A : E->Args)
          sideOperand(A, S);
        O.NumArgs = static_cast<uint32_t>(C.Operands.size()) - O.Args;
        Next = nullptr;
        break;
      }
      O.H = handler(O);
      E = Next;
    }
  }

  /// Static parents of entry scopes, then every scope's depth. An entry
  /// whose chain never reaches a root is Untrusted and made a root.
  void linkScopes() {
    const size_t NumFuncs = C.Funcs.size();
    Decl.assign(NumFuncs, None);
    for (uint32_t X = 0; X != C.Scopes.size(); ++X)
      if (const Exp *Fix = C.Scopes[X].Fix)
        for (FuncId F : Fix->FixFuncs)
          if (F < NumFuncs)
            Decl[F] = Decl[F] == None || Decl[F] == X ? X : Untrusted;
    for (FuncId F = 0; F != NumFuncs; ++F) {
      FuncInfo &FI = C.Funcs[F];
      if (FI.Scope == None)
        continue;
      FI.EnvScope = Decl[F];
      if (Decl[F] != Untrusted)
        C.Scopes[FI.Scope].Parent = Decl[F];
    }
    // Fix scopes follow their parents, so each pass settles at least one
    // more level of function nesting.
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (ScopeInfo &S : C.Scopes) {
        if (S.Depth != None)
          continue;
        if (S.Parent == None)
          S.Depth = 0;
        else if (C.Scopes[S.Parent].Depth != None)
          S.Depth = C.Scopes[S.Parent].Depth + 1;
        else
          continue;
        Changed = true;
      }
    }
    for (FuncInfo &FI : C.Funcs)
      if (FI.Scope != None && C.Scopes[FI.Scope].Depth == None)
        FI.EnvScope = Untrusted; // on a cycle of declarations
    for (ScopeInfo &S : C.Scopes)
      if (S.Depth == None) {
        S.Parent = None;
        S.Depth = 0;
      }
  }

  /// The hops from scope \p S up its static chain to \p X, or None.
  uint32_t hopsTo(uint32_t S, uint32_t X) const {
    if (C.Scopes[S].Depth < C.Scopes[X].Depth)
      return None;
    uint32_t Hops = C.Scopes[S].Depth - C.Scopes[X].Depth;
    for (uint32_t H = Hops; H; --H)
      S = C.Scopes[S].Parent;
    return S == X ? Hops : None;
  }

  Handler handler(const Op &O) const {
    const Operand &X = O.In[0];
    const bool SlotX = X.K == OperandKind::Slot;
    if (O.ClosureResult)
      return static_cast<Handler>(O.K);
    if (O.K == ExpKind::MemRead && SlotX &&
        O.Sub <= static_cast<uint8_t>(MemSpace::Scratch))
      return Handler::MemReadS;
    if (O.K != ExpKind::Prim || !SlotX ||
        O.Sub > static_cast<uint8_t>(PrimOp::Not))
      return static_cast<Handler>(O.K);
    const Operand &Y = O.In[1];
    if (Y.K == OperandKind::Slot)
      return static_cast<Handler>(unsigned(Handler::AddSS) + O.Sub);
    if (Y.K == OperandKind::Const)
      return static_cast<Handler>(unsigned(Handler::AddSC) + O.Sub);
    return Handler::Prim;
  }

  /// Resolves every operand again, now that a value bound in two scopes
  /// may have been resolved to the wrong one on the spot.
  void resolveAll() {
    for (Op &O : C.Ops) {
      Operand *A = C.args(O);
      for (uint32_t I = 0; I != O.NumArgs; ++I) {
        if (A[I].K == OperandKind::Slot)
          A[I].K = OperandKind::Search;
        else if (A[I].K == OperandKind::Label)
          A[I].K = OperandKind::Closed;
        resolve(A[I], O.Scope);
      }
      O.H = handler(O);
    }
  }

  /// Resolves a temporary left as Search or a label left as Closed,
  /// read in scope \p S.
  void resolve(Operand &A, uint32_t S) const {
    if (A.K == OperandKind::Search) {
      // A value bound in no scope, in two, or in none on this chain is
      // left to the search.
      if (A.Id >= C.FirstBinding.size() || C.FirstBinding[A.Id] == None)
        return;
      const Binding &B = C.Bindings[C.FirstBinding[A.Id]];
      uint32_t Hops = B.Next == None ? hopsTo(S, B.Scope) : None;
      if (Hops != None) {
        A.K = OperandKind::Slot;
        A.X = B.Slot;
        A.Hops = Hops;
      }
    } else if (A.K == OperandKind::Closed && A.X < Decl.size() &&
               Decl[A.X] != None) {
      uint32_t Hops = 0;
      for (uint32_t X = S; X != None; X = C.Scopes[X].Parent, ++Hops)
        if (declares(C.Scopes[X].Fix, A.X)) {
          A.K = OperandKind::Label;
          A.Hops = Hops;
          return;
        }
    }
  }
};

struct Frame;

/// A runtime value: a word, possibly carrying a closure.
struct Value {
  uint32_t Data = 0;
  FuncId Func = NoFunc;
  Frame *Env = nullptr; ///< captured environment when Func != NoFunc
};

/// One slot of a frame. It is bound in the current activation iff its
/// mark equals the frame's, so a recycled frame starts empty without
/// touching its slots.
struct Slot {
  Value V;
  uint64_t Mark = 0;
};

/// One activation of a scope; its slots follow the header.
struct Frame {
  uint32_t Refs = 0;
  uint32_t Scope = 0;
  uint64_t Mark = 0;       ///< this activation's bound mark
  Frame *Parent = nullptr; ///< counted; also the free-list link

  Slot *slots() { return reinterpret_cast<Slot *>(this + 1); }
};
static_assert(sizeof(Frame) % alignof(Slot) == 0);

/// The frames of one run, carved from chunks freed together.
class FrameArena {
public:
  Frame *allocate(uint32_t Scope, uint32_t NumSlots) {
    size_t Bytes = sizeof(Frame) + NumSlots * sizeof(Slot);
    if (static_cast<size_t>(End - Cur) < Bytes) {
      size_t Size = std::max(Bytes, Chunks.empty() ? 16384 : 2 * ChunkSize);
      Chunks.emplace_back(new unsigned char[Size]);
      Cur = Chunks.back().get();
      End = Cur + Size;
      ChunkSize = Size;
    }
    Frame *F = new (Cur) Frame;
    Cur += Bytes;
    F->Scope = Scope;
    for (uint32_t I = 0; I != NumSlots; ++I)
      new (F->slots() + I) Slot;
    return F;
  }

private:
  std::vector<std::unique_ptr<unsigned char[]>> Chunks;
  unsigned char *Cur = nullptr, *End = nullptr;
  size_t ChunkSize = 0;
};

class Machine {
public:
  Machine(const Code &C, EvalMemory &Mem)
      : C(C), Mem(Mem), Free(C.Scopes.size(), nullptr) {}
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  EvalResult run(const std::vector<uint32_t> &Args, unsigned MaxSteps) {
    const FuncInfo &Entry = C.Funcs[C.Entry];
    if (Args.size() != Entry.NumParams) {
      Result.Error = formatf("entry takes %u args, got %zu", Entry.NumParams,
                             Args.size());
      return std::move(Result);
    }
    uint32_t Pc = Entry.Entry;
    bool Dynamic = false;
    if (Pc != None) {
      Env = newFrame(Entry.Scope, nullptr);
      for (unsigned I = 0; I != Args.size(); ++I)
        bindWord(Env, C.Slots[Entry.Params + I], Args[I]);
      Dynamic = Entry.EnvScope != None;
    }
    if (Dynamic || loop<false>(Pc, MaxSteps))
      loop<true>(Pc, MaxSteps);
    release(Env);
    // Every frame is back on a free list once the current one is
    // released; one that is not had a count that never reached zero.
    assert(Live == 0 && "CPS evaluator frame leaked");
    return std::move(Result);
  }

private:
  const Code &C;
  EvalMemory &Mem;
  EvalResult Result;
  Frame *Env = nullptr; ///< the current frame (one counted reference)

  FrameArena Arena;
  std::vector<Frame *> Free; ///< by scope: released frames for reuse
  std::vector<Frame *> Dying;
  uint64_t Activations = 0; ///< source of fresh bound marks
  size_t Live = 0;          ///< frames off the free lists

  /// A fresh frame of scope \p S: every slot unbound, one reference.
  [[gnu::always_inline]] Frame *newFrame(uint32_t S, Frame *Parent) {
    Frame *F = Free[S];
    if (F)
      Free[S] = F->Parent;
    else
      F = Arena.allocate(S, C.Scopes[S].NumSlots);
    ++Live;
    F->Refs = 1;
    F->Mark = ++Activations;
    F->Parent = Parent;
    return F;
  }

  static void retain(Frame *F) {
    if (F)
      ++F->Refs;
  }

  /// Drops one reference; a frame that loses its last one is freed.
  [[gnu::always_inline]] void release(Frame *F) {
    if (F && !--F->Refs)
      free(F);
  }

  /// Releases what the unreferenced frame \p F holds and returns it to
  /// its scope's free list. Iterative, so a long chain of captured
  /// activations cannot exhaust the stack.
  [[gnu::noinline]] void free(Frame *F) {
    // The parent chain is followed in place; a frame whose last
    // reference was a closure in a freed slot waits on Dying.
    for (Frame *D = F; D;) {
      Frame *Next = D->Parent && !--D->Parent->Refs ? D->Parent : nullptr;
      for (uint32_t B = C.Scopes[D->Scope].Closures; B != None;
           B = C.Bindings[B].NextClosure) {
        const Slot &Sl = slot(D, C.Bindings[B].Slot);
        if (Sl.Mark == D->Mark && Sl.V.Env && Sl.V.Env != D &&
            !--Sl.V.Env->Refs)
          Dying.push_back(Sl.V.Env);
      }
      D->Parent = Free[D->Scope];
      Free[D->Scope] = D;
      --Live;
      if (!Next && !Dying.empty()) {
        Next = Dying.back();
        Dying.pop_back();
      }
      D = Next;
    }
  }

  /// Binds slot \p I of frame \p F.
  ///
  /// Only the newest frame is ever written (control never returns to an
  /// older one), so every reference points from a newer frame to an
  /// older one, except a closure over the very frame that holds it: that
  /// one is not counted, since the slot dies with its frame. Counting
  /// therefore frees every frame no longer reachable.
  [[gnu::always_inline]] void store(Frame *F, uint32_t I, Value X) {
    Slot &S = slot(F, I);
    if (X.Env && X.Env != F)
      retain(X.Env);
    Frame *Old = S.Mark == F->Mark && S.V.Env != F ? S.V.Env : nullptr;
    S.V = X;
    S.Mark = F->Mark;
    release(Old);
  }

  [[gnu::always_inline]] void bindWord(Frame *F, uint32_t I, uint32_t Data) {
    Slot &S = slot(F, I);
    Frame *Old =
        S.V.Env && S.Mark == F->Mark && S.V.Env != F ? S.V.Env : nullptr;
    S.V = {Data};
    S.Mark = F->Mark;
    release(Old);
  }

  /// Binds slot \p I, which never takes a closure, of frame \p F.
  [[gnu::always_inline]] void setWord(Frame *F, uint32_t I, uint32_t Data) {
    Slot &S = slot(F, I);
    S.V.Data = Data;
    S.Mark = F->Mark;
  }

  /// Slot \p I of frame \p F. ASan cannot see an overrun inside the
  /// arena, so the bound is asserted.
  [[gnu::always_inline]] Slot &slot(Frame *F, uint32_t I) const {
    assert(I < C.Scopes[F->Scope].NumSlots && "slot outside its frame");
    return F->slots()[I];
  }

  static Frame *up(Frame *F, uint32_t Hops) {
    for (; Hops; --Hops)
      F = F->Parent;
    return F;
  }

  /// The first frame on the chain whose scope binds \p V with the slot
  /// bound, as an unresolved read has always been found.
  Value searchValue(ValueId V) {
    uint32_t First = V < C.FirstBinding.size() ? C.FirstBinding[V] : None;
    for (Frame *F = Env; F && First != None; F = F->Parent)
      for (uint32_t B = First; B != None; B = C.Bindings[B].Next)
        if (C.Bindings[B].Scope == F->Scope) {
          const Slot &Sl = slot(F, C.Bindings[B].Slot);
          if (Sl.Mark == F->Mark)
            return Sl.V;
          break;
        }
    Result.Error = formatf("use of unbound value v%u", V);
    return {};
  }

  /// The nearest frame whose Fix declares \p Fn, or null.
  Frame *searchLabel(FuncId Fn) const {
    if (Fn >= C.Funcs.size())
      return nullptr;
    for (Frame *F = Env; F; F = F->Parent)
      if (declares(C.Scopes[F->Scope].Fix, Fn))
        return F;
    return nullptr;
  }

  /// The operand's value; a closure's Env is borrowed, not counted.
  template <bool Dynamic>
  [[gnu::always_inline]] Value value(const Operand &A) {
    switch (A.K) {
    case OperandKind::Const:
      return {A.X};
    case OperandKind::Slot:
      if (!Dynamic) {
        Frame *F = up(Env, A.Hops);
        const Slot &S = slot(F, A.X);
        if (S.Mark == F->Mark)
          return S.V;
      }
      return searchValue(A.Id);
    case OperandKind::Search:
      return searchValue(A.Id);
    case OperandKind::Label:
      return {0, A.X, Dynamic ? searchLabel(A.X) : up(Env, A.Hops)};
    case OperandKind::Closed:
      return {0, A.X, Dynamic ? searchLabel(A.X) : nullptr};
    }
    return {};
  }

  template <bool Dynamic>
  [[gnu::always_inline]] uint32_t word(const Operand &A) {
    if (A.K == OperandKind::Const)
      return A.X;
    if (!Dynamic && A.K == OperandKind::Slot) {
      Frame *F = up(Env, A.Hops);
      const Slot &S = slot(F, A.X);
      if (S.Mark == F->Mark)
        return S.V.Data;
    }
    return value<Dynamic>(A).Data;
  }

  /// A specialized Prim: false when an operand slot is unbound, which
  /// the generic Prim then reads through the search.
  template <PrimOp P, bool ConstY>
  [[gnu::always_inline]] bool prim(const Op &O, const Operand *A) {
    uint32_t X, Y = A[1].X;
    if (!boundWord(A[0], X) || (!ConstY && !boundWord(A[1], Y)))
      return false;
    setWord(Env, O.Res, evalPrim(P, X, Y));
    return true;
  }

  /// The word in the slot \p A names, if it is bound.
  [[gnu::always_inline]] bool boundWord(const Operand &A, uint32_t &Data) {
    Frame *F = up(Env, A.Hops);
    const Slot &S = slot(F, A.X);
    Data = S.V.Data;
    return S.Mark == F->Mark;
  }

  /// Runs from op \p PcRef until the program stops (false) or, with
  /// static addressing, until it enters a frame off its static chain
  /// (true, with \p PcRef the op to go on from in dynamic mode).
  template <bool Dynamic> bool loop(uint32_t &PcRef, unsigned MaxSteps) {
    static const void *JT[] = {
        &&L_Prim,  &&L_MemRead, &&L_MemWrite, &&L_Hash,   &&L_BitTestSet,
        &&L_Clone, &&L_Fix,     &&L_Branch,   &&L_App,    &&L_Halt,
        &&L_AddSS, &&L_SubSS,   &&L_AndSS,    &&L_OrSS,   &&L_XorSS,
        &&L_ShlSS, &&L_ShrSS,   &&L_NotSS,    &&L_AddSC,  &&L_SubSC,
        &&L_AndSC, &&L_OrSC,    &&L_XorSC,    &&L_ShlSC,  &&L_ShrSC,
        &&L_NotSC, &&L_MemReadS,
    };
    static_assert(sizeof(JT) / sizeof(JT[0]) ==
                  static_cast<unsigned>(Handler::MemReadS) + 1);
    const Op *Ops = C.Ops.data();
    const Operand *Operands = C.Operands.data();
    WordMap *const Spaces[] = {&Mem.Sram, &Mem.Sdram, &Mem.Scratch};
    uint32_t Pc = PcRef;
    unsigned Steps = Result.Steps;
    bool Switch = false;
    const Op *O;
    const Operand *A;

    // Every handler dispatches its successor itself, so each indirect
    // jump is predicted from where it is made. A step may have left an
    // error (an unbound read) only after a generic handler; the
    // specialized ones never set one, so their dispatch skips the check.
#define NOVA_DISPATCH_CLEAN()                                                  \
  do {                                                                         \
    if (Pc == None)                                                            \
      goto FellOff;                                                            \
    if (++Steps > MaxSteps)                                                    \
      goto StepLimit;                                                          \
    O = Ops + Pc;                                                              \
    A = O->In;                                                                 \
    goto *JT[static_cast<unsigned>(Dynamic ? static_cast<Handler>(O->K)       \
                                           : O->H)];                           \
  } while (false)
#define NOVA_DISPATCH()                                                        \
  do {                                                                         \
    if (Pc == None)                                                            \
      goto FellOff;                                                            \
    if (++Steps > MaxSteps)                                                    \
      goto StepLimit;                                                          \
    if (!Result.Error.empty())                                                 \
      goto Stop;                                                               \
    O = Ops + Pc;                                                              \
    A = O->In;                                                                 \
    goto *JT[static_cast<unsigned>(Dynamic ? static_cast<Handler>(O->K)       \
                                           : O->H)];                           \
  } while (false)
#define NOVA_PRIM(OP)                                                          \
  L_##OP##SS:                                                                  \
    if (!prim<PrimOp::OP, false>(*O, A))                                       \
      goto L_Prim;                                                             \
    Pc = O->Next;                                                              \
    NOVA_DISPATCH_CLEAN();                                                     \
  L_##OP##SC:                                                                  \
    if (!prim<PrimOp::OP, true>(*O, A))                                        \
      goto L_Prim;                                                             \
    Pc = O->Next;                                                              \
    NOVA_DISPATCH_CLEAN();

    NOVA_DISPATCH();
    NOVA_PRIM(Add)
    NOVA_PRIM(Sub)
    NOVA_PRIM(And)
    NOVA_PRIM(Or)
    NOVA_PRIM(Xor)
    NOVA_PRIM(Shl)
    NOVA_PRIM(Shr)
    NOVA_PRIM(Not)
#undef NOVA_PRIM

  L_Prim: {
    uint32_t X = word<Dynamic>(A[0]);
    uint32_t Y = word<Dynamic>(A[1]);
    // ALU semantics are the shared definition in cps/Ir.h: the oracle
    // agrees with the simulator by construction.
    bindWord(Env, O->Res, evalPrim(static_cast<PrimOp>(O->Sub), X, Y));
    Pc = O->Next;
    NOVA_DISPATCH();
  }
  L_MemReadS: {
    uint32_t Addr;
    if (!boundWord(A[0], Addr))
      goto L_MemRead;
    const WordMap &M = *Spaces[O->Sub];
    const uint32_t *Res = C.Slots.data() + O->Res;
    for (uint32_t I = 0; I != O->NumRes; ++I)
      setWord(Env, Res[I], EvalMemory::load(M, Addr + I));
    Pc = O->Next;
    NOVA_DISPATCH_CLEAN();
  }
  L_MemRead: {
    uint32_t Addr = word<Dynamic>(A[0]);
    WordMap *M = Mem.space(static_cast<MemSpace>(O->Sub));
    if (!M) {
      Result.Error = "memory read from an invalid space";
      goto Stop;
    }
    for (uint32_t I = 0; I != O->NumRes; ++I)
      bindWord(Env, C.Slots[O->Res + I], EvalMemory::load(*M, Addr + I));
    Pc = O->Next;
    NOVA_DISPATCH();
  }
  L_MemWrite: {
    A = Operands + O->Args;
    uint32_t Addr = word<Dynamic>(A[0]);
    WordMap *M = Mem.space(static_cast<MemSpace>(O->Sub));
    if (!M) {
      Result.Error = "memory write to an invalid space";
      goto Stop;
    }
    for (uint32_t I = 1; I != O->NumArgs; ++I)
      (*M)[Addr + I - 1] = word<Dynamic>(A[I]);
    Pc = O->Next;
    NOVA_DISPATCH();
  }
  L_Hash:
    bindWord(Env, O->Res, hwHash(word<Dynamic>(A[0])));
    Pc = O->Next;
    NOVA_DISPATCH();
  L_BitTestSet: {
    uint32_t Addr = word<Dynamic>(A[0]);
    uint32_t Bits = word<Dynamic>(A[1]);
    WordMap *M = Mem.space(static_cast<MemSpace>(O->Sub));
    if (!M) {
      Result.Error = "bit-test-set in an invalid space";
      goto Stop;
    }
    uint32_t Old = EvalMemory::load(*M, Addr);
    (*M)[Addr] = Old | Bits;
    bindWord(Env, O->Res, Old);
    Pc = O->Next;
    NOVA_DISPATCH();
  }
  L_Clone: {
    Value V = value<Dynamic>(A[0]);
    for (uint32_t I = 0; I != O->NumRes; ++I)
      store(Env, C.Slots[O->Res + I], V);
    Pc = O->Next;
    NOVA_DISPATCH();
  }
  L_Fix:
    // Closures capture the frame that contains them (enabling mutual
    // recursion within one Fix); the current reference moves to it.
    Env = newFrame(O->Res, Env);
    Pc = O->Next;
    NOVA_DISPATCH();
  L_Branch: {
    uint32_t X = word<Dynamic>(A[0]);
    uint32_t Y = word<Dynamic>(A[1]);
    Pc = evalCmp(static_cast<CmpOp>(O->Sub), X, Y) ? O->Next : O->Else;
    NOVA_DISPATCH();
  }
  L_App: {
    A = Operands + O->Args;
    Value Callee = value<Dynamic>(A[0]);
    if (Callee.Func == NoFunc) {
      Result.Error = "indirect jump to a non-label value";
      goto Stop;
    }
    if (Callee.Func >= C.Funcs.size()) {
      Result.Error = formatf("jump to unknown function f%u", Callee.Func);
      goto Stop;
    }
    const FuncInfo &Fn = C.Funcs[Callee.Func];
    if (Fn.Entry == None) {
      Result.Error = formatf("jump to dead function f%u_%s", Callee.Func,
                             C.P->func(Callee.Func).Name.c_str());
      goto Stop;
    }
    if (Fn.NumParams != O->NumArgs - 1) {
      Result.Error = formatf("arity mismatch jumping to f%u_%s", Callee.Func,
                             C.P->func(Callee.Func).Name.c_str());
      goto Stop;
    }
    retain(Callee.Env);
    Frame *Fresh = newFrame(Fn.Scope, Callee.Env);
    for (uint32_t I = 0; I != Fn.NumParams; ++I)
      store(Fresh, C.Slots[Fn.Params + I], value<Dynamic>(A[1 + I]));
    release(Env);
    Env = Fresh;
    Pc = Fn.Entry;
    if (!Dynamic && Fn.EnvScope != (Callee.Env ? Callee.Env->Scope : None)) {
      Switch = true;
      goto Stop;
    }
    NOVA_DISPATCH();
  }
  L_Halt:
    A = Operands + O->Args;
    for (uint32_t I = 0; I != O->NumArgs; ++I)
      Result.HaltValues.push_back(word<Dynamic>(A[I]));
    Result.Ok = Result.Error.empty();
    goto Stop;
#undef NOVA_DISPATCH
#undef NOVA_DISPATCH_CLEAN

  StepLimit:
    Result.Error = "step limit exceeded (diverging program?)";
    goto Stop;
  FellOff:
    if (Result.Error.empty())
      Result.Error = "fell off the end of an expression chain";
  Stop:
    Result.Steps = Steps;
    PcRef = Pc;
    return Switch;
  }
};

} // namespace

LoweredProgram::LoweredProgram() = default;
LoweredProgram::LoweredProgram(const CpsProgram &P)
    : C(std::make_unique<Code>()) {
  Lowerer(P, *C).run();
}
LoweredProgram::LoweredProgram(LoweredProgram &&) noexcept = default;
LoweredProgram &
LoweredProgram::operator=(LoweredProgram &&) noexcept = default;
LoweredProgram::~LoweredProgram() = default;

EvalResult cps::evaluate(const LoweredProgram &L,
                         const std::vector<uint32_t> &Args, EvalMemory &Mem,
                         unsigned MaxSteps) {
  const Code *C = L.code();
  if (!C || C->Entry >= C->Funcs.size()) {
    EvalResult R;
    R.Error = "program has no entry";
    return R;
  }
  return Machine(*C, Mem).run(Args, MaxSteps);
}

EvalResult cps::evaluate(const CpsProgram &P,
                         const std::vector<uint32_t> &Args, EvalMemory &Mem,
                         unsigned MaxSteps) {
  return evaluate(LoweredProgram(P), Args, Mem, MaxSteps);
}
