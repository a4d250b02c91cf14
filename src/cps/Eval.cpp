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
// Environments are lexically addressed. Before running, the program's
// bindings are resolved into static scopes: one per function entry (its
// parameters and what its body binds before any Fix) and one per Fix node
// (what the rest of the chain binds after it). Every binding site gets a
// slot in the scope it executes in. A runtime frame is one activation of a
// scope: a flat slot array with a bound mark per slot, chained to the
// frame it was entered from (a Fix) or the frame its closure captured (a
// jump). Reading a value walks that chain to the first frame of a scope
// that binds it and indexes the slot, so a read costs a few pointer hops
// instead of a map search per frame. The resolution is flat vectors
// indexed by ValueId, FuncId and scope, rebuilt on every evaluate() call.
//
// Frames are reference counted (the current frame, child frames, and
// closure values stored in slots hold references) and recycled through a
// free list per scope, so a long loop reuses two frames per scope rather
// than allocating one per iteration. The free lists are deleted when
// evaluate() returns.
//
//===----------------------------------------------------------------------===//

#include "cps/Eval.h"

#include "support/HwHash.h"
#include "support/StringUtils.h"


using namespace nova;
using namespace nova::cps;

namespace {

constexpr uint32_t None = ~0u;

/// One static scope: a function entry or a Fix node.
struct Scope {
  uint32_t NumSlots = 0;
  const Exp *Fix = nullptr; ///< the Fix that opens it; null for an entry
  uint32_t FirstFix = None; ///< first scope a Fix opens directly inside
  uint32_t NextFix = None;  ///< next sibling in the enclosing list
};

/// A value's slot in one scope that binds it, or a scope whose Fix
/// declares a function. The first place of each value (function) is
/// stored inline and further ones chain through Resolution::Extra.
struct Place {
  uint32_t Scope = None; ///< None: no place at all
  uint32_t Slot = 0;
  uint32_t Next = None;
};

/// The static scopes and slots of one program. A well-formed program
/// binds each value at one site and declares each function in one Fix,
/// so no chain goes past its inline place; more are resolved all the
/// same.
class Resolution {
public:
  explicit Resolution(const CpsProgram &P)
      : EntryScope(P.functions().size(), None),
        FuncDecl(P.functions().size()), ValuePlace(P.numValues()) {
    for (const Function &F : P.functions()) {
      if (!F.Body)
        continue;
      uint32_t S = EntryScope[F.Id] = newScope(nullptr);
      for (ValueId V : F.Params)
        bind(V, S);
      walk(F.Body, S);
    }
  }

  std::vector<Scope> Scopes;
  std::vector<uint32_t> EntryScope; ///< by FuncId; None without a body
  std::vector<Place> FuncDecl;      ///< by FuncId
  std::vector<Place> ValuePlace;    ///< by ValueId
  std::vector<Place> Extra;

  /// The place of \p Head's chain in scope \p S, or null.
  const Place *find(const Place &Head, uint32_t S) const {
    for (const Place *Pl = &Head;; Pl = &Extra[Pl->Next]) {
      if (Pl->Scope == S)
        return Pl;
      if (Pl->Next == None)
        return nullptr;
    }
  }

  /// The slot of \p V in scope \p S (one exists at every binding site).
  uint32_t slotIn(ValueId V, uint32_t S) const {
    return find(ValuePlace[V], S)->Slot;
  }

  /// The scope the Fix node \p E opens inside scope \p S.
  uint32_t fixScope(uint32_t S, const Exp *E) const {
    uint32_t X = Scopes[S].FirstFix;
    while (X != None && Scopes[X].Fix != E)
      X = Scopes[X].NextFix;
    return X;
  }

private:
  uint32_t newScope(const Exp *Fix) {
    Scopes.push_back({});
    Scopes.back().Fix = Fix;
    return static_cast<uint32_t>(Scopes.size() - 1);
  }

  /// Adds scope \p S to \p Head's chain unless it is there already.
  void addPlace(Place &Head, uint32_t S, uint32_t Slot) {
    if (Head.Scope != None) {
      Extra.push_back(Head);
      Head.Next = static_cast<uint32_t>(Extra.size() - 1);
    }
    Head.Scope = S;
    Head.Slot = Slot;
  }

  void bind(ValueId V, uint32_t S) {
    if (V >= ValuePlace.size())
      ValuePlace.resize(V + 1);
    // A second site in one scope rebinds the same slot.
    if (!find(ValuePlace[V], S))
      addPlace(ValuePlace[V], S, Scopes[S].NumSlots++);
  }

  /// Binds every site of one function body, branches from a work list.
  void walk(const Exp *Body, uint32_t Entry) {
    std::vector<std::pair<const Exp *, uint32_t>> Work = {{Body, Entry}};
    while (!Work.empty()) {
      auto [E, S] = Work.back();
      Work.pop_back();
      while (E) {
        switch (E->Kind) {
        case ExpKind::Prim:
        case ExpKind::MemRead:
        case ExpKind::Hash:
        case ExpKind::BitTestSet:
        case ExpKind::Clone:
          for (ValueId R : E->Results)
            bind(R, S);
          E = E->Cont;
          break;
        case ExpKind::MemWrite:
          E = E->Cont;
          break;
        case ExpKind::Fix: {
          if (fixScope(S, E) != None) {
            E = nullptr; // a shared tail already walked in this scope
            break;
          }
          uint32_t X = newScope(E);
          Scopes[X].NextFix = Scopes[S].FirstFix;
          Scopes[S].FirstFix = X;
          for (FuncId F : E->FixFuncs)
            if (F < FuncDecl.size() && !find(FuncDecl[F], X))
              addPlace(FuncDecl[F], X, 0);
          S = X;
          E = E->Cont;
          break;
        }
        case ExpKind::Branch:
          Work.push_back({E->Then, S});
          E = E->Else;
          break;
        case ExpKind::App:
        case ExpKind::Halt:
          E = nullptr;
          break;
        }
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

/// One activation of a scope.
struct Frame {
  uint32_t Refs = 0;
  uint32_t Scope = 0;
  uint64_t Mark = 0;         ///< this activation's bound mark
  Frame *Parent = nullptr;   ///< counted; also the free-list link
  std::vector<Slot> Slots;   ///< Env of a bound slot is counted
  std::vector<uint32_t> Closures; ///< slots that took a closure

  bool bound(uint32_t I) const { return Slots[I].Mark == Mark; }
};

struct Machine {
  const CpsProgram &P;
  EvalMemory &Mem;
  Resolution R;
  EvalResult Result;
  Frame *Env = nullptr; ///< the current frame (one counted reference)

  std::vector<Frame *> Free; ///< by scope: released frames for reuse
  std::vector<Frame *> Dying;
  uint64_t Activations = 0; ///< source of fresh bound marks

  Machine(const CpsProgram &P, EvalMemory &Mem)
      : P(P), Mem(Mem), R(P), Free(R.Scopes.size(), nullptr) {}
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  /// Deletes the free lists. Every frame is on one once the current
  /// frame is released; a frame whose count never reached zero is a
  /// leak, which LeakSanitizer reports.
  ~Machine() {
    for (Frame *F : Free)
      while (F) {
        Frame *Next = F->Parent;
        delete F;
        F = Next;
      }
  }

  /// A fresh frame of scope \p S: every slot unbound, one reference.
  Frame *newFrame(uint32_t S, Frame *Parent) {
    Frame *F = Free[S];
    if (F) {
      Free[S] = F->Parent;
    } else {
      F = new Frame;
      F->Scope = S;
      F->Slots.resize(R.Scopes[S].NumSlots);
    }
    F->Refs = 1;
    F->Mark = ++Activations;
    F->Parent = Parent;
    return F;
  }

  static void retain(Frame *F) {
    if (F)
      ++F->Refs;
  }

  /// Drops one reference; a frame that loses its last one releases what
  /// it holds and returns to its scope's free list. Iterative, so a long
  /// chain of captured activations cannot exhaust the stack.
  void release(Frame *F) {
    if (!F || --F->Refs)
      return;
    Dying.push_back(F);
    while (!Dying.empty()) {
      Frame *D = Dying.back();
      Dying.pop_back();
      auto Drop = [&](Frame *G) {
        if (G && !--G->Refs)
          Dying.push_back(G);
      };
      Drop(D->Parent);
      for (uint32_t I : D->Closures) {
        Frame *&Env = D->Slots[I].V.Env;
        if (Env != D)
          Drop(Env);
        Env = nullptr;
      }
      D->Closures.clear();
      D->Parent = Free[D->Scope];
      Free[D->Scope] = D;
    }
  }

  /// Binds \p V (a temporary result or parameter) in frame \p F.
  ///
  /// Only the newest frame is ever written (control never returns to an
  /// older one), so every reference points from a newer frame to an
  /// older one, except a closure over the very frame that holds it: that
  /// one is not counted, since the slot dies with its frame. Counting
  /// therefore frees every frame no longer reachable.
  void store(Frame *F, ValueId V, Value X) {
    Slot &S = F->Slots[R.slotIn(V, F->Scope)];
    if (X.Env && X.Env != F) {
      retain(X.Env);
      F->Closures.push_back(static_cast<uint32_t>(&S - F->Slots.data()));
    }
    Frame *Old = S.Mark == F->Mark && S.V.Env != F ? S.V.Env : nullptr;
    S.V = X;
    S.Mark = F->Mark;
    release(Old);
  }

  void bindWord(ValueId V, uint32_t Data) { store(Env, V, {Data}); }

  const Value *lookupValue(ValueId V) const {
    if (V >= R.ValuePlace.size())
      return nullptr;
    const Place &Head = R.ValuePlace[V];
    for (const Frame *F = Env; F; F = F->Parent)
      if (const Place *Pl = R.find(Head, F->Scope))
        if (F->bound(Pl->Slot))
          return &F->Slots[Pl->Slot].V;
    return nullptr;
  }

  /// The nearest frame whose Fix declares \p Fn, or null.
  Frame *declaringFrame(FuncId Fn) const {
    if (Fn >= R.FuncDecl.size())
      return nullptr;
    for (Frame *F = Env; F; F = F->Parent)
      if (R.find(R.FuncDecl[Fn], F->Scope))
        return F;
    return nullptr;
  }

  /// The operand's value; a closure's Env is borrowed, not counted.
  Value atom(const Atom &A) {
    switch (A.K) {
    case Atom::Kind::Temp: {
      if (const Value *V = lookupValue(A.Id))
        return *V;
      Result.Error = formatf("use of unbound value v%u", A.Id);
      return {};
    }
    case Atom::Kind::Const:
      return {A.Value};
    case Atom::Kind::Label:
      // A function no enclosing Fix declares is top-level and closed.
      return {0, A.Func, declaringFrame(A.Func)};
    }
    return {};
  }

  uint32_t word(const Atom &A) { return atom(A).Data; }

  void run(const std::vector<uint32_t> &Args, unsigned MaxSteps) {
    const Function &Entry = P.func(P.Entry);
    if (Args.size() != Entry.Params.size()) {
      Result.Error = formatf("entry takes %zu args, got %zu",
                             Entry.Params.size(), Args.size());
      return;
    }
    const Exp *E = Entry.Body;
    if (E) {
      Env = newFrame(R.EntryScope[P.Entry], nullptr);
      for (unsigned I = 0; I != Args.size(); ++I)
        bindWord(Entry.Params[I], Args[I]);
    }
    while (E) {
      if (++Result.Steps > MaxSteps) {
        Result.Error = "step limit exceeded (diverging program?)";
        return;
      }
      if (!Result.Error.empty())
        return;
      switch (E->Kind) {
      case ExpKind::Prim: {
        uint32_t A = word(E->Args[0]);
        uint32_t B = E->Args.size() > 1 ? word(E->Args[1]) : 0;
        // ALU semantics are the shared definition in cps/Ir.h: the
        // oracle agrees with the simulator by construction.
        bindWord(E->Results[0], evalPrim(E->Prim, A, B));
        E = E->Cont;
        break;
      }
      case ExpKind::MemRead: {
        uint32_t Addr = word(E->Args[0]);
        WordMap *M = Mem.space(E->Space);
        if (!M) {
          Result.Error = "memory read from an invalid space";
          return;
        }
        for (unsigned I = 0; I != E->Results.size(); ++I)
          bindWord(E->Results[I], EvalMemory::load(*M, Addr + I));
        E = E->Cont;
        break;
      }
      case ExpKind::MemWrite: {
        uint32_t Addr = word(E->Args[0]);
        WordMap *M = Mem.space(E->Space);
        if (!M) {
          Result.Error = "memory write to an invalid space";
          return;
        }
        for (unsigned I = 1; I != E->Args.size(); ++I)
          (*M)[Addr + I - 1] = word(E->Args[I]);
        E = E->Cont;
        break;
      }
      case ExpKind::Hash:
        bindWord(E->Results[0], hwHash(word(E->Args[0])));
        E = E->Cont;
        break;
      case ExpKind::BitTestSet: {
        uint32_t Addr = word(E->Args[0]);
        uint32_t Bits = word(E->Args[1]);
        WordMap *M = Mem.space(E->Space);
        if (!M) {
          Result.Error = "bit-test-set in an invalid space";
          return;
        }
        uint32_t Old = EvalMemory::load(*M, Addr);
        (*M)[Addr] = Old | Bits;
        bindWord(E->Results[0], Old);
        E = E->Cont;
        break;
      }
      case ExpKind::Clone: {
        Value V = atom(E->Args[0]);
        for (ValueId Res : E->Results)
          store(Env, Res, V);
        E = E->Cont;
        break;
      }
      case ExpKind::Fix:
        // Closures capture the frame that contains them (enabling mutual
        // recursion within one Fix); the current reference moves to it.
        Env = newFrame(R.fixScope(Env->Scope, E), Env);
        E = E->Cont;
        break;
      case ExpKind::Branch: {
        uint32_t A = word(E->Args[0]);
        uint32_t B = word(E->Args[1]);
        E = evalCmp(E->Cmp, A, B) ? E->Then : E->Else;
        break;
      }
      case ExpKind::App: {
        Value Callee = atom(E->Callee);
        if (Callee.Func == NoFunc) {
          Result.Error = "indirect jump to a non-label value";
          return;
        }
        const Function &Fn = P.func(Callee.Func);
        if (!Fn.Body) {
          Result.Error = formatf("jump to dead function f%u_%s",
                                 Callee.Func, Fn.Name.c_str());
          return;
        }
        if (Fn.Params.size() != E->Args.size()) {
          Result.Error = formatf("arity mismatch jumping to f%u_%s",
                                 Callee.Func, Fn.Name.c_str());
          return;
        }
        retain(Callee.Env);
        Frame *Fresh = newFrame(R.EntryScope[Callee.Func], Callee.Env);
        for (unsigned I = 0; I != E->Args.size(); ++I)
          store(Fresh, Fn.Params[I], atom(E->Args[I]));
        release(Env);
        Env = Fresh;
        E = Fn.Body;
        break;
      }
      case ExpKind::Halt:
        for (const Atom &A : E->Args)
          Result.HaltValues.push_back(word(A));
        Result.Ok = Result.Error.empty();
        return;
      }
    }
    if (Result.Error.empty())
      Result.Error = "fell off the end of an expression chain";
  }
};

} // namespace

EvalResult cps::evaluate(const CpsProgram &P,
                         const std::vector<uint32_t> &Args, EvalMemory &Mem,
                         unsigned MaxSteps) {
  if (P.Entry == NoFunc) {
    EvalResult R;
    R.Error = "program has no entry";
    return R;
  }
  Machine M(P, Mem);
  M.run(Args, MaxSteps);
  M.release(M.Env);
  return std::move(M.Result);
}
