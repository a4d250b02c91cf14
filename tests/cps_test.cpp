//===- cps_test.cpp - CPS conversion, optimization, SSU tests -------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Strategy: compile Nova sources to CPS, then check that (a) evaluation
// gives the expected results, (b) the optimizer preserves them, and (c)
// the structural invariants (known callees, SSU) hold afterwards.
//
//===----------------------------------------------------------------------===//

#include "apps/AppSources.h"
#include "cps/Convert.h"
#include "cps/Eval.h"
#include "cps/Opt.h"
#include "nova/Parser.h"
#include "nova/Sema.h"
#include "soak/Soak.h"
#include "support/BinIO.h"

#include <gtest/gtest.h>

using namespace nova;
using namespace nova::cps;

namespace {

struct Pipeline {
  SourceManager SM;
  AstArena Arena;
  std::unique_ptr<DiagnosticEngine> Diags;
  Program Prog;
  std::unique_ptr<SemaResult> Sema;
  CpsProgram Cps;

  bool compile(const std::string &Source) {
    uint32_t Buf = SM.addBuffer("test.nova", Source);
    Diags = std::make_unique<DiagnosticEngine>(SM);
    Parser P(SM, Buf, Arena, *Diags);
    Prog = P.parseProgram();
    if (Diags->hasErrors())
      return false;
    Sema = std::make_unique<SemaResult>(*Diags);
    runSema(Prog, SM, *Diags, *Sema);
    if (!Sema->Success)
      return false;
    return convertToCps(Prog, *Sema, *Diags, Cps);
  }

  std::string errors() const { return Diags ? Diags->render() : ""; }
};

/// Compiles, runs the unoptimized CPS, optimizes + SSU, runs again, and
/// checks both runs agree (and match \p Expected when provided).
void checkProgram(const std::string &Source,
                  const std::vector<uint32_t> &Args,
                  std::optional<uint32_t> Expected,
                  EvalMemory InitMem = {}) {
  Pipeline P;
  ASSERT_TRUE(P.compile(Source)) << P.errors();

  EvalMemory MemBefore = InitMem;
  EvalResult Before = evaluate(P.Cps, Args, MemBefore);
  ASSERT_TRUE(Before.Ok) << Before.Error << "\n" << P.Cps.print();

  optimize(P.Cps);
  EXPECT_TRUE(allCalleesKnown(P.Cps)) << P.Cps.print();
  makeStaticSingleUse(P.Cps);

  EvalMemory MemAfter = InitMem;
  EvalResult After = evaluate(P.Cps, Args, MemAfter);
  ASSERT_TRUE(After.Ok) << After.Error << "\n" << P.Cps.print();

  EXPECT_EQ(Before.HaltValues, After.HaltValues) << P.Cps.print();
  EXPECT_EQ(MemBefore.Sram, MemAfter.Sram);
  EXPECT_EQ(MemBefore.Sdram, MemAfter.Sdram);
  EXPECT_EQ(MemBefore.Scratch, MemAfter.Scratch);
  if (Expected) {
    ASSERT_EQ(After.HaltValues.size(), 1u);
    EXPECT_EQ(After.HaltValues[0], *Expected);
  }
}

} // namespace

TEST(CpsEval, Arithmetic) {
  checkProgram("fun main(x : word) { (x + 3) << 2 }", {5}, (5 + 3) << 2);
  checkProgram("fun main(x : word) { ~x & 0xFF }", {0x12345678},
               (~0x12345678u) & 0xFF);
  checkProgram("fun main(x : word) { -x }", {7}, static_cast<uint32_t>(-7));
}

TEST(CpsEval, IfExpression) {
  const char *Src = "fun main(x : word) { if (x > 10) x - 10 else x }";
  checkProgram(Src, {25}, 15);
  checkProgram(Src, {5}, 5);
}

TEST(CpsEval, LogicalOperators) {
  const char *Src = "fun main(x : word, y : word) {"
                    "  if (x > 1 && y > 1 || x == 0) 1 else 0"
                    "}";
  checkProgram(Src, {2, 2}, 1);
  checkProgram(Src, {2, 1}, 0);
  checkProgram(Src, {0, 9}, 1);
}

TEST(CpsEval, BoolMaterialization) {
  checkProgram("fun main(x : word) { let b = x < 5; if (b) 1 else 2 }", {3},
               1);
  checkProgram("fun main(x : word) { let b = !(x < 5); if (b) 1 else 2 }",
               {3}, 2);
}

TEST(CpsEval, WhileLoopSum) {
  const char *Src = "fun main(n : word) {"
                    "  let i = 0;"
                    "  let sum = 0;"
                    "  while (i < n) {"
                    "    sum = sum + i;"
                    "    i = i + 1;"
                    "  }"
                    "  sum"
                    "}";
  checkProgram(Src, {10}, 45);
  checkProgram(Src, {0}, 0);
}

TEST(CpsEval, NestedLoops) {
  const char *Src = "fun main(n : word) {"
                    "  let total = 0;"
                    "  let i = 0;"
                    "  while (i < n) {"
                    "    let j = 0;"
                    "    while (j < n) {"
                    "      total = total + 1;"
                    "      j = j + 1;"
                    "    }"
                    "    i = i + 1;"
                    "  }"
                    "  total"
                    "}";
  checkProgram(Src, {5}, 25);
}

TEST(CpsEval, FunctionCallInlining) {
  const char *Src = "fun double(x : word) { x + x }"
                    "fun main(a : word) { double(a) + double(a + 1) }";
  checkProgram(Src, {10}, 20 + 22);
}

TEST(CpsEval, TailRecursionBecomesLoop) {
  const char *Src =
      "fun sum(n : word, acc : word) -> word {"
      "  if (n == 0) acc else sum(n - 1, acc + n)"
      "}"
      "fun main(n : word) { sum(n, 0) }";
  checkProgram(Src, {100}, 5050);
}

TEST(CpsEval, MemoryReadWrite) {
  EvalMemory Mem;
  Mem.Sram[100] = 11;
  Mem.Sram[101] = 22;
  Mem.Sram[102] = 33;
  Mem.Sram[103] = 44;
  const char *Src = "fun main(base : word) {"
                    "  let (a, b, c, d) = sram(base);"
                    "  sram(base + 10) <- (d, c, b, a);"
                    "  a + d"
                    "}";
  Pipeline P;
  ASSERT_TRUE(P.compile(Src)) << P.errors();
  optimize(P.Cps);
  makeStaticSingleUse(P.Cps);
  EvalResult R = evaluate(P.Cps, {100}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{55});
  EXPECT_EQ(Mem.Sram[110], 44u);
  EXPECT_EQ(Mem.Sram[113], 11u);
}

TEST(CpsEval, TryHandleRaise) {
  const char *Src = "fun main(x : word) {"
                    "  try {"
                    "    if (x == 0) { raise Bad [why = 77] };"
                    "    x + 1"
                    "  } handle Bad [why : word] { why }"
                    "}";
  checkProgram(Src, {0}, 77);
  checkProgram(Src, {5}, 6);
}

TEST(CpsEval, ExceptionPassedToFunction) {
  const char *Src =
      "fun check(v : word, bad : exn [code : word]) {"
      "  if (v > 100) { raise bad [code = v] };"
      "  v"
      "}"
      "fun main(x : word) {"
      "  try { check(x, Overflow) + 1000 }"
      "  handle Overflow [code : word] { code - 100 }"
      "}";
  checkProgram(Src, {5}, 1005);
  checkProgram(Src, {150}, 50);
}

TEST(CpsEval, UnpackPaperExample) {
  // fun f from Section 4.4 of the paper.
  const char *Src =
      "layout p = { a : 16, b : 32, c : 16 };"
      "fun f(p1 : packed(p), p2 : packed(p)) {"
      "  let u1 = unpack[p](p1);"
      "  let u2 = unpack[p](p2);"
      "  (if (u1.c > 10) u1 else u2).b"
      "}"
      "fun main(w0 : word, w1 : word, x0 : word, x1 : word) {"
      "  f((w0, w1), (x0, x1))"
      "}";
  // Layout: a = bits[0..16), b = bits[16..48), c = bits[48..64).
  // p1: a=0x1111 b=0x22223333 c=0x0fff (> 10) -> picks u1.b.
  uint32_t W0 = 0x11112222, W1 = 0x33330fff;
  uint32_t X0 = 0xAAAABBBB, X1 = 0xCCCC0001;
  checkProgram(Src, {W0, W1, X0, X1}, 0x22223333);
  // p1.c = 1 (not > 10) -> picks u2.b = 0xBBBBCCCC.
  checkProgram(Src, {W0, 0x33330001u & 0xFFFF0001u, X0, X1}, 0xBBBBCCCC);
}

TEST(CpsEval, PackUnpackRoundTrip) {
  const char *Src =
      "layout h = { f1 : 4, f2 : 12, f3 : 16, f4 : 32 };"
      "fun main(a : word, b : word, c : word, d : word) {"
      "  let p = pack[h] [ f1 = a, f2 = b, f3 = c, f4 = d ];"
      "  let u = unpack[h](p);"
      "  ((u.f1 == a && u.f2 == b) && (u.f3 == c && u.f4 == d))"
      "    == true"
      "}";
  Pipeline P;
  ASSERT_TRUE(P.compile(Src)) << P.errors();
  optimize(P.Cps);
  EvalMemory Mem;
  EvalResult R = evaluate(P.Cps, {0xF, 0xABC, 0x1234, 0xDEADBEEF}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{1});
}

TEST(CpsEval, PackWithOverlay) {
  const char *Src =
      "layout h = { verpri : overlay { whole : 8"
      "                              | parts : { ver : 4, pri : 4 } },"
      "             rest : 24 };"
      "fun main(x : word) {"
      "  let a = pack[h] [ verpri = [ whole = 0x65 ], rest = x ];"
      "  let b = pack[h] [ verpri = [ parts = [ver = 6, pri = 5] ],"
      "                    rest = x ];"
      "  if (a.0 == b.0) 1 else 0"
      "}";
  checkProgram(Src, {0x123456}, 1);
}

TEST(CpsEval, MisalignedLayoutVariants) {
  // The paper's alignment example: the same layout at offsets 0/16/24.
  const char *Src =
      "layout lyt = { x : 16, y : 32, z : 8 };"
      "fun main(sel : word, w0 : word, w1 : word, w2 : word) {"
      "  let u = if (sel == 0)      unpack[lyt ## {40}]((w0, w1, w2))"
      "          else if (sel == 1) unpack[{16} ## lyt ## {24}]((w0, w1, w2))"
      "          else               unpack[{24} ## lyt ## {16}]((w0, w1, w2));"
      "  u.y"
      "}";
  // Words: 0xAABBCCDD 0x11223344 0x55667788.
  // sel=0: y at bits [16,48) = 0xCCDD1122.
  // sel=1: y at bits [32,64) = 0x11223344.
  // sel=2: y at bits [40,72) = 0x22334455.
  checkProgram(Src, {0, 0xAABBCCDD, 0x11223344, 0x55667788}, 0xCCDD1122);
  checkProgram(Src, {1, 0xAABBCCDD, 0x11223344, 0x55667788}, 0x11223344);
  checkProgram(Src, {2, 0xAABBCCDD, 0x11223344, 0x55667788}, 0x22334455);
}

TEST(CpsEval, HashIsDeterministic) {
  const char *Src = "fun main(x : word) { hash(x) ^ hash(x) }";
  checkProgram(Src, {123}, 0);
}

TEST(CpsEval, BitTestSet) {
  EvalMemory Mem;
  Mem.Sram[50] = 0b1010;
  const char *Src = "fun main(a : word) {"
                    "  let old = sram_bit_test_set(a, 0b0110);"
                    "  old"
                    "}";
  Pipeline P;
  ASSERT_TRUE(P.compile(Src)) << P.errors();
  optimize(P.Cps);
  EvalResult R = evaluate(P.Cps, {50}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{0b1010});
  EXPECT_EQ(Mem.Sram[50], 0b1110u);
}

//===----------------------------------------------------------------------===//
// Hand-built IR: the evaluator's error paths and closure semantics
//===----------------------------------------------------------------------===//

namespace {

/// Builders for hand-written CPS: each returns the new node so a test can
/// chain it (`A->Cont = B`).
Exp *primExp(CpsProgram &P, PrimOp Op, ValueId R, Atom A, Atom B) {
  Exp *E = P.newExp(ExpKind::Prim);
  E->Prim = Op;
  E->Args = {A, B};
  E->Results = {R};
  return E;
}

Exp *haltExp(CpsProgram &P, std::vector<Atom> Args) {
  Exp *E = P.newExp(ExpKind::Halt);
  E->Args = std::move(Args);
  return E;
}

Exp *appExp(CpsProgram &P, Atom Callee, std::vector<Atom> Args) {
  Exp *E = P.newExp(ExpKind::App);
  E->Callee = Callee;
  E->Args = std::move(Args);
  return E;
}

Exp *fixExp(CpsProgram &P, std::vector<FuncId> Funcs, Exp *Cont) {
  Exp *E = P.newExp(ExpKind::Fix);
  E->FixFuncs = std::move(Funcs);
  E->Cont = Cont;
  return E;
}

/// A function with fresh parameters; the body is set by the caller.
FuncId defineFunc(CpsProgram &P, const char *Name, unsigned Arity,
                  FuncKind Kind = FuncKind::UserFun) {
  FuncId F = P.newFunction(Name, Kind);
  for (unsigned I = 0; I != Arity; ++I)
    P.func(F).Params.push_back(P.newValue());
  return F;
}

Atom param(const CpsProgram &P, FuncId F, unsigned I) {
  return Atom::temp(P.func(F).Params[I]);
}

/// main(x) { <Body> } as the program entry.
FuncId defineMain(CpsProgram &P) {
  FuncId Main = defineFunc(P, "main", 1);
  P.Entry = Main;
  return Main;
}

EvalResult run(const CpsProgram &P, std::vector<uint32_t> Args,
               unsigned MaxSteps = 1'000'000) {
  EvalMemory Mem;
  return evaluate(P, Args, Mem, MaxSteps);
}

} // namespace

TEST(CpsEvalErrors, UnboundValue) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  ValueId Late = P.newValue();
  ValueId Y = P.newValue();
  // y = late + 1 reads `late` before its binding in the same scope.
  Exp *E = primExp(P, PrimOp::Add, Y, Atom::temp(Late), Atom::constant(1));
  E->Cont = primExp(P, PrimOp::Add, Late, param(P, Main, 0),
                    Atom::constant(1));
  E->Cont->Cont = haltExp(P, {Atom::temp(Y)});
  P.func(Main).Body = E;
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "use of unbound value v" + std::to_string(Late));

  // A value bound by another function is not in scope here.
  CpsProgram Q;
  FuncId QMain = defineMain(Q);
  FuncId Other = defineFunc(Q, "other", 1);
  Q.func(Other).Body = haltExp(Q, {param(Q, Other, 0)});
  Q.func(QMain).Body = haltExp(Q, {param(Q, Other, 0)});
  R = run(Q, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "use of unbound value v" +
                         std::to_string(Q.func(Other).Params[0]));
}

TEST(CpsEvalErrors, ArityMismatch) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId F = defineFunc(P, "pair", 2);
  P.func(F).Body = haltExp(P, {param(P, F, 0)});
  P.func(Main).Body =
      fixExp(P, {F}, appExp(P, Atom::label(F), {param(P, Main, 0)}));
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "arity mismatch jumping to f1_pair");
}

TEST(CpsEvalErrors, DeadFunction) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId Dead = defineFunc(P, "gone", 1); // no body
  P.func(Main).Body = appExp(P, Atom::label(Dead), {param(P, Main, 0)});
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "jump to dead function f1_gone");
}

TEST(CpsEvalErrors, IndirectJumpToNonLabel) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  P.func(Main).Body = appExp(P, param(P, Main, 0), {Atom::constant(1)});
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "indirect jump to a non-label value");
}

TEST(CpsEvalErrors, StepLimit) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId Loop = defineFunc(P, "spin", 1, FuncKind::Loop);
  P.func(Loop).Body = appExp(P, Atom::label(Loop), {param(P, Loop, 0)});
  P.func(Main).Body =
      fixExp(P, {Loop}, appExp(P, Atom::label(Loop), {param(P, Main, 0)}));
  EvalResult R = run(P, {5}, /*MaxSteps=*/100);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "step limit exceeded (diverging program?)");
  EXPECT_EQ(R.Steps, 101u);
}

TEST(CpsEvalErrors, InvalidSpace) {
  const MemSpace Bad = static_cast<MemSpace>(7);
  const struct {
    ExpKind Kind;
    const char *Error;
  } Cases[] = {
      {ExpKind::MemRead, "memory read from an invalid space"},
      {ExpKind::MemWrite, "memory write to an invalid space"},
      {ExpKind::BitTestSet, "bit-test-set in an invalid space"},
  };
  for (const auto &C : Cases) {
    CpsProgram P;
    FuncId Main = defineMain(P);
    Exp *E = P.newExp(C.Kind);
    E->Space = Bad;
    E->Args = {param(P, Main, 0), Atom::constant(1)};
    if (C.Kind != ExpKind::MemWrite)
      E->Results = {P.newValue()};
    E->Cont = haltExp(P, {});
    P.func(Main).Body = E;
    // EvalMemory::space asserts on an invalid space in debug builds.
    EvalResult R;
    EXPECT_DEBUG_DEATH(R = run(P, {5}), "invalid MemSpace");
#ifdef NDEBUG
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, C.Error);
#endif
  }
}

TEST(CpsEvalErrors, FellOffTheEnd) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  P.func(Main).Body = primExp(P, PrimOp::Add, P.newValue(),
                              param(P, Main, 0), Atom::constant(1));
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "fell off the end of an expression chain");

  // An entry without a body falls off at once.
  CpsProgram Q;
  defineMain(Q);
  R = run(Q, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "fell off the end of an expression chain");
}

TEST(CpsEvalErrors, EntryArityAndMissingEntry) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  P.func(Main).Body = haltExp(P, {param(P, Main, 0)});
  EvalResult R = run(P, {1, 2});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "entry takes 1 args, got 2");

  CpsProgram Q;
  R = run(Q, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "program has no entry");
}

TEST(CpsEval, ClosureHeldByItsOwnFrame) {
  // main(x) { fix f(a) { halt(a) } in (c) = clone &f; jump c(x) }: the
  // clone stores a closure over the Fix frame into that same frame. The
  // program must run, and the frame must still be freed afterwards (the
  // sanitizer build's leak checker runs this test).
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId F = defineFunc(P, "f", 1);
  P.func(F).Body = haltExp(P, {param(P, F, 0)});
  ValueId C = P.newValue();
  Exp *Clone = P.newExp(ExpKind::Clone);
  Clone->Args = {Atom::label(F)};
  Clone->Results = {C};
  Clone->Cont = appExp(P, Atom::temp(C), {param(P, Main, 0)});
  P.func(Main).Body = fixExp(P, {F}, Clone);
  EvalResult R = run(P, {42});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{42});
}

TEST(CpsEval, LiveActivationsCaptureTheirOwnValues) {
  // mk(x, k) { fix get(r) { jump r(x) } in jump k(&get) } hands back a
  // closure over its own x. Two activations of mk stay live at once, and
  // each closure must answer with the x of the activation that made it:
  //   mk(1, k1); k1(g1) = mk(2, k2); k2(g2) = g1(k3);
  //   k3(a) = g2(k4); k4(b) = halt(a, b)            =>  halt(1, 2)
  CpsProgram P;
  FuncId Main = P.newFunction("main", FuncKind::UserFun);
  P.Entry = Main;
  FuncId Mk = defineFunc(P, "mk", 2);
  FuncId Get = defineFunc(P, "get", 1, FuncKind::ReturnPt);
  P.func(Get).Body = appExp(P, param(P, Get, 0), {param(P, Mk, 0)});
  P.func(Mk).Body = fixExp(
      P, {Get}, appExp(P, param(P, Mk, 1), {Atom::label(Get)}));

  FuncId K1 = defineFunc(P, "k1", 1, FuncKind::ReturnPt);
  FuncId K2 = defineFunc(P, "k2", 1, FuncKind::ReturnPt);
  FuncId K3 = defineFunc(P, "k3", 1, FuncKind::ReturnPt);
  FuncId K4 = defineFunc(P, "k4", 1, FuncKind::ReturnPt);
  P.func(K4).Body = haltExp(P, {param(P, K3, 0), param(P, K4, 0)});
  P.func(K3).Body =
      fixExp(P, {K4}, appExp(P, param(P, K2, 0), {Atom::label(K4)}));
  P.func(K2).Body =
      fixExp(P, {K3}, appExp(P, param(P, K1, 0), {Atom::label(K3)}));
  P.func(K1).Body = fixExp(
      P, {K2},
      appExp(P, Atom::label(Mk), {Atom::constant(2), Atom::label(K2)}));
  P.func(Main).Body = fixExp(
      P, {K1},
      appExp(P, Atom::label(Mk), {Atom::constant(1), Atom::label(K1)}));

  EvalResult R = run(P, {});
  ASSERT_TRUE(R.Ok) << R.Error << "\n" << P.print();
  EXPECT_EQ(R.HaltValues, (std::vector<uint32_t>{1, 2}));
}

TEST(CpsEvalErrors, UnboundOperandIsReportedAtTheNextStep) {
  // sram(x) <- (late); halt(): the store runs with 0 for the unbound
  // operand, and the error stops the run at the start of the next step,
  // after that step's limit check.
  CpsProgram P;
  FuncId Main = defineMain(P);
  ValueId Late = P.newValue();
  Exp *W = P.newExp(ExpKind::MemWrite);
  W->Space = MemSpace::Sram;
  W->Args = {param(P, Main, 0), Atom::temp(Late)};
  W->Cont = haltExp(P, {});
  P.func(Main).Body = W;
  EvalMemory Mem;
  EvalResult R = evaluate(P, {9}, Mem, /*MaxSteps=*/2);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "use of unbound value v" + std::to_string(Late));
  EXPECT_EQ(R.Steps, 2u);
  EXPECT_TRUE(R.HaltValues.empty());
  EXPECT_EQ(Mem.Sram, (std::map<uint32_t, uint32_t>{{9, 0}}));

  // One step fewer: the limit check of step 2 comes first.
  EvalMemory Mem1;
  R = evaluate(P, {9}, Mem1, /*MaxSteps=*/1);
  EXPECT_EQ(R.Error, "step limit exceeded (diverging program?)");
  EXPECT_EQ(R.Steps, 2u);
  EXPECT_EQ(Mem1.Sram, (std::map<uint32_t, uint32_t>{{9, 0}}));

  // An unbound halt operand halts with 0 in its place, not Ok.
  CpsProgram Q;
  defineMain(Q);
  ValueId Gone = Q.newValue();
  Q.func(Q.Entry).Body =
      haltExp(Q, {param(Q, Q.Entry, 0), Atom::temp(Gone)});
  R = run(Q, {7});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "use of unbound value v" + std::to_string(Gone));
  EXPECT_EQ(R.HaltValues, (std::vector<uint32_t>{7, 0}));
  EXPECT_EQ(R.Steps, 1u);
}

TEST(CpsEvalErrors, ValueIdOutsideTheProgram) {
  // A result id the program never allocated (here the largest one) is
  // written but names no value, so reading it back is unbound.
  CpsProgram P;
  FuncId Main = defineMain(P);
  const ValueId Forged = ~0u;
  Exp *E = primExp(P, PrimOp::Add, Forged, param(P, Main, 0),
                   Atom::constant(1));
  E->Cont = haltExp(P, {Atom::temp(Forged)});
  P.func(Main).Body = E;
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "use of unbound value v4294967295");
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{0});
  EXPECT_EQ(R.Steps, 2u);
}

TEST(CpsEval, PrimOperatorOutsideTheEnum) {
  // evalPrim yields 0 for an operator it does not know.
  CpsProgram P;
  FuncId Main = defineMain(P);
  ValueId A = P.newValue(), B = P.newValue();
  Exp *E = primExp(P, PrimOp::Add, A, param(P, Main, 0), Atom::constant(1));
  E->Cont = primExp(P, static_cast<PrimOp>(9), B, Atom::temp(A),
                    Atom::temp(A));
  E->Cont->Cont = haltExp(P, {Atom::temp(A), Atom::temp(B)});
  P.func(Main).Body = E;
  EvalResult R = run(P, {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, (std::vector<uint32_t>{6, 0}));
}

TEST(CpsEvalErrors, ExpressionKindOutsideTheEnum) {
  CpsProgram P;
  FuncId Main = defineMain(P);
  ValueId A = P.newValue();
  Exp *E = primExp(P, PrimOp::Add, A, param(P, Main, 0), Atom::constant(1));
  E->Cont = P.newExp(static_cast<ExpKind>(42));
  E->Cont->Cont = haltExp(P, {Atom::temp(A)});
  P.func(Main).Body = E;
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "fell off the end of an expression chain");
  EXPECT_EQ(R.Steps, 1u);
}

TEST(CpsEvalErrors, UnboundCallee) {
  // The unbound read's error is replaced by the jump's own.
  CpsProgram P;
  FuncId Main = defineMain(P);
  P.func(Main).Body =
      appExp(P, Atom::temp(P.newValue()), {param(P, Main, 0)});
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "indirect jump to a non-label value");
  EXPECT_EQ(R.Steps, 1u);
}

TEST(CpsEval, FixReachedTwiceInOneScope) {
  // main(x) { if (x == 0) { a = x + 10; T } else { a = x + 20; T } } with
  // the shared tail T = fix k(p) { halt(p, c) } in c = a + 1; jump k(c).
  // Both arms bind `a` (one slot of main's scope) and reach the same Fix
  // node in the same scope.
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId K = defineFunc(P, "k", 1, FuncKind::Join);
  ValueId A = P.newValue();
  ValueId C = P.newValue();
  P.func(K).Body = haltExp(P, {param(P, K, 0), Atom::temp(C)});
  Exp *Add = primExp(P, PrimOp::Add, C, Atom::temp(A), Atom::constant(1));
  Add->Cont = appExp(P, Atom::label(K), {Atom::temp(C)});
  Exp *Tail = fixExp(P, {K}, Add);
  Exp *Then =
      primExp(P, PrimOp::Add, A, param(P, Main, 0), Atom::constant(10));
  Exp *Else =
      primExp(P, PrimOp::Add, A, param(P, Main, 0), Atom::constant(20));
  Then->Cont = Else->Cont = Tail;
  Exp *If = P.newExp(ExpKind::Branch);
  If->Cmp = CmpOp::Eq;
  If->Args = {param(P, Main, 0), Atom::constant(0)};
  If->Then = Then;
  If->Else = Else;
  P.func(Main).Body = If;
  EvalResult R = run(P, {0});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, (std::vector<uint32_t>{11, 11}));
  EXPECT_EQ(R.Steps, 6u);
  R = run(P, {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, (std::vector<uint32_t>{26, 26}));
}

TEST(CpsEval, ValueBoundInTwoScopes) {
  // main(x) { v = x + 1; fix f(p) { y = v + 0; v = p + 100; halt(v + y) }
  // in jump f(v) }: f's first read of v finds its own slot unbound and
  // takes main's v; after f binds v, reads take f's.
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId F = defineFunc(P, "f", 1);
  ValueId V = P.newValue();
  ValueId Y = P.newValue();
  ValueId Z = P.newValue();
  Exp *ReadOuter = primExp(P, PrimOp::Add, Y, Atom::temp(V),
                           Atom::constant(0));
  ReadOuter->Cont = primExp(P, PrimOp::Add, V, param(P, F, 0),
                            Atom::constant(100));
  ReadOuter->Cont->Cont =
      primExp(P, PrimOp::Add, Z, Atom::temp(V), Atom::temp(Y));
  ReadOuter->Cont->Cont->Cont = haltExp(P, {Atom::temp(Z)});
  P.func(F).Body = ReadOuter;
  Exp *Bind = primExp(P, PrimOp::Add, V, param(P, Main, 0),
                      Atom::constant(1));
  Bind->Cont = fixExp(P, {F}, appExp(P, Atom::label(F), {Atom::temp(V)}));
  P.func(Main).Body = Bind;
  EvalResult R = run(P, {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  // y = 6, f's v = 106, halt(112).
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{112});
  EXPECT_EQ(R.Steps, 7u);
}

TEST(CpsEvalErrors, LabelNoFixOnTheChainDeclares) {
  // h(q) { w = q + 1; fix f(p) { halt(p + w) } in halt() } is never run,
  // and main jumps to f's label directly: f is entered closed, so its
  // read of h's w is unbound.
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId H = defineFunc(P, "h", 1);
  FuncId F = defineFunc(P, "f", 1);
  ValueId W = P.newValue();
  ValueId S = P.newValue();
  Exp *Sum = primExp(P, PrimOp::Add, S, param(P, F, 0), Atom::temp(W));
  Sum->Cont = haltExp(P, {Atom::temp(S)});
  P.func(F).Body = Sum;
  Exp *HBody =
      primExp(P, PrimOp::Add, W, param(P, H, 0), Atom::constant(1));
  HBody->Cont = fixExp(P, {F}, haltExp(P, {}));
  P.func(H).Body = HBody;
  P.func(Main).Body = appExp(P, Atom::label(F), {param(P, Main, 0)});
  EvalResult R = run(P, {5});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "use of unbound value v" + std::to_string(W));
  EXPECT_EQ(R.Steps, 3u);

  // Entered through h's Fix, the same label is a closure over h's frame.
  P.func(Main).Body = appExp(P, Atom::label(H), {param(P, Main, 0)});
  HBody->Cont = fixExp(P, {F}, appExp(P, Atom::label(F), {Atom::constant(3)}));
  R = run(P, {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{9});
}

TEST(CpsEval, FunctionDeclaredByTwoFixes) {
  // main(x) { if (x == 0) { fix f() { halt(w) } in w = x + 10; jump f() }
  //           else { fix f() { ... } in w = x + 20; jump f() } }: two Fix
  // nodes declare f, and each arm's w lives in its own Fix scope.
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId F = defineFunc(P, "f", 0);
  ValueId W = P.newValue();
  P.func(F).Body = haltExp(P, {Atom::temp(W)});
  auto Arm = [&](uint32_t Add) {
    Exp *Bind =
        primExp(P, PrimOp::Add, W, param(P, Main, 0), Atom::constant(Add));
    Bind->Cont = appExp(P, Atom::label(F), {});
    return fixExp(P, {F}, Bind);
  };
  Exp *If = P.newExp(ExpKind::Branch);
  If->Cmp = CmpOp::Eq;
  If->Args = {param(P, Main, 0), Atom::constant(0)};
  If->Then = Arm(10);
  If->Else = Arm(20);
  P.func(Main).Body = If;
  EvalResult R = run(P, {0});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{10});
  EXPECT_EQ(R.Steps, 5u);
  R = run(P, {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{25});
}

TEST(CpsEval, FunctionDeclaredInsideItself) {
  // f(n) { fix f in if (n == 0) halt(n) else jump f(n - 1) }, entered
  // closed from main: f's only declaring Fix is in its own body.
  CpsProgram P;
  FuncId Main = defineMain(P);
  FuncId F = defineFunc(P, "f", 1, FuncKind::Loop);
  ValueId N1 = P.newValue();
  Exp *Dec =
      primExp(P, PrimOp::Sub, N1, param(P, F, 0), Atom::constant(1));
  Dec->Cont = appExp(P, Atom::label(F), {Atom::temp(N1)});
  Exp *If = P.newExp(ExpKind::Branch);
  If->Cmp = CmpOp::Eq;
  If->Args = {param(P, F, 0), Atom::constant(0)};
  If->Then = haltExp(P, {param(P, F, 0)});
  If->Else = Dec;
  P.func(F).Body = fixExp(P, {F}, If);
  P.func(Main).Body = appExp(P, Atom::label(F), {param(P, Main, 0)});
  EvalResult R = run(P, {3});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{0});
  EXPECT_EQ(R.Steps, 1u + 4 * 3 + 3);
}

TEST(CpsEval, SlotTakesAClosureAndAWord) {
  // g(p), declared in main's Fix with f, binds v twice in its own scope:
  // once to a closure over main's Fix frame and once to a word, in either
  // order. The word overwrites or precedes the closure, whose frame must
  // still be released (the assertion build checks the frame count).
  for (bool ClosureFirst : {true, false}) {
    SCOPED_TRACE(ClosureFirst);
    CpsProgram P;
    FuncId Main = defineMain(P);
    FuncId F = defineFunc(P, "f", 1);
    FuncId G = defineFunc(P, "g", 1);
    P.func(F).Body = haltExp(P, {param(P, F, 0)});
    ValueId V = P.newValue();
    Exp *Clone = P.newExp(ExpKind::Clone);
    Clone->Args = {Atom::label(F)};
    Clone->Results = {V};
    Exp *Word =
        primExp(P, PrimOp::Add, V, param(P, G, 0), Atom::constant(1));
    if (ClosureFirst) {
      Clone->Cont = Word;
      Word->Cont = haltExp(P, {Atom::temp(V)});
      P.func(G).Body = Clone;
    } else {
      Word->Cont = Clone;
      Clone->Cont = appExp(P, Atom::temp(V), {param(P, G, 0)});
      P.func(G).Body = Word;
    }
    P.func(Main).Body =
        fixExp(P, {F, G}, appExp(P, Atom::label(G), {param(P, Main, 0)}));
    EvalResult R = run(P, {7});
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.HaltValues,
              std::vector<uint32_t>{ClosureFirst ? 8u : 7u});
  }
}

namespace {

/// FNV-1a-64 of one evaluation: verdict, error text, step count, halt
/// values and the final SDRAM image, field by field.
void foldEval(uint64_t &H, const EvalResult &R, const EvalMemory &Mem) {
  auto Fold = [&H](uint64_t V) { H = fnv1a64(&V, sizeof V, H); };
  Fold(R.Ok);
  Fold(R.Error.size());
  H = fnv1a64(R.Error.data(), R.Error.size(), H);
  Fold(R.Steps);
  Fold(R.HaltValues.size());
  for (uint32_t V : R.HaltValues)
    Fold(V);
  Fold(Mem.Sdram.size());
  for (const auto &[Addr, V] : Mem.Sdram) {
    Fold(Addr);
    Fold(V);
  }
}

/// The evaluator on the first 40 packets of the seed-42 stream drawn
/// from \p Mix, each from the app's base image with the soak runner's
/// step budget.
uint64_t evalRunsHash(const CpsProgram &P, const soak::AppHarness &App,
                      const soak::ClassMix &Mix) {
  const unsigned MaxSteps = soak::SoakOptions().Budget * 64;
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t I = 0; I != 40; ++I) {
    soak::SoakPacket Pkt = App.generate(I, 42, Mix);
    EvalMemory Mem = App.baseEval();
    apps::storePacket(Mem.Sdram, Pkt.Args.empty() ? 0 : Pkt.Args[0],
                      Pkt.Words);
    foldEval(H, evaluate(P, Pkt.Args, Mem, MaxSteps), Mem);
  }
  return H;
}

} // namespace

// The evaluator's observables on the three benchmark apps at each stage
// the pipeline hands it: converted, optimized, and after SSU, over 40
// valid and 40 adversarial seed-42 packets.
TEST(CpsEval, AppObservablesArePinned) {
  soak::ClassMix Valid;
  Valid.Truncated = Valid.Oversized = Valid.Corrupt = Valid.Fuzz = 0;
  soak::ClassMix Adversarial;
  Adversarial.Valid = 0;
  struct Case {
    const char *App;
    std::string Source;
    uint64_t Pins[3][2]; ///< by stage: valid, adversarial
  };
  const Case Cases[] = {
      {"aes",
       apps::aesNovaSource(),
       {{0xeb9524ca8c1751d7ull, 0x851826124f60e2aeull},
        {0x2dfde14cc20b38efull, 0xd913a1ccd8065978ull},
        {0x3986c69d32d4d00full, 0x852e136759bbb057ull}}},
      {"kasumi",
       apps::kasumiNovaSource(),
       {{0xffd0e070bb525f86ull, 0x10c672b3ccfcb11eull},
        {0xbf936dbcc1544a42ull, 0x5c4fb5b5fb570d4eull},
        {0xedcdae789ae504c6ull, 0xe73b4bc0881900beull}}},
      {"nat",
       apps::natNovaSource(),
       {{0xe3284deb9d5f2541ull, 0x4152b7326c55d613ull},
        {0x5361bbabceb24176ull, 0xea684c5d56711b1eull},
        {0x2b8647bb24b49fa9ull, 0xd660d1de5b21814cull}}},
  };
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.App);
    // The harness supplies packets and the base image; the front end is
    // all it needs to compile.
    driver::CompileOptions Opts;
    Opts.Allocate = false;
    std::string Error;
    std::unique_ptr<soak::AppHarness> App =
        soak::AppHarness::create(K.App, Error, Opts);
    ASSERT_TRUE(App) << Error;
    Pipeline P;
    ASSERT_TRUE(P.compile(K.Source)) << P.errors();
    for (unsigned Stage = 0; Stage != 3; ++Stage) {
      SCOPED_TRACE(Stage);
      if (Stage == 1)
        optimize(P.Cps);
      if (Stage == 2)
        makeStaticSingleUse(P.Cps);
      EXPECT_EQ(evalRunsHash(P.Cps, *App, Valid), K.Pins[Stage][0]);
      EXPECT_EQ(evalRunsHash(P.Cps, *App, Adversarial), K.Pins[Stage][1]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Optimizer-specific structure checks
//===----------------------------------------------------------------------===//

namespace {

/// Counts live Exp nodes of a given kind.
unsigned countKind(CpsProgram &P, ExpKind Kind) {
  unsigned N = 0;
  // Reuse the printer to avoid exposing traversal; instead walk manually.
  std::function<void(const Exp *)> Walk = [&](const Exp *E) {
    for (; E;) {
      if (E->Kind == Kind)
        ++N;
      if (E->Kind == ExpKind::Fix)
        for (FuncId F : E->FixFuncs)
          Walk(P.func(F).Body);
      if (E->Kind == ExpKind::Branch) {
        Walk(E->Then);
        Walk(E->Else);
        return;
      }
      E = E->Cont;
    }
  };
  std::set<FuncId> FixDeclared;
  std::function<void(const Exp *)> Scan = [&](const Exp *E) {
    for (; E;) {
      if (E->Kind == ExpKind::Fix)
        for (FuncId F : E->FixFuncs) {
          FixDeclared.insert(F);
          Scan(P.func(F).Body);
        }
      if (E->Kind == ExpKind::Branch) {
        Scan(E->Then);
        Scan(E->Else);
        return;
      }
      E = E->Cont;
    }
  };
  for (const Function &F : P.functions())
    if (F.Body)
      Scan(F.Body);
  for (const Function &F : P.functions())
    if (F.Body && !FixDeclared.count(F.Id))
      Walk(F.Body);
  return N;
}

} // namespace

TEST(CpsOpt, ConstantProgramFoldsCompletely) {
  Pipeline P;
  ASSERT_TRUE(P.compile("fun main(x : word) { (2 + 3) << 4 }"))
      << P.errors();
  optimize(P.Cps);
  EXPECT_EQ(countKind(P.Cps, ExpKind::Prim), 0u);
  EvalMemory Mem;
  EvalResult R = evaluate(P.Cps, {0}, Mem);
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{80});
}

TEST(CpsOpt, UnusedUnpackFieldsAreNotExtracted) {
  // The paper's claim (Section 4.4): u1.a, u2.a, u2.c are never used, so
  // no instructions are generated for them. Field b of one struct needs 1
  // shift-ish op; c needs a shift. After DCE only a handful of prims stay.
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "layout p = { a : 16, b : 32, c : 16 };"
      "fun f(p1 : packed(p), p2 : packed(p)) {"
      "  let u1 = unpack[p](p1);"
      "  let u2 = unpack[p](p2);"
      "  (if (u1.c > 10) u1 else u2).b"
      "}"
      "fun main(w0 : word, w1 : word, x0 : word, x1 : word) {"
      "  f((w0, w1), (x0, x1))"
      "}"))
      << P.errors();
  unsigned Before = countKind(P.Cps, ExpKind::Prim);
  optimize(P.Cps);
  unsigned After = countKind(P.Cps, ExpKind::Prim);
  EXPECT_LT(After, Before);
  // Extracting b twice (2 ops each: shl+or pieces) and c once (~1-2 ops)
  // should stay well under 10 prims; the unused extractions are gone.
  EXPECT_LE(After, 10u);
}

TEST(CpsOpt, InliningResolvesAllCallees) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "fun helper(v : word, bad : exn (word)) {"
      "  if (v == 0) { raise bad (1) };"
      "  v + 2"
      "}"
      "fun main(x : word) {"
      "  try { helper(x, E) } handle E (c : word) { c }"
      "}"))
      << P.errors();
  optimize(P.Cps);
  EXPECT_TRUE(allCalleesKnown(P.Cps)) << P.Cps.print();
}

TEST(CpsOpt, DeadStoreValueStillStored) {
  // Stores are never dead-code eliminated.
  Pipeline P;
  ASSERT_TRUE(P.compile("fun main(a : word) {"
                        "  sram(a) <- (1, 2);"
                        "  0"
                        "}"))
      << P.errors();
  optimize(P.Cps);
  EXPECT_EQ(countKind(P.Cps, ExpKind::MemWrite), 1u);
}

TEST(CpsOpt, FullyUnusedReadRemoved) {
  Pipeline P;
  ASSERT_TRUE(P.compile("fun main(a : word) {"
                        "  let (x, y) = sram(a);"
                        "  7"
                        "}"))
      << P.errors();
  optimize(P.Cps);
  EXPECT_EQ(countKind(P.Cps, ExpKind::MemRead), 0u);
}

TEST(CpsOpt, TrailingReadResultsTrimmed) {
  Pipeline P;
  ASSERT_TRUE(P.compile("fun main(a : word) {"
                        "  let (x, y, z, w) = sram(a);"
                        "  x + y"
                        "}"))
      << P.errors();
  optimize(P.Cps);
  bool FoundRead = false;
  std::function<void(const Exp *)> Walk = [&](const Exp *E) {
    for (; E;) {
      if (E->Kind == ExpKind::MemRead) {
        FoundRead = true;
        EXPECT_EQ(E->Results.size(), 2u);
      }
      if (E->Kind == ExpKind::Fix)
        for (FuncId F : E->FixFuncs)
          Walk(P.Cps.func(F).Body);
      if (E->Kind == ExpKind::Branch) {
        Walk(E->Then);
        Walk(E->Else);
        return;
      }
      E = E->Cont;
    }
  };
  Walk(P.Cps.func(P.Cps.Entry).Body);
  EXPECT_TRUE(FoundRead);
}

//===----------------------------------------------------------------------===//
// Static single use
//===----------------------------------------------------------------------===//

TEST(CpsSsu, StoreOperandsBecomeSingleUse) {
  // x is stored twice at different positions (the paper's Section 2.1
  // example) and also used arithmetically.
  Pipeline P;
  ASSERT_TRUE(P.compile("fun main(a : word, x : word) {"
                        "  sram(a) <- (1, x, 3, 4);"
                        "  sram(a + 8) <- (x, 2, 3, 4);"
                        "  x + 1"
                        "}"))
      << P.errors();
  optimize(P.Cps);
  unsigned Cloned = makeStaticSingleUse(P.Cps);
  EXPECT_GE(Cloned, 1u);

  // Verify the SSU property: every store operand temp has exactly one use
  // in the whole program.
  std::map<ValueId, unsigned> Total;
  std::set<ValueId> StoreOperands;
  std::function<void(const Exp *)> Walk = [&](const Exp *E) {
    for (; E;) {
      for (unsigned I = 0; I != E->Args.size(); ++I)
        if (E->Args[I].isTemp()) {
          ++Total[E->Args[I].Id];
          if (E->Kind == ExpKind::MemWrite && I > 0)
            StoreOperands.insert(E->Args[I].Id);
        }
      if (E->Kind == ExpKind::Fix)
        for (FuncId F : E->FixFuncs)
          Walk(P.Cps.func(F).Body);
      if (E->Kind == ExpKind::Branch) {
        Walk(E->Then);
        Walk(E->Else);
        return;
      }
      E = E->Cont;
    }
  };
  for (const Function &F : P.Cps.functions())
    if (F.Body)
      Walk(F.Body);
  for (ValueId V : StoreOperands)
    EXPECT_EQ(Total[V], 1u) << "store operand v" << V << " used "
                            << Total[V] << " times";

  // Semantics preserved.
  EvalMemory Mem;
  EvalResult R = evaluate(P.Cps, {100, 42}, Mem);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues, std::vector<uint32_t>{43});
  EXPECT_EQ(Mem.Sram[101], 42u);
  EXPECT_EQ(Mem.Sram[108], 42u);
}

TEST(CpsSsu, CloneCountMatchesStoreUses) {
  Pipeline P;
  ASSERT_TRUE(P.compile("fun main(a : word, x : word) {"
                        "  sram(a) <- (x, x);"
                        "  0"
                        "}"))
      << P.errors();
  optimize(P.Cps);
  makeStaticSingleUse(P.Cps);
  unsigned CloneResults = 0;
  std::function<void(const Exp *)> Walk = [&](const Exp *E) {
    for (; E;) {
      if (E->Kind == ExpKind::Clone)
        CloneResults += E->Results.size();
      if (E->Kind == ExpKind::Branch) {
        Walk(E->Then);
        Walk(E->Else);
        return;
      }
      E = E->Cont;
    }
  };
  Walk(P.Cps.func(P.Cps.Entry).Body);
  EXPECT_EQ(CloneResults, 2u);

  EvalMemory Mem;
  EvalResult R = evaluate(P.Cps, {10, 9}, Mem);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(Mem.Sram[10], 9u);
  EXPECT_EQ(Mem.Sram[11], 9u);
}

//===----------------------------------------------------------------------===//
// Randomized optimizer equivalence
//===----------------------------------------------------------------------===//

class CpsRandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(CpsRandomProgram, OptimizerPreservesSemantics) {
  // A crude random straight-line program generator over a small grammar.
  unsigned Seed = GetParam();
  std::string Src = "fun main(a : word, b : word) {\n";
  uint32_t S = Seed * 2654435761u + 1;
  auto Next = [&S]() {
    S ^= S << 13;
    S ^= S >> 17;
    S ^= S << 5;
    return S;
  };
  std::vector<std::string> Vars = {"a", "b"};
  for (int I = 0; I != 12; ++I) {
    std::string V = "t" + std::to_string(I);
    const char *Ops[] = {"+", "-", "&", "|", "^"};
    std::string X = Vars[Next() % Vars.size()];
    std::string Y = Next() % 3 == 0 ? std::to_string(Next() % 64)
                                    : Vars[Next() % Vars.size()];
    Src += "  let " + V + " = " + X + " " + Ops[Next() % 5] + " " + Y + ";\n";
    if (Next() % 4 == 0)
      Src += "  let u" + std::to_string(I) + " = if (" + V + " > " + X +
             ") " + V + " else " + X + ";\n",
          Vars.push_back("u" + std::to_string(I));
    Vars.push_back(V);
  }
  Src += "  " + Vars.back() + "\n}\n";

  Pipeline P;
  ASSERT_TRUE(P.compile(Src)) << Src << "\n" << P.errors();
  EvalMemory M1, M2;
  EvalResult Before = evaluate(P.Cps, {Seed * 3u, Seed * 7u + 1}, M1);
  ASSERT_TRUE(Before.Ok) << Before.Error;
  optimize(P.Cps);
  makeStaticSingleUse(P.Cps);
  EvalResult After = evaluate(P.Cps, {Seed * 3u, Seed * 7u + 1}, M2);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.HaltValues, After.HaltValues) << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpsRandomProgram, ::testing::Range(1, 30));
