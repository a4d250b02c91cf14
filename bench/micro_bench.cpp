//===- micro_bench.cpp - google-benchmark micro benchmarks ----------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Micro benchmarks of the substrates: LP solves, presolve, compilation
// front end, bitfield planning, and the execution rates of the simulator
// and the CPS reference evaluator.
//
//===----------------------------------------------------------------------===//

#include "apps/AppSources.h"
#include "cps/Convert.h"
#include "cps/Opt.h"
#include "driver/Compiler.h"
#include "ilp/MipSolver.h"
#include "nova/Layout.h"
#include "sim/Simulator.h"
#include "soak/Soak.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>

using namespace nova;

namespace {

/// Random-ish assignment LP of the given size.
ilp::Model assignmentModel(unsigned N) {
  ilp::Model M;
  std::vector<std::vector<ilp::VarId>> X(N);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = 0; J != N; ++J)
      X[I].push_back(M.addBinary("x", double((I * 7 + J * 13) % 17)));
  for (unsigned I = 0; I != N; ++I) {
    ilp::LinExpr Row, Col;
    for (unsigned J = 0; J != N; ++J) {
      Row += ilp::LinExpr(X[I][J]);
      Col += ilp::LinExpr(X[J][I]);
    }
    M.addConstraint(std::move(Row), ilp::Rel::EQ, 1.0);
    M.addConstraint(std::move(Col), ilp::Rel::EQ, 1.0);
  }
  return M;
}

void BM_MipAssignment(benchmark::State &State) {
  ilp::Model M = assignmentModel(State.range(0));
  for (auto _ : State) {
    ilp::MipSolver Solver(M);
    benchmark::DoNotOptimize(Solver.solve().Objective);
  }
}
BENCHMARK(BM_MipAssignment)->Arg(6)->Arg(10)->Arg(14);

void BM_Presolve(benchmark::State &State) {
  ilp::Model M = assignmentModel(12);
  for (auto _ : State)
    benchmark::DoNotOptimize(ilp::presolve(M).Reduced.numVars());
}
BENCHMARK(BM_Presolve);

void BM_BitfieldPlan(benchmark::State &State) {
  for (auto _ : State)
    for (unsigned Off = 0; Off != 64; ++Off)
      benchmark::DoNotOptimize(planBitfield(Off, 1 + Off % 32));
}
BENCHMARK(BM_BitfieldPlan);

const char *LoopProgram = "fun main(n : word) {"
                          "  let i = 0;"
                          "  let s = 0;"
                          "  while (i < n) { s = s + i; i = i + 1; }"
                          "  s"
                          "}";

void BM_FrontEndAndCps(benchmark::State &State) {
  driver::CompileOptions Opts;
  Opts.Allocate = false;
  for (auto _ : State) {
    auto R = driver::compileNova(LoopProgram, "bench", Opts);
    benchmark::DoNotOptimize(R->Machine.numInstructions());
  }
}
BENCHMARK(BM_FrontEndAndCps);

void BM_SimulatorLoop(benchmark::State &State) {
  driver::CompileOptions Opts;
  Opts.Allocate = false;
  auto R = driver::compileNova(LoopProgram, "bench", Opts);
  for (auto _ : State) {
    sim::Memory Mem;
    benchmark::DoNotOptimize(
        sim::runFunctional(R->Machine, {1000}, Mem).Instructions);
  }
}
BENCHMARK(BM_SimulatorLoop);

void BM_IlpAllocationSmall(benchmark::State &State) {
  const char *Src = "fun main(z : word) {"
                    "  let (a, b, c, d) = sram(0);"
                    "  sram(8) <- (d, c, b, a);"
                    "  a + d"
                    "}";
  for (auto _ : State) {
    auto R = driver::compileNova(Src, "bench");
    benchmark::DoNotOptimize(R->Alloc.Stats.Moves);
  }
}
BENCHMARK(BM_IlpAllocationSmall)->Unit(benchmark::kMillisecond);

/// One app's harness and its first 64 valid packets of stream seed 42.
struct EvalInputs {
  std::unique_ptr<soak::AppHarness> H;
  std::vector<soak::SoakPacket> Packets;
};

const EvalInputs &evalInputs(const std::string &App) {
  static std::map<std::string, EvalInputs> Cache;
  EvalInputs &In = Cache[App];
  if (!In.H) {
    std::string Error;
    In.H = soak::AppHarness::create(App, Error);
    if (!In.H) {
      fprintf(stderr, "micro_bench: %s: %s\n", App.c_str(), Error.c_str());
      exit(1);
    }
    soak::ClassMix Valid{100, 0, 0, 0, 0};
    for (uint64_t I = 0; I != 64; ++I)
      In.Packets.push_back(In.H->generate(I, 42, Valid));
  }
  return In;
}

/// The CPS evaluator on one packet per iteration; the image copy is not
/// timed. \p Run evaluates one packet.
template <typename RunFn>
void evalPackets(benchmark::State &State, const EvalInputs &In, RunFn Run) {
  uint64_t Steps = 0;
  size_t I = 0;
  for (auto _ : State) {
    const soak::SoakPacket &P = In.Packets[I++ % In.Packets.size()];
    State.PauseTiming();
    cps::EvalMemory Mem = In.H->baseEval();
    apps::storePacket(Mem.Sdram, P.Args[0], P.Words);
    State.ResumeTiming();
    cps::EvalResult R = Run(P, Mem);
    if (!R.Ok)
      State.SkipWithError(R.Error.c_str());
    Steps += R.Steps;
  }
  State.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(Steps),
                         benchmark::Counter::kIsRate);
}

/// Per-call evaluate: lowers the program for every packet.
void BM_CpsEvaluate(benchmark::State &State, const char *App) {
  const EvalInputs &In = evalInputs(App);
  evalPackets(State, In, [&](const soak::SoakPacket &P, cps::EvalMemory &M) {
    return cps::evaluate(In.H->compiled().Cps, P.Args, M);
  });
}
BENCHMARK_CAPTURE(BM_CpsEvaluate, aes, "aes");
BENCHMARK_CAPTURE(BM_CpsEvaluate, kasumi, "kasumi");
BENCHMARK_CAPTURE(BM_CpsEvaluate, nat, "nat");

/// The soak harness's path: the program lowered once at create.
void BM_CpsEvaluateLowered(benchmark::State &State, const char *App) {
  const EvalInputs &In = evalInputs(App);
  evalPackets(State, In, [&](const soak::SoakPacket &P, cps::EvalMemory &M) {
    return cps::evaluate(In.H->lowered(), P.Args, M);
  });
}
BENCHMARK_CAPTURE(BM_CpsEvaluateLowered, aes, "aes");
BENCHMARK_CAPTURE(BM_CpsEvaluateLowered, kasumi, "kasumi");
BENCHMARK_CAPTURE(BM_CpsEvaluateLowered, nat, "nat");

/// Lowering alone, the per-call cost evaluate adds to a lowered run.
void BM_CpsLower(benchmark::State &State, const char *App) {
  const EvalInputs &In = evalInputs(App);
  for (auto _ : State)
    benchmark::DoNotOptimize(cps::LoweredProgram(In.H->compiled().Cps));
}
BENCHMARK_CAPTURE(BM_CpsLower, aes, "aes");
BENCHMARK_CAPTURE(BM_CpsLower, kasumi, "kasumi");
BENCHMARK_CAPTURE(BM_CpsLower, nat, "nat");

} // namespace

BENCHMARK_MAIN();
