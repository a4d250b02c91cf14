//===- baseline_vs_ilp.cpp - ILP allocation vs the no-allocator baseline --===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// The paper's introduction argues that on the IXP "spilling (not to
// mention the use of a stack) is nearly intolerable". This benchmark
// quantifies it: each program is allocated twice — by the ILP back end
// and by a correct-by-construction memory-home baseline (every temporary
// lives in scratch) — and both versions run on the cycle simulator.
//
//===----------------------------------------------------------------------===//

#include "alloc/Baseline.h"
#include "alloc/Verifier.h"
#include "bench_util.h"
#include "driver/Compiler.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <cstring>

using namespace nova;

namespace {

struct BenchProgram {
  const char *Name;
  const char *Source;
  std::vector<uint32_t> Args;
};

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = "BENCH_solver.json";
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: baseline_vs_ilp [--json <path>]\n");
      return 2;
    }
  }

  std::vector<BenchProgram> Programs = {
      {"checksum",
       "fun main(base : word, n : word) {"
       "  let sum = 0;"
       "  let i = 0;"
       "  while (i < n) {"
       "    let (w0, w1) = sram(base + (i << 1));"
       "    sum = sum + ((w0 >> 16) + (w0 & 0xFFFF));"
       "    sum = sum + ((w1 >> 16) + (w1 & 0xFFFF));"
       "    i = i + 1;"
       "  }"
       "  (sum & 0xFFFF) + (sum >> 16)"
       "}",
       {100, 8}},
      {"swap8",
       "fun main(z : word) {"
       "  let (a, b, c, d, e, f, g, h) = sram(0);"
       "  sram(16) <- (h, g, f, e);"
       "  sram(24) <- (d, c, b, a);"
       "  a ^ h"
       "}",
       {0}},
      {"headerrw",
       "layout hdr = { ver : 4, ihl : 4, tos : 8, len : 16 };"
       "fun main(p : word) {"
       "  let (w0, w1) = sram(p);"
       "  let h = unpack[hdr](w0);"
       "  let o = pack[hdr] [ ver = h.ver, ihl = h.ihl, tos = h.tos,"
       "                      len = h.len + 1 ];"
       "  sram(p + 8) <- (o.0, w1);"
       "  h.len"
       "}",
       {100}},
  };

  std::printf("ILP allocation vs memory-home baseline\n\n");
  std::printf("%-10s | %8s %8s %8s | %8s %8s | %7s\n", "program",
              "ilp-inst", "ilp-cyc", "moves", "base-in", "base-cyc",
              "speedup");

  std::vector<bench::SolverRun> Runs;
  for (const BenchProgram &P : Programs) {
    auto C = driver::compileNova(P.Source, P.Name);
    if (!C->Ok) {
      std::fprintf(stderr, "%s: %s\n", P.Name, C->ErrorText.c_str());
      return 1;
    }
    alloc::BaselineResult B = alloc::allocateBaseline(C->Machine);
    if (!B.Ok) {
      std::fprintf(stderr, "%s baseline: %s\n", P.Name, B.Error.render().c_str());
      return 1;
    }
    auto V1 = alloc::verifyAllocated(C->Alloc.Prog);
    auto V2 = alloc::verifyAllocated(B.Prog);
    if (!V1.empty() || !V2.empty()) {
      std::fprintf(stderr, "%s: verifier violation: %s\n", P.Name,
                   (!V1.empty() ? V1 : V2).front().c_str());
      return 1;
    }

    sim::Memory M1, M2;
    for (uint32_t I = 0; I != 64; ++I)
      M1.Sram[I] = M2.Sram[I] = 0x1010101u * (I + 1);
    M1.Sram[100] = M2.Sram[100] = 0x45001234;
    for (uint32_t I = 100; I != 120; ++I)
      M1.Sram[I] = M2.Sram[I] = 0x2020202u * (I - 99);
    sim::RunResult R1 = sim::runAllocated(C->Alloc.Prog, P.Args, M1);
    sim::RunResult R2 = sim::runAllocated(B.Prog, P.Args, M2);
    if (!R1.Ok || !R2.Ok) {
      std::fprintf(stderr, "%s: run failed (%s%s)\n", P.Name,
                   R1.Error.render().c_str(), R2.Error.render().c_str());
      return 1;
    }
    if (R1.HaltValues != R2.HaltValues) {
      std::fprintf(stderr, "%s: baseline and ILP disagree!\n", P.Name);
      return 1;
    }
    std::printf("%-10s | %8u %8llu %8u | %8u %8llu | %6.1fx\n", P.Name,
                C->Alloc.Prog.numInstructions(),
                static_cast<unsigned long long>(R1.Cycles),
                C->Alloc.Stats.Moves, B.Prog.numInstructions(),
                static_cast<unsigned long long>(R2.Cycles),
                double(R2.Cycles) / double(R1.Cycles));
    Runs.push_back(bench::solverRunFrom(P.Name, C->Alloc.Stats));
  }
  if (!bench::writeSolverJson(JsonPath, Runs))
    return 1;
  std::printf("\nShape check: the ILP-allocated code is several times "
              "faster — the paper's case for optimal allocation on the "
              "IXP.\n");
  return 0;
}
