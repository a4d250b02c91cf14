//===- soak_throughput.cpp - Interp vs threaded soak throughput ------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Measures packets per second of the soak harness in both execution
// modes — the per-packet interpreter (sim::runAllocated) and the
// translating fast path (fastpath::Engine batches with a sampled
// interpreter oracle) — across oracle sampling rates. Every run keeps
// the differential oracle's verdict: any divergence fails the bench,
// so the numbers are always measured on verified-identical execution.
//
// The absolute numbers are environment-bound (see EXPERIMENTS.md "Soak
// throughput" for the analysis): watchdog-class packets execute their
// full 50k-instruction budget in *both* modes by construction, packet
// generation costs ~4us/packet, and every oracle sample runs three
// extra semantic models. The interesting output is
// the interp/threaded ratio per rate, not any single pkt/s figure.
//
// The first JSON row is the fast path's translation shape for the app
// (exec_mode "translation"): ops in the stream, ops in superblock
// streams, adjacent ops merged by fusion, and allocated instructions per
// op of the per-block streams, which cover every instruction once.
//
//   bench/soak_throughput [--app nat] [--packets N] [--seed S] [--json F]
//
//===----------------------------------------------------------------------===//

#include "fastpath/FastPath.h"
#include "soak/Soak.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <string>
#include <vector>

using namespace nova;

int main(int argc, char **argv) {
  std::string App = "nat";
  uint64_t Packets = 50'000;
  uint64_t Seed = 42;
  std::string JsonPath = "BENCH_soak_throughput.json";
  ArgParser P{"soak_throughput", argc, argv};
  while (!P.done()) {
    std::string V;
    if (P.intFlag("--packets", Packets, "a positive integer", 1) ||
        P.intFlag("--seed", Seed, "an integer"))
      continue;
    if (P.valueFlag("--app", V))
      App = V;
    else if (P.valueFlag("--json", V))
      JsonPath = V;
    else
      P.fail("unknown option '%s'", P.current());
  }
  if (P.Failed) {
    std::fprintf(stderr, "usage: soak_throughput [--app name] "
                         "[--packets n] [--seed s] [--json file]\n");
    return 2;
  }

  std::string Error;
  auto H = soak::AppHarness::create(App, Error);
  if (!H) {
    std::fprintf(stderr, "soak_throughput: %s: %s\n", App.c_str(),
                 Error.c_str());
    return 1;
  }

  std::printf("Soak throughput: %s, %llu packets, seed %llu\n", App.c_str(),
              (unsigned long long)Packets, (unsigned long long)Seed);
  std::printf("%9s | %11s | %10s %9s | %10s\n", "exec", "oracle-rate",
              "pkt/s", "wall-s", "checks");

  JsonWriter Json;
  Json.beginArray();
  {
    const alloc::AllocatedProgram &Prog = H->compiled().Alloc.Prog;
    fastpath::Translated T =
        fastpath::translate(Prog, soak::SoakOptions().Lat);
    uint64_t Instrs = 0;
    for (const alloc::AllocBlock &B : Prog.Blocks)
      Instrs += B.Instrs.size();
    const uint64_t Ops = T.Ops.size();
    const uint64_t BlockOps = Ops - T.SuperblockOps;
    const double PerOp = BlockOps ? double(Instrs) / double(BlockOps) : 0;
    std::printf("translation: %llu ops (%u in %u superblocks), %u fused, "
                "%.3f instructions/op\n",
                (unsigned long long)Ops, T.SuperblockOps, T.Superblocks,
                T.FusedOps, PerOp);
    Json.beginObject().field("app", App).field("exec_mode", "translation");
    Json.field("instructions", Instrs).field("ops", Ops);
    Json.field("superblocks", T.Superblocks);
    Json.field("superblock_ops", T.SuperblockOps);
    Json.field("fused_ops", T.FusedOps);
    Json.key("instructions_per_op").fixed(PerOp, 3);
    Json.endObject();
  }

  // Generator-only baseline: the same batched stream with execution
  // stubbed out entirely. This is the hard ceiling any exec mode is
  // measured against — generator cost is recorded, not inferred from
  // the gap between modes.
  {
    soak::ClassMix Mix;
    soak::PacketTemplateCache Cache;
    std::vector<soak::SoakPacket> Batch;
    uint64_t WordSink = 0;
    Timer Clock;
    for (uint64_t Base = 0; Base < Packets;) {
      uint64_t N = Packets - Base < 256 ? Packets - Base : 256;
      H->generateBatch(Base, N, Seed, Mix, Cache, Batch);
      // Touch each packet so the generator's writes cannot be elided.
      for (uint64_t I = 0; I != N; ++I)
        WordSink += Batch[I].Words.size() + Batch[I].Args.size();
      Base += N;
    }
    double Wall = Clock.seconds();
    double Rate = Wall > 0 ? double(Packets) / Wall : 0;
    std::printf("%9s | %11s | %10.1f %9.3f | %10s\n", "gen-only", "-", Rate,
                Wall, "-");
    Json.beginObject().field("app", App).field("packets", Packets);
    Json.field("seed", Seed).field("exec_mode", "generator-only");
    Json.key("wall_seconds").fixed(Wall, 6);
    Json.key("pkts_per_sec").fixed(Rate, 1);
    Json.field("word_sink", WordSink).endObject();
  }

  // Oracle rate 0 is the execution-speed ceiling (no oracle at all);
  // 1/10/100 match the EXPERIMENTS.md table. Interp at rate 0 is the
  // pure interpreter; threaded at rate 0 is the pure fast path.
  const uint64_t Rates[] = {0, 100, 10, 1};
  for (sim::ExecMode Mode :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    for (uint64_t Rate : Rates) {
      soak::SoakOptions Opts;
      Opts.Packets = Packets;
      Opts.Seed = Seed;
      Opts.Exec = Mode;
      Opts.OracleEvery = Rate;
      soak::SoakReport R = soak::runSoak(*H, Opts);
      if (R.Divergences) {
        std::fprintf(stderr,
                     "soak_throughput: %s rate %llu DIVERGED (packet %llu: "
                     "%s)\n",
                     sim::execModeName(Mode), (unsigned long long)Rate,
                     (unsigned long long)R.First.Index, R.First.What.c_str());
        return 1;
      }
      std::printf("%9s | %11llu | %10.1f %9.3f | %10llu\n",
                  sim::execModeName(Mode), (unsigned long long)Rate,
                  R.packetsPerSec(), R.WallSeconds,
                  (unsigned long long)R.OracleChecks);
      Json.object([&] { soak::reportFields(Json, R); });
    }
  }
  Json.endArray();

  if (Status S = Json.writeFile(JsonPath); !S.ok()) {
    std::fprintf(stderr, "soak_throughput: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return 0;
}
