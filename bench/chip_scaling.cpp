//===- chip_scaling.cpp - Whole-chip multi-engine scaling ------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// Sweeps the processing micro-engine count (1, 2, 4, 6) over the same
// seeded packet stream and reports aggregate goodput, channel contention
// stalls, and ring occupancy per configuration, writing BENCH_chip.json
// (one novasoak --chip report object per run).
// This is the whole-chip counterpart of bench/throughput.cpp: instead of
// approximating thread overlap with discounted latencies, the chip model
// measures it — four hardware contexts per engine hide memory latency
// until the shared SDRAM/scratch channels saturate, which is exactly the
// contention effect the paper's falling Kasumi series shows.
//
//   bench/chip_scaling [--app nat] [--packets N] [--seed S] [--json F]
//                      [--fault-schedule kind@rate[~mag],...]
//
// With --fault-schedule the sweep measures goodput *under* faults (the
// degradation curve in EXPERIMENTS.md); the interp/threaded trace-hash
// cross-check still holds because fault firing is a pure function of
// deterministic opportunity ordinals.
//
//===----------------------------------------------------------------------===//

#include "soak/ChipSoak.h"
#include "support/ArgParser.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include <algorithm>
#include <map>
#include <string>

using namespace nova;

int main(int argc, char **argv) {
  std::string App = "nat";
  uint64_t Packets = 20'000;
  uint64_t Seed = 42;
  std::string JsonPath = "BENCH_chip.json";
  FaultSchedule Faults;
  ArgParser P{"chip_scaling", argc, argv};
  while (!P.done()) {
    std::string V;
    if (P.intFlag("--packets", Packets, "a positive integer", 1) ||
        P.intFlag("--seed", Seed, "an integer"))
      continue;
    if (P.valueFlag("--app", V))
      App = V;
    else if (P.valueFlag("--json", V))
      JsonPath = V;
    else if (P.valueFlag("--fault-schedule", V)) {
      std::string Error;
      if (!P.Failed && !parseFaultSchedule(V, Faults, Error))
        P.fail("--fault-schedule: %s", Error.c_str());
    } else
      P.fail("unknown option '%s'", P.current());
  }
  if (P.Failed) {
    std::fprintf(stderr,
                 "usage: chip_scaling [--app name] [--packets n] "
                 "[--seed s] [--json file] "
                 "[--fault-schedule kind@rate[~mag],...]\n");
    return 2;
  }

  std::string Error;
  auto H = soak::AppHarness::create(App, Error);
  if (!H) {
    std::fprintf(stderr, "chip_scaling: %s: %s\n", App.c_str(),
                 Error.c_str());
    return 1;
  }

  std::printf("Whole-chip scaling: %s, %llu packets, seed %llu\n",
              App.c_str(), (unsigned long long)Packets,
              (unsigned long long)Seed);
  std::printf("%8s | %4s | %10s %8s %8s | %10s %10s | %8s %8s | %6s | %7s "
              "%8s %6s\n",
              "exec", "MEs", "cycles", "Mbps", "wall-s", "sdram-st",
              "scr-st", "in-hw", "reord", "util0", "ev/pkt", "push/pkt",
              "ns/ev");

  // Both execution models sweep the same ME counts. The simulated
  // schedule is identical by construction (chip_test locks whole-report
  // equality); the trace hashes are cross-checked here too, so the
  // wall-clock ratio is measured on verified-identical simulations.
  JsonWriter Json;
  Json.beginArray();
  std::map<unsigned, uint64_t> InterpHash;
  std::map<unsigned, double> InterpWall;
  double OneMe = 0, SixMeRatio = 0;
  for (sim::ExecMode Exec :
       {sim::ExecMode::Interp, sim::ExecMode::Threaded}) {
    bool Threaded = Exec == sim::ExecMode::Threaded;
    for (unsigned Mes : {1u, 2u, 4u, 6u}) {
      soak::ChipSoakOptions Opts;
      Opts.Base.Packets = Packets;
      Opts.Base.Seed = Seed;
      Opts.Base.OracleEvery = 0; // measured run; correctness lives in tests
      Opts.Base.Exec = Exec;
      Opts.Chip.MP.MeCount = Mes;
      Opts.Chip.Faults = Faults;
      soak::ChipSoakReport R = soak::runChipSoak(*H, Opts);
      if (!R.Setup.ok()) {
        std::fprintf(stderr, "chip_scaling: %s\n", R.Setup.message().c_str());
        return 1;
      }
      if (R.Chip.Deadlock || R.Base.Divergences) {
        std::fprintf(stderr, "chip_scaling: me=%u run not clean\n", Mes);
        return 1;
      }
      if (!Threaded) {
        InterpHash[Mes] = R.Chip.TraceHash;
        InterpWall[Mes] = R.Base.WallSeconds;
      } else if (R.Chip.TraceHash != InterpHash[Mes]) {
        std::fprintf(stderr,
                     "chip_scaling: me=%u trace hash diverges between exec "
                     "models (%016llx vs %016llx)\n",
                     Mes, (unsigned long long)InterpHash[Mes],
                     (unsigned long long)R.Chip.TraceHash);
        return 1;
      }
      if (!Threaded && Mes == 1)
        OneMe = R.GoodputMbps;
      unsigned MaxInHw = 0;
      for (const chip::RingStats &Rg : R.Chip.InputRings)
        MaxInHw = std::max(MaxInHw, Rg.HighWater);
      // Event-kernel work: events and event-queue pushes per retired
      // packet, and whole-run wall nanoseconds per event (host time, like
      // wall_seconds).
      double EvPerPkt = R.Chip.eventsPerPacket();
      double PushPerPkt =
          R.Chip.PacketsRetired
              ? double(R.Chip.QueuePushes) / double(R.Chip.PacketsRetired)
              : 0;
      double NsPerEv = R.Chip.nsPerEvent(R.Base.WallSeconds);
      std::printf(
          "%8s | %4u | %10llu %8.1f %8.3f | %10llu %10llu | %8u %8u | %5.2f "
          "| %7.1f %8.1f %6.1f\n",
          sim::execModeName(Exec), Mes,
          (unsigned long long)R.Chip.FinalCycles, R.GoodputMbps,
          R.Base.WallSeconds, (unsigned long long)R.Chip.Sdram.StallCycles,
          (unsigned long long)R.Chip.Scratch.StallCycles, MaxInHw,
          R.Chip.ReorderHighWater, R.Chip.utilization(0), EvPerPkt,
          PushPerPkt, NsPerEv);

      Json.object([&] { soak::chipReportFields(Json, R); });
      if (Threaded && Mes == 6 && R.Base.WallSeconds > 0)
        SixMeRatio = InterpWall[Mes] / R.Base.WallSeconds;
      if (!Threaded && Mes == 6 && OneMe > 0)
        std::printf("\n6-ME/1-ME goodput ratio: %.2fx\n\n",
                    R.GoodputMbps / OneMe);
    }
  }
  Json.endArray();
  if (SixMeRatio > 0)
    std::printf("\n6-ME threaded/interp wall speedup: %.2fx\n", SixMeRatio);

  if (Status S = Json.writeFile(JsonPath); !S.ok()) {
    std::fprintf(stderr, "chip_scaling: %s\n", S.message().c_str());
    return 1;
  }
  return 0;
}
