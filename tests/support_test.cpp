//===- support_test.cpp - Unit tests for the support library -------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/SourceManager.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "support/WordMap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <unistd.h>

using namespace nova;

TEST(SourceManager, LineColumnBasics) {
  SourceManager SM;
  uint32_t Buf = SM.addBuffer("test.nova", "abc\ndef\n\nxyz");
  EXPECT_EQ(SM.bufferName(Buf), "test.nova");

  LineColumn LC = SM.lineColumn({Buf, 0});
  EXPECT_EQ(LC.Line, 1u);
  EXPECT_EQ(LC.Column, 1u);

  LC = SM.lineColumn({Buf, 2}); // 'c'
  EXPECT_EQ(LC.Line, 1u);
  EXPECT_EQ(LC.Column, 3u);

  LC = SM.lineColumn({Buf, 4}); // 'd'
  EXPECT_EQ(LC.Line, 2u);
  EXPECT_EQ(LC.Column, 1u);

  LC = SM.lineColumn({Buf, 8}); // empty line
  EXPECT_EQ(LC.Line, 3u);
  EXPECT_EQ(LC.Column, 1u);

  LC = SM.lineColumn({Buf, 11}); // 'z'
  EXPECT_EQ(LC.Line, 4u);
  EXPECT_EQ(LC.Column, 3u);
}

TEST(SourceManager, LineText) {
  SourceManager SM;
  uint32_t Buf = SM.addBuffer("t", "first\nsecond\nthird");
  EXPECT_EQ(SM.lineText({Buf, 0}), "first");
  EXPECT_EQ(SM.lineText({Buf, 7}), "second");
  EXPECT_EQ(SM.lineText({Buf, 14}), "third");
}

TEST(SourceManager, InvalidLocation) {
  SourceManager SM;
  SM.addBuffer("t", "x");
  LineColumn LC = SM.lineColumn(SourceLoc::invalid());
  EXPECT_EQ(LC.Line, 0u);
  EXPECT_EQ(LC.Column, 0u);
}

TEST(Diagnostics, CollectsAndCounts) {
  SourceManager SM;
  uint32_t Buf = SM.addBuffer("f.nova", "let x = ;\n");
  DiagnosticEngine DE(SM);
  EXPECT_FALSE(DE.hasErrors());
  DE.error({Buf, 8}, "expected expression");
  DE.warning({Buf, 4}, "shadowed variable");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(DE.diagnostics().size(), 2u);

  std::string Text = DE.render();
  EXPECT_NE(Text.find("f.nova:1:9: error: expected expression"),
            std::string::npos);
  EXPECT_NE(Text.find("warning: shadowed variable"), std::string::npos);
  EXPECT_NE(Text.find('^'), std::string::npos);
}

TEST(StringUtils, Split) {
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, ParseInteger) {
  EXPECT_EQ(parseInteger("0"), 0u);
  EXPECT_EQ(parseInteger("12345"), 12345u);
  EXPECT_EQ(parseInteger("0x60"), 0x60u);
  EXPECT_EQ(parseInteger("0xFFFFFFFF"), 0xFFFFFFFFu);
  EXPECT_FALSE(parseInteger("").has_value());
  EXPECT_FALSE(parseInteger("12a").has_value());
  EXPECT_FALSE(parseInteger("0xZZ").has_value());
  // Overflow of uint64_t, including values whose wrapped product
  // lands above the previous partial value.
  EXPECT_EQ(parseInteger("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parseInteger("18446744073709551616").has_value());
  EXPECT_FALSE(parseInteger("105000000000000000000").has_value());
  EXPECT_FALSE(parseInteger("99999999999999999999999").has_value());
  EXPECT_FALSE(parseInteger("-1").has_value());
  EXPECT_FALSE(parseInteger("+1").has_value());
}

TEST(StringUtils, ParseReal) {
  EXPECT_EQ(parseReal("0.25"), 0.25);
  EXPECT_EQ(parseReal("1e-3"), 1e-3);
  EXPECT_EQ(parseReal("-2"), -2.0);
  EXPECT_TRUE(std::isnan(*parseReal("nan")));
  EXPECT_TRUE(std::isinf(*parseReal("inf")));
  EXPECT_FALSE(parseReal("").has_value());
  EXPECT_FALSE(parseReal("1.5x").has_value());
  EXPECT_FALSE(parseReal("zzz").has_value());
  EXPECT_FALSE(parseReal("1 ").has_value());
}

TEST(StringUtils, Formatf) {
  EXPECT_EQ(formatf("%s=%d", "x", 42), "x=42");
  EXPECT_EQ(formatf("%.2f", 3.14159), "3.14");
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter J;
  J.value(std::string("q\"b\\n\nt\tr\rc\x01z\x1f", 14));
  EXPECT_EQ(J.str(), R"("q\"b\\n\nt\tr\rc\u0001z\u001f")");
  JsonWriter K;
  K.beginObject().field("we\"ird\\key", 1).endObject();
  EXPECT_EQ(K.str(), R"({"we\"ird\\key":1})");
}

TEST(Json, NestsWithCommasOnlyBetweenElements) {
  JsonWriter J;
  J.beginArray();
  J.beginObject()
      .field("a", 1)
      .field("b", -2)
      .field("c", true)
      .field("d", "s");
  J.key("e").null();
  J.key("f").beginArray().endArray();
  J.key("g").beginObject().endObject();
  J.key("h").array(std::vector<uint32_t>{1, 2, 3});
  J.endObject();
  J.beginArray().endArray();
  J.value(false).value(uint64_t(18446744073709551615ull));
  J.endArray();
  EXPECT_EQ(J.str(), R"([{"a":1,"b":-2,"c":true,"d":"s","e":null,"f":[],)"
                     R"("g":{},"h":[1,2,3]},[],false,18446744073709551615])");
  EXPECT_EQ(JsonWriter().beginObject().endObject().str(), "{}");
  EXPECT_EQ(JsonWriter().beginArray().endArray().str(), "[]");
}

TEST(Json, NumbersKeepTheirPrecisionAndRoundTrip) {
  EXPECT_EQ(JsonWriter().fixed(3.2381627, 6).str(), "3.238163");
  EXPECT_EQ(JsonWriter().fixed(0.5, 3).str(), "0.500");
  EXPECT_EQ(JsonWriter().fixed(1234.56, 1).str(), "1234.6");
  EXPECT_EQ(JsonWriter().general(2.2381627391, 9).str(), "2.23816274");
  EXPECT_EQ(JsonWriter().general(1e21, 9).str(), "1e+21");
  // What a field prints at its precision is what a reader gets back.
  for (double V : {0.0, 1.0 / 3.0, 2.2381627391, 6.02214076e23, -1e-300}) {
    std::string Fixed = JsonWriter().fixed(V, 6).str();
    EXPECT_NEAR(std::strtod(Fixed.c_str(), nullptr), V, 5e-7) << Fixed;
    std::string Exact = JsonWriter().general(V, 17).str();
    EXPECT_EQ(std::strtod(Exact.c_str(), nullptr), V) << Exact;
  }
  // JSON has no spelling for these.
  EXPECT_EQ(JsonWriter().fixed(NAN, 3).str(), "null");
  EXPECT_EQ(JsonWriter().general(-INFINITY, 9).str(), "null");
}

TEST(Json, WritesFilesAndReportsFailures) {
  char Dir[] = "/tmp/nova-json-test-XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  std::string Path = std::string(Dir) + "/out.json";
  JsonWriter J;
  J.beginObject().field("k", "v").endObject();
  ASSERT_TRUE(J.writeFile(Path).ok());
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  EXPECT_EQ(Text.str(), "{\"k\":\"v\"}\n");
  std::remove(Path.c_str());
  rmdir(Dir);

  Status S = J.writeFile(Path); // the directory is gone
  EXPECT_EQ(S.code(), StatusCode::IoError);
  EXPECT_NE(S.message().find("cannot write " + Path), std::string::npos);
}

TEST(ArgParser, ValuesFlagsAndMissingValues) {
  const char *Args[] = {"tool", "--a=1", "--b", "2", "--on", "--bb", "--c"};
  ArgParser P{"tool", 7, const_cast<char **>(Args)};
  std::string V;
  EXPECT_TRUE(P.valueFlag("--a", V));
  EXPECT_EQ(V, "1");
  EXPECT_FALSE(P.valueFlag("--a", V));
  EXPECT_TRUE(P.valueFlag("--b", V));
  EXPECT_EQ(V, "2");
  EXPECT_FALSE(P.boolFlag("--o"));
  EXPECT_TRUE(P.boolFlag("--on"));
  EXPECT_FALSE(P.valueFlag("--b", V)); // --bb is another flag
  EXPECT_STREQ(P.current(), "--bb");
  ++P.I;
  EXPECT_FALSE(P.Failed);
  EXPECT_TRUE(P.valueFlag("--c", V)); // no value left
  EXPECT_TRUE(P.Failed);
  EXPECT_TRUE(P.done());
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(10), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceExtremes) {
  Rng R(11);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.chance(0, 10));
    EXPECT_TRUE(R.chance(10, 10));
  }
}

TEST(Timer, MeasuresForwardTime) {
  Timer T;
  EXPECT_GE(T.seconds(), 0.0);
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(Deadline, NeverDoesNotExpire) {
  Deadline D = Deadline::never();
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remaining(), 1e18);
}

TEST(Deadline, AfterCountsDown) {
  Deadline D = Deadline::after(100.0);
  EXPECT_FALSE(D.expired());
  EXPECT_LE(D.remaining(), 100.0);
  EXPECT_GT(D.remaining(), 0.0);
  EXPECT_EQ(D.budget(), 100.0);
  Deadline Past = Deadline::after(0.0);
  EXPECT_TRUE(Past.expired());
  EXPECT_EQ(Past.remaining(), 0.0);
}

TEST(Status, DefaultIsOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Ok);
  EXPECT_EQ(S.render(), "ok");
}

TEST(Status, ErrorCarriesCodePhaseAndHints) {
  Status S = Status::error(StatusCode::IlpBudgetExceeded, Phase::Solve,
                           "node limit hit")
                 .addHint("raise --time-limit");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::IlpBudgetExceeded);
  EXPECT_EQ(S.phase(), Phase::Solve);
  EXPECT_EQ(S.message(), "node limit hit");
  ASSERT_EQ(S.hints().size(), 1u);
  EXPECT_EQ(S.render(), "solve: ilp-budget-exceeded: node limit hit\n"
                        "  hint: raise --time-limit");
}

TEST(Status, NamesAreStable) {
  EXPECT_STREQ(statusCodeName(StatusCode::VerifyFailed), "verify-failed");
  EXPECT_STREQ(statusCodeName(StatusCode::IlpInfeasible), "ilp-infeasible");
  EXPECT_STREQ(phaseName(Phase::Baseline), "baseline");
}

TEST(FaultInjection, DisarmedNeverFires) {
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(FI.shouldFire(FaultKind::LpInfeasible));
}

TEST(FaultInjection, AfterAndTimesWindow) {
  FaultSpec Spec;
  Spec.Kind = FaultKind::MipTimeout;
  Spec.After = 2;
  Spec.Times = 3;
  ScopedFaultInjection Armed({Spec});
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_TRUE(FaultInjector::armed());
  // Opportunities 0 and 1 pass, 2..4 fire, 5+ are exhausted.
  EXPECT_FALSE(FI.shouldFire(FaultKind::MipTimeout));
  EXPECT_FALSE(FI.shouldFire(FaultKind::MipTimeout));
  EXPECT_TRUE(FI.shouldFire(FaultKind::MipTimeout));
  EXPECT_TRUE(FI.shouldFire(FaultKind::MipTimeout));
  EXPECT_TRUE(FI.shouldFire(FaultKind::MipTimeout));
  EXPECT_FALSE(FI.shouldFire(FaultKind::MipTimeout));
  EXPECT_EQ(FI.fired(FaultKind::MipTimeout), 3u);
  EXPECT_EQ(FI.opportunities(FaultKind::MipTimeout), 6u);
  // Other kinds are not armed by this plan.
  EXPECT_FALSE(FI.shouldFire(FaultKind::EtaDrift));
}

TEST(FaultInjection, ScopedDisarmRestoresFastPath) {
  {
    ScopedFaultInjection Armed({FaultSpec{}});
    EXPECT_TRUE(FaultInjector::armed());
  }
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_EQ(FaultInjector::instance().fired(FaultKind::LpInfeasible), 0u);
}

TEST(FaultInjection, MagnitudeFallsBackToDefault) {
  FaultSpec Spec;
  Spec.Kind = FaultKind::WorkerStall;
  Spec.Magnitude = 0.25;
  ScopedFaultInjection Armed({Spec});
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_EQ(FI.magnitude(FaultKind::WorkerStall), 0.25);
  EXPECT_EQ(FI.magnitude(FaultKind::EtaDrift), 1e-3); // not armed
}

TEST(FaultInjection, ParsesCliSpecs) {
  using FD = FaultDomain;
  FaultSpec S;
  std::string Err;
  ASSERT_TRUE(parseFaultSpec("mip-timeout@5", FD::Solver, S, Err)) << Err;
  EXPECT_EQ(S.Kind, FaultKind::MipTimeout);
  EXPECT_EQ(S.After, 5u);
  EXPECT_EQ(S.Times, ~0u);

  ASSERT_TRUE(parseFaultSpec("eta-drift@100x3~1e-3", FD::Solver, S, Err))
      << Err;
  EXPECT_EQ(S.Kind, FaultKind::EtaDrift);
  EXPECT_EQ(S.After, 100u);
  EXPECT_EQ(S.Times, 3u);
  EXPECT_DOUBLE_EQ(S.Magnitude, 1e-3);

  ASSERT_TRUE(parseFaultSpec("singular-basis", FD::Solver, S, Err)) << Err;
  EXPECT_EQ(S.Kind, FaultKind::SingularBasis);

  EXPECT_FALSE(parseFaultSpec("bad-kind", FD::Solver, S, Err));
  EXPECT_NE(Err.find("unknown fault kind"), std::string::npos);
  EXPECT_FALSE(parseFaultSpec("mip-timeout@", FD::Solver, S, Err));
  EXPECT_FALSE(parseFaultSpec("mip-timeout@abc", FD::Solver, S, Err));
  EXPECT_FALSE(parseFaultSpec("eta-drift~zzz", FD::Solver, S, Err));
}

TEST(FaultInjection, SpecParserRejectsChipDomainKinds) {
  // Chip-grade kinds only fire inside the whole-chip scheduler; a spec
  // naming one at either --inject-fault is a usage error that names its
  // domain, never a silently-ignored no-op.
  using FD = FaultDomain;
  FaultSpec S;
  std::string Err;
  for (const char *Spec : {"ctx-lockup", "dma-drop@5", "sdram-bitflip"})
    for (FD D : {FD::Solver, FD::Sim}) {
      EXPECT_FALSE(parseFaultSpec(Spec, D, S, Err));
      EXPECT_NE(Err.find("chip-domain"), std::string::npos) << Err;
    }
}

TEST(FaultInjection, KindDomainsPartitionTheEnum) {
  using FD = FaultDomain;
  EXPECT_EQ(faultKindDomain(FaultKind::SingularBasis), FD::Solver);
  EXPECT_EQ(faultKindDomain(FaultKind::EtaDrift), FD::Solver);
  EXPECT_EQ(faultKindDomain(FaultKind::LpInfeasible), FD::Solver);
  EXPECT_EQ(faultKindDomain(FaultKind::MipTimeout), FD::Solver);
  EXPECT_EQ(faultKindDomain(FaultKind::WorkerStall), FD::Solver);
  EXPECT_EQ(faultKindDomain(FaultKind::MemJitter), FD::Sim);
  EXPECT_EQ(faultKindDomain(FaultKind::SimBitFlip), FD::Sim);
  EXPECT_EQ(faultKindDomain(FaultKind::CtxLockup), FD::Chip);
  EXPECT_EQ(faultKindDomain(FaultKind::RingStall), FD::Chip);
  EXPECT_EQ(faultKindDomain(FaultKind::ChanBrownout), FD::Chip);
  EXPECT_EQ(faultKindDomain(FaultKind::SdramBitFlip), FD::Chip);
  EXPECT_EQ(faultKindDomain(FaultKind::DmaDrop), FD::Chip);
  EXPECT_STREQ(faultDomainName(FD::Solver), "solver");
  EXPECT_STREQ(faultDomainName(FD::Sim), "sim");
  EXPECT_STREQ(faultDomainName(FD::Chip), "chip");
}

TEST(FaultInjection, ParsesFaultSchedules) {
  FaultSchedule S;
  std::string Err;
  ASSERT_TRUE(
      parseFaultSchedule("ctx-lockup@5000,chan-brownout@10000~4", S, Err))
      << Err;
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0].Kind, FaultKind::CtxLockup);
  EXPECT_EQ(S[0].Rate, 5000u);
  EXPECT_DOUBLE_EQ(S[0].Magnitude, 0.0);
  EXPECT_EQ(S[1].Kind, FaultKind::ChanBrownout);
  EXPECT_EQ(S[1].Rate, 10000u);
  EXPECT_DOUBLE_EQ(S[1].Magnitude, 4.0);

  ASSERT_TRUE(parseFaultSchedule("sdram-bitflip@1", S, Err)) << Err;
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Rate, 1u);

  ASSERT_TRUE(parseFaultSchedule(
      "ctx-lockup@2~3,ring-stall@7~250,dma-drop@9", S, Err))
      << Err;
  EXPECT_EQ(S.size(), 3u);
}

TEST(FaultInjection, ScheduleParserRejectsMalformedInput) {
  FaultSchedule S;
  std::string Err;
  // Rate is mandatory and must be >= 1.
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup", S, Err));
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup@0", S, Err));
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup@abc", S, Err));
  // Non-chip kinds belong to other front doors.
  EXPECT_FALSE(parseFaultSchedule("mem-jitter@5", S, Err));
  EXPECT_NE(Err.find("chip"), std::string::npos);
  EXPECT_FALSE(parseFaultSchedule("mip-timeout@5", S, Err));
  // Duplicates, unknown kinds, bad magnitudes, empty entries.
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup@5,ctx-lockup@9", S, Err));
  EXPECT_FALSE(parseFaultSchedule("no-such-kind@5", S, Err));
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup@5~zzz", S, Err));
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup@5~-2", S, Err));
  EXPECT_FALSE(parseFaultSchedule("", S, Err));
  EXPECT_FALSE(parseFaultSchedule(",", S, Err));
  EXPECT_FALSE(parseFaultSchedule("ctx-lockup@5,", S, Err));
}

TEST(FaultInjection, KindTableIsConsistent) {
  // Every kind parses back from its own name at its own front door, its
  // default is one of its accepted magnitudes, and its range is what the
  // usage text of its domain prints.
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    const FaultKindInfo &I = faultKindInfo(Kind);
    SCOPED_TRACE(I.Name);
    std::string Err;
    if (I.Domain == FaultDomain::Chip) {
      FaultSchedule S;
      ASSERT_TRUE(parseFaultSchedule(std::string(I.Name) + "@1", S, Err));
      EXPECT_EQ(S[0].Kind, Kind);
    } else {
      FaultSpec S;
      ASSERT_TRUE(parseFaultSpec(I.Name, I.Domain, S, Err)) << Err;
      EXPECT_EQ(S.Kind, Kind);
    }
    if (I.Mag == FaultMagnitude::None) {
      EXPECT_EQ(I.Means, nullptr);
      EXPECT_FALSE(faultMagnitudeValid(Kind, 1.0));
    } else {
      EXPECT_NE(I.Means, nullptr);
      EXPECT_GT(I.Min, 0.0);
      EXPECT_TRUE(faultMagnitudeValid(Kind, I.Default));
      EXPECT_TRUE(faultMagnitudeValid(Kind, I.Min));
      EXPECT_TRUE(faultMagnitudeValid(Kind, I.Max));
      EXPECT_FALSE(faultMagnitudeValid(Kind, I.Max * 2));
    }
    EXPECT_TRUE(faultMagnitudeValid(Kind, 0.0)); // "use the default"
    EXPECT_NE(faultKindUsage(I.Domain, "").find(faultMagnitudeRange(Kind)),
              std::string::npos);
  }
}

TEST(FaultInjection, SpecParserRejectsEveryBadInputClass) {
  using FD = FaultDomain;
  struct Bad {
    const char *Spec;
    FD Domain;
    const char *Says; ///< the kind or range the message must name
  };
  for (const Bad &B : std::initializer_list<Bad>{
           // Sign, overflow past the 32-bit field, trailing characters.
           {"mip-timeout@-1", FD::Solver, "0..4294967295"},
           {"mip-timeout@+1", FD::Solver, "mip-timeout"},
           {"sim-bitflip@4294967296", FD::Sim, "0..4294967295"},
           {"sim-bitflip@4294967297", FD::Sim, "sim-bitflip"},
           {"sim-bitflip@18446744073709551616", FD::Sim, "sim-bitflip"},
           {"lp-infeasible x-3", FD::Solver, "lp-infeasible x-3"},
           {"lp-infeasible@5 ", FD::Solver, "0..4294967295"},
           {"mem-jitter@1.5", FD::Sim, "mem-jitter"},
           // NaN, infinity, zero, negative, out of range, fractional.
           {"eta-drift~nan", FD::Solver, "a real in [1e-09, 1]"},
           {"eta-drift~inf", FD::Solver, "eta-drift"},
           {"eta-drift~0", FD::Solver, "eta-drift"},
           {"eta-drift~-1e-3", FD::Solver, "eta-drift"},
           {"eta-drift~2", FD::Solver, "eta-drift"},
           {"worker-stall~1e9", FD::Solver, "a real in [1e-06, 1]"},
           {"mem-jitter~0", FD::Sim, "an integer in 1..65536"},
           {"mem-jitter~65537", FD::Sim, "mem-jitter"},
           {"mem-jitter~1.5", FD::Sim, "mem-jitter"},
           {"mem-jitter~1e3", FD::Sim, "mem-jitter"},
           {"mem-jitter~", FD::Sim, "mem-jitter"},
           // `~` on a kind without a magnitude.
           {"sim-bitflip~3", FD::Sim, "no magnitude"},
           {"singular-basis~1", FD::Solver, "singular-basis"},
           // The wrong domain at each front door.
           {"mem-jitter", FD::Solver, "mem-jitter"},
           {"sim-bitflip", FD::Solver, "sim-bitflip"},
           {"mip-timeout@5", FD::Sim, "mip-timeout"},
           {"eta-drift", FD::Sim, "eta-drift"},
           {"ring-stall", FD::Solver, "ring-stall"},
           {"chan-brownout", FD::Sim, "chan-brownout"},
       }) {
    SCOPED_TRACE(B.Spec);
    FaultSpec S;
    std::string Err;
    EXPECT_FALSE(parseFaultSpec(B.Spec, B.Domain, S, Err));
    EXPECT_NE(Err.find(B.Says), std::string::npos) << Err;
  }
  // A wrong-domain message lists the kinds the front door does take.
  FaultSpec S;
  std::string Err;
  EXPECT_FALSE(parseFaultSpec("mem-jitter", FD::Solver, S, Err));
  EXPECT_NE(Err.find("sim-domain"), std::string::npos) << Err;
  EXPECT_NE(Err.find("worker-stall"), std::string::npos) << Err;
  // The bounds themselves are accepted.
  ASSERT_TRUE(parseFaultSpec("mip-timeout@4294967295x4294967295", FD::Solver,
                             S, Err))
      << Err;
  EXPECT_EQ(S.After, UINT32_MAX);
  EXPECT_EQ(S.Times, UINT32_MAX);
  ASSERT_TRUE(parseFaultSpec("mem-jitter~65536", FD::Sim, S, Err)) << Err;
  EXPECT_EQ(S.Magnitude, 65536.0);
  ASSERT_TRUE(parseFaultSpec("worker-stall~1e-6", FD::Solver, S, Err)) << Err;
  ASSERT_TRUE(parseFaultSpec("eta-drift~1", FD::Solver, S, Err)) << Err;
}

TEST(FaultInjection, ScheduleParserRejectsEveryBadInputClass) {
  struct Bad {
    const char *Sched;
    const char *Says; ///< the kind or range the message must name
  };
  for (const Bad &B : std::initializer_list<Bad>{
           {"ctx-lockup@-1", "1..18446744073709551615"},
           {"ctx-lockup@18446744073709551616", "ctx-lockup"},
           {"ctx-lockup@5x", "ctx-lockup"},
           {"ctx-lockup@0x", "ctx-lockup"},
           {"ctx-lockup@5~1e30", "an integer in 1..1024"},
           {"ctx-lockup@5~nan", "ctx-lockup"},
           {"ctx-lockup@5~inf", "ctx-lockup"},
           {"ctx-lockup@5~1.5", "ctx-lockup"},
           {"ctx-lockup@5~0", "ctx-lockup"},
           {"ctx-lockup@5~", "ctx-lockup"},
           {"chan-brownout@5~1", "an integer in 2..1024"},
           {"ring-stall@5~1000001", "an integer in 1..1000000"},
           {"dma-drop@5~1025", "dma-drop"},
           {"sdram-bitflip@5~2", "no magnitude"},
           {"worker-stall@5", "worker-stall"},
           {"sim-bitflip@5", "sim-bitflip"},
       }) {
    SCOPED_TRACE(B.Sched);
    FaultSchedule S;
    std::string Err;
    EXPECT_FALSE(parseFaultSchedule(B.Sched, S, Err));
    EXPECT_NE(Err.find(B.Says), std::string::npos) << Err;
  }
  FaultSchedule S;
  std::string Err;
  ASSERT_TRUE(parseFaultSchedule(
      "ctx-lockup@18446744073709551615~1024,chan-brownout@1~2,"
      "ring-stall@0x10~1000000",
      S, Err))
      << Err;
  EXPECT_EQ(S[0].Rate, UINT64_MAX);
  EXPECT_EQ(S[1].Magnitude, 2.0);
  EXPECT_EQ(S[2].Rate, 16u);
}

namespace {

/// Reference semantics of WordMap::eraseRange on a std::map.
void eraseRef(std::map<uint32_t, uint32_t> &M, uint32_t Lo, uint64_t Hi) {
  for (auto It = M.lower_bound(Lo); It != M.end() && It->first < Hi;)
    It = M.erase(It);
}

/// Erases [Lo, Hi) from both stores and requires identical contents.
void eraseBoth(WordMap &W, std::map<uint32_t, uint32_t> &M, uint32_t Lo,
               uint64_t Hi) {
  W.eraseRange(Lo, Hi);
  eraseRef(M, Lo, Hi);
  ASSERT_EQ(W.size(), M.size()) << "erase [" << Lo << ", " << Hi << ")";
  ASSERT_TRUE(W == M) << "erase [" << Lo << ", " << Hi << ")";
}

/// Pages 0, 2, 3 and the last dense page populated (page 1 absent), a
/// few overflow words above 2^24, and the top of the address space.
void populate(WordMap &W, std::map<uint32_t, uint32_t> &M,
              std::mt19937 &Rng) {
  auto Put = [&](uint32_t A) {
    uint32_t V = static_cast<uint32_t>(Rng());
    W[A] = V;
    M[A] = V;
  };
  for (uint32_t Page : {0u, 2u, 3u, 4095u})
    for (unsigned I = 0; I != 600; ++I)
      Put(Page * 4096 + Rng() % 4096);
  for (uint32_t A = 0; A != 200; ++A)
    Put(A); // a dense run straddling several bitmap words
  for (uint32_t A : {1u << 24, (1u << 24) + 1, (1u << 24) + 4096, 0x7FFFFFFFu,
                     0xFFFFFFFEu, 0xFFFFFFFFu})
    Put(A);
}

} // namespace

TEST(WordMap, EraseRangeMatchesMapReference) {
  std::mt19937 Rng(7);
  WordMap W;
  std::map<uint32_t, uint32_t> M;
  populate(W, M, Rng);
  ASSERT_TRUE(W == M);

  eraseBoth(W, M, 5, 5);           // empty range
  eraseBoth(W, M, 9, 3);           // inverted range is a no-op
  eraseBoth(W, M, 3, 67);          // unaligned, inside one page, 2 words
  eraseBoth(W, M, 64, 128);        // exactly one bitmap word
  eraseBoth(W, M, 130, 131);       // a single word
  eraseBoth(W, M, 4000, 3 * 4096 + 17); // spans absent page 1
  eraseBoth(W, M, 0xFFF000 + 5, (1u << 24) + 2); // crosses dense/overflow
  eraseBoth(W, M, 0x7FFFFFF0u, 1ull << 33);      // Hi above 2^32
  EXPECT_FALSE(W.contains(0xFFFFFFFFu));

  // Re-inserted words come back as zero-valued entries, like std::map.
  W[70] = W[70];
  M[70] = M[70];
  EXPECT_TRUE(W == M);
  EXPECT_EQ(W.get(70), 0u);
}

TEST(WordMap, RandomEraseRangesMatchMapReference) {
  std::mt19937 Rng(11);
  WordMap W;
  std::map<uint32_t, uint32_t> M;
  for (unsigned Round = 0; Round != 60; ++Round) {
    populate(W, M, Rng);
    // Endpoints biased toward page, word, and space boundaries.
    auto Point = [&]() -> uint64_t {
      static const uint64_t Anchors[] = {0,       64,      4096,  3 * 4096,
                                         1u << 24, 0xFFF000, 1ull << 32};
      uint64_t A = Anchors[Rng() % 7];
      int64_t Jitter = static_cast<int64_t>(Rng() % 300) - 150;
      int64_t P = static_cast<int64_t>(A) + Jitter;
      return P < 0 ? 0 : static_cast<uint64_t>(P);
    };
    uint64_t Lo = std::min<uint64_t>(Point(), 0xFFFFFFFFu);
    uint64_t Hi = Point();
    if (Rng() % 8 == 0)
      Hi = 1ull << 33;
    eraseBoth(W, M, static_cast<uint32_t>(Lo), Hi);
  }
}
