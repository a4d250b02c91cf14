//===- checkpoint_test.cpp - Checkpoint/restore and resume equality --------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Three layers of coverage:
//
//  1. Serializer: BinWriter/BinReader roundtrips, reader failure
//     latching, and the checkpoint file format — header versioning,
//     checksum rejection of truncated and bit-flipped files, atomic
//     write+rename (no .tmp survivors), and typed meta-mismatch errors.
//  2. Directory policy: findLatestValid picks the newest snapshot,
//     skips corrupt tails, falls back to older valid files, and
//     hard-fails (never silently ignores) a newest-valid snapshot that
//     belongs to a different run.
//  3. Resume equality: a soak stream stopped mid-run (the in-process
//     StopAfter crash simulation) and resumed from its checkpoint must
//     produce a byte-identical stable report to an uninterrupted run —
//     standalone and whole-chip, interp and threaded, with and without
//     an armed chip fault schedule.
//
// Like soak_test, this compiles the nat app through the ILP allocator
// (cached in-process), so it runs as one ctest entry.
//
//===----------------------------------------------------------------------===//

#include "checkpoint/Checkpoint.h"
#include "soak/ChipSoak.h"
#include "soak/Soak.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <dirent.h>
#include <unistd.h>

using namespace nova;

namespace {

/// Compiles nat once per process (ILP-bound; shared by the resume
/// tests below).
soak::AppHarness &natHarness() {
  static std::unique_ptr<soak::AppHarness> H = [] {
    driver::CompileOptions Opts = soak::AppHarness::defaultCompileOptions();
    Opts.Alloc.Mip.TimeLimitSeconds = 30.0;
    std::string Error;
    auto A = soak::AppHarness::create("nat", Error, Opts);
    if (!A) {
      ADD_FAILURE() << "compiling nat: " << Error;
      std::abort();
    }
    return A;
  }();
  return *H;
}

/// Fresh temp directory per test; removed with its contents on scope
/// exit.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/nova-ckpt-test-XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          ::unlink((Path + "/" + N).c_str());
      }
      closedir(D);
      ::rmdir(Path.c_str());
    }
  }
};

ckpt::CheckpointMeta testMeta(uint64_t Retired = 0) {
  ckpt::CheckpointMeta M;
  M.App = "nat";
  M.Seed = 42;
  M.Packets = 1000;
  M.CodeHash = 0x1234;
  M.PacketsRetired = Retired;
  return M;
}

std::string readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  std::string Raw;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Raw.append(Buf, N);
  std::fclose(F);
  return Raw;
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  std::fwrite(Data.data(), 1, Data.size(), F);
  std::fclose(F);
}

/// Zeroes the wall-clock fields (the one legitimate difference between
/// a resumed and an uninterrupted run) and returns the JSON report.
std::string stableJson(soak::SoakReport R) {
  R.WallSeconds = 0;
  R.TranslateSeconds = 0;
  return soak::reportJson(R);
}

std::string stableChipJson(soak::ChipSoakReport R) {
  soak::stabilize(R);
  return soak::chipReportJson(R);
}

} // namespace

//===----------------------------------------------------------------------===//
// BinIO
//===----------------------------------------------------------------------===//

TEST(BinIO, RoundTripsEveryType) {
  BinWriter W;
  W.u8(0xab);
  W.b(true);
  W.b(false);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.f64(3.25);
  W.str("hello");
  W.str(std::string("x\0y", 3)); // embedded NUL: str is length-prefixed
  io(W, std::vector<uint32_t>{1, 2, 3});
  io(W, std::vector<uint64_t>{});

  BinReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_TRUE(R.b());
  EXPECT_FALSE(R.b());
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.f64(), 3.25);
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.str(), std::string("x\0y", 3));
  std::vector<uint32_t> V32;
  std::vector<uint64_t> V64 = {7};
  io(R, V32, V64);
  EXPECT_EQ(V32, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(V64.empty());
  EXPECT_FALSE(R.failed());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(BinIO, ReaderFailureLatches) {
  BinWriter W;
  W.u32(7);
  BinReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_EQ(R.u64(), 0u); // past the end: zero and latched failure
  EXPECT_TRUE(R.failed());
  EXPECT_EQ(R.u32(), 0u); // stays failed, never reads garbage
  EXPECT_TRUE(R.failed());
}

TEST(BinIO, HugeVectorLengthDoesNotAllocate) {
  // A corrupt length prefix must not drive a multi-gigabyte allocation:
  // the reader bounds the claimed count against the bytes actually left.
  BinWriter W;
  W.u64(UINT64_MAX);
  BinReader R(W.bytes());
  std::vector<uint32_t> V;
  io(R, V);
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(R.failed());
}

TEST(BinIO, SoakProgressAndMetaBytesArePinned) {
  // The exact bytes of the two non-chip sections of a snapshot: the
  // soak progress fold (with a found divergence) and the meta section
  // (with a fault schedule). Save and restore may change only together
  // with a FileVersion bump.
  soak::SoakReport Rep;
  sim::RunResult Done;
  Done.Ok = true;
  Done.HaltValues = {1, 2};
  Done.Cycles = 1234;
  Done.Instructions = 99;
  sim::RunResult Trapped;
  Trapped.Trap = sim::TrapKind::Watchdog;
  Trapped.Cycles = 77777;
  Trapped.Instructions = 50000;
  Rep.Stats.account(Done, false, 64);
  Rep.Stats.account(Done, true, 64);
  Rep.Stats.account(Trapped, false, 64);
  Rep.ClassCounts[0] = 2;
  Rep.ClassCounts[4] = 1;
  Rep.OracleChecks = 3;
  Rep.OracleBudgetMisses = 1;
  Rep.Divergences = 1;
  Rep.First.Found = true;
  Rep.First.Index = 2;
  Rep.First.Seed = 0xfeed;
  Rep.First.Class = soak::PacketClass::Fuzz;
  Rep.First.What = "halt value 0: 1 vs 2";
  Rep.First.Words = {0x45000054, 7, 9};
  Rep.First.Args = {0, 8};
  Rep.First.ShrunkWords = {7};
  Rep.First.ShrinkRuns = 17;
  BinWriter Progress;
  soak::saveSoakProgress(Progress, Rep, 3);
  EXPECT_EQ(Progress.bytes().size(), 2354u);
  EXPECT_EQ(fnv1a64(Progress.bytes().data(), Progress.bytes().size()),
            6279270298723356369ull);

  ckpt::CheckpointMeta M = testMeta(500);
  M.Exec = 1;
  M.Chip = true;
  M.Mix[0] = 55;
  M.Mix[4] = 5;
  M.MeCount = 6;
  M.ContextsPerMe = 4;
  M.RingDepth = 4;
  M.SlotStride = 0x10000;
  std::string Error;
  ASSERT_TRUE(parseFaultSchedule("ctx-lockup@6~2,ring-stall@9~300", M.Faults,
                                 Error))
      << Error;
  BinWriter Meta;
  M.save(Meta);
  EXPECT_EQ(Meta.bytes().size(), 139u);
  EXPECT_EQ(fnv1a64(Meta.bytes().data(), Meta.bytes().size()),
            7141148863800286904ull);
}

//===----------------------------------------------------------------------===//
// File format
//===----------------------------------------------------------------------===//

TEST(CheckpointFile, WriteReadRoundTrip) {
  TempDir D;
  ckpt::CheckpointMeta M = testMeta(500);
  M.Faults.push_back({FaultKind::CtxLockup, 5000, 0.0});
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, M, "payload-state").ok());

  ckpt::LoadedCheckpoint LC;
  ASSERT_TRUE(
      ckpt::readCheckpoint(D.Path + "/ckpt-500.nova-ckpt", LC).ok());
  EXPECT_EQ(LC.Meta.App, "nat");
  EXPECT_EQ(LC.Meta.Seed, 42u);
  EXPECT_EQ(LC.Meta.PacketsRetired, 500u);
  ASSERT_EQ(LC.Meta.Faults.size(), 1u);
  EXPECT_EQ(LC.Meta.Faults[0].Kind, FaultKind::CtxLockup);
  BinReader R = LC.stateReader();
  std::string State = LC.Payload.substr(LC.StateOffset);
  EXPECT_EQ(State, "payload-state");
  EXPECT_EQ(R.remaining(), State.size());
}

TEST(CheckpointFile, NoTmpSurvivesAWrite) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "s").ok());
  DIR *Dir = opendir(D.Path.c_str());
  ASSERT_NE(Dir, nullptr);
  while (dirent *E = readdir(Dir)) {
    std::string N = E->d_name;
    EXPECT_EQ(N.find(".tmp"), std::string::npos) << N;
  }
  closedir(Dir);
}

TEST(CheckpointFile, RejectsWrongVersion) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "s").ok());
  std::string Path = D.Path + "/ckpt-1.nova-ckpt";
  std::string Raw = readFile(Path);
  // The u32 version sits right after the u64 magic.
  Raw[8] = char(ckpt::FileVersion + 1);
  writeFile(Path, Raw);
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
  EXPECT_NE(S.message().find("version"), std::string::npos);
}

TEST(CheckpointFile, RejectsTruncation) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "state").ok());
  std::string Path = D.Path + "/ckpt-1.nova-ckpt";
  std::string Raw = readFile(Path);
  writeFile(Path, Raw.substr(0, Raw.size() - 3));
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
  EXPECT_NE(S.message().find("truncated"), std::string::npos);
}

TEST(CheckpointFile, RejectsBitFlip) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(1), "state").ok());
  std::string Path = D.Path + "/ckpt-1.nova-ckpt";
  std::string Raw = readFile(Path);
  Raw[Raw.size() - 2] ^= 0x40; // flip one payload bit
  writeFile(Path, Raw);
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
  EXPECT_NE(S.message().find("checksum"), std::string::npos);
}

TEST(CheckpointFile, RejectsForeignBytes) {
  TempDir D;
  std::string Path = D.Path + "/ckpt-3.nova-ckpt";
  writeFile(Path, "this is not a checkpoint");
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::readCheckpoint(Path, LC);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
}

//===----------------------------------------------------------------------===//
// Directory policy
//===----------------------------------------------------------------------===//

TEST(CheckpointDir, PicksNewestValid) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(100), "a").ok());
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(900), "b").ok());
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(500), "c").ok());
  ckpt::LoadedCheckpoint LC;
  ASSERT_TRUE(ckpt::findLatestValid(D.Path, testMeta(), LC, nullptr).ok());
  EXPECT_EQ(LC.Meta.PacketsRetired, 900u);
}

TEST(CheckpointDir, CorruptLatestFallsBackToOlder) {
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(100), "a").ok());
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(900), "b").ok());
  std::string Latest = D.Path + "/ckpt-900.nova-ckpt";
  std::string Raw = readFile(Latest);
  Raw[Raw.size() - 1] ^= 0x01;
  writeFile(Latest, Raw);

  ckpt::LoadedCheckpoint LC;
  std::vector<std::string> Notes;
  ASSERT_TRUE(ckpt::findLatestValid(D.Path, testMeta(), LC, &Notes).ok());
  EXPECT_EQ(LC.Meta.PacketsRetired, 100u);
  ASSERT_EQ(Notes.size(), 1u);
  EXPECT_NE(Notes[0].find("checksum"), std::string::npos);
}

TEST(CheckpointDir, NewestValidMetaMismatchIsHardError) {
  // The newest structurally valid snapshot decides: if it belongs to a
  // different run, resuming an *older* matching file would silently
  // rewind, so this must be a typed hard error.
  TempDir D;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, testMeta(100), "a").ok());
  ckpt::CheckpointMeta Other = testMeta(500);
  Other.Seed = 43;
  ASSERT_TRUE(ckpt::writeCheckpoint(D.Path, Other, "b").ok());

  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::findLatestValid(D.Path, testMeta(), LC, nullptr);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointMismatch);
}

TEST(CheckpointDir, AllCorruptIsTypedError) {
  TempDir D;
  writeFile(D.Path + "/ckpt-5.nova-ckpt", "garbage");
  ckpt::LoadedCheckpoint LC;
  Status S = ckpt::findLatestValid(D.Path, testMeta(), LC, nullptr);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::CheckpointCorrupt);
}

//===----------------------------------------------------------------------===//
// Resume equality
//===----------------------------------------------------------------------===//

namespace {

/// Locks the checkpoint/resume contract for one standalone soak
/// configuration: uninterrupted, versus stopped at StopAt (the
/// in-process crash simulation) and resumed — the stable reports must
/// be byte-identical.
void expectStandaloneResumeEquality(sim::ExecMode Exec) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::SoakOptions Opts;
  Opts.Packets = 2000;
  Opts.Seed = 42;
  Opts.Exec = Exec;
  Opts.OracleEvery = 10;

  soak::SoakReport Ref = soak::runSoak(H, Opts);
  ASSERT_FALSE(Ref.Stopped);

  Opts.Ckpt.Every = 500;
  Opts.Ckpt.Dir = D.Path;
  Opts.Ckpt.StopAfter = 1100;
  soak::SoakReport Crashed = soak::runSoak(H, Opts);
  EXPECT_TRUE(Crashed.Stopped);
  EXPECT_GE(Crashed.Stats.Packets, 1100u);

  Opts.Ckpt.StopAfter = 0;
  Opts.Ckpt.Resume = true;
  soak::SoakReport Resumed = soak::runSoak(H, Opts);
  ASSERT_TRUE(Resumed.CkptError.ok()) << Resumed.CkptError.message();
  ASSERT_FALSE(Resumed.Stopped);
  EXPECT_FALSE(Resumed.ResumedFrom.empty());
  EXPECT_EQ(stableJson(Ref), stableJson(Resumed));
}

/// Same contract for the whole-chip soak, optionally under an armed
/// fault schedule (the supervisor ordinals and recovery ledger must
/// survive the round-trip too).
void expectChipResumeEquality(sim::ExecMode Exec, bool WithFaults) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 2000;
  Opts.Base.Seed = 42;
  Opts.Base.Exec = Exec;
  Opts.Base.OracleEvery = 10;
  if (WithFaults) {
    std::string Error;
    ASSERT_TRUE(parseFaultSchedule("ctx-lockup@500,chan-brownout@800~4",
                                   Opts.Chip.Faults, Error))
        << Error;
  }

  soak::ChipSoakReport Ref = soak::runChipSoak(H, Opts);
  ASSERT_TRUE(Ref.Setup.ok()) << Ref.Setup.message();
  ASSERT_FALSE(Ref.Base.Stopped);

  Opts.Base.Ckpt.Every = 500;
  Opts.Base.Ckpt.Dir = D.Path;
  Opts.Base.Ckpt.StopAfter = 1100;
  soak::ChipSoakReport Crashed = soak::runChipSoak(H, Opts);
  EXPECT_TRUE(Crashed.Base.Stopped);

  Opts.Base.Ckpt.StopAfter = 0;
  Opts.Base.Ckpt.Resume = true;
  soak::ChipSoakReport Resumed = soak::runChipSoak(H, Opts);
  ASSERT_TRUE(Resumed.Base.CkptError.ok())
      << Resumed.Base.CkptError.message();
  ASSERT_FALSE(Resumed.Base.Stopped);
  EXPECT_FALSE(Resumed.Base.ResumedFrom.empty());
  // Byte-identical stable JSON covers the trace hash, the image hash,
  // the recovery fold, and the whole drop taxonomy in one comparison.
  EXPECT_EQ(stableChipJson(Ref), stableChipJson(Resumed));
  EXPECT_EQ(Ref.Chip.TraceHash, Resumed.Chip.TraceHash);
  EXPECT_EQ(Ref.Chip.Recovery.fold(), Resumed.Chip.Recovery.fold());
}

} // namespace

TEST(ResumeEquality, StandaloneInterp) {
  expectStandaloneResumeEquality(sim::ExecMode::Interp);
}

TEST(ResumeEquality, StandaloneThreaded) {
  expectStandaloneResumeEquality(sim::ExecMode::Threaded);
}

TEST(ResumeEquality, ChipInterp) {
  expectChipResumeEquality(sim::ExecMode::Interp, /*WithFaults=*/false);
}

TEST(ResumeEquality, ChipThreaded) {
  expectChipResumeEquality(sim::ExecMode::Threaded, /*WithFaults=*/false);
}

TEST(ResumeEquality, ChipInterpWithFaultSchedule) {
  expectChipResumeEquality(sim::ExecMode::Interp, /*WithFaults=*/true);
}

TEST(ResumeEquality, ChipThreadedWithFaultSchedule) {
  expectChipResumeEquality(sim::ExecMode::Threaded, /*WithFaults=*/true);
}

TEST(ResumeEquality, ResumeIntoFreshDirectoryIsTypedError) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::SoakOptions Opts;
  Opts.Packets = 100;
  Opts.Ckpt.Dir = D.Path;
  Opts.Ckpt.Resume = true;
  soak::SoakReport R = soak::runSoak(H, Opts);
  ASSERT_FALSE(R.CkptError.ok());
  EXPECT_EQ(R.CkptError.code(), StatusCode::CheckpointCorrupt);
  EXPECT_EQ(R.Stats.Packets, 0u); // nothing ran
}

// A chip soak has one exec knob, Base.Exec: the chip runs it, the report
// names it and the checkpoint meta records it. A threaded run's snapshot
// resumed as interp is therefore a different run (CheckpointMismatch on
// the exec mode), not a chip state that fails to parse.
TEST(ResumeEquality, ChipSnapshotRecordsTheExecModeThatRan) {
  soak::AppHarness &H = natHarness();
  TempDir D;
  soak::ChipSoakOptions Opts;
  Opts.Base.Packets = 600;
  Opts.Base.Seed = 42;
  Opts.Base.OracleEvery = 0;
  Opts.Base.Exec = sim::ExecMode::Threaded;
  Opts.Base.Ckpt.Every = 200;
  Opts.Base.Ckpt.Dir = D.Path;
  soak::ChipSoakReport R = soak::runChipSoak(H, Opts);
  ASSERT_TRUE(R.Setup.ok()) << R.Setup.message();
  ASSERT_FALSE(R.Base.Stopped);
  std::string J = soak::chipReportJson(R);
  // Once at the top level, once in the chip object.
  size_t First = J.find("\"exec_mode\":\"threaded\"");
  ASSERT_NE(First, std::string::npos) << J;
  EXPECT_NE(J.find("\"exec_mode\":\"threaded\"", First + 1),
            std::string::npos)
      << J;
  EXPECT_EQ(J.find("\"exec_mode\":\"interp\""), std::string::npos) << J;

  Opts.Base.Exec = sim::ExecMode::Interp;
  Opts.Base.Ckpt.Resume = true;
  soak::ChipSoakReport Resumed = soak::runChipSoak(H, Opts);
  ASSERT_FALSE(Resumed.Base.CkptError.ok());
  EXPECT_EQ(Resumed.Base.CkptError.code(), StatusCode::CheckpointMismatch)
      << Resumed.Base.CkptError.message();
  EXPECT_NE(Resumed.Base.CkptError.message().find("exec"), std::string::npos)
      << Resumed.Base.CkptError.message();
  EXPECT_EQ(Resumed.Base.Stats.Packets, 0u); // nothing ran
}
