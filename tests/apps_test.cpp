//===- apps_test.cpp - The paper's benchmark applications, end to end -----===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
// AES, Kasumi, and NAT are compiled through the entire pipeline (front
// end -> CPS -> ILP allocation) and executed on the bank-level simulator;
// outputs are validated against the independent C++ reference
// implementations.
//
//===----------------------------------------------------------------------===//

#include "alloc/Verifier.h"
#include "apps/AppSources.h"
#include "cps/Eval.h"
#include "driver/Compiler.h"
#include "ref/Aes.h"
#include "ref/Checksum.h"
#include "ref/Kasumi.h"
#include "sim/Simulator.h"
#include "support/BinIO.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

using namespace nova;

namespace {

/// Compiles an app once per model and caches the result for all tests in
/// the file.
driver::CompileResult &compiledApp(const std::string &Name,
                                   const std::string &Source,
                                   bool SpillModel = false) {
  static std::map<std::pair<std::string, bool>,
                  std::unique_ptr<driver::CompileResult>>
      Cache;
  auto It = Cache.find({Name, SpillModel});
  if (It == Cache.end()) {
    driver::CompileOptions Opts;
    Opts.Alloc.Mip.TimeLimitSeconds = 600.0;
    Opts.Alloc.ForceSpillModel = SpillModel;
    It = Cache
             .emplace(std::make_pair(Name, SpillModel),
                      driver::compileNova(Source, Name, Opts))
             .first;
  }
  return *It->second;
}

driver::CompileResult &aesApp() {
  return compiledApp("aes.nova", apps::aesNovaSource());
}
driver::CompileResult &kasumiApp() {
  return compiledApp("kasumi.nova", apps::kasumiNovaSource());
}
driver::CompileResult &natApp() {
  return compiledApp("nat.nova", apps::natNovaSource());
}

/// Runs an allocated program and returns (halt value, memory).
std::pair<uint32_t, sim::Memory>
runApp(driver::CompileResult &App, const std::vector<uint32_t> &Args,
       sim::Memory Mem) {
  sim::RunResult R = sim::runAllocated(App.Alloc.Prog, Args, Mem);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.HaltValues.size(), 1u);
  return {R.HaltValues.empty() ? 0 : R.HaltValues[0], std::move(Mem)};
}

} // namespace

//===----------------------------------------------------------------------===//
// AES
//===----------------------------------------------------------------------===//

TEST(AppAes, CompilesWithZeroSpills) {
  driver::CompileResult &App = aesApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;
  EXPECT_EQ(App.Alloc.Stats.Spills, 0u); // paper Figure 7: 0 spills
  EXPECT_TRUE(verifyAllocated(App.Alloc.Prog).empty());
}

TEST(AppAes, EncryptsOneBlockCorrectly) {
  driver::CompileResult &App = aesApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;

  sim::Memory Mem;
  apps::loadAesEnvironment(Mem);
  // Packet: IPv4-ish header (5 words) + 16-byte payload, base 0x100.
  std::vector<uint32_t> Pkt = {0x45000024, 0x12344000, 0x40110000,
                               0x0A000001, 0x0A000002,
                               // payload (one block, misaligned by the
                               // 5-word header):
                               0x00112233, 0x44556677, 0x8899AABB,
                               0xCCDDEEFF};
  apps::storePacket(Mem.Sdram, 0x100, Pkt);

  auto [Halt, Out] = runApp(App, {0x100, 0x400, 16}, Mem);

  ref::Aes128 Aes(apps::aesKey());
  auto Ct = Aes.encrypt({0x00112233, 0x44556677, 0x8899AABB, 0xCCDDEEFF});
  EXPECT_EQ(Out.Sdram[0x400], Ct[0]);
  EXPECT_EQ(Out.Sdram[0x401], Ct[1]);
  EXPECT_EQ(Out.Sdram[0x402], Ct[2]);
  EXPECT_EQ(Out.Sdram[0x403], Ct[3]);

  // Halt value = complemented folded checksum of the ciphertext.
  uint16_t Sum = ref::onesComplementSum({Ct[0], Ct[1], Ct[2], Ct[3]});
  EXPECT_EQ(Halt, static_cast<uint32_t>((~Sum) & 0xFFFF));
}

TEST(AppAes, EncryptsMultipleBlocks) {
  driver::CompileResult &App = aesApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;

  sim::Memory Mem;
  apps::loadAesEnvironment(Mem);
  std::vector<uint32_t> Pkt = {0x45000044, 0, 0, 0, 0};
  std::vector<std::array<uint32_t, 4>> Blocks;
  for (uint32_t B = 0; B != 4; ++B) {
    std::array<uint32_t, 4> Blk;
    for (uint32_t I = 0; I != 4; ++I)
      Blk[I] = 0x01010101u * (B * 4 + I + 1);
    Blocks.push_back(Blk);
    for (uint32_t W : Blk)
      Pkt.push_back(W);
  }
  apps::storePacket(Mem.Sdram, 0x200, Pkt);

  auto [Halt, Out] = runApp(App, {0x200, 0x600, 64}, Mem);
  (void)Halt;

  ref::Aes128 Aes(apps::aesKey());
  for (unsigned B = 0; B != 4; ++B) {
    auto Ct = Aes.encrypt(Blocks[B]);
    for (unsigned I = 0; I != 4; ++I)
      EXPECT_EQ(Out.Sdram[0x600 + 4 * B + I], Ct[I])
          << "block " << B << " word " << I;
  }
}

TEST(AppAes, RejectsBadLengthViaHandler) {
  driver::CompileResult &App = aesApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;
  sim::Memory Mem;
  apps::loadAesEnvironment(Mem);
  apps::storePacket(Mem.Sdram, 0x100,
                    {0x45000024, 0, 0, 0, 0, 1, 2, 3, 4});
  // Length not a multiple of 16 -> handler returns 0xFFFF0001.
  auto [Halt1, O1] = runApp(App, {0x100, 0x400, 15}, Mem);
  EXPECT_EQ(Halt1, 0xFFFF0001u);
  // Zero length -> code 2.
  auto [Halt2, O2] = runApp(App, {0x100, 0x400, 0}, Mem);
  EXPECT_EQ(Halt2, 0xFFFF0002u);
}

TEST(AppAes, RejectsNonIpv4ViaHandler) {
  driver::CompileResult &App = aesApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;
  sim::Memory Mem;
  apps::loadAesEnvironment(Mem);
  apps::storePacket(Mem.Sdram, 0x100,
                    {0x65000024, 0, 0, 0, 0, 1, 2, 3, 4}); // version 6
  auto [Halt, Out] = runApp(App, {0x100, 0x400, 16}, Mem);
  EXPECT_EQ(Halt, 0xFFFF0003u);
}

TEST(AppAes, CpsOracleAgreesWithAllocatedRun) {
  driver::CompileResult &App = aesApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;

  cps::EvalMemory EMem;
  apps::loadAesEnvironment(EMem);
  std::vector<uint32_t> Pkt = {0x45000024, 0, 0, 0, 0,
                               0xCAFEBABE, 0x01234567, 0x89ABCDEF,
                               0x0F1E2D3C};
  for (unsigned I = 0; I != Pkt.size(); ++I)
    EMem.Sdram[0x100 + I] = Pkt[I];
  cps::EvalResult Oracle =
      cps::evaluate(App.Cps, {0x100, 0x400, 16}, EMem, 100'000'000);
  ASSERT_TRUE(Oracle.Ok) << Oracle.Error;

  sim::Memory Mem;
  apps::loadAesEnvironment(Mem);
  apps::storePacket(Mem.Sdram, 0x100, Pkt);
  auto [Halt, Out] = runApp(App, {0x100, 0x400, 16}, Mem);
  EXPECT_EQ(Halt, Oracle.HaltValues[0]);
  for (auto &[Addr, Val] : EMem.Sdram)
    EXPECT_EQ(Out.Sdram[Addr], Val) << "sdram[" << Addr << "]";
}

//===----------------------------------------------------------------------===//
// Kasumi
//===----------------------------------------------------------------------===//

TEST(AppKasumi, CompilesWithZeroSpills) {
  driver::CompileResult &App = kasumiApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;
  EXPECT_EQ(App.Alloc.Stats.Spills, 0u);
  EXPECT_TRUE(verifyAllocated(App.Alloc.Prog).empty());
}

TEST(AppKasumi, EncryptsBlockCorrectly) {
  driver::CompileResult &App = kasumiApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;

  ref::Kasumi K(apps::kasumiKey());
  for (auto [Hi, Lo] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0xFEDCBA09, 0x87654321},
           {0x00000001, 0x00000000},
           {0xDEADBEEF, 0xCAFEBABE}}) {
    sim::Memory Mem;
    apps::loadKasumiEnvironment(Mem);
    Mem.Sdram[0x300] = Hi;
    Mem.Sdram[0x301] = Lo;
    auto [Halt, Out] = runApp(App, {0x300, 0x500}, Mem);
    auto [CHi, CLo] = K.encrypt(Hi, Lo);
    EXPECT_EQ(Out.Sdram[0x500], CHi);
    EXPECT_EQ(Out.Sdram[0x501], CLo);
    EXPECT_EQ(Halt, CHi ^ CLo);
  }
}

TEST(AppKasumi, EmptyBlockRaises) {
  driver::CompileResult &App = kasumiApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;
  sim::Memory Mem;
  apps::loadKasumiEnvironment(Mem);
  Mem.Sdram[0x300] = 0;
  Mem.Sdram[0x301] = 0;
  auto [Halt, Out] = runApp(App, {0x300, 0x500}, Mem);
  EXPECT_EQ(Halt, 0xFFFFFFFFu);
}

//===----------------------------------------------------------------------===//
// NAT
//===----------------------------------------------------------------------===//

namespace {

/// Builds an IPv6 header (10 words) the way the Nova program expects.
std::vector<uint32_t> ipv6Header(unsigned PayloadLen, unsigned NextHeader,
                                 unsigned HopLimit, uint32_t SrcLow,
                                 uint32_t DstLow) {
  std::vector<uint32_t> H(10, 0);
  H[0] = (6u << 28) | (2u << 24) | 0x12345; // ver=6, priority=2, flow
  H[1] = (PayloadLen << 16) | (NextHeader << 8) | HopLimit;
  H[2] = 0x20010DB8; // src address words
  H[3] = 0;
  H[4] = 0;
  H[5] = SrcLow;
  H[6] = 0x20010DB8; // dst address words
  H[7] = 0;
  H[8] = 1;
  H[9] = DstLow;
  return H;
}

} // namespace

TEST(AppNat, CompilesWithZeroSpills) {
  driver::CompileResult &App = natApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;
  EXPECT_EQ(App.Alloc.Stats.Spills, 0u);
  EXPECT_TRUE(verifyAllocated(App.Alloc.Prog).empty());
}

TEST(AppNat, TranslatesHeaderAndShiftsPayload) {
  driver::CompileResult &App = natApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;

  unsigned PayloadLen = 40; // bytes -> 10 words
  std::vector<uint32_t> Pkt =
      ipv6Header(PayloadLen, /*NextHeader=*/17, /*HopLimit=*/64,
                 0x0A000001, 0x0A000002);
  for (uint32_t I = 0; I != 10; ++I)
    Pkt.push_back(0xD0000000 + I); // payload words

  sim::Memory Mem;
  apps::storePacket(Mem.Sdram, 0x100, Pkt);
  auto [Halt, Out] = runApp(App, {0x100, 0x800}, Mem);

  // Returned total length = payload + 20.
  EXPECT_EQ(Halt, PayloadLen + 20);

  // Rebuild the expected v4 header.
  uint32_t W0 = (4u << 28) | (5u << 24) | (2u << 16) | (PayloadLen + 20);
  uint32_t W1 = (0u << 16) | (2u << 13) | 0u; // ident=0, flags=2, frag=0
  uint32_t W2 = (63u << 24) | (17u << 16);    // ttl=63, proto=17, csum=0
  uint32_t W3 = 0x0A000001, W4 = 0x0A000002;
  uint16_t Csum = ref::ipChecksum({W0, W1, W2, W3, W4});
  EXPECT_EQ(Out.Sdram[0x800], W0);
  EXPECT_EQ(Out.Sdram[0x801], W1);
  EXPECT_EQ(Out.Sdram[0x802], W2 | Csum);
  EXPECT_EQ(Out.Sdram[0x803], W3);
  EXPECT_EQ(Out.Sdram[0x804], W4);
  // The full produced header checksums to 0xFFFF.
  EXPECT_EQ(ref::onesComplementSum({Out.Sdram[0x800], Out.Sdram[0x801],
                                    Out.Sdram[0x802], Out.Sdram[0x803],
                                    Out.Sdram[0x804]}),
            0xFFFFu);
  // Payload shifted to directly after the v4 header.
  for (uint32_t I = 0; I != 10; ++I)
    EXPECT_EQ(Out.Sdram[0x805 + I], 0xD0000000 + I) << "payload " << I;
}

TEST(AppNat, ErrorPathsRaise) {
  driver::CompileResult &App = natApp();
  ASSERT_TRUE(App.Ok) << App.ErrorText;

  // Wrong version.
  {
    std::vector<uint32_t> Pkt = ipv6Header(8, 6, 10, 1, 2);
    Pkt[0] = (4u << 28);
    Pkt.resize(14, 0);
    sim::Memory Mem;
    apps::storePacket(Mem.Sdram, 0x100, Pkt);
    auto [Halt, Out] = runApp(App, {0x100, 0x800}, Mem);
    EXPECT_EQ(Halt, 0xFFFF0004u);
  }
  // Expired hop limit.
  {
    std::vector<uint32_t> Pkt = ipv6Header(8, 6, 0, 1, 2);
    Pkt.resize(14, 0);
    sim::Memory Mem;
    apps::storePacket(Mem.Sdram, 0x100, Pkt);
    auto [Halt, Out] = runApp(App, {0x100, 0x800}, Mem);
    EXPECT_EQ(Halt, 0xFFFFFFFEu);
  }
}

//===----------------------------------------------------------------------===//
// The checked-in sources
//===----------------------------------------------------------------------===//

// apps/*.nova are generated from apps::*NovaSource() (apps/README.md);
// the novac smokes compile the files and the tests the strings, so the
// two must stay byte-identical.
TEST(AppSources, CheckedInFilesMatchGenerators) {
  std::string Tests = __FILE__;
  std::string Apps = Tests.substr(0, Tests.rfind('/')) + "/../apps/";
  for (const auto &[File, Source] :
       {std::pair{"aes.nova", apps::aesNovaSource()},
        std::pair{"kasumi.nova", apps::kasumiNovaSource()},
        std::pair{"nat.nova", apps::natNovaSource()}}) {
    std::ifstream In(Apps + File, std::ios::binary);
    ASSERT_TRUE(In) << Apps + File;
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    EXPECT_TRUE(Text == Source) << File << " differs from its generator";
  }
}

//===----------------------------------------------------------------------===//
// Figure 5-style static statistics
//===----------------------------------------------------------------------===//

TEST(AppStats, ShapeMatchesPaper) {
  driver::CompileResult &Aes = aesApp();
  driver::CompileResult &Kasumi = kasumiApp();
  driver::CompileResult &Nat = natApp();
  ASSERT_TRUE(Aes.Ok && Kasumi.Ok && Nat.Ok);

  // Every app uses layouts/pack/unpack/exceptions somewhere.
  EXPECT_GE(Aes.novaStats().LayoutSpecs, 1u);
  EXPECT_GE(Aes.novaStats().RaiseCount, 3u);
  EXPECT_EQ(Aes.novaStats().HandleCount, 1u);
  EXPECT_GE(Kasumi.novaStats().RaiseCount, 2u);
  EXPECT_EQ(Kasumi.novaStats().HandleCount, 2u);
  EXPECT_EQ(Nat.novaStats().LayoutSpecs, 3u);
  EXPECT_GE(Nat.novaStats().PackCount, 1u);
  EXPECT_GE(Nat.novaStats().UnpackCount, 1u);

  // Aggregate participation (Figure 6 shape): every app reads and writes
  // through transfer banks.
  EXPECT_GT(Aes.Alloc.Stats.Build.Aggregates.DefL, 0u);
  EXPECT_GT(Aes.Alloc.Stats.Build.Aggregates.DefLD, 0u);
  EXPECT_GT(Aes.Alloc.Stats.Build.Aggregates.UseSD, 0u);
  EXPECT_GT(Kasumi.Alloc.Stats.Build.Aggregates.DefL, 0u);
  EXPECT_GT(Nat.Alloc.Stats.Build.Aggregates.DefLD, 0u);
  EXPECT_GT(Nat.Alloc.Stats.Build.Aggregates.UseSD, 0u);

  // Zero spills across the suite (paper Figure 7).
  EXPECT_EQ(Aes.Alloc.Stats.Spills, 0u);
  EXPECT_EQ(Kasumi.Alloc.Stats.Spills, 0u);
  EXPECT_EQ(Nat.Alloc.Stats.Spills, 0u);
}

//===----------------------------------------------------------------------===//
// Pinned allocated code
//===----------------------------------------------------------------------===//

namespace {

uint64_t printedHash(const driver::CompileResult &App) {
  std::string Text = App.Alloc.Prog.print();
  return fnv1a64(Text.data(), Text.size());
}

} // namespace

// Objective, move counts and instruction counts do not see register
// numbers, so only the printed code pins what register assignment chose.
// These hashes (FNV-1a-64 of AllocatedProgram::print()) equal
// `novac --dump-alloc [--spill-model]`.
TEST(AppAlloc, PrintedCodeIsPinned) {
  driver::CompileResult &AesSpill =
      compiledApp("aes.nova", apps::aesNovaSource(), /*SpillModel=*/true);
  driver::CompileResult &KasumiSpill = compiledApp(
      "kasumi.nova", apps::kasumiNovaSource(), /*SpillModel=*/true);
  driver::CompileResult &NatSpill =
      compiledApp("nat.nova", apps::natNovaSource(), /*SpillModel=*/true);
  EXPECT_EQ(printedHash(aesApp()), 0xa92371e2ffd15974ull);
  EXPECT_EQ(printedHash(kasumiApp()), 0xbb253d567b25a730ull);
  EXPECT_EQ(printedHash(natApp()), 0x3d41c3e4c082ef2full);
  EXPECT_EQ(printedHash(AesSpill), 0xc784d1e486f23584ull);
  EXPECT_EQ(printedHash(KasumiSpill), 0x6b3de0c42b289964ull);
  EXPECT_EQ(printedHash(NatSpill), 0xe58068850e4b8db5ull);
}

// Every app colors on the first attempt: no coalescing-undo split is
// needed. About 326 / 314 / 118 stays for AES / Kasumi / NAT.
TEST(AppAlloc, RegAssignColorsFirstTry) {
  for (driver::CompileResult *App : {&aesApp(), &kasumiApp(), &natApp()}) {
    ASSERT_TRUE(App->Ok) << App->ErrorText;
    const alloc::RegAssignStats &S = App->Alloc.Stats.RegAssign;
    EXPECT_EQ(S.Attempts, 1u);
    EXPECT_EQ(S.Splits, 0u);
    EXPECT_GT(S.Stays, 0u);
    EXPECT_GT(S.Edges, 0u);
  }
}

// The root LP's simplex path. Iterations, rebuilds and
// pricing passes move whenever a pivot choice does, so a change to the LP
// engine that alters the path fails here before any code hash does.
TEST(AppAlloc, RootLpPathIsPinned) {
  struct Want {
    driver::CompileResult *App;
    unsigned Iterations, Factorizations, PricingPasses;
  };
  for (const Want &W :
       {Want{&aesApp(), 3920, 63, 31}, Want{&kasumiApp(), 3597, 57, 26},
        Want{&natApp(), 2068, 33, 105}}) {
    ASSERT_TRUE(W.App->Ok) << W.App->ErrorText;
    const ilp::MipStats &S = W.App->Alloc.Stats.Solve;
    EXPECT_EQ(S.LpIterations, W.Iterations);
    EXPECT_EQ(S.Factorizations, W.Factorizations);
    EXPECT_EQ(S.PricingPasses, W.PricingPasses);
  }
}
