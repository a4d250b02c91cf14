//===- PacketGen.cpp - Deterministic adversarial packet generation --------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Packet I of a stream with seed S is a pure function of splitmix(S, I):
// the generator draws everything (class, lengths, fields, corruption
// site) from one Rng seeded with the per-packet seed, so a reported
// (seed, index) pair reproduces the exact packet stand-alone.
//
// Class semantics per application:
//
//           valid        truncated     oversized          corrupt
//   aes     16..256B     header cut    len >= 4800B       ver/align/len=0/bit
//   kasumi  64-bit blk   0-1 words     out at SDRAM edge  zero block (Empty)
//   nat     v6 hdr+pay   header cut    payload_length>=2K ver/hop/addr bit
//
// Fuzz draws random word soup and, one packet in eight, aims the input
// or output pointer at the SDRAM limit so in-bounds code paths walk off
// the end — the bounds-check traps, not UB.
//
//===----------------------------------------------------------------------===//

#include "soak/Soak.h"

#include "support/Rng.h"

using namespace nova;
using namespace nova::soak;

namespace {

/// Per-packet seed: one splitmix64 step over the stream seed and index,
/// decorrelating consecutive packets.
uint64_t packetSeed(uint64_t StreamSeed, uint64_t Index) {
  uint64_t Z = StreamSeed + 0x9e3779b97f4a7c15ull * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

PacketClass drawClass(Rng &R, const ClassMix &Mix) {
  unsigned Total = Mix.total();
  if (Total == 0)
    return PacketClass::Valid;
  uint64_t D = R.below(Total);
  if (D < Mix.Valid)
    return PacketClass::Valid;
  D -= Mix.Valid;
  if (D < Mix.Truncated)
    return PacketClass::Truncated;
  D -= Mix.Truncated;
  if (D < Mix.Oversized)
    return PacketClass::Oversized;
  D -= Mix.Oversized;
  if (D < Mix.Corrupt)
    return PacketClass::Corrupt;
  return PacketClass::Fuzz;
}

void fillRandom(Rng &R, std::vector<uint32_t> &W, unsigned N) {
  W.resize(N);
  for (unsigned I = 0; I != N; ++I)
    W[I] = static_cast<uint32_t>(R.next());
}

/// PacketTemplateCache::PrimedFor tags, one per generator.
enum { TmplAes = 0, TmplKasumi = 1, TmplNat = 2 };

/// Installs the app's constant argument skeleton in \p Cache (once per
/// (app, stream)) and copies it into \p P, reusing P's buffer. Varying
/// fields are patched by the caller.
void stampArgs(PacketTemplateCache &Cache, int Tag,
               std::initializer_list<uint32_t> Skeleton, SoakPacket &P) {
  if (Cache.PrimedFor != Tag) {
    Cache.Args = Skeleton;
    Cache.PrimedFor = Tag;
  }
  P.Args = Cache.Args;
}

/// AES calling convention: {pkt, outp, len}; packet = 6 header words
/// (IPv4-ish, version nibble must be 4) followed by len bytes of payload.
void genAes(Rng &R, PacketClass C, const sim::MemLimits &Lim,
            PacketTemplateCache &Cache, SoakPacket &P) {
  constexpr uint32_t In = 0x100, Out = 0x400;
  uint32_t Len = 16 * static_cast<uint32_t>(R.range(1, 16));
  auto header = [&](std::vector<uint32_t> &W) {
    W.resize(6);
    W[0] = 0x45000000u | ((20 + Len) & 0xFFFF);
    for (unsigned I = 1; I != 6; ++I)
      W[I] = static_cast<uint32_t>(R.next());
  };
  stampArgs(Cache, TmplAes, {In, Out, 0}, P);
  P.Args[2] = Len;
  P.PayloadBytes = Len;
  switch (C) {
  case PacketClass::Valid: {
    header(P.Words);
    for (unsigned I = 0; I != Len / 4; ++I)
      P.Words.push_back(static_cast<uint32_t>(R.next()));
    break;
  }
  case PacketClass::Truncated: {
    // Header cut mid-way: the missing words read as zero, so the version
    // nibble is 0 for empty stores and the app rejects.
    std::vector<uint32_t> &Full = Cache.Scratch;
    header(Full);
    Full.resize(R.below(6));
    P.Words = Full;
    P.PayloadBytes = static_cast<unsigned>(P.Words.size() * 4);
    break;
  }
  case PacketClass::Oversized: {
    // A length field far beyond the stored payload: hundreds to
    // thousands of blocks, which exhausts the instruction budget.
    Len = 16 * static_cast<uint32_t>(R.range(300, 16384));
    P.Args[2] = Len;
    P.PayloadBytes = Len;
    header(P.Words);
    P.Words[0] = 0x45000000u | ((20 + Len) & 0xFFFF);
    break;
  }
  case PacketClass::Corrupt: {
    header(P.Words);
    for (unsigned I = 0; I != Len / 4; ++I)
      P.Words.push_back(static_cast<uint32_t>(R.next()));
    switch (R.below(4)) {
    case 0: // wrong IP version -> raise Bad(3)
      P.Words[0] = (P.Words[0] & 0x0FFFFFFF) |
                   (static_cast<uint32_t>(R.range(0, 3)) << 28);
      break;
    case 1: // misaligned length -> raise Bad(1)
      P.Args[2] = Len + static_cast<uint32_t>(R.range(1, 15));
      break;
    case 2: // zero length -> raise Bad(2)
      P.Args[2] = 0;
      break;
    default: // payload bit flip: delivered, ciphertext just differs
      if (P.Words.size() > 6)
        P.Words[6 + R.below(P.Words.size() - 6)] ^=
            1u << R.below(32);
      break;
    }
    break;
  }
  case PacketClass::Fuzz: {
    fillRandom(R, P.Words, static_cast<unsigned>(R.below(41)));
    P.Args[2] = static_cast<uint32_t>(R.below(513));
    if (R.chance(1, 8)) // input pointer at the SDRAM edge
      P.Args[0] = Lim.SdramWords - static_cast<uint32_t>(R.below(8));
    if (R.chance(1, 8)) // output pointer at the SDRAM edge
      P.Args[1] = Lim.SdramWords - static_cast<uint32_t>(R.below(8));
    P.PayloadBytes = static_cast<unsigned>(P.Words.size() * 4);
    break;
  }
  }
}

/// Kasumi calling convention: {pkt, outp}; packet = one 64-bit block.
void genKasumi(Rng &R, PacketClass C, const sim::MemLimits &Lim,
               PacketTemplateCache &Cache, SoakPacket &P) {
  constexpr uint32_t In = 0x300, Out = 0x500;
  stampArgs(Cache, TmplKasumi, {In, Out}, P);
  P.PayloadBytes = 8;
  uint32_t Hi = static_cast<uint32_t>(R.next());
  uint32_t Lo = static_cast<uint32_t>(R.next());
  if (Hi == 0 && Lo == 0)
    Hi = 1; // all-zero blocks belong to the Corrupt class
  switch (C) {
  case PacketClass::Valid:
    P.Words.assign({Hi, Lo});
    break;
  case PacketClass::Truncated:
    // 0 or 1 stored words; the absent half reads as zero.
    P.Words.assign(R.below(2), Hi);
    P.PayloadBytes = static_cast<unsigned>(P.Words.size() * 4);
    break;
  case PacketClass::Oversized:
    // The block is fine but the output buffer sits on the SDRAM edge:
    // the second output word lands out of range in every mode.
    P.Words.assign({Hi, Lo});
    P.Args[1] = Lim.SdramWords - 1;
    break;
  case PacketClass::Corrupt:
    P.Words.assign({0u, 0u}); // raise Empty -> 0xFFFFFFFF
    break;
  case PacketClass::Fuzz:
    fillRandom(R, P.Words, static_cast<unsigned>(R.below(5)));
    if (R.chance(1, 8))
      P.Args[0] = Lim.SdramWords - static_cast<uint32_t>(R.below(4));
    P.PayloadBytes = static_cast<unsigned>(P.Words.size() * 4);
    break;
  }
}

/// NAT calling convention: {pkt, outp}; packet = 10-word IPv6 header,
/// then the payload the copy loop shifts (c0, c1, then word pairs).
void genNat(Rng &R, PacketClass C, const sim::MemLimits &Lim,
            PacketTemplateCache &Cache, SoakPacket &P) {
  constexpr uint32_t In = 0x100, Out = 0x800;
  stampArgs(Cache, TmplNat, {In, Out}, P);
  uint32_t PayLen = 8 * static_cast<uint32_t>(R.below(33)); // 0..256 bytes
  auto header = [&](std::vector<uint32_t> &W, uint32_t Pl) {
    W.resize(10);
    W[0] = (6u << 28) | (static_cast<uint32_t>(R.below(16)) << 24) |
           static_cast<uint32_t>(R.below(1u << 24));
    uint32_t Nh = R.chance(1, 2) ? 6 : 17; // TCP or UDP
    uint32_t Hop = static_cast<uint32_t>(R.range(1, 64));
    W[1] = (Pl << 16) | (Nh << 8) | Hop;
    for (unsigned I = 2; I != 10; ++I)
      W[I] = static_cast<uint32_t>(R.next());
  };
  P.PayloadBytes = PayLen + 40;
  switch (C) {
  case PacketClass::Valid: {
    header(P.Words, PayLen);
    // c0, c1 and the pairs the copy loop reads.
    uint32_t Pairs = (PayLen + 11) >> 3;
    for (unsigned I = 0; I != 2 + 2 * Pairs; ++I)
      P.Words.push_back(static_cast<uint32_t>(R.next()));
    break;
  }
  case PacketClass::Truncated: {
    std::vector<uint32_t> &Full = Cache.Scratch;
    header(Full, PayLen);
    Full.resize(R.below(10));
    P.Words = Full;
    P.PayloadBytes = static_cast<unsigned>(P.Words.size() * 4);
    break;
  }
  case PacketClass::Oversized: {
    // payload_length in the kilobytes: the copy loop runs hundreds to
    // thousands of pairs over absent (zero) payload words and the big
    // ones trip the watchdog.
    PayLen = static_cast<uint32_t>(R.range(2048, 65535));
    header(P.Words, PayLen);
    P.PayloadBytes = PayLen + 40;
    break;
  }
  case PacketClass::Corrupt: {
    header(P.Words, PayLen);
    uint32_t Pairs = (PayLen + 11) >> 3;
    for (unsigned I = 0; I != 2 + 2 * Pairs; ++I)
      P.Words.push_back(static_cast<uint32_t>(R.next()));
    switch (R.below(3)) {
    case 0: // wrong version -> raise BadVersion
      P.Words[0] = (P.Words[0] & 0x0FFFFFFF) |
                   (static_cast<uint32_t>(R.range(0, 5)) << 28);
      break;
    case 1: // hop limit 0 -> raise Expired
      P.Words[1] &= ~0xFFu;
      break;
    default: // address bit flip: delivered, header just differs
      P.Words[2 + R.below(8)] ^= 1u << R.below(32);
      break;
    }
    break;
  }
  case PacketClass::Fuzz: {
    fillRandom(R, P.Words, static_cast<unsigned>(R.below(25)));
    if (R.chance(1, 8))
      P.Args[0] = Lim.SdramWords - static_cast<uint32_t>(R.below(12));
    if (R.chance(1, 8))
      P.Args[1] = Lim.SdramWords - static_cast<uint32_t>(R.below(12));
    P.PayloadBytes = static_cast<unsigned>(P.Words.size() * 4);
    break;
  }
  }
}

} // namespace

const char *soak::packetClassName(PacketClass C) {
  switch (C) {
  case PacketClass::Valid:     return "valid";
  case PacketClass::Truncated: return "truncated";
  case PacketClass::Oversized: return "oversized";
  case PacketClass::Corrupt:   return "corrupt";
  case PacketClass::Fuzz:      return "fuzz";
  }
  return "?";
}

SoakPacket AppHarness::generate(uint64_t Index, uint64_t StreamSeed,
                                const ClassMix &Mix) const {
  SoakPacket P;
  PacketTemplateCache Cache;
  generateInto(Index, StreamSeed, Mix, Cache, P);
  return P;
}

void AppHarness::generateInto(uint64_t Index, uint64_t StreamSeed,
                              const ClassMix &Mix,
                              PacketTemplateCache &Cache,
                              SoakPacket &P) const {
  // Every generator path fully rewrites Words, Args, and PayloadBytes,
  // so a reused P carries no state between packets.
  P.Index = Index;
  P.Seed = packetSeed(StreamSeed, Index);
  Rng R(P.Seed);
  P.Class = drawClass(R, Mix);
  switch (Id) {
  case AppId::Aes:
    genAes(R, P.Class, Base.Limits, Cache, P);
    break;
  case AppId::Kasumi:
    genKasumi(R, P.Class, Base.Limits, Cache, P);
    break;
  case AppId::Nat:
    genNat(R, P.Class, Base.Limits, Cache, P);
    break;
  }
}

void AppHarness::generateBatch(uint64_t FirstIndex, uint64_t Count,
                               uint64_t StreamSeed, const ClassMix &Mix,
                               PacketTemplateCache &Cache,
                               std::vector<SoakPacket> &Out) const {
  if (Out.size() < Count)
    Out.resize(Count);
  for (uint64_t K = 0; K != Count; ++K)
    generateInto(FirstIndex + K, StreamSeed, Mix, Cache, Out[K]);
}
