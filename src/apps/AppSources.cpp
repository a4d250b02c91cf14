//===- AppSources.cpp -----------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "apps/AppSources.h"

#include "ref/Aes.h"
#include "ref/Kasumi.h"

using namespace nova;
using namespace nova::apps;

std::array<uint32_t, 4> apps::aesKey() {
  return {0x00010203, 0x04050607, 0x08090A0B, 0x0C0D0E0F};
}

std::array<uint32_t, 4> apps::kasumiKey() {
  return {0x9900AABB, 0xCCDDEEFF, 0x11223344, 0x55667788};
}

//===----------------------------------------------------------------------===//
// AES Rijndael (paper Section 11)
//===----------------------------------------------------------------------===//

std::string apps::aesNovaSource() {
  return R"nova(
// AES-128 fast path: T-table encryption of the packet payload, one
// 16-byte block per loop iteration. The payload starts one word into an
// SDRAM pair (quad-word misaligned, as the paper describes), so a carry
// word threads through the block loop. Tables and the statically
// expanded key schedule live in SRAM; the cipher state stays in
// registers at all times.

layout ip_header = { ver : 4, ihl : 4, tos : 8, total_length : 16,
                     ident : 16, flags : 3, frag : 13,
                     ttl : 8, protocol : 8, checksum : 16,
                     src : 32, dst : 32 };

// Validates the payload size; jumps straight back to the caller's
// handler on the slow path (exceptions as arguments, paper Section 3.4).
fun check_block(len : word, bad : exn (word)) {
  if ((len & 15) != 0) { raise bad (1) };
  if (len == 0) { raise bad (2) };
  len >> 4
}

fun main(pkt : word, outp : word, len : word) {
  try {
    let (h0, h1, h2, h3, h4, h5) = sdram(pkt);
    let ip = unpack[ip_header]((h0, h1, h2, h3, h4));
    if (ip.ver != 4) { raise Bad (3) };
    let blocks = check_block(len, Bad);

    let (k0, k1, k2, k3) = sram(0x1500);
    let carry = h5;
    let inp = pkt + 6;
    let op = outp;
    let csum = 0;
    let b = 0;
    while (b < blocks) {
      let (p0, p1, p2, p3) = sdram(inp);
      let s0 = carry ^ k0;
      let s1 = p0 ^ k1;
      let s2 = p1 ^ k2;
      let s3 = p2 ^ k3;
      carry = p3;
      let rk = 0x1504;
      let round = 0;
      while (round < 9) {
        let (r0, r1, r2, r3) = sram(rk);
        let (a0) = sram(0x1000 + (s0 >> 24));
        let (a1) = sram(0x1100 + ((s1 >> 16) & 0xFF));
        let (a2) = sram(0x1200 + ((s2 >> 8) & 0xFF));
        let (a3) = sram(0x1300 + (s3 & 0xFF));
        let t0 = ((a0 ^ a1) ^ (a2 ^ a3)) ^ r0;
        let (b0) = sram(0x1000 + (s1 >> 24));
        let (b1) = sram(0x1100 + ((s2 >> 16) & 0xFF));
        let (b2) = sram(0x1200 + ((s3 >> 8) & 0xFF));
        let (b3) = sram(0x1300 + (s0 & 0xFF));
        let t1 = ((b0 ^ b1) ^ (b2 ^ b3)) ^ r1;
        let (c0) = sram(0x1000 + (s2 >> 24));
        let (c1) = sram(0x1100 + ((s3 >> 16) & 0xFF));
        let (c2) = sram(0x1200 + ((s0 >> 8) & 0xFF));
        let (c3) = sram(0x1300 + (s1 & 0xFF));
        let t2 = ((c0 ^ c1) ^ (c2 ^ c3)) ^ r2;
        let (d0) = sram(0x1000 + (s3 >> 24));
        let (d1) = sram(0x1100 + ((s0 >> 16) & 0xFF));
        let (d2) = sram(0x1200 + ((s1 >> 8) & 0xFF));
        let (d3) = sram(0x1300 + (s2 & 0xFF));
        let t3 = ((d0 ^ d1) ^ (d2 ^ d3)) ^ r3;
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
        rk = rk + 4;
        round = round + 1;
      }
      // Final round: SubBytes + ShiftRows + AddRoundKey.
      let (fk0, fk1, fk2, fk3) = sram(rk);
      let (e00) = sram(0x1400 + (s0 >> 24));
      let (e01) = sram(0x1400 + ((s1 >> 16) & 0xFF));
      let (e02) = sram(0x1400 + ((s2 >> 8) & 0xFF));
      let (e03) = sram(0x1400 + (s3 & 0xFF));
      let o0 = (((e00 << 24) | (e01 << 16)) | ((e02 << 8) | e03)) ^ fk0;
      let (e10) = sram(0x1400 + (s1 >> 24));
      let (e11) = sram(0x1400 + ((s2 >> 16) & 0xFF));
      let (e12) = sram(0x1400 + ((s3 >> 8) & 0xFF));
      let (e13) = sram(0x1400 + (s0 & 0xFF));
      let o1 = (((e10 << 24) | (e11 << 16)) | ((e12 << 8) | e13)) ^ fk1;
      let (e20) = sram(0x1400 + (s2 >> 24));
      let (e21) = sram(0x1400 + ((s3 >> 16) & 0xFF));
      let (e22) = sram(0x1400 + ((s0 >> 8) & 0xFF));
      let (e23) = sram(0x1400 + (s1 & 0xFF));
      let o2 = (((e20 << 24) | (e21 << 16)) | ((e22 << 8) | e23)) ^ fk2;
      let (e30) = sram(0x1400 + (s3 >> 24));
      let (e31) = sram(0x1400 + ((s0 >> 16) & 0xFF));
      let (e32) = sram(0x1400 + ((s1 >> 8) & 0xFF));
      let (e33) = sram(0x1400 + (s2 & 0xFF));
      let o3 = (((e30 << 24) | (e31 << 16)) | ((e32 << 8) | e33)) ^ fk3;

      sdram(op) <- (o0, o1);
      sdram(op + 2) <- (o2, o3);
      // Maintain the transport checksum over the ciphertext.
      csum = csum + ((o0 >> 16) + (o0 & 0xFFFF));
      csum = csum + ((o1 >> 16) + (o1 & 0xFFFF));
      csum = csum + ((o2 >> 16) + (o2 & 0xFFFF));
      csum = csum + ((o3 >> 16) + (o3 & 0xFFFF));
      inp = inp + 4;
      op = op + 4;
      b = b + 1;
    }
    csum = (csum & 0xFFFF) + (csum >> 16);
    csum = (csum & 0xFFFF) + (csum >> 16);
    (~csum) & 0xFFFF
  } handle Bad (code : word) { 0xFFFF0000 | code }
}
)nova";
}

//===----------------------------------------------------------------------===//
// Kasumi (paper Section 11)
//===----------------------------------------------------------------------===//

std::string apps::kasumiNovaSource() {
  return R"nova(
// Kasumi fast path: 8-round Feistel over one 64-bit block. S9 lives in
// SRAM, S7 in scratch; the per-round subkeys are packed two-per-word so
// one scratch read fetches all eight 16-bit subkeys of a round (the
// paper's "one scratch read ... for all the 16 subkey elements").

fun fi(x : word, ki : word) -> word {
  let (s9a) = sram(0x2000 + (x >> 7));
  let sv = x & 0x7F;
  let n1 = s9a ^ sv;
  let (s7a) = scratch(0x100 + sv);
  let v1 = s7a ^ (n1 & 0x7F);
  let v2 = v1 ^ (ki >> 9);
  let n2 = (n1 ^ ki) & 0x1FF;
  let (s9b) = sram(0x2000 + n2);
  let n3 = s9b ^ v2;
  let (s7b) = scratch(0x100 + (v2 & 0x7F));
  let v3 = s7b ^ (n3 & 0x7F);
  (v3 << 9) | (n3 & 0x1FF)
}

fun fo(x : word, ko1 : word, ko2 : word, ko3 : word,
       ki1 : word, ki2 : word, ki3 : word) -> word {
  let l0 = x >> 16;
  let r0 = x & 0xFFFF;
  let l1 = fi(l0 ^ ko1, ki1) ^ r0;
  let r1 = fi(r0 ^ ko2, ki2) ^ l1;
  let l2 = fi(l1 ^ ko3, ki3) ^ r1;
  (r1 << 16) | l2
}

fun fl(x : word, kl1 : word, kl2 : word) -> word {
  let l = x >> 16;
  let r = x & 0xFFFF;
  let t1 = l & kl1;
  let r2 = r ^ (((t1 << 1) | (t1 >> 15)) & 0xFFFF);
  let t2 = r2 | kl2;
  let l2 = l ^ (((t2 << 1) | (t2 >> 15)) & 0xFFFF);
  (l2 << 16) | r2
}

fun main(pkt : word, outp : word) {
  try {
    let (hi, lo) = sdram(pkt);
    if (hi == 0 && lo == 0) { raise Empty () };
    let l = hi;
    let r = lo;
    let kb = 0x200;
    let round = 0;
    while (round < 8) {
      let (kw0, kw1, kw2, kw3) = scratch(kb);
      let kl1 = kw0 >> 16;
      let kl2 = kw0 & 0xFFFF;
      let ko1 = kw1 >> 16;
      let ko2 = kw1 & 0xFFFF;
      let ko3 = kw2 >> 16;
      let ki1 = kw2 & 0xFFFF;
      let ki2 = kw3 >> 16;
      let ki3 = kw3 & 0xFFFF;
      let f = 0;
      if ((round & 1) == 0) {
        f = fo(fl(l, kl1, kl2), ko1, ko2, ko3, ki1, ki2, ki3);
      } else {
        f = fl(fo(l, ko1, ko2, ko3, ki1, ki2, ki3), kl1, kl2);
      }
      let nl = r ^ f;
      r = l;
      l = nl;
      kb = kb + 4;
      round = round + 1;
    }
    sdram(outp) <- (l, r);
    if ((l | r) == 0) { raise Degenerate () };
    l ^ r
  } handle Empty () { 0xFFFFFFFF }
    handle Degenerate () { 0xFFFFFFFE }
}
)nova";
}

//===----------------------------------------------------------------------===//
// IPv6 -> IPv4 NAT (paper Section 11)
//===----------------------------------------------------------------------===//

std::string apps::natNovaSource() {
  return R"nova(
// IPv6 -> IPv4 network address translation. The v6 header (40 bytes) is
// parsed with layouts, the v4 header (20 bytes) is built with pack, its
// checksum computed, and the payload shifted: the 20-byte size
// difference leaves every SDRAM pair misaligned, so a carry word threads
// through the copy loop (the paper's "start of the packet must be moved
// to a new location").

layout ipv6_address = { a1 : 32, a2 : 32, a3 : 32, a4 : 32 };

layout ipv6_header = { version : 4, priority : 4, flow_label : 24,
                       payload_length : 16, next_header : 8,
                       hop_limit : 8,
                       src_address : ipv6_address,
                       dst_address : ipv6_address };

layout ipv4_header = { version : 4, ihl : 4, tos : 8, total_length : 16,
                       ident : 16, flags : 3, frag : 13,
                       ttl : 8, protocol : 8, checksum : 16,
                       src : 32, dst : 32 };

fun main(pkt : word, outp : word) {
  try {
    let (h0, h1, h2, h3, h4, h5) = sdram(pkt);
    let (h6, h7, h8, h9) = sdram(pkt + 6);
    let v6 = unpack[ipv6_header]((h0, h1, h2, h3, h4, h5, h6, h7, h8, h9));
    if (v6.version != 6) { raise BadVersion [got = v6.version] };
    if (v6.hop_limit == 0) { raise Expired () };

    let v4len = v6.payload_length + 20;
    let p = pack[ipv4_header] [ version = 4, ihl = 5, tos = v6.priority,
                                total_length = v4len, ident = 0,
                                flags = 2, frag = 0,
                                ttl = v6.hop_limit - 1,
                                protocol = v6.next_header, checksum = 0,
                                src = v6.src_address.a4,
                                dst = v6.dst_address.a4 ];
    // RFC 1071 ones'-complement header checksum.
    let sum = (p.0 >> 16) + (p.0 & 0xFFFF);
    sum = sum + ((p.1 >> 16) + (p.1 & 0xFFFF));
    sum = sum + ((p.2 >> 16) + (p.2 & 0xFFFF));
    sum = sum + ((p.3 >> 16) + (p.3 & 0xFFFF));
    sum = sum + ((p.4 >> 16) + (p.4 & 0xFFFF));
    sum = (sum & 0xFFFF) + (sum >> 16);
    sum = (sum & 0xFFFF) + (sum >> 16);
    let w2 = p.2 | ((~sum) & 0xFFFF);

    // Emit the v4 header; the first payload word rides in the third
    // pair, and the rest is copied through a carry word.
    let (c0, c1) = sdram(pkt + 10);
    sdram(outp) <- (p.0, p.1);
    sdram(outp + 2) <- (w2, p.3);
    sdram(outp + 4) <- (p.4, c0);
    let carry = c1;
    let pairs = (v6.payload_length + 11) >> 3;
    let i = 0;
    while (i < pairs) {
      let (x0, x1) = sdram(pkt + 12 + (i << 1));
      sdram(outp + 6 + (i << 1)) <- (carry, x0);
      carry = x1;
      i = i + 1;
    }
    sdram(outp + 6 + (pairs << 1)) <- (carry, 0);
    v4len
  } handle BadVersion [got : word] { 0xFFFF0000 | got }
    handle Expired () { 0xFFFFFFFE }
}
)nova";
}

//===----------------------------------------------------------------------===//
// Memory environments
//===----------------------------------------------------------------------===//

void apps::loadAesEnvironment(MemImage &Mem) {
  const auto &Te = ref::Aes128::tables();
  for (unsigned T = 0; T != 4; ++T)
    for (unsigned I = 0; I != 256; ++I)
      Mem.Sram[MemoryMap::Te0 + T * 0x100 + I] = Te[T][I];
  for (unsigned I = 0; I != 256; ++I)
    Mem.Sram[MemoryMap::Sbox + I] = ref::Aes128::sbox()[I];
  ref::Aes128 Aes(aesKey());
  for (unsigned I = 0; I != 44; ++I)
    Mem.Sram[MemoryMap::RoundKeys + I] = Aes.roundKeys()[I];
}

void apps::loadKasumiEnvironment(MemImage &Mem) {
  for (unsigned I = 0; I != 512; ++I)
    Mem.Sram[MemoryMap::S9 + I] = ref::Kasumi::s9()[I];
  for (unsigned I = 0; I != 128; ++I)
    Mem.Scratch[MemoryMap::S7 + I] = ref::Kasumi::s7()[I];
  ref::Kasumi K(kasumiKey());
  for (unsigned R = 0; R != 8; ++R) {
    const auto &Rk = K.roundKeys()[R];
    uint32_t Base = MemoryMap::SubKeys + 4 * R;
    Mem.Scratch[Base + 0] = (static_cast<uint32_t>(Rk.KL1) << 16) | Rk.KL2;
    Mem.Scratch[Base + 1] = (static_cast<uint32_t>(Rk.KO1) << 16) | Rk.KO2;
    Mem.Scratch[Base + 2] = (static_cast<uint32_t>(Rk.KO3) << 16) | Rk.KI1;
    Mem.Scratch[Base + 3] = (static_cast<uint32_t>(Rk.KI2) << 16) | Rk.KI3;
  }
}
