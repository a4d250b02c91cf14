//===- AppSources.h - The paper's benchmark applications --------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nova sources and memory environments for the paper's three benchmark
/// programs (Section 11):
///
///  - AES Rijndael: T-table AES-128 over one 16-byte block per packet,
///    tables and the statically expanded key schedule in SRAM, state kept
///    in registers, IP header parsed via layouts and its checksum
///    maintained;
///  - Kasumi: the 3GPP cipher structure over a 64-bit block, S9 in SRAM,
///    S7 and the packed per-round subkeys in scratch (one scratch read
///    per round fetches all 8 subkey halves, as the paper describes);
///  - NAT: IPv6 -> IPv4 header translation with layout-based field
///    extraction, checksum computation, hop-limit/version error handling
///    through try/handle, and payload shifting (the 20-byte header-size
///    difference makes every SDRAM pair misaligned).
///
/// Sources are generated (the key schedules are baked in as data in
/// memory), and every program is validated bit-for-bit against the
/// reference implementations in src/ref.
///
//===----------------------------------------------------------------------===//

#ifndef APPS_APPSOURCES_H
#define APPS_APPSOURCES_H

#include "cps/Eval.h"
#include "sim/Simulator.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace nova {
namespace apps {

/// Fixed SRAM/scratch memory map of the applications (word addresses).
struct MemoryMap {
  // AES (SRAM)
  static constexpr uint32_t Te0 = 0x1000;
  static constexpr uint32_t Te1 = 0x1100;
  static constexpr uint32_t Te2 = 0x1200;
  static constexpr uint32_t Te3 = 0x1300;
  static constexpr uint32_t Sbox = 0x1400;
  static constexpr uint32_t RoundKeys = 0x1500;
  // Kasumi
  static constexpr uint32_t S9 = 0x2000;  ///< SRAM (paper: S9 in SRAM)
  static constexpr uint32_t S7 = 0x100;   ///< scratch
  static constexpr uint32_t SubKeys = 0x200; ///< scratch, 4 words/round
};

/// The fixed keys the checked-in benchmark programs use.
std::array<uint32_t, 4> aesKey();
std::array<uint32_t, 4> kasumiKey();

/// Nova source text of each application.
std::string aesNovaSource();
std::string kasumiNovaSource();
std::string natNovaSource();

/// Populates the table/key areas of a memory image (the simulators'
/// sim::Memory and the CPS evaluator's memory alike).
void loadAesEnvironment(MemImage &Mem);
void loadKasumiEnvironment(MemImage &Mem);

/// Builds an input packet in SDRAM at \p Addr: \p Payload words preceded
/// by nothing (the apps read payload directly). Word I lands at Addr + I
/// with uint32 wraparound.
inline void storePacket(WordMap &Sdram, uint32_t Addr,
                        const std::vector<uint32_t> &Words) {
  for (unsigned I = 0; I != Words.size(); ++I)
    Sdram[Addr + I] = Words[I];
}

} // namespace apps
} // namespace nova

#endif // APPS_APPSOURCES_H
