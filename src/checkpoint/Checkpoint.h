//===- Checkpoint.h - Versioned checkpoint files for soak runs --*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The file format and directory policy for deterministic soak
/// checkpoints. A checkpoint file is:
///
///   u64 magic | u32 version | u64 payload-length | u64 payload-fnv1a64
///   payload := self-describing meta section + serialized run state
///
/// The meta section records everything that determines the run — app,
/// seed, exec mode, packet target, traffic mix, oracle sampling,
/// topology, fault schedule, and a digest of the allocated code — so a
/// resume can hard-fail when pointed at a snapshot of a *different* run
/// instead of silently replaying the wrong stream. The checksum seals
/// the payload against truncation (a crash mid-write) and bit rot;
/// writes are atomic (temp file + fsync + rename), so the newest file
/// in a directory is either complete or detectably torn.
///
/// Directory policy: one file per snapshot, named
/// `ckpt-<packets-retired>.nova-ckpt`. Resume scans newest-first (by
/// the retired count in the name), skips corrupt/truncated tails with a
/// typed warning, and hard-errors (StatusCode::CheckpointMismatch) when
/// a structurally valid snapshot belongs to a different run.
///
/// The serialization layer (BinWriter/BinReader, per-subsystem
/// saveState/restoreState members) lives in support and the simulation
/// libraries; this subsystem owns only files and metadata.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKPOINT_CHECKPOINT_H
#define CHECKPOINT_CHECKPOINT_H

#include "alloc/Allocated.h"
#include "support/BinIO.h"
#include "support/FaultInjection.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nova {
namespace ckpt {

/// "NOVACKPT" little-endian — eight bytes of magic at offset 0.
inline constexpr uint64_t FileMagic = 0x54504b4341564f4eull;
inline constexpr uint32_t FileVersion = 1;

/// Everything that determines a soak run, recorded in every snapshot so
/// resume can verify it is continuing the *same* run.
struct CheckpointMeta {
  std::string App;        ///< "aes" | "kasumi" | "nat"
  uint64_t Seed = 0;
  uint8_t Exec = 0;       ///< sim::ExecMode as integer
  bool Chip = false;      ///< whole-chip run vs standalone stream
  uint64_t Packets = 0;   ///< requested stream length
  uint64_t OracleEvery = 0;
  uint64_t Budget = 0;
  uint32_t Mix[5] = {0, 0, 0, 0, 0}; ///< traffic class weights
  uint32_t MeCount = 0;   ///< chip topology (zero for standalone)
  uint32_t ContextsPerMe = 0;
  uint32_t RingDepth = 0;
  uint32_t SlotStride = 0;
  FaultSchedule Faults;   ///< armed chip fault schedule
  uint64_t CodeHash = 0;  ///< digest of the allocated program
  /// Progress cursor at snapshot time (also in the filename).
  uint64_t PacketsRetired = 0;

  void save(BinWriter &W) const;
  void restore(BinReader &R);

  /// Ok when this snapshot's run-identity fields all equal \p Cur's
  /// (PacketsRetired excluded — that is progress, not identity);
  /// StatusCode::CheckpointMismatch naming the first differing field
  /// otherwise.
  Status matches(const CheckpointMeta &Cur) const;
};

/// Deterministic digest of an allocated program: folds every block,
/// instruction, operand, and the spill geometry. Two builds of the same
/// source at the same compiler settings agree; any codegen change
/// invalidates old snapshots instead of replaying them on different
/// code.
uint64_t codeHash(const alloc::AllocatedProgram &P);

/// One loaded snapshot: its metadata, the state payload positioned
/// after the meta section, and the path it came from.
struct LoadedCheckpoint {
  CheckpointMeta Meta;
  std::string Payload;  ///< full payload (meta + state)
  size_t StateOffset = 0; ///< where the state section starts in Payload
  std::string Path;
  /// Reader over the state section (valid while Payload lives).
  BinReader stateReader() const {
    return BinReader(Payload.data() + StateOffset,
                     Payload.size() - StateOffset);
  }
};

/// Atomically writes `ckpt-<retired>.nova-ckpt` under \p Dir: the meta
/// and \p State are framed, checksummed, written to a temp file,
/// fsync'd, and renamed into place. Creates \p Dir if missing.
Status writeCheckpoint(const std::string &Dir, const CheckpointMeta &Meta,
                       const std::string &State);

/// Reads and structurally validates one snapshot (magic, version,
/// length, checksum) and decodes its meta. Returns
/// StatusCode::CheckpointCorrupt on any structural failure.
Status readCheckpoint(const std::string &Path, LoadedCheckpoint &Out);

/// Scans \p Dir newest-first (highest retired count in the filename)
/// for a structurally valid snapshot. Corrupt or truncated files are
/// skipped, each recorded as a human-readable note in \p SkippedNotes
/// (when non-null). The first structurally valid snapshot must match
/// \p Expect or the scan hard-fails with CheckpointMismatch — silently
/// resuming an older snapshot of a different run is never correct.
/// With no valid snapshot at all, returns CheckpointCorrupt.
Status findLatestValid(const std::string &Dir, const CheckpointMeta &Expect,
                       LoadedCheckpoint &Out,
                       std::vector<std::string> *SkippedNotes = nullptr);

} // namespace ckpt
} // namespace nova

#endif // CHECKPOINT_CHECKPOINT_H
