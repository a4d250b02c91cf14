//===- Checkpoint.cpp - Versioned checkpoint files for soak runs ----------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "checkpoint/Checkpoint.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace nova;
using namespace nova::ckpt;

//===----------------------------------------------------------------------===//
// Meta
//===----------------------------------------------------------------------===//

namespace {

template <class Ar, class Self> void metaFields(Ar &A, Self &M) {
  io(A, M.App, M.Seed, M.Exec, M.Chip, M.Packets, M.OracleEvery, M.Budget);
  fixed(A, M.Mix);
  io(A, M.MeCount, M.ContextsPerMe, M.RingDepth, M.SlotStride);
  counted<uint64_t>(A, M.Faults, [](auto &Io, auto &E) {
    io(Io, E.Kind, E.Rate, E.Magnitude);
  });
  io(A, M.CodeHash, M.PacketsRetired);
}

} // namespace

void CheckpointMeta::save(BinWriter &W) const { metaFields(W, *this); }
void CheckpointMeta::restore(BinReader &R) { metaFields(R, *this); }

static Status mismatch(const std::string &Field) {
  return Status::error(StatusCode::CheckpointMismatch, Phase::Driver,
                       "checkpoint belongs to a different run: " + Field +
                           " differs from the current invocation")
      .addHint("point --resume at the directory of the matching run, or "
               "delete the stale checkpoints");
}

Status CheckpointMeta::matches(const CheckpointMeta &Cur) const {
  if (App != Cur.App)
    return mismatch("app");
  if (Seed != Cur.Seed)
    return mismatch("seed");
  if (Exec != Cur.Exec)
    return mismatch("exec mode");
  if (Chip != Cur.Chip)
    return mismatch("chip/standalone mode");
  if (Packets != Cur.Packets)
    return mismatch("packet target");
  if (OracleEvery != Cur.OracleEvery)
    return mismatch("oracle sampling rate");
  if (Budget != Cur.Budget)
    return mismatch("instruction budget");
  for (unsigned I = 0; I != 5; ++I)
    if (Mix[I] != Cur.Mix[I])
      return mismatch("traffic mix");
  if (MeCount != Cur.MeCount || ContextsPerMe != Cur.ContextsPerMe ||
      RingDepth != Cur.RingDepth || SlotStride != Cur.SlotStride)
    return mismatch("chip topology");
  if (Faults.size() != Cur.Faults.size())
    return mismatch("fault schedule");
  for (size_t I = 0; I != Faults.size(); ++I)
    if (Faults[I].Kind != Cur.Faults[I].Kind ||
        Faults[I].Rate != Cur.Faults[I].Rate ||
        Faults[I].Magnitude != Cur.Faults[I].Magnitude)
      return mismatch("fault schedule");
  if (CodeHash != Cur.CodeHash)
    return mismatch("allocated code hash");
  return Status();
}

uint64_t ckpt::codeHash(const alloc::AllocatedProgram &P) {
  BinWriter W;
  W.u32(P.Entry);
  W.u32(P.NumEntryArgs);
  W.u32(P.SpillBase);
  W.u32(P.NumSpillSlots);
  W.u64(P.Blocks.size());
  for (const alloc::AllocBlock &B : P.Blocks) {
    W.u64(B.Instrs.size());
    for (const alloc::AllocInstr &I : B.Instrs) {
      W.u8(static_cast<uint8_t>(I.Op));
      W.u8(static_cast<uint8_t>(I.Alu));
      W.u8(static_cast<uint8_t>(I.Cmp));
      W.u8(static_cast<uint8_t>(I.Space));
      W.u32(I.Imm);
      W.u32(I.Target);
      W.u32(I.TargetElse);
      W.b(I.Inserted);
      W.u64(I.Srcs.size());
      for (const alloc::AOperand &O : I.Srcs) {
        W.b(O.IsConst);
        W.u8(static_cast<uint8_t>(O.Loc.B));
        W.u32(O.Loc.Reg);
        W.u32(O.Value);
      }
      W.u64(I.Dsts.size());
      for (const alloc::PhysLoc &D : I.Dsts) {
        W.u8(static_cast<uint8_t>(D.B));
        W.u32(D.Reg);
      }
    }
  }
  return fnv1a64(W.bytes().data(), W.bytes().size());
}

//===----------------------------------------------------------------------===//
// File IO
//===----------------------------------------------------------------------===//

static Status ioError(const std::string &What) {
  return Status::error(StatusCode::IoError, Phase::Driver,
                       What + ": " + std::strerror(errno));
}

static Status corrupt(const std::string &Path, const std::string &Why) {
  return Status::error(StatusCode::CheckpointCorrupt, Phase::Driver,
                       "checkpoint " + Path + ": " + Why);
}

Status ckpt::writeCheckpoint(const std::string &Dir,
                             const CheckpointMeta &Meta,
                             const std::string &State) {
  if (mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    return ioError("mkdir " + Dir);

  BinWriter Payload;
  Meta.save(Payload);
  std::string Body = Payload.take();
  Body += State;

  BinWriter Header;
  Header.u64(FileMagic);
  Header.u32(FileVersion);
  Header.u64(Body.size());
  Header.u64(fnv1a64(Body.data(), Body.size()));

  std::string Final =
      Dir + formatf("/ckpt-%llu.nova-ckpt",
                    (unsigned long long)Meta.PacketsRetired);
  std::string Tmp = Final + ".tmp";

  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return ioError("open " + Tmp);
  auto WriteAll = [&](const std::string &S) {
    size_t Off = 0;
    while (Off < S.size()) {
      ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  };
  if (!WriteAll(Header.bytes()) || !WriteAll(Body)) {
    Status S = ioError("write " + Tmp);
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return S;
  }
  // Seal the snapshot: data to disk before the rename makes it visible,
  // so the newest `ckpt-*.nova-ckpt` is never a torn write.
  if (::fsync(Fd) != 0) {
    Status S = ioError("fsync " + Tmp);
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return S;
  }
  ::close(Fd);
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    Status S = ioError("rename " + Tmp);
    ::unlink(Tmp.c_str());
    return S;
  }
  return Status();
}

Status ckpt::readCheckpoint(const std::string &Path, LoadedCheckpoint &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return corrupt(Path, "cannot open");
  std::string Raw;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Raw.append(Buf, N);
  std::fclose(F);

  BinReader R(Raw);
  uint64_t Magic = R.u64();
  uint32_t Version = R.u32();
  uint64_t Len = R.u64();
  uint64_t Sum = R.u64();
  if (R.failed() || Magic != FileMagic)
    return corrupt(Path, "bad magic (not a checkpoint file)");
  if (Version != FileVersion)
    return corrupt(Path,
                   formatf("unsupported version %u (expected %u)", Version,
                           FileVersion));
  if (Len != R.remaining())
    return corrupt(Path, formatf("truncated: header says %llu payload "
                                 "bytes, file has %llu",
                                 (unsigned long long)Len,
                                 (unsigned long long)R.remaining()));
  size_t HeaderSize = Raw.size() - R.remaining();
  if (fnv1a64(Raw.data() + HeaderSize, static_cast<size_t>(Len)) != Sum)
    return corrupt(Path, "payload checksum mismatch");

  Out.Payload = Raw.substr(HeaderSize);
  BinReader Meta(Out.Payload);
  Out.Meta.restore(Meta);
  if (Meta.failed())
    return corrupt(Path, "malformed meta section");
  Out.StateOffset = Out.Payload.size() - Meta.remaining();
  Out.Path = Path;
  return Status();
}

Status ckpt::findLatestValid(const std::string &Dir,
                             const CheckpointMeta &Expect,
                             LoadedCheckpoint &Out,
                             std::vector<std::string> *SkippedNotes) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Status::error(StatusCode::CheckpointCorrupt, Phase::Driver,
                         "checkpoint directory " + Dir + ": " +
                             std::strerror(errno));
  // Collect (retired, name) for every well-formed filename; newest
  // (largest retired count) first.
  std::vector<std::pair<uint64_t, std::string>> Files;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    unsigned long long Retired;
    char Tail;
    if (std::sscanf(Name.c_str(), "ckpt-%llu.nova-ckp%c", &Retired, &Tail) ==
            2 &&
        Tail == 't' && Name == formatf("ckpt-%llu.nova-ckpt", Retired))
      Files.emplace_back(Retired, Name);
  }
  ::closedir(D);
  std::sort(Files.begin(), Files.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });

  for (const auto &[Retired, Name] : Files) {
    LoadedCheckpoint LC;
    Status S = readCheckpoint(Dir + "/" + Name, LC);
    if (!S.ok()) {
      // A torn tail (crash mid-write survives only as a stale .tmp, but
      // bit rot or manual truncation can corrupt any file): warn, skip,
      // keep scanning older snapshots.
      if (SkippedNotes)
        SkippedNotes->push_back(S.message());
      continue;
    }
    // The newest structurally valid snapshot decides: a meta mismatch
    // is a hard error, never a silent fall-through to an older file.
    if (Status M = LC.Meta.matches(Expect); !M.ok())
      return M;
    Out = std::move(LC);
    return Status();
  }
  return Status::error(StatusCode::CheckpointCorrupt, Phase::Driver,
                       "no valid checkpoint found in " + Dir)
      .addHint("every candidate file was corrupt, truncated, or absent");
}
