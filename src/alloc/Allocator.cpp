//===- Allocator.cpp - ILP-based register/bank allocator -------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "alloc/Allocator.h"

#include "alloc/Baseline.h"
#include "alloc/Verifier.h"
#include "ixp/Frequency.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>

using namespace nova;
using namespace nova::alloc;
using namespace nova::ixp;

namespace {

//===----------------------------------------------------------------------===//
// Register assignment within banks
//===----------------------------------------------------------------------===//

/// Assigns register numbers to every bank residency the ILP decided.
/// The unit of assignment is a *stay*: a maximal region of segments over
/// which a value remains in one bank (segments joined by identity moves,
/// and clone starts joined to their original — co-located clones share a
/// register, paper Section 10). Color-critical temps carry their ILP
/// transfer-bank colors as precolors; entry parameters are precolored to
/// A0..A(n-1); everything else is colored greedily with an
/// optimistic-coalescing preference for Move endpoints (Section 9's
/// Park-Moon flavour). The ILP's K/capacity constraints keep the greedy
/// feasible in practice.
class RegColoring {
public:
  RegColoring(const MachineProgram &M, const PointMap &Points,
              const AllocModel &Model, const BankAnalysis &Banks,
              const std::vector<double> &X)
      : M(M), Points(Points), Model(Model), Banks(Banks), X(X) {}

  bool run(std::string &Error) {
    Timer Clock;
    bool Ok = colorWithSplits(Error);
    Stats.Seconds = Clock.seconds();
    return Ok;
  }

  const RegAssignStats &stats() const { return Stats; }

  /// Identity moves turned into real copies by coalescing undo; the
  /// extractor emits a same-bank Move there.
  const std::map<std::pair<PointId, Temp>, bool> &splits() const {
    return SplitCandidates;
  }

  bool isSplit(PointId P, Temp V) const {
    auto It = SplitCandidates.find({P, V});
    return It != SplitCandidates.end() && It->second;
  }

  /// Register of temp \p V resident in \p B at point \p P (side: false =
  /// before the point's moves, true = after).
  uint16_t regOf(Temp V, Bank B, PointId P, bool AfterSide) const {
    uint32_t C = Model.segmentOf(P, V, AfterSide);
    auto It = VertexOfClass.find(C);
    assert(It != VertexOfClass.end() && "no stay for this residency");
    uint16_t R = Reg[findRoot(It->second)];
    assert(R != NoReg && "stay was not colored");
    (void)B;
    return R;
  }

private:
  static constexpr uint16_t NoReg = 0xFFFF;

  struct Vertex {
    Bank B = Bank::A;
    Temp AnyTemp = 0;
    Temp CloneRep = 0;
    int Precolor = -1;
  };

  bool colorWithSplits(std::string &Error) {
    // Optimistic coalescing with undo: identity-move joins are coalesced
    // first; if coloring gets stuck, the failing stay is split back at
    // its joins and an extra register-register copy is emitted there
    // (the paper keeps an A register free for exactly this, Section 6).
    for (unsigned Attempt = 0; Attempt != 64; ++Attempt) {
      ++Stats.Attempts;
      reset();
      collectSlots();
      uniteIdentityMoves();
      uniteCloneStarts();
      applyPrecolors();
      buildAffinities();
      buildInterference();
      Temp FailedTemp = ~0u;
      if (color(Error, FailedTemp))
        return true;
      if (FailedTemp == ~0u)
        return false; // precolor conflict: nothing to split
      // Split every identity join of the failing temp and retry.
      bool AnySplit = false;
      for (auto &[Key, IsSplit] : SplitCandidates)
        if (Key.second == FailedTemp && !IsSplit) {
          IsSplit = true;
          AnySplit = true;
          ++Stats.Splits;
        }
      if (!AnySplit)
        return false; // already fully split: genuine failure
    }
    return false;
  }

  uint32_t vertexOf(uint32_t Class, Temp V, Bank B) {
    auto It = VertexOfClass.find(Class);
    if (It != VertexOfClass.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Vertices.size());
    VertexOfClass.emplace(Class, Id);
    Parent.push_back(Id);
    Vertex Vx;
    Vx.B = B;
    Vx.AnyTemp = V;
    Vx.CloneRep = Banks.cloneRep(V);
    Vertices.push_back(std::move(Vx));
    return Id;
  }

  uint32_t findRoot(uint32_t Id) const {
    while (Parent[Id] != Id)
      Id = Parent[Id] = Parent[Parent[Id]];
    return Id;
  }

  void unite(uint32_t A, uint32_t B) {
    A = findRoot(A);
    B = findRoot(B);
    if (A == B)
      return;
    Parent[B] = A;
    if (Vertices[A].Precolor < 0)
      Vertices[A].Precolor = Vertices[B].Precolor;
  }

  void collectSlots() {
    for (PointId P = 0; P != Points.numPoints(); ++P)
      for (Temp V : Points.existsAt(P))
        for (unsigned Side = 0; Side != 2; ++Side) {
          Bank B = Model.bankAt(X, P, V, Side != 0);
          if (B == Bank::M || B == Bank::C)
            continue;
          uint32_t C = Model.segmentOf(P, V, Side != 0);
          Slots.emplace_back(vertexOf(C, V, B), (P << 1) | Side);
        }
  }

  void reset() {
    VertexOfClass.clear();
    Parent.clear();
    Vertices.clear();
    Slots.clear();
    Reg.clear();
    Affinities.clear();
    Adj.clear();
  }

  void uniteIdentityMoves() {
    // A move opportunity where the bank does not change keeps the value
    // in place: the surrounding segments form one stay — unless a prior
    // coloring failure marked this join as split.
    for (PointId P = 0; P != Points.numPoints(); ++P)
      for (Temp V : Points.existsAt(P)) {
        if (!Model.isMovePoint(P, V))
          continue;
        auto Pair = Model.chosenMovePair(X, P, V);
        if (!Pair || Pair->first != Pair->second)
          continue;
        if (Pair->first == Bank::M || Pair->first == Bank::C)
          continue;
        auto It = SplitCandidates.find({P, V});
        if (It == SplitCandidates.end())
          It = SplitCandidates.emplace(std::make_pair(P, V), false).first;
        if (It->second)
          continue; // split: the two sides stay separate stays
        unite(vertexOf(Model.segmentOf(P, V, false), V, Pair->first),
              vertexOf(Model.segmentOf(P, V, true), V, Pair->first));
      }
  }

  void uniteCloneStarts() {
    // A clone starts in the same register as its original, in any bank
    // (paper Section 10: co-located clones occupy one register).
    for (const Block &Blk : M.Blocks)
      for (unsigned I = 0; I != Blk.Instrs.size(); ++I) {
        const MachineInstr &MI = Blk.Instrs[I];
        if (MI.Op != MOp::Clone || MI.Srcs[0].IsConst)
          continue;
        PointId P1 = Points.pointAt(Blk.Id, I);
        Temp S = MI.Srcs[0].T;
        Bank SB = Model.bankAt(X, P1, S, /*AfterSide=*/true);
        if (SB == Bank::M || SB == Bank::C)
          continue;
        for (Temp D : MI.Dsts) {
          Bank DB = Model.bankAt(X, P1 + 1, D, /*AfterSide=*/false);
          if (DB != SB)
            continue; // the model forbids this; stay safe anyway
          unite(vertexOf(Model.segmentOf(P1, S, true), S, SB),
                vertexOf(Model.segmentOf(P1 + 1, D, false), D, DB));
        }
      }
  }

  void applyPrecolors() {
    // ILP transfer-bank colors are point-independent per temp: every stay
    // of the temp in that bank takes the same register.
    for (auto &[Class, Id] : VertexOfClass) {
      Vertex &Root = Vertices[findRoot(Id)];
      if (!isTransferBank(Root.B))
        continue;
      Temp V = Vertices[Id].AnyTemp;
      if (auto C = Model.colorOf(X, V, Root.B))
        Root.Precolor = static_cast<int>(*C);
    }
    // ABI: entry parameters arrive in A0..A(n-1).
    if (M.Entry != NoBlock) {
      PointId P0 = Points.entryPoint(M.Entry);
      for (unsigned I = 0; I != M.EntryParams.size(); ++I) {
        Temp Param = M.EntryParams[I];
        if (!Points.exists(P0, Param))
          continue;
        uint32_t C = Model.segmentOf(P0, Param, /*AfterSide=*/false);
        auto It = VertexOfClass.find(C);
        if (It != VertexOfClass.end())
          Vertices[findRoot(It->second)].Precolor = static_cast<int>(I);
      }
    }
  }

  void buildAffinities() {
    // Move instructions whose endpoints land in the same GP bank want
    // the same register (the move then coalesces into a no-op).
    for (const Block &Blk : M.Blocks)
      for (unsigned I = 0; I != Blk.Instrs.size(); ++I) {
        const MachineInstr &MI = Blk.Instrs[I];
        if (MI.Op != MOp::Move || MI.Srcs[0].IsConst)
          continue;
        PointId P1 = Points.pointAt(Blk.Id, I);
        Bank SB = Model.bankAt(X, P1, MI.Srcs[0].T, /*AfterSide=*/true);
        Bank DB = Model.bankAt(X, P1 + 1, MI.Dsts[0], /*AfterSide=*/false);
        if (SB == DB && (SB == Bank::A || SB == Bank::B))
          Affinities.emplace_back(
              findRoot(vertexOf(Model.segmentOf(P1, MI.Srcs[0].T, true),
                                MI.Srcs[0].T, SB)),
              findRoot(vertexOf(Model.segmentOf(P1 + 1, MI.Dsts[0], false),
                                MI.Dsts[0], DB)));
      }
  }

  /// Builds the interference graph over root stays. Two stays interfere
  /// iff they share a residency key (point << 1 | side), sit in the same
  /// bank, and do not hold one clone set's value (sharing is legal then).
  void buildInterference() {
    // One (stay, key) slot per key a root stay occupies, grouped by stay.
    for (auto &[Id, Key] : Slots)
      Id = findRoot(Id);
    std::sort(Slots.begin(), Slots.end());
    Slots.erase(std::unique(Slots.begin(), Slots.end()), Slots.end());

    // Stays resident at each key, in root order.
    std::vector<uint32_t> Begin(2 * Points.numPoints() + 1, 0);
    for (auto &[Id, Key] : Slots)
      ++Begin[Key + 1];
    for (size_t K = 1; K != Begin.size(); ++K)
      Begin[K] += Begin[K - 1];
    std::vector<uint32_t> StaysAt(Slots.size());
    std::vector<uint32_t> Fill(Begin.begin(), Begin.end() - 1);
    for (auto &[Id, Key] : Slots)
      StaysAt[Fill[Key]++] = Id;

    // Slots arrive grouped by stay U, so Seen[V] == U means the pair
    // (U, V) was already tested: every edge is emitted once.
    Adj.assign(Vertices.size(), {});
    Stats.Edges = 0;
    std::vector<uint32_t> Seen(Vertices.size(), ~0u);
    for (auto &[U, Key] : Slots)
      for (uint32_t I = Begin[Key]; I != Begin[Key + 1]; ++I) {
        uint32_t V = StaysAt[I];
        if (V <= U || Seen[V] == U)
          continue;
        Seen[V] = U;
        if (Vertices[U].B != Vertices[V].B ||
            Vertices[U].CloneRep == Vertices[V].CloneRep)
          continue;
        Adj[U].push_back(V);
        Adj[V].push_back(U);
        ++Stats.Edges;
      }
  }

  bool color(std::string &Error, Temp &FailedTemp) {
    std::vector<uint32_t> Roots;
    for (uint32_t Id = 0; Id != Vertices.size(); ++Id)
      if (findRoot(Id) == Id)
        Roots.push_back(Id);
    Stats.Stays = Roots.size();
    Reg.assign(Vertices.size(), NoReg);

    // A has 16 physical registers; the ILP's K row admits only 15
    // simultaneous residents, so the 16th register is the slack the
    // paper reserves for optimistic-coalescing repair and copy cycles
    // (Section 6). The parallel-copy sequencer picks whatever register
    // is free at its point.
    auto Capacity = [&](Bank B) -> unsigned {
      return B == Bank::B || B == Bank::A ? 16 : 8;
    };
    auto TryAssign = [&](uint32_t Id) -> bool {
      Vertex &Vx = Vertices[Id];
      uint16_t Used = 0; // bit R: a colored neighbour holds register R
      for (uint32_t Other : Adj[Id])
        if (Reg[Other] != NoReg)
          Used |= static_cast<uint16_t>(1u << Reg[Other]);
      auto IsUsed = [&](uint16_t R) { return (Used >> R) & 1u; };
      if (Vx.Precolor >= 0) {
        assert(Vx.Precolor < 16 && "precolor outside the register file");
        if (IsUsed(static_cast<uint16_t>(Vx.Precolor))) {
          Error = formatf("register assignment: precolored %s%d of %s "
                          "conflicts",
                          bankName(Vx.B), Vx.Precolor,
                          M.tempName(Vx.AnyTemp).c_str());
          return false;
        }
        Reg[Id] = static_cast<uint16_t>(Vx.Precolor);
        return true;
      }
      // Affinity preference (optimistic coalescing of Move endpoints).
      for (auto &[R1, R2] : Affinities) {
        uint32_t Other = findRoot(R1) == Id   ? findRoot(R2)
                         : findRoot(R2) == Id ? findRoot(R1)
                                              : ~0u;
        if (Other == ~0u || Vertices[Other].B != Vx.B)
          continue;
        if (Reg[Other] != NoReg && !IsUsed(Reg[Other])) {
          Reg[Id] = Reg[Other];
          return true;
        }
      }
      for (uint16_t R = 0; R != Capacity(Vx.B); ++R)
        if (!IsUsed(R)) {
          Reg[Id] = R;
          return true;
        }
      Error = formatf("register assignment ran out of %s registers "
                      "(temp %s)",
                      bankName(Vx.B), M.tempName(Vx.AnyTemp).c_str());
      LastFailedTemp = Vx.AnyTemp;
      return false;
    };

    // Precolored vertices are pinned first.
    LastFailedTemp = ~0u;
    std::vector<uint32_t> Work;
    for (uint32_t Id : Roots) {
      if (Vertices[Id].Precolor >= 0) {
        if (!TryAssign(Id)) {
          FailedTemp = ~0u; // precolor conflicts are not splittable here
          return false;
        }
      } else {
        Work.push_back(Id);
      }
    }

    // Chaitin-Briggs simplify: peel vertices whose degree among the
    // still-unpeeled is below the bank capacity; when none qualifies,
    // peel the max-degree vertex optimistically. Select in reverse.
    // Degree[V] counts V's unpeeled Work neighbours and drops as they
    // peel. The pick is the minimum degree below capacity, else the
    // maximum degree; ties go to the first vertex in root order.
    std::vector<uint8_t> Unpeeled(Vertices.size(), 0);
    for (uint32_t Id : Work)
      Unpeeled[Id] = 1;
    std::vector<unsigned> Degree(Vertices.size(), 0);
    for (uint32_t Id : Work)
      for (uint32_t Other : Adj[Id])
        Degree[Id] += Unpeeled[Other];
    std::vector<uint32_t> Stack;
    unsigned Remaining = Work.size();
    while (Remaining) {
      int Pick = -1;
      unsigned PickDeg = ~0u;
      for (uint32_t Id : Work) {
        if (!Unpeeled[Id])
          continue;
        unsigned D = Degree[Id];
        if (D < Capacity(Vertices[Id].B) && D < PickDeg) {
          Pick = static_cast<int>(Id);
          PickDeg = D;
        }
      }
      if (Pick < 0) {
        // Optimistic: peel the highest-degree vertex and hope a color
        // remains at select time (Park-Moon style optimism).
        unsigned Best = 0;
        for (uint32_t Id : Work) {
          if (!Unpeeled[Id])
            continue;
          unsigned D = Degree[Id];
          if (Pick < 0 || D > Best) {
            Pick = static_cast<int>(Id);
            Best = D;
          }
        }
      }
      Unpeeled[Pick] = 0;
      for (uint32_t Other : Adj[Pick])
        Degree[Other] -= Unpeeled[Other];
      Stack.push_back(static_cast<uint32_t>(Pick));
      --Remaining;
    }
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
      if (!TryAssign(*It)) {
        FailedTemp = LastFailedTemp;
        return false;
      }
    return true;
  }

  Temp LastFailedTemp = ~0u;
  std::map<std::pair<PointId, Temp>, bool> SplitCandidates;
  RegAssignStats Stats;

  const MachineProgram &M;
  const PointMap &Points;
  const AllocModel &Model;
  const BankAnalysis &Banks;
  const std::vector<double> &X;

  std::map<uint32_t, uint32_t> VertexOfClass;
  mutable std::vector<uint32_t> Parent;
  std::vector<Vertex> Vertices;
  /// (vertex, residency key) per register-bank residency; the key is
  /// (point << 1) | side.
  std::vector<std::pair<uint32_t, uint32_t>> Slots;
  std::vector<std::vector<uint32_t>> Adj; ///< interference, root stays
  std::vector<uint16_t> Reg;              ///< per root stay, or NoReg
  std::vector<std::pair<uint32_t, uint32_t>> Affinities;
};

//===----------------------------------------------------------------------===//
// Solution extraction
//===----------------------------------------------------------------------===//

class Extractor {
public:
  Extractor(const MachineProgram &M, const PointMap &Points,
            const AllocModel &Model, const BankAnalysis &Banks,
            const std::vector<double> &X, AllocOptions Opts)
      : M(M), Points(Points), Model(Model), Banks(Banks), X(X),
        Opts(std::move(Opts)), Regs(M, Points, Model, Banks, X) {}

  bool run(AllocatedProgram &Out, std::string &Error);

  const RegAssignStats &regAssignStats() const { return Regs.stats(); }

private:
  const MachineProgram &M;
  const PointMap &Points;
  const AllocModel &Model;
  const BankAnalysis &Banks;
  const std::vector<double> &X;
  AllocOptions Opts;
  RegColoring Regs;
  std::map<Temp, unsigned> SpillSlot; ///< per clone representative
  unsigned NumSpillSlots = 0;

  unsigned spillSlotOf(Temp V) {
    Temp Rep = Banks.cloneRep(V);
    auto It = SpillSlot.find(Rep);
    if (It != SpillSlot.end())
      return It->second;
    SpillSlot[Rep] = NumSpillSlots;
    return NumSpillSlots++;
  }

  uint16_t regOf(Temp V, Bank B, PointId P, bool AfterSide) {
    switch (B) {
    case Bank::A:
    case Bank::B:
    case Bank::L:
    case Bank::S:
    case Bank::LD:
    case Bank::SD:
      return Regs.regOf(V, B, P, AfterSide);
    case Bank::M:
      return static_cast<uint16_t>(spillSlotOf(V));
    case Bank::C:
      return 0;
    }
    return 0;
  }

  PhysLoc locOf(Temp V, Bank B, PointId P, bool AfterSide) {
    return {B, regOf(V, B, P, AfterSide)};
  }

  /// Occupied registers of \p B at point \p P (both sides), for transient
  /// register selection.
  std::set<uint16_t> occupiedRegs(PointId P, Bank B) {
    std::set<uint16_t> Occ;
    for (Temp V : Points.existsAt(P))
      for (unsigned Side = 0; Side != 2; ++Side) {
        if (!Banks.allowed(V, B))
          continue;
        if (Model.bankAt(X, P, V, Side != 0) == B)
          Occ.insert(regOf(V, B, P, Side != 0));
      }
    return Occ;
  }

  struct MoveUnit {
    Temp V;
    Bank From, To;
    PhysLoc Src, Dst;
    std::vector<AllocInstr> Code;
    std::vector<PhysLoc> Writes;
  };

  bool materializeUnit(PointId P, MoveUnit &U, std::string &Error);
  bool emitPointMoves(PointId P, AllocBlock &Out, std::string &Error);
  bool emitInstr(const MachineInstr &MI, PointId P1, AllocBlock &Out,
                 std::string &Error);
};

bool Extractor::materializeUnit(PointId P, MoveUnit &U, std::string &Error) {
  auto Path = interBankMovePath(U.From, U.To, Opts.Model.AllowSpills ||
                                                  U.From == Bank::M ||
                                                  U.To == Bank::M);
  if (!Path || Path->size() < 2) {
    Error = formatf("no data path %s -> %s", bankName(U.From),
                    bankName(U.To));
    return false;
  }
  U.Src = locOf(U.V, U.From, P, /*AfterSide=*/false);
  U.Dst = locOf(U.V, U.To, P, /*AfterSide=*/true);

  PhysLoc Cur = U.Src;
  for (unsigned K = 1; K != Path->size(); ++K) {
    Bank Next = (*Path)[K];
    bool Final = K + 1 == Path->size();
    PhysLoc Dst;
    if (Final) {
      Dst = U.Dst;
    } else {
      // Transient register in Next: any register free at P.
      std::set<uint16_t> Occ = occupiedRegs(P, Next);
      unsigned Cap = bankCapacity(Next) == ~0u ? 1 : bankCapacity(Next);
      int Free = -1;
      for (uint16_t R = 0; R != Cap; ++R)
        if (!Occ.count(R)) {
          Free = R;
          break;
        }
      if (Next == Bank::M)
        Free = static_cast<int>(spillSlotOf(U.V));
      if (Free < 0) {
        Error = formatf("no free transient register in %s at p%u",
                        bankName(Next), P);
        return false;
      }
      Dst = {Next, static_cast<uint16_t>(Free)};
    }

    AllocInstr I;
    I.Inserted = true;
    if (Next == Bank::M) {
      // Spill store: scratch[SpillAreaBase + slot] <- Cur (an S/SD register).
      I.Op = MOp::MemWrite;
      I.Space = MemSpace::Scratch;
      I.Srcs = {AOperand::constant(SpillAreaBase + Dst.Reg),
                AOperand::reg(Cur)};
    } else if (Cur.B == Bank::M) {
      // Reload: L/LD register <- scratch[SpillAreaBase + slot].
      I.Op = MOp::MemRead;
      I.Space = MemSpace::Scratch;
      I.Srcs = {AOperand::constant(SpillAreaBase + Cur.Reg)};
      I.Dsts = {Dst};
    } else {
      I.Op = MOp::Move;
      I.Srcs = {AOperand::reg(Cur)};
      I.Dsts = {Dst};
    }
    if (!I.Dsts.empty())
      U.Writes.push_back(I.Dsts[0]);
    U.Code.push_back(std::move(I));
    Cur = Dst;
  }
  return true;
}

bool Extractor::emitPointMoves(PointId P, AllocBlock &Out,
                               std::string &Error) {
  // Collect distinct moves. Clone-set members travelling between the
  // same physical registers share one instruction; clones headed to
  // *different* registers (e.g. distinct store-aggregate positions) each
  // need their own move, even though the paper's objective counts the
  // bank-level collection once (Section 10).
  std::set<std::tuple<Temp, Bank, uint16_t, Bank, uint16_t>> Seen;
  std::vector<MoveUnit> Units;
  // Coalescing-undo splits: an identity move whose two sides were given
  // different registers becomes a real same-bank copy.
  for (Temp V : Points.existsAt(P)) {
    if (!Regs.isSplit(P, V))
      continue;
    auto Pair = Model.chosenMovePair(X, P, V);
    if (!Pair || Pair->first != Pair->second)
      continue;
    PhysLoc Src = locOf(V, Pair->first, P, /*AfterSide=*/false);
    PhysLoc Dst = locOf(V, Pair->second, P, /*AfterSide=*/true);
    if (Src == Dst)
      continue;
    if (!Seen.insert({Banks.cloneRep(V), Src.B, Src.Reg, Dst.B, Dst.Reg})
             .second)
      continue;
    MoveUnit U;
    U.V = V;
    U.From = Pair->first;
    U.To = Pair->second;
    U.Src = Src;
    U.Dst = Dst;
    AllocInstr I;
    I.Inserted = true;
    I.Op = MOp::Move;
    I.Srcs = {AOperand::reg(Src)};
    I.Dsts = {Dst};
    U.Writes.push_back(Dst);
    U.Code.push_back(std::move(I));
    Units.push_back(std::move(U));
  }
  for (Temp V : Points.existsAt(P)) {
    auto Mv = Model.moveAt(X, P, V);
    if (!Mv)
      continue;
    Temp Rep = Banks.cloneRep(V);
    PhysLoc Src = locOf(V, Mv->first, P, /*AfterSide=*/false);
    PhysLoc Dst = locOf(V, Mv->second, P, /*AfterSide=*/true);
    if (!Seen.insert({Rep, Src.B, Src.Reg, Dst.B, Dst.Reg}).second)
      continue;
    MoveUnit U;
    U.V = V;
    U.From = Mv->first;
    U.To = Mv->second;
    if (!materializeUnit(P, U, Error))
      return false;
    Units.push_back(std::move(U));
  }
  if (Units.empty())
    return true;

  // Sequence units: U must run before W when W overwrites U's source.
  std::vector<bool> Done(Units.size(), false);
  unsigned Remaining = Units.size();
  while (Remaining) {
    bool Progress = false;
    for (unsigned I = 0; I != Units.size(); ++I) {
      if (Done[I])
        continue;
      bool Blocked = false;
      for (unsigned J = 0; J != Units.size(); ++J) {
        if (I == J || Done[J])
          continue;
        for (const PhysLoc &W : Units[I].Writes)
          if (W == Units[J].Src)
            Blocked = true;
      }
      if (Blocked)
        continue;
      for (AllocInstr &Instr : Units[I].Code)
        Out.Instrs.push_back(std::move(Instr));
      Done[I] = true;
      --Remaining;
      Progress = true;
    }
    if (Progress)
      continue;
    // Cycle: save one readable source into an A register that is free
    // at this point (the ILP keeps at most 15 of A's 16 occupied).
    int Pick = -1;
    for (unsigned I = 0; I != Units.size() && Pick < 0; ++I)
      if (!Done[I] && isAluInputBank(Units[I].Src.B))
        Pick = static_cast<int>(I);
    if (Pick < 0) {
      Error = "unbreakable parallel-move cycle through write-only banks";
      return false;
    }
    std::set<uint16_t> BusyA = occupiedRegs(P, Bank::A);
    for (const MoveUnit &U : Units) {
      if (U.Src.B == Bank::A)
        BusyA.insert(U.Src.Reg);
      for (const PhysLoc &W : U.Writes)
        if (W.B == Bank::A)
          BusyA.insert(W.Reg);
    }
    int FreeA = -1;
    for (uint16_t R = 0; R != 16 && FreeA < 0; ++R)
      if (!BusyA.count(R))
        FreeA = R;
    if (FreeA < 0) {
      Error = "no free A register for a parallel-move cycle";
      return false;
    }
    PhysLoc Saved = {Bank::A, static_cast<uint16_t>(FreeA)};
    AllocInstr Save;
    Save.Inserted = true;
    Save.Op = MOp::Move;
    Save.Srcs = {AOperand::reg(Units[Pick].Src)};
    Save.Dsts = {Saved};
    Out.Instrs.push_back(std::move(Save));
    // The unit now reads from the saved copy.
    for (AllocInstr &Instr : Units[Pick].Code)
      for (AOperand &S : Instr.Srcs)
        if (!S.IsConst && S.Loc == Units[Pick].Src)
          S.Loc = Saved;
    Units[Pick].Src = Saved;
  }
  return true;
}

bool Extractor::emitInstr(const MachineInstr &MI, PointId P1,
                          AllocBlock &Out, std::string &Error) {
  PointId P2 = P1 + 1;
  AllocInstr I;
  I.Op = MI.Op;
  I.Alu = MI.Alu;
  I.Cmp = MI.Cmp;
  I.Space = MI.Space;
  I.Imm = MI.Imm;
  I.Target = MI.Target;
  I.TargetElse = MI.TargetElse;

  auto SrcOperand = [&](const MOperand &S) {
    if (S.IsConst)
      return AOperand::constant(S.Value);
    Bank B = Model.bankAt(X, P1, S.T, /*AfterSide=*/true);
    return AOperand::reg(locOf(S.T, B, P1, /*AfterSide=*/true));
  };
  auto DstLoc = [&](Temp D) {
    Bank B = Model.bankAt(X, P2, D, /*AfterSide=*/false);
    return locOf(D, B, P2, /*AfterSide=*/false);
  };

  switch (MI.Op) {
  case MOp::Clone:
    // Clones share the original's location: no code.
    return true;
  case MOp::Move: {
    AOperand S = SrcOperand(MI.Srcs[0]);
    PhysLoc D = DstLoc(MI.Dsts[0]);
    if (!S.IsConst && S.Loc == D)
      return true; // coalesced
    I.Srcs = {S};
    I.Dsts = {D};
    break;
  }
  default:
    for (const MOperand &S : MI.Srcs)
      I.Srcs.push_back(SrcOperand(S));
    for (Temp D : MI.Dsts)
      I.Dsts.push_back(DstLoc(D));
    break;
  }
  (void)Error;
  Out.Instrs.push_back(std::move(I));
  return true;
}

bool Extractor::run(AllocatedProgram &Out, std::string &Error) {
  if (!Regs.run(Error))
    return false;

  Out.Blocks.resize(M.Blocks.size());
  Out.Entry = M.Entry;
  Out.NumEntryArgs = M.EntryParams.size();
  for (const Block &Blk : M.Blocks) {
    AllocBlock &OB = Out.Blocks[Blk.Id];
    for (unsigned Idx = 0; Idx != Blk.Instrs.size(); ++Idx) {
      PointId P = Points.pointAt(Blk.Id, Idx);
      if (!emitPointMoves(P, OB, Error))
        return false;
      if (!emitInstr(Blk.Instrs[Idx], P, OB, Error))
        return false;
    }
  }
  Out.NumSpillSlots = NumSpillSlots;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

const char *alloc::rungName(AllocRung R) {
  switch (R) {
  case AllocRung::Optimal:    return "optimal";
  case AllocRung::Incumbent:  return "incumbent";
  case AllocRung::SpillRetry: return "spill-retry";
  case AllocRung::Baseline:   return "baseline";
  }
  return "unknown";
}

bool alloc::parseOnIlpFailure(const std::string &Text, OnIlpFailure &Out) {
  if (Text == "error")
    Out = OnIlpFailure::Error;
  else if (Text == "incumbent")
    Out = OnIlpFailure::Incumbent;
  else if (Text == "baseline")
    Out = OnIlpFailure::Baseline;
  else
    return false;
  return true;
}

namespace {

/// How one rung of the ladder ended; drives the descent decision.
enum class Attempt {
  Accepted,   ///< verified program produced
  Infeasible, ///< model has no integer point (the classic spill trigger)
  Budget,     ///< time/node budget exhausted (or incumbent rejected by policy)
  Structural  ///< model build, extraction, or verification failed
};

} // namespace

AllocationResult alloc::allocate(const MachineProgram &M,
                                 DiagnosticEngine &Diags,
                                 const AllocOptions &Opts) {
  AllocationResult Result;
  if (M.EntryParams.size() > 15) {
    Result.Error =
        Status::error(StatusCode::InvalidArgument, Phase::ModelBuild,
                      "entry takes more than 15 arguments (bank A capacity)");
    return Result;
  }

  Liveness LV(M);
  PointMap Points(M, LV);
  FrequencyInfo Freq(M);

  const bool MayDescend = Opts.FailurePolicy != OnIlpFailure::Error;
  const bool MayBaseline = Opts.FailurePolicy == OnIlpFailure::Baseline;

  // Watchdog deadlines: carve the caller's --time-limit so a hung rung
  // cannot starve the fallbacks below it. The spill-free fast path gets
  // 60% of the wall clock; the spill-aware retry gets what is left (with
  // a floor so it is never started with a zero budget). Baseline is
  // combinatorial-search-free and needs no carve-out.
  const double Total = Opts.Mip.TimeLimitSeconds;
  const bool Finite = std::isfinite(Total) && Total > 0.0;
  Deadline Overall = Finite ? Deadline::after(Total) : Deadline::never();

  unsigned Attempts = 0;
  unsigned Violations = 0;

  auto TryOnce = [&](bool WithSpills, double BudgetSeconds,
                     AllocationResult &R) -> Attempt {
    ++Attempts;
    ModelOptions MO = Opts.Model;
    MO.AllowSpills = WithSpills;
    BankAnalysis Banks(M, WithSpills);
    AllocModel Model(M, LV, Points, Freq, Banks, MO);
    if (!Model.build(Diags)) {
      R.Error = Status::error(StatusCode::ModelBuildFailed, Phase::ModelBuild,
                              "model construction failed (see diagnostics)");
      return Attempt::Structural;
    }
    R.Stats.Build = Model.stats();
    R.Stats.IlpSize = Model.model().stats();

    ilp::MipOptions MipOpts = Opts.Mip;
    if (Finite)
      MipOpts.TimeLimitSeconds = BudgetSeconds;
    ilp::MipSolver Solver(Model.model(), MipOpts);
    ilp::MipResult Mip = Solver.solve();
    R.Stats.Solve = Mip.Stats;
    R.Stats.UsedSpillModel = WithSpills;
    if (Mip.Status == ilp::MipStatus::Infeasible) {
      R.Error = Status::error(StatusCode::IlpInfeasible, Phase::Solve,
                              WithSpills ? "spill-aware ILP infeasible"
                                         : "spill-free ILP infeasible");
      return Attempt::Infeasible;
    }
    if (Mip.Status != ilp::MipStatus::Optimal &&
        Mip.Status != ilp::MipStatus::Feasible) {
      R.Error = Status::error(
                    StatusCode::IlpBudgetExceeded, Phase::Solve,
                    "ILP solve hit its time/node budget without a solution")
                    .addHint("raise --time-limit or --node-limit");
      return Attempt::Budget;
    }
    const bool Proved = Mip.Status == ilp::MipStatus::Optimal;
    if (!Proved && !MayDescend) {
      R.Error =
          Status::error(StatusCode::IlpNonOptimal, Phase::Solve,
                        "a feasible incumbent exists but optimality was not "
                        "proved within the budget")
              .addHint("raise --time-limit")
              .addHint("rerun with --on-ilp-failure=incumbent to accept the "
                       "incumbent");
      return Attempt::Budget;
    }
    R.Stats.Objective = Mip.Objective;
    R.Stats.Moves = Model.countMoves(Mip.X);
    R.Stats.Spills = Model.countSpills(Mip.X);

    Extractor Ext(M, Points, Model, Banks, Mip.X, [&] {
      AllocOptions O = Opts;
      O.Model = MO;
      return O;
    }());
    std::string Error;
    AllocatedProgram Prog;
    bool Extracted = Ext.run(Prog, Error);
    R.Stats.RegAssign = Ext.regAssignStats();
    if (!Extracted) {
      R.Error = Status::error(StatusCode::ExtractFailed, Phase::Extract,
                              "extraction failed: " + Error);
      return Attempt::Structural;
    }
    // Gate every rung on the legality verifier: nothing unverified may
    // escape the allocator, no matter how the ladder got here.
    std::vector<std::string> Found = verifyAllocated(Prog);
    if (!Found.empty()) {
      Violations += Found.size();
      R.Error = Status::error(StatusCode::VerifyFailed, Phase::Verify,
                              "verifier rejected the allocation: " + Found[0]);
      return Attempt::Structural;
    }
    R.Prog = std::move(Prog);
    R.Ok = true;
    R.Stats.ProvedOptimal = Proved;
    return Attempt::Accepted;
  };

  auto Finalize = [&](AllocationResult &R, AllocRung Rung) {
    R.Stats.Rung = Rung;
    R.Stats.LadderAttempts = Attempts;
    R.Stats.VerifierViolations = Violations;
  };

  // Rung 1: the paper's spill-free fast path.
  Attempt First = Attempt::Infeasible; // ForceSpillModel skips straight down
  if (!Opts.ForceSpillModel) {
    double FastBudget = Finite ? Total * 0.6 : 0.0;
    First = TryOnce(/*WithSpills=*/false, FastBudget, Result);
    if (First == Attempt::Accepted) {
      Finalize(Result, Result.Stats.ProvedOptimal ? AllocRung::Optimal
                                                  : AllocRung::Incumbent);
      return Result;
    }
    // Descend to the spill-aware model when the spill-free model is
    // infeasible (the paper's two-phase refinement) or, under a lenient
    // policy, as *recovery* from a budget/structural failure.
    if (First != Attempt::Infeasible && !MayDescend) {
      Finalize(Result, AllocRung::Optimal);
      return Result;
    }
  }

  // Rung 2: the spill-aware model, on the remaining wall clock.
  Status FastError = Result.Error;
  AllocationResult SpillResult;
  double SpillBudget =
      Finite ? std::max(Overall.remaining(), Total * 0.1) : 0.0;
  Attempt Second = TryOnce(/*WithSpills=*/true, SpillBudget, SpillResult);
  if (Second == Attempt::Accepted) {
    // Rescuing a budget/structural failure is a degradation (SpillRetry);
    // the classic infeasible -> spill path is the normal pipeline and
    // keeps its rung determined by proof quality alone.
    AllocRung Rung = First != Attempt::Infeasible ? AllocRung::SpillRetry
                     : SpillResult.Stats.ProvedOptimal ? AllocRung::Optimal
                                                       : AllocRung::Incumbent;
    Finalize(SpillResult, Rung);
    return SpillResult;
  }

  // Rung 3: the heuristic memory-home allocator, if the policy allows.
  if (!MayBaseline) {
    if (!FastError.ok())
      SpillResult.Error.addHint("spill-free attempt: " + FastError.render());
    SpillResult.Error.addHint(
        "rerun with --on-ilp-failure=baseline to fall back to the heuristic "
        "allocator");
    Finalize(SpillResult, AllocRung::Optimal);
    return SpillResult;
  }

  ++Attempts;
  AllocationResult Fallback;
  Fallback.Stats = SpillResult.Stats; // keep the failed solve's telemetry
  BaselineResult B = allocateBaseline(M);
  if (!B.Ok) {
    Fallback.Error =
        Status::error(StatusCode::BaselineFailed, Phase::Baseline,
                      "baseline allocation failed: " + B.Error.render())
            .addHint("ILP attempt: " + SpillResult.Error.render());
    Finalize(Fallback, AllocRung::Baseline);
    return Fallback;
  }
  std::vector<std::string> Found = verifyAllocated(B.Prog);
  if (!Found.empty()) {
    Violations += Found.size();
    Fallback.Error = Status::error(
        StatusCode::VerifyFailed, Phase::Verify,
        "verifier rejected the baseline allocation: " + Found[0]);
    Finalize(Fallback, AllocRung::Baseline);
    return Fallback;
  }
  Fallback.Prog = std::move(B.Prog);
  Fallback.Ok = true;
  Fallback.Stats.Objective = 0.0;
  Fallback.Stats.Moves = 0;
  Fallback.Stats.Spills = Fallback.Prog.NumSpillSlots;
  Fallback.Stats.UsedSpillModel = false;
  Fallback.Stats.ProvedOptimal = false;
  Finalize(Fallback, AllocRung::Baseline);
  return Fallback;
}
