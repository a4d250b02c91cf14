//===- FaultInjection.cpp -------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include <cstdlib>

using namespace nova;

bool FaultInjector::Armed = false;

const char *nova::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::SingularBasis: return "singular-basis";
  case FaultKind::EtaDrift:      return "eta-drift";
  case FaultKind::LpInfeasible:  return "lp-infeasible";
  case FaultKind::MipTimeout:    return "mip-timeout";
  case FaultKind::WorkerStall:   return "worker-stall";
  case FaultKind::MemJitter:     return "mem-jitter";
  case FaultKind::SimBitFlip:    return "sim-bitflip";
  case FaultKind::CtxLockup:     return "ctx-lockup";
  case FaultKind::RingStall:     return "ring-stall";
  case FaultKind::ChanBrownout:  return "chan-brownout";
  case FaultKind::SdramBitFlip:  return "sdram-bitflip";
  case FaultKind::DmaDrop:       return "dma-drop";
  }
  return "unknown";
}

FaultDomain nova::faultKindDomain(FaultKind K) {
  switch (K) {
  case FaultKind::SingularBasis:
  case FaultKind::EtaDrift:
  case FaultKind::LpInfeasible:
  case FaultKind::MipTimeout:
  case FaultKind::WorkerStall:
    return FaultDomain::Solver;
  case FaultKind::MemJitter:
  case FaultKind::SimBitFlip:
    return FaultDomain::Sim;
  case FaultKind::CtxLockup:
  case FaultKind::RingStall:
  case FaultKind::ChanBrownout:
  case FaultKind::SdramBitFlip:
  case FaultKind::DmaDrop:
    return FaultDomain::Chip;
  }
  return FaultDomain::Solver;
}

const char *nova::faultDomainName(FaultDomain D) {
  switch (D) {
  case FaultDomain::Solver: return "solver";
  case FaultDomain::Sim:    return "sim";
  case FaultDomain::Chip:   return "chip";
  }
  return "unknown";
}

/// SplitMix64 starting state of every draw stream. Constant, so a
/// jittered run's cycle counts are a pure function of the plan.
static constexpr uint64_t DrawSeed = 0x5eedf417ull + 0x9e3779b97f4a7c15ull;

FaultInjector &FaultInjector::instance() {
  static FaultInjector I;
  return I;
}

void FaultInjector::arm(std::vector<FaultSpec> Specs) {
  for (Slot &S : Slots)
    S = Slot();
  for (const FaultSpec &Spec : Specs) {
    Slot &S = Slots[static_cast<unsigned>(Spec.Kind)];
    S.Spec = Spec;
    S.Active = true;
    S.RngState = DrawSeed;
  }
  // An empty plan arms nothing: armed() gates the fast path's
  // per-instruction slow tier, so arming without any active fault would
  // silently cost an order of magnitude in throughput for a guaranteed
  // no-op.
  Armed = !Specs.empty();
}

void FaultInjector::disarm() {
  Armed = false;
  for (Slot &S : Slots)
    S = Slot();
}

void FaultInjector::rearm() {
  for (Slot &S : Slots) {
    if (!S.Active)
      continue;
    S.Opportunities = 0;
    S.Fired = 0;
    S.RngState = DrawSeed;
  }
}

static double nextUnit(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z = Z ^ (Z >> 31);
  return static_cast<double>(Z >> 11) * (1.0 / 9007199254740992.0);
}

bool FaultInjector::shouldFire(FaultKind K) {
  Slot &S = Slots[static_cast<unsigned>(K)];
  if (!S.Active)
    return false;
  unsigned Opportunity = S.Opportunities++;
  if (Opportunity < S.Spec.After)
    return false;
  if (S.Fired >= S.Spec.Times)
    return false;
  ++S.Fired;
  return true;
}

double FaultInjector::magnitude(FaultKind K, double Default) const {
  const Slot &S = Slots[static_cast<unsigned>(K)];
  if (!S.Active || S.Spec.Magnitude == 0.0)
    return Default;
  return S.Spec.Magnitude;
}

unsigned FaultInjector::drawCycles(FaultKind K, double Default) {
  Slot &S = Slots[static_cast<unsigned>(K)];
  double Mag = (!S.Active || S.Spec.Magnitude == 0.0) ? Default
                                                      : S.Spec.Magnitude;
  unsigned Max = Mag < 1.0 ? 1u : static_cast<unsigned>(Mag);
  return 1u + static_cast<unsigned>(nextUnit(S.RngState) * Max) % Max;
}

unsigned FaultInjector::fired(FaultKind K) const {
  return Slots[static_cast<unsigned>(K)].Fired;
}

unsigned FaultInjector::opportunities(FaultKind K) const {
  return Slots[static_cast<unsigned>(K)].Opportunities;
}

/// Maps a CLI spelling to its FaultKind; returns false on unknown names.
static bool lookupFaultKind(const std::string &Name, FaultKind &Out) {
  for (unsigned K = 0; K < 12; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    if (Name == faultKindName(Kind)) {
      Out = Kind;
      return true;
    }
  }
  return false;
}

/// Finds the next spec separator at or after \p From. 'x' only counts
/// when a digit follows: kind names may contain it ("ctx-lockup"), the
/// xTimes suffix always precedes a count.
static size_t findSpecSep(const std::string &Text, size_t From) {
  for (size_t I = From; I < Text.size(); ++I) {
    char C = Text[I];
    if (C == '@' || C == '~')
      return I;
    if (C == 'x' && I + 1 < Text.size() && Text[I + 1] >= '0' &&
        Text[I + 1] <= '9')
      return I;
  }
  return std::string::npos;
}

bool nova::parseFaultSpec(const std::string &Text, FaultSpec &Out,
                          std::string &Error) {
  // Grammar: kind[@after][xTimes][~magnitude]; suffixes in that order.
  size_t End = findSpecSep(Text, 0);
  std::string Kind = Text.substr(0, End);
  FaultSpec Spec;
  if (!lookupFaultKind(Kind, Spec.Kind)) {
    Error = "unknown fault kind '" + Kind +
            "' (expected singular-basis, eta-drift, lp-infeasible, "
            "mip-timeout, worker-stall, mem-jitter, sim-bitflip, "
            "ctx-lockup, ring-stall, chan-brownout, sdram-bitflip, or "
            "dma-drop)";
    return false;
  }
  if (faultKindDomain(Spec.Kind) == FaultDomain::Chip) {
    Error = "fault kind '" + Kind +
            "' is chip-domain: use --fault-schedule (with --chip), not "
            "--inject-fault";
    return false;
  }

  size_t Pos = (End == std::string::npos) ? Text.size() : End;
  while (Pos < Text.size()) {
    char Tag = Text[Pos++];
    size_t Next = findSpecSep(Text, Pos);
    std::string Field =
        Text.substr(Pos, Next == std::string::npos ? Next : Next - Pos);
    if (Field.empty()) {
      Error = std::string("empty value after '") + Tag + "' in fault spec '" +
              Text + "'";
      return false;
    }
    const char *Begin = Field.c_str();
    char *Parsed = nullptr;
    if (Tag == '@' || Tag == 'x') {
      unsigned long V = std::strtoul(Begin, &Parsed, 10);
      if (Parsed == Begin || *Parsed != '\0') {
        Error = std::string("malformed count '") + Field + "' in fault spec '" +
                Text + "'";
        return false;
      }
      if (Tag == '@')
        Spec.After = static_cast<unsigned>(V);
      else
        Spec.Times = static_cast<unsigned>(V);
    } else { // '~'
      double V = std::strtod(Begin, &Parsed);
      if (Parsed == Begin || *Parsed != '\0') {
        Error = std::string("malformed magnitude '") + Field +
                "' in fault spec '" + Text + "'";
        return false;
      }
      Spec.Magnitude = V;
    }
    Pos = (Next == std::string::npos) ? Text.size() : Next;
  }

  Out = Spec;
  return true;
}

bool nova::parseFaultSchedule(const std::string &Text, FaultSchedule &Out,
                              std::string &Error) {
  FaultSchedule Sched;
  bool Seen[12] = {};
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    std::string Item =
        Text.substr(Pos, Comma == std::string::npos ? Comma : Comma - Pos);
    if (Item.empty()) {
      Error = "empty entry in fault schedule '" + Text + "'";
      return false;
    }

    // Grammar per entry: kind@rate[~magnitude]. Rate is mandatory: a
    // schedule without a rate has no deterministic firing rule.
    size_t At = Item.find('@');
    if (At == std::string::npos) {
      Error = "missing '@rate' in fault schedule entry '" + Item + "'";
      return false;
    }
    FaultScheduleEntry E;
    std::string Kind = Item.substr(0, At);
    if (!lookupFaultKind(Kind, E.Kind)) {
      Error = "unknown fault kind '" + Kind +
              "' in fault schedule (expected ctx-lockup, ring-stall, "
              "chan-brownout, sdram-bitflip, or dma-drop)";
      return false;
    }
    if (faultKindDomain(E.Kind) != FaultDomain::Chip) {
      Error = "fault kind '" + Kind + "' is " +
              faultDomainName(faultKindDomain(E.Kind)) +
              "-domain: --fault-schedule only takes chip kinds "
              "(ctx-lockup, ring-stall, chan-brownout, sdram-bitflip, "
              "dma-drop)";
      return false;
    }
    if (Seen[static_cast<unsigned>(E.Kind)]) {
      Error = "duplicate fault kind '" + Kind + "' in schedule '" + Text + "'";
      return false;
    }
    Seen[static_cast<unsigned>(E.Kind)] = true;

    size_t Tilde = Item.find('~', At + 1);
    std::string RateText = Item.substr(
        At + 1, Tilde == std::string::npos ? Tilde : Tilde - (At + 1));
    const char *Begin = RateText.c_str();
    char *Parsed = nullptr;
    unsigned long long Rate = std::strtoull(Begin, &Parsed, 10);
    if (RateText.empty() || Parsed == Begin || *Parsed != '\0' || Rate < 1) {
      Error = "malformed rate '" + RateText + "' in fault schedule entry '" +
              Item + "' (need an integer >= 1)";
      return false;
    }
    E.Rate = Rate;

    if (Tilde != std::string::npos) {
      std::string MagText = Item.substr(Tilde + 1);
      Begin = MagText.c_str();
      Parsed = nullptr;
      double Mag = std::strtod(Begin, &Parsed);
      if (MagText.empty() || Parsed == Begin || *Parsed != '\0' ||
          Mag <= 0.0) {
        Error = "malformed magnitude '" + MagText +
                "' in fault schedule entry '" + Item + "' (need a number > 0)";
        return false;
      }
      E.Magnitude = Mag;
    }

    Sched.push_back(E);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }

  if (Sched.empty()) {
    Error = "empty fault schedule";
    return false;
  }
  Out = Sched;
  return true;
}
