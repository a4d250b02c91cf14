//===- FaultInjection.cpp -------------------------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>
#include <utility>

using namespace nova;

bool FaultInjector::Armed = false;

using enum FaultDomain;
using enum FaultMagnitude;

/// The fault-kind table, one row per FaultKind in enum order.
static const FaultKindInfo KindTable[NumFaultKinds] = {
    // Name, Domain, Mag, Min, Max, Default, what the magnitude is
    {"singular-basis", Solver, None, 0, 0, 0, nullptr},
    {"eta-drift", Solver, Real, 1e-9, 1, 1e-3, "relative pivot perturbation"},
    {"lp-infeasible", Solver, None, 0, 0, 0, nullptr},
    {"mip-timeout", Solver, None, 0, 0, 0, nullptr},
    {"worker-stall", Solver, Real, 1e-6, 1, 0.02, "seconds slept per node"},
    {"mem-jitter", Sim, Integer, 1, 65536, 16, "most extra cycles per access"},
    {"sim-bitflip", Sim, None, 0, 0, 0, nullptr},
    {"ctx-lockup", Chip, Integer, 1, 1024, 1, "attempts that wedge"},
    {"ring-stall", Chip, Integer, 1, 1000000, 500, "cycles of NAKed pushes"},
    {"chan-brownout", Chip, Integer, 2, 1024, 4, "SDRAM issue-interval factor"},
    {"sdram-bitflip", Chip, None, 0, 0, 0, nullptr},
    {"dma-drop", Chip, Integer, 1, 1024, 1, "DMA bursts lost per packet"},
};

const FaultKindInfo &nova::faultKindInfo(FaultKind K) {
  return KindTable[static_cast<unsigned>(K)];
}

const char *nova::faultDomainName(FaultDomain D) {
  static const char *const Names[] = {"solver", "sim", "chip"};
  return Names[static_cast<unsigned>(D)];
}

bool nova::faultMagnitudeValid(FaultKind K, double M) {
  const FaultKindInfo &I = faultKindInfo(K);
  return M == 0.0 || (I.Mag != None && M >= I.Min && M <= I.Max &&
                      (I.Mag == Real || M == std::floor(M)));
}

std::string nova::faultMagnitudeRange(FaultKind K) {
  const FaultKindInfo &I = faultKindInfo(K);
  if (I.Mag == None)
    return "no magnitude";
  return I.Mag == Integer ? formatf("an integer in %.0f..%.0f (default %.0f)",
                                    I.Min, I.Max, I.Default)
                          : formatf("a real in [%g, %g] (default %g)", I.Min,
                                    I.Max, I.Default);
}

std::string nova::faultKindUsage(FaultDomain D, const char *Indent) {
  std::string Out;
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    const FaultKindInfo &I = KindTable[K];
    if (I.Domain != D)
      continue;
    std::string Range = faultMagnitudeRange(static_cast<FaultKind>(K));
    if (I.Means)
      Out += formatf("%s%-14s ~m: %s,\n%s%-18s %s\n", Indent, I.Name, I.Means,
                     Indent, "", Range.c_str());
    else
      Out += formatf("%s%-14s %s\n", Indent, I.Name, Range.c_str());
  }
  return Out;
}

/// The kinds of domain \p D, comma-separated, for error messages.
static std::string kindList(FaultDomain D) {
  std::vector<std::string> Names;
  for (const FaultKindInfo &I : KindTable)
    if (I.Domain == D)
      Names.push_back(I.Name);
  return join(Names, ", ");
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
    assert(faultMagnitudeValid(Spec.Kind, Spec.Magnitude) && "see KindTable");
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

double FaultInjector::magnitude(FaultKind K) const {
  const Slot &S = Slots[static_cast<unsigned>(K)];
  if (!S.Active || S.Spec.Magnitude == 0.0)
    return faultKindInfo(K).Default;
  return S.Spec.Magnitude;
}

unsigned FaultInjector::drawCycles(FaultKind K) {
  unsigned Max = static_cast<unsigned>(magnitude(K));
  Slot &S = Slots[static_cast<unsigned>(K)];
  return 1u + static_cast<unsigned>(nextUnit(S.RngState) * Max) % Max;
}

unsigned FaultInjector::fired(FaultKind K) const {
  return Slots[static_cast<unsigned>(K)].Fired;
}

unsigned FaultInjector::opportunities(FaultKind K) const {
  return Slots[static_cast<unsigned>(K)].Opportunities;
}

/// Maps a CLI spelling of a \p Domain kind to its FaultKind; any other
/// name is an error that lists the kinds \p Domain takes.
static bool lookupFaultKind(std::string_view Name, FaultDomain Domain,
                            FaultKind &Out, std::string &Error) {
  std::string Quoted = "'" + std::string(Name) + "'";
  Error = "unknown fault kind " + Quoted;
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    if (Name != KindTable[K].Name)
      continue;
    if (KindTable[K].Domain == Domain) {
      Out = static_cast<FaultKind>(K);
      return true;
    }
    Error = "fault kind " + Quoted + " is " +
            faultDomainName(KindTable[K].Domain) + "-domain";
  }
  Error += formatf("; expected a %s kind: ", faultDomainName(Domain)) +
           kindList(Domain);
  return false;
}

/// Parses \p Text as a count in [\p Lo, \p Hi] into \p Out; \p What names
/// the field ("@after") in the error, which also names the kind.
template <class T>
static bool parseCount(FaultKind K, const char *What, std::string_view Text,
                       uint64_t Lo, uint64_t Hi, T &Out, std::string &Error) {
  std::optional<uint64_t> V = parseInteger(Text);
  if (!V || *V < Lo || *V > Hi) {
    Error = formatf("%s: %s expects an integer in %llu..%llu, got '%.*s'",
                    faultKindName(K), What, (unsigned long long)Lo,
                    (unsigned long long)Hi, int(Text.size()), Text.data());
    return false;
  }
  Out = static_cast<T>(*V);
  return true;
}

/// Parses \p Text as a magnitude that \p K accepts (never 0: omitting
/// `~` is how a spec asks for the default).
static bool parseMagnitude(FaultKind K, std::string_view Text, double &Out,
                           std::string &Error) {
  const FaultKindInfo &I = faultKindInfo(K);
  std::optional<double> V;
  if (I.Mag == Integer) {
    if (std::optional<uint64_t> N = parseInteger(Text))
      V = static_cast<double>(*N);
  } else if (I.Mag == Real) {
    V = parseReal(Text);
  }
  if (!V || *V == 0.0 || !faultMagnitudeValid(K, *V)) {
    Error = formatf("%s: ~magnitude expects %s, got '%.*s'", I.Name,
                    faultMagnitudeRange(K).c_str(), int(Text.size()),
                    Text.data());
    return false;
  }
  Out = *V;
  return true;
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

bool nova::parseFaultSpec(const std::string &Text, FaultDomain Domain,
                          FaultSpec &Out, std::string &Error) {
  // Grammar: kind[@after][xTimes][~magnitude]; suffixes in that order.
  size_t End = findSpecSep(Text, 0);
  FaultSpec Spec;
  if (!lookupFaultKind(std::string_view(Text).substr(0, End), Domain,
                       Spec.Kind, Error))
    return false;

  size_t Pos = (End == std::string::npos) ? Text.size() : End;
  while (Pos < Text.size()) {
    char Tag = Text[Pos++];
    size_t Next = findSpecSep(Text, Pos);
    std::string_view Field = std::string_view(Text).substr(Pos, Next - Pos);
    bool Ok = Tag == '@'   ? parseCount(Spec.Kind, "@after", Field, 0,
                                        UINT32_MAX, Spec.After, Error)
              : Tag == 'x' ? parseCount(Spec.Kind, "xtimes", Field, 0,
                                        UINT32_MAX, Spec.Times, Error)
                           : parseMagnitude(Spec.Kind, Field, Spec.Magnitude,
                                            Error);
    if (!Ok)
      return false;
    Pos = (Next == std::string::npos) ? Text.size() : Next;
  }

  Out = Spec;
  return true;
}

bool nova::parseFaultSchedule(const std::string &Text, FaultSchedule &Out,
                              std::string &Error) {
  FaultSchedule Sched;
  bool Seen[NumFaultKinds] = {};
  for (std::string_view Item : split(Text, ',')) {
    if (Item.empty()) {
      Error = "empty entry in fault schedule '" + Text + "'";
      return false;
    }

    // Grammar per entry: kind@rate[~magnitude]. Rate is mandatory: a
    // schedule without a rate has no deterministic firing rule.
    size_t At = Item.find('@');
    if (At == std::string_view::npos) {
      Error = "missing '@rate' in fault schedule entry '" + std::string(Item) +
              "'";
      return false;
    }
    FaultScheduleEntry E;
    if (!lookupFaultKind(Item.substr(0, At), Chip, E.Kind, Error))
      return false;
    if (std::exchange(Seen[static_cast<unsigned>(E.Kind)], true)) {
      Error = formatf("duplicate fault kind '%s' in schedule '%s'",
                      faultKindName(E.Kind), Text.c_str());
      return false;
    }

    size_t Tilde = Item.find('~', At + 1);
    std::string_view RateText = Item.substr(At + 1, Tilde - (At + 1));
    if (!parseCount(E.Kind, "@rate", RateText, 1, UINT64_MAX, E.Rate, Error))
      return false;
    if (Tilde != std::string_view::npos &&
        !parseMagnitude(E.Kind, Item.substr(Tilde + 1), E.Magnitude, Error))
      return false;

    Sched.push_back(E);
  }
  Out = Sched;
  return true;
}
