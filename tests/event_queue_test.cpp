//===- event_queue_test.cpp - Timing-wheel event queue tests ---------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// Differential tests of chip::EventQueue against the reference it
// replaced, std::priority_queue<Event, ..., EventAfter>: under the
// kernel's contract (monotone time, monotone insertion order) both must
// pop the identical (Time, Order) sequence — with many same-cycle ties,
// jumps past the wheel horizon, and an overflow heap that has to merge
// back into buckets already holding near events. sorted() must list the
// pending set in pop order, and assigning it to another queue (the
// checkpoint restore path) must continue the same sequence.
//
//===----------------------------------------------------------------------===//

#include "chip/EventQueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>

using namespace nova;
using chip::Event;

namespace {

using RefQueue =
    std::priority_queue<Event, std::vector<Event>, chip::EventAfter>;

void expectSameEvent(const Event &A, const Event &B, uint64_t Step) {
  ASSERT_EQ(A.Time, B.Time) << "step " << Step;
  ASSERT_EQ(A.Order, B.Order) << "step " << Step;
  ASSERT_EQ(A.K, B.K) << "step " << Step;
  ASSERT_EQ(A.Me, B.Me) << "step " << Step;
  ASSERT_EQ(A.Ctx, B.Ctx) << "step " << Step;
  ASSERT_EQ(A.A, B.A) << "step " << Step;
}

/// Drives both queues with the same random monotone workload. Each step
/// pops one event (when any is pending) and pushes a burst of new ones
/// at or after the popped time: a third at the same cycle, most within a
/// few hundred cycles, some 1-3 horizons out, a few far beyond.
void runDifferential(unsigned HorizonBits, uint64_t Seed, unsigned Steps) {
  const uint64_t Horizon = 1ull << HorizonBits;
  std::mt19937_64 Rng(Seed);
  chip::EventQueue Q(HorizonBits);
  RefQueue Ref;
  uint64_t Now = 0, Order = 0;

  auto Delay = [&]() -> uint64_t {
    switch (Rng() % 10) {
    case 0: case 1: case 2: return 0;
    case 3: case 4: case 5: return Rng() % 8;
    case 6: case 7: return Rng() % 300;
    case 8: return (Horizon > 2 ? Horizon - 2 : 0) + Rng() % (3 * Horizon);
    default: return Rng() % 100'000;
    }
  };
  auto Push = [&]() {
    Event E;
    E.Time = Now + Delay();
    E.Order = ++Order;
    E.K = static_cast<chip::Ev>(Rng() % chip::NumEventKinds);
    E.Me = static_cast<unsigned>(Rng() % 8);
    E.Ctx = static_cast<unsigned>(Rng() % 8);
    E.A = Rng();
    Q.push(E);
    Ref.push(E);
  };

  for (unsigned I = 0; I != 8; ++I)
    Push();
  for (uint64_t Step = 0; Step != Steps; ++Step) {
    ASSERT_EQ(Q.size(), Ref.size());
    if (!Ref.empty()) {
      Event Want = Ref.top();
      Ref.pop();
      Event Got = Q.pop();
      expectSameEvent(Got, Want, Step);
      if (::testing::Test::HasFatalFailure())
        return;
      Now = Got.Time;
    }
    // Keep a few dozen events pending, like the chip kernel, with
    // occasional drains to an empty wheel (overflow-only jumps).
    unsigned Burst = Ref.size() > 48 ? Rng() % 2 : 1 + Rng() % 3;
    if (Step % 5000 > 4900)
      Burst = 0;
    for (unsigned I = 0; I != Burst; ++I)
      Push();
  }
  while (!Ref.empty()) {
    expectSameEvent(Q.pop(), Ref.top(), Steps);
    Ref.pop();
  }
  EXPECT_TRUE(Q.empty());
}

} // namespace

TEST(EventQueue, MatchesPriorityQueueDefaultHorizon) {
  runDifferential(12, 1, 200'000);
}

TEST(EventQueue, MatchesPriorityQueueSmallHorizons) {
  // Tiny wheels push most events through the overflow heap and make
  // near/far ties at one cycle the common case.
  for (unsigned Bits : {0u, 1u, 3u, 6u, 7u})
    runDifferential(Bits, 100 + Bits, 60'000);
}

TEST(EventQueue, FarEventsPrecedeLaterNearPushesAtTheSameCycle) {
  chip::EventQueue Q(3); // horizon 8
  Q.push({20, 1, chip::Ev::SupTick, 0, 0, 0}); // far: beyond [0, 8)
  Q.push({5, 2, chip::Ev::MeRun, 0, 0, 0});
  EXPECT_EQ(Q.pop().Order, 2u); // Now = 5: cycle 20 still out of reach
  Q.push({13, 3, chip::Ev::MeRun, 0, 0, 0});
  EXPECT_EQ(Q.pop().Order, 3u); // Now = 13: the far event migrated
  Q.push({20, 4, chip::Ev::CtxResume, 0, 0, 0}); // same cycle, later order
  EXPECT_EQ(Q.pop().Order, 1u);
  EXPECT_EQ(Q.pop().Order, 4u);
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueue, SortedSnapshotRestoresTheSameSequence) {
  std::mt19937_64 Rng(5);
  chip::EventQueue Q(6);
  uint64_t Now = 0, Order = 0;
  auto Push = [&](chip::EventQueue &Into) {
    uint64_t D = Rng() % 4 == 0 ? Rng() % 1000 : Rng() % 16;
    Into.push({Now + D, ++Order, chip::Ev::MeRun, 0, 0, Rng()});
  };
  for (unsigned I = 0; I != 40; ++I)
    Push(Q);
  for (unsigned I = 0; I != 25; ++I)
    Now = Q.pop().Time;

  std::vector<Event> Snap = Q.sorted();
  ASSERT_EQ(Snap.size(), Q.size());
  for (size_t I = 1; I < Snap.size(); ++I)
    EXPECT_TRUE(chip::EventAfter()(Snap[I], Snap[I - 1])) << I;

  chip::EventQueue Restored(6);
  Restored.push({0, 0, chip::Ev::RxStep, 0, 0, 0}); // replaced below
  std::vector<Event> Shuffled = Snap;
  std::shuffle(Shuffled.begin(), Shuffled.end(), Rng);
  Restored.assign(Shuffled); // any order restores
  EXPECT_EQ(Restored.sorted().size(), Snap.size());

  // Both continue identically, including new pushes after the restore.
  uint64_t SavedNow = Now, SavedOrder = Order;
  std::mt19937_64 SavedRng = Rng;
  std::vector<Event> A, B;
  for (chip::EventQueue *X : {&Q, &Restored}) {
    Now = SavedNow;
    Order = SavedOrder;
    Rng = SavedRng;
    std::vector<Event> &Out = X == &Q ? A : B;
    for (unsigned I = 0; I != 200 && !X->empty(); ++I) {
      Event E = X->pop();
      Now = E.Time;
      Out.push_back(E);
      if (I % 2 == 0)
        Push(*X);
    }
  }
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    expectSameEvent(A[I], B[I], I);
}
