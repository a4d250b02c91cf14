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
// back into buckets already holding near events. Same-cycle pushes take
// the one-event slot and later pushes spill it; push() links a held
// event whose Order lies below events already pushed for its cycle at
// its Order position.
// sorted() must list the pending set in pop order, and assigning it to
// another queue (the checkpoint restore path) must continue the same
// sequence, whatever the slot holds.
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
/// few hundred cycles, some 1-3 horizons out, a few far beyond. Some
/// events are held back after taking their Order, as the chip kernel
/// holds an ME's run: a later step pushes each while its time is not
/// yet past, or drops it.
void runDifferential(unsigned HorizonBits, uint64_t Seed, unsigned Steps) {
  const uint64_t Horizon = 1ull << HorizonBits;
  std::mt19937_64 Rng(Seed);
  chip::EventQueue Q(HorizonBits);
  RefQueue Ref;
  std::vector<Event> Held;
  uint64_t Now = 0, Order = 0, Late = 0;

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
    if (Rng() % 8 == 0) {
      Held.push_back(E);
      return;
    }
    Q.push(E.Time, E.Order, E.K, E.Me, E.Ctx, E.A);
    Ref.push(E);
  };
  auto Release = [&]() {
    for (size_t I = 0; I < Held.size();) {
      unsigned Roll = Rng() % 4;
      if (Roll > 1) {
        ++I;
        continue;
      }
      const Event E = Held[I];
      Held[I] = Held.back();
      Held.pop_back();
      if (Roll == 0 && E.Time >= Now) {
        Q.push(E.Time, E.Order, E.K, E.Me, E.Ctx, E.A);
        Ref.push(E);
        ++Late;
      }
    }
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
    Release();
  }
  while (!Ref.empty()) {
    expectSameEvent(Q.pop(), Ref.top(), Steps);
    Ref.pop();
  }
  EXPECT_TRUE(Q.empty());
  EXPECT_GT(Late, Steps / 100) << "too few late pushes to test them";
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

TEST(EventQueue, SameCyclePushesTakeAndSpillTheSlot) {
  chip::EventQueue Q(3); // horizon 8
  Q.push({0, 1, chip::Ev::RxStep, 0, 0, 0}); // cycle 0 is empty: the slot
  EXPECT_EQ(Q.size(), 1u);
  EXPECT_EQ(Q.pop().Order, 1u);
  Q.push({0, 2, chip::Ev::MeRun, 0, 0, 0});  // slot again
  Q.push({0, 3, chip::Ev::MeRun, 1, 0, 0});  // spills 2 into the bucket
  Q.push({4, 4, chip::Ev::MeRun, 2, 0, 0});
  EXPECT_EQ(Q.size(), 3u);
  EXPECT_EQ(Q.pop().Order, 2u);
  Q.push({0, 5, chip::Ev::CtxResume, 0, 0, 0}); // behind 3 in the bucket
  EXPECT_EQ(Q.pop().Order, 3u);
  EXPECT_EQ(Q.pop().Order, 5u);
  EXPECT_EQ(Q.pop().Order, 4u); // Now = 4
  Q.push({4, 6, chip::Ev::MeRun, 0, 0, 0}); // slot at the new cycle
  Q.push({5, 7, chip::Ev::MeRun, 0, 0, 0});
  EXPECT_EQ(Q.pop().Order, 6u);
  EXPECT_EQ(Q.pop().Order, 7u);
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueue, LatePushesLinkByOrderInsideACycle) {
  // Orders 10, 12, 14 and 17 were taken and held while the others went
  // in; each released event must pop at its Order position: bucket
  // head, middle and tail, below the slot's event, and past the horizon.
  chip::EventQueue Q(3); // horizon 8
  Q.push({0, 0, chip::Ev::RxStep, 0, 0, 0});
  EXPECT_EQ(Q.pop().Order, 0u); // Now = 0
  for (uint64_t O : {11u, 13u, 15u, 16u})
    Q.push({2, O, chip::Ev::CtxResume, 0, 0, 0});
  Q.push({0, 19, chip::Ev::MeRun, 0, 0, 0}); // takes the slot at cycle 0
  Q.push(2, 14, chip::Ev::MeRun, 1, 0, 0);
  Q.push(2, 10, chip::Ev::MeRun, 2, 0, 0);
  Q.push(2, 17, chip::Ev::MeRun, 3, 0, 0);
  Q.push(0, 12, chip::Ev::MeRun, 4, 0, 0); // spills the slot's 19
  Q.push(30, 18, chip::Ev::MeRun, 5, 0, 0);
  const std::vector<uint64_t> Want = {12, 19, 10, 11, 13, 14,
                                      15, 16, 17, 18};
  std::vector<uint64_t> Listed;
  for (const Event &E : Q.sorted())
    Listed.push_back(E.Order);
  EXPECT_EQ(Listed, Want);
  std::vector<uint64_t> Got;
  while (!Q.empty())
    Got.push_back(Q.pop().Order);
  EXPECT_EQ(Got, Want);
}

TEST(EventQueue, SlotSurvivesSortedAndAssign) {
  // A snapshot taken while the slot holds the current cycle's event
  // lists it first; a queue restored from that list continues the same
  // sequence, including a same-cycle push made after the restore.
  chip::EventQueue Q(4);
  Q.push({10, 1, chip::Ev::RxStep, 0, 0, 0});
  EXPECT_EQ(Q.pop().Order, 1u); // Now = 10
  Q.push({40, 2, chip::Ev::SupTick, 0, 0, 0}); // far
  Q.push({12, 3, chip::Ev::MeRun, 0, 0, 0});
  Q.push({10, 4, chip::Ev::MeRun, 1, 0, 0}); // the slot
  std::vector<Event> Snap = Q.sorted();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap[0].Order, 4u);
  EXPECT_EQ(Snap[1].Order, 3u);
  EXPECT_EQ(Snap[2].Order, 2u);

  chip::EventQueue Restored(4);
  Restored.assign(Snap);
  EXPECT_EQ(Restored.size(), 3u);
  for (chip::EventQueue *X : {&Q, &Restored}) {
    EXPECT_EQ(X->pop().Order, 4u);
    X->push({10, 5, chip::Ev::CtxResume, 0, 0, 0});
    X->push({10, 6, chip::Ev::CtxResume, 1, 0, 0});
    X->push(12, 0, chip::Ev::MeRun, 2, 0, 0);
    std::vector<uint64_t> Got;
    while (!X->empty())
      Got.push_back(X->pop().Order);
    EXPECT_EQ(Got, (std::vector<uint64_t>{5, 6, 0, 3, 2}));
  }
}
