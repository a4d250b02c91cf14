//===- EventQueue.h - Monotone timing-wheel event queue ---------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chip kernel's pending-event set. Events pop in (Time, Order)
/// order, where Order is the kernel's monotone insertion counter — the
/// same total order a std::priority_queue<Event, ..., EventAfter> gives,
/// at O(1) per push and pop instead of O(log n).
///
/// The queue is a timing wheel: a power-of-two ring of per-cycle FIFO
/// buckets covering [Now, Now + Horizon), a bitmap of non-empty buckets,
/// and an overflow heap for events beyond the horizon. Bucket FIFOs are
/// singly linked lists threaded through one node pool with a free list,
/// so the few dozen pending events of a chip run reuse the same handful
/// of cache lines however far the wheel turns. It relies on two
/// properties of a discrete-event kernel:
///
///  - time is monotone: nothing is ever scheduled before the time of the
///    event being processed, so Now (the last popped time) only grows;
///  - Order is almost monotone: a push nearly always carries a larger
///    Order than any earlier push, so push() appends to the bucket. An
///    event whose Order was taken earlier and held back (the chip
///    kernel's held ME runs, chip/Chip.cpp) is linked into its bucket at
///    its Order position instead, so it pops exactly where it would
///    have, had it been pushed when its Order was taken.
///
/// Ties between a far event and a near one are safe because overflow
/// events migrate into their buckets as soon as Now advances far enough
/// for them to fit — before any direct push can reach those times — so
/// within a bucket every migrated event (older Order) precedes every
/// directly pushed one.
///
/// The same-cycle slot keeps the commonest traffic off the wheel's
/// structures: an event pushed for the current cycle while that cycle
/// has no other pending event waits in a one-event slot, which pop()
/// returns before it touches a bucket, the bitmap or the node pool. A
/// second push for the cycle spills the slot into the cycle's bucket
/// first, so the slot only ever holds the cycle's one pending event.
///
//===----------------------------------------------------------------------===//

#ifndef CHIP_EVENTQUEUE_H
#define CHIP_EVENTQUEUE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace nova {
namespace chip {

enum class Ev : uint8_t {
  MeRun,
  CtxResume,
  RxStep,
  TxPopDone,
  SupTick,     ///< supervisor watchdog scan + RX backpressure check
  CtxRestart,  ///< backoff expired: restore packet state, requeue
  BrownoutEnd, ///< SDRAM issue bandwidth recovers
  RingUnstall  ///< a ring-stall window ended; wake parked producers
};
constexpr unsigned NumEventKinds = 8;
constexpr unsigned enumCount(Ev) { return NumEventKinds; }

/// Stable lower-case names for reports (`events_by_kind` keys).
inline const char *evName(Ev K) {
  switch (K) {
  case Ev::MeRun:       return "me_run";
  case Ev::CtxResume:   return "ctx_resume";
  case Ev::RxStep:      return "rx_step";
  case Ev::TxPopDone:   return "tx_pop_done";
  case Ev::SupTick:     return "sup_tick";
  case Ev::CtxRestart:  return "ctx_restart";
  case Ev::BrownoutEnd: return "brownout_end";
  case Ev::RingUnstall: return "ring_unstall";
  }
  return "?";
}

struct Event {
  uint64_t Time = 0;
  uint64_t Order = 0; ///< insertion order: total determinism on time ties
  Ev K = Ev::MeRun;
  unsigned Me = 0;
  unsigned Ctx = 0;
  uint64_t A = 0;
};

/// Heap comparator: X pops after Y.
struct EventAfter {
  bool operator()(const Event &X, const Event &Y) const {
    if (X.Time != Y.Time)
      return X.Time > Y.Time;
    return X.Order > Y.Order;
  }
};

/// Sorts \p V into (Time, Order) pop order.
inline void sortByPopOrder(std::vector<Event> &V) {
  std::sort(V.begin(), V.end(),
            [](const Event &X, const Event &Y) { return EventAfter()(Y, X); });
}

class EventQueue {
public:
  /// \p HorizonBits sets the wheel to 2^HorizonBits one-cycle buckets
  /// (at most 2^12, so one summary word indexes the bitmap).
  explicit EventQueue(unsigned HorizonBits = 12)
      : Mask((1u << HorizonBits) - 1), Buckets(Mask + 1),
        Bits((Mask >> 6) + 1, 0) {
    assert(HorizonBits <= 12 && "bitmap summary covers 64 words");
  }

  bool empty() const { return !HasSlot && NearCount == 0 && Far.empty(); }
  size_t size() const { return HasSlot + NearCount + Far.size(); }

  /// Requires E.Time >= the last popped time and an E.Order that no
  /// pending event carries (the kernel's insertion counter gives both).
  void push(const Event &E) { push(E.Time, E.Order, E.K, E.Me, E.Ctx, E.A); }

  /// push() by fields. The kernel schedules through this form: the
  /// fields travel in registers and are stored straight into a bucket
  /// node, where an Event built on the caller's stack and copied whole
  /// would stall on store forwarding.
  void push(uint64_t Time, uint64_t Order, Ev K, unsigned Me, unsigned Ctx,
            uint64_t A) {
    assert(Time >= Now && "event scheduled in the past");
    if (Time == Now && takeSlot(Time, Order, K, Me, Ctx, A))
      return;
    if (Time - Now > Mask) {
      pushFar(Time, Order, K, Me, Ctx, A); // the heap orders any push
      return;
    }
    uint32_t N = newNode(Time, Order, K, Me, Ctx, A);
    Bucket &B = Buckets[static_cast<unsigned>(Time) & Mask];
    if (B.Head == Nil || Pool[B.Tail].E.Order < Order) {
      link(Time, N); // the common case: the newest Order of its cycle
      return;
    }
    ++NearCount;
    if (Order < Pool[B.Head].E.Order) {
      Pool[N].Next = B.Head;
      B.Head = N;
      return;
    }
    uint32_t Prev = B.Head;
    while (Pool[Pool[Prev].Next].E.Order < Order)
      Prev = Pool[Prev].Next;
    Pool[N].Next = Pool[Prev].Next;
    Pool[Prev].Next = N;
  }

  /// Removes and returns the earliest (Time, Order) event.
  Event pop() {
    assert(!empty() && "pop from an empty event queue");
    if (HasSlot) {
      HasSlot = false;
      return Slot;
    }
    if (NearCount == 0)
      advance(Far.front().Time);
    unsigned Start = static_cast<unsigned>(Now) & Mask;
    unsigned Idx = nextBucket(Start);
    uint64_t T = Now + ((Idx - Start) & Mask);
    if (T != Now)
      advance(T);
    Bucket &B = Buckets[Idx];
    uint32_t N = B.Head;
    Node &Nd = Pool[N];
    B.Head = Nd.Next;
    Nd.Next = FreeList;
    FreeList = N;
    if (B.Head == Nil) {
      Bits[Idx >> 6] &= ~(1ull << (Idx & 63));
      if (!Bits[Idx >> 6])
        Summary &= ~(1ull << (Idx >> 6));
    }
    --NearCount;
    return Nd.E;
  }

  /// Every pending event in (Time, Order) order — the canonical form
  /// snapshots serialize, independent of the wheel's layout.
  std::vector<Event> sorted() const {
    std::vector<Event> Out(Far);
    Out.reserve(size());
    if (HasSlot)
      Out.push_back(Slot);
    for (const Bucket &B : Buckets)
      for (uint32_t N = B.Head; N != Nil; N = Pool[N].Next)
        Out.push_back(Pool[N].E);
    sortByPopOrder(Out);
    return Out;
  }

  /// Replaces the contents with \p Pending, given in any order (a
  /// restored snapshot): sorted, then pushed into an empty wheel.
  void assign(std::vector<Event> Pending) {
    clear();
    sortByPopOrder(Pending);
    for (const Event &E : Pending)
      push(E);
  }

private:
  /// Empties the queue and rewinds Now to 0.
  void clear() {
    std::fill(Buckets.begin(), Buckets.end(), Bucket());
    Pool.clear();
    FreeList = Nil;
    std::fill(Bits.begin(), Bits.end(), 0);
    Summary = 0;
    Far.clear();
    NearCount = 0;
    HasSlot = false;
    Now = 0;
  }

  static constexpr uint32_t Nil = ~0u;
  struct Node {
    Event E;
    uint32_t Next = Nil; ///< next node in the bucket, or in the free list
  };
  /// One cycle's events in push order (Head = Tail = Nil when empty).
  struct Bucket {
    uint32_t Head = Nil;
    uint32_t Tail = Nil;
  };

  /// For an event at the current cycle: claims the slot when the cycle
  /// has no other pending event and returns true. Otherwise spills an
  /// occupied slot into the cycle's bucket, where the caller then links
  /// the new event, and returns false.
  bool takeSlot(uint64_t Time, uint64_t Order, Ev K, unsigned Me,
                unsigned Ctx, uint64_t A) {
    if (HasSlot) {
      HasSlot = false;
      link(Slot.Time, newNode(Slot.Time, Slot.Order, Slot.K, Slot.Me,
                              Slot.Ctx, Slot.A));
      return false;
    }
    if (Buckets[static_cast<unsigned>(Time) & Mask].Head != Nil)
      return false;
    Slot.Time = Time;
    Slot.Order = Order;
    Slot.K = K;
    Slot.Me = Me;
    Slot.Ctx = Ctx;
    Slot.A = A;
    HasSlot = true;
    return true;
  }

  uint32_t newNode(uint64_t Time, uint64_t Order, Ev K, unsigned Me,
                   unsigned Ctx, uint64_t A) {
    // A fresh node's Next is Nil, so taking it leaves the free list empty.
    uint32_t N = FreeList != Nil ? FreeList : growPool();
    Node &Nd = Pool[N];
    FreeList = Nd.Next;
    Nd.E.Time = Time;
    Nd.E.Order = Order;
    Nd.E.K = K;
    Nd.E.Me = Me;
    Nd.E.Ctx = Ctx;
    Nd.E.A = A;
    Nd.Next = Nil;
    return N;
  }

  /// Appends node \p N to the bucket of cycle \p Time.
  void link(uint64_t Time, uint32_t N) {
    unsigned Idx = static_cast<unsigned>(Time) & Mask;
    Bucket &B = Buckets[Idx];
    if (B.Head == Nil) {
      B.Head = N;
      Bits[Idx >> 6] |= 1ull << (Idx & 63);
      Summary |= 1ull << (Idx >> 6);
    } else {
      Pool[B.Tail].Next = N;
    }
    B.Tail = N;
    ++NearCount;
  }

  void pushFar(uint64_t Time, uint64_t Order, Ev K, unsigned Me,
               unsigned Ctx, uint64_t A) {
    Far.push_back({Time, Order, K, Me, Ctx, A});
    std::push_heap(Far.begin(), Far.end(), EventAfter());
  }

  uint32_t growPool() {
    Pool.emplace_back();
    return static_cast<uint32_t>(Pool.size() - 1);
  }

  /// Moves Now forward to \p T and pulls every overflow event that now
  /// fits the horizon into its bucket, in (Time, Order) order.
  void advance(uint64_t T) {
    Now = T;
    while (!Far.empty() && Far.front().Time - Now <= Mask) {
      std::pop_heap(Far.begin(), Far.end(), EventAfter());
      const Event &E = Far.back();
      link(E.Time, newNode(E.Time, E.Order, E.K, E.Me, E.Ctx, E.A));
      Far.pop_back();
    }
  }

  /// First non-empty bucket at or after \p Start, wrapping around the
  /// ring. Requires NearCount > 0.
  unsigned nextBucket(unsigned Start) const {
    unsigned W = Start >> 6;
    if (uint64_t B = Bits[W] & (~0ull << (Start & 63)))
      return (W << 6) | static_cast<unsigned>(__builtin_ctzll(B));
    uint64_t Later = W == 63 ? 0 : Summary & (~0ull << (W + 1));
    unsigned Next = static_cast<unsigned>(
        __builtin_ctzll(Later ? Later : Summary));
    return (Next << 6) | static_cast<unsigned>(__builtin_ctzll(Bits[Next]));
  }

  unsigned Mask;                ///< bucket count - 1 (the horizon - 1)
  std::vector<Bucket> Buckets;  ///< index = Time & Mask
  std::vector<Node> Pool;       ///< bucket list nodes, live and free
  uint32_t FreeList = Nil;      ///< recycled Pool nodes
  std::vector<uint64_t> Bits;   ///< non-empty buckets
  uint64_t Summary = 0;         ///< non-zero words of Bits
  std::vector<Event> Far;       ///< heap (EventAfter) beyond the horizon
  size_t NearCount = 0;         ///< events in buckets
  uint64_t Now = 0;             ///< time of the last pop (or advance)
  Event Slot;                   ///< the current cycle's one pending event
  bool HasSlot = false;         ///< Slot is live (its bucket is empty)
};

} // namespace chip
} // namespace nova

#endif // CHIP_EVENTQUEUE_H
