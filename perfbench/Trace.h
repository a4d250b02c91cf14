//===- Trace.h - In-memory span recorder for the benchmark ------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its calls into each layer. A span
/// carries its name, start and end, the span that was open when it began
/// (its parent), and a request id: the app, plus the packet sequence
/// number for per-packet work. Spans stay in memory and are written out
/// when the run ends; run.py derives self time (a span's busy time minus
/// its children's) from the parent links.
///
/// Calls too short to pay for a span each (packet generation, memory
/// reset, one fast-path packet) go through a Batch: one record covers up
/// to BatchSize consecutive calls, with Count calls and their summed
/// duration as Busy. A plain span has Count 1 and Busy = End - Start.
///
/// With the tracer off, every Span and Batch is a branch and nothing
/// else: the untraced passes take no clock readings for it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsBetween(int64_t Start, int64_t End) {
  return static_cast<double>(End - Start) * 1e-9;
}

struct SpanRecord {
  const char *Name = nullptr; ///< string literal (static lifetime)
  uint32_t Parent = 0;        ///< id of the enclosing span; 0 = none
  int32_t App = -1;           ///< request: app index, -1 = none
  int64_t Seq = -1;           ///< request: packet sequence, -1 = none
  int64_t Start = 0, End = 0; ///< nanoseconds (nowNs)
  uint64_t Count = 1;         ///< calls covered (Batch records: > 1)
  int64_t Busy = 0;           ///< summed call time; End - Start for spans
};

class Tracer {
public:
  static constexpr uint64_t BatchSize = 256;

  bool enabled() const { return On; }
  void setEnabled(bool E) { On = E; }

  /// Span ids are 1-based indices into spans().
  uint32_t open(const char *Name, int App, int64_t Seq) {
    SpanRecord R;
    R.Name = Name;
    R.Parent = top();
    R.App = App;
    R.Seq = Seq;
    R.Start = nowNs();
    Spans.push_back(R);
    uint32_t Id = static_cast<uint32_t>(Spans.size());
    Stack.push_back(Id);
    return Id;
  }

  void close(uint32_t Id) {
    SpanRecord &R = Spans[Id - 1];
    R.End = nowNs();
    R.Busy = R.End - R.Start;
    // Spans nest strictly (RAII), so the closing span is the innermost.
    Stack.pop_back();
  }

  void record(const SpanRecord &R) { Spans.push_back(R); }

  uint32_t top() const { return Stack.empty() ? 0 : Stack.back(); }
  const std::vector<SpanRecord> &spans() const { return Spans; }

private:
  bool On = false;
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Stack;
};

/// RAII span around one call into a layer; a no-op when tracing is off.
class Span {
public:
  Span(Tracer &T, const char *Name, int App = -1, int64_t Seq = -1) : T(T) {
    if (T.enabled())
      Id = T.open(Name, App, Seq);
  }
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void close() {
    if (Id)
      T.close(Id);
    Id = 0;
  }

private:
  Tracer &T;
  uint32_t Id = 0;
};

/// Folds consecutive short calls into one record per Tracer::BatchSize
/// calls. The parent is the span open at the batch's first call.
class Batch {
public:
  Batch(Tracer &T, const char *Name, int App) : T(T) {
    Cur.Name = Name;
    Cur.App = App;
    Cur.Count = 0;
  }
  ~Batch() { flush(); }
  Batch(const Batch &) = delete;
  Batch &operator=(const Batch &) = delete;

  /// Clock reading for the start or end of a call (0 when untraced).
  int64_t stamp() const { return T.enabled() ? nowNs() : 0; }

  /// Accounts one call that ran from \p Start to \p End.
  void add(int64_t Start, int64_t End) {
    if (!T.enabled())
      return;
    if (Cur.Count == 0) {
      Cur.Start = Start;
      Cur.Parent = T.top();
    }
    Cur.End = End;
    Cur.Busy += End - Start;
    if (++Cur.Count == Tracer::BatchSize)
      flush();
  }

  void flush() {
    if (Cur.Count)
      T.record(Cur);
    Cur.Count = 0;
    Cur.Busy = 0;
  }

private:
  Tracer &T;
  SpanRecord Cur;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
