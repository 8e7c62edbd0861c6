//===- perfbench/src/spans.h - In-memory wall-clock spans -------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrument. The benchmark wraps each call it makes
/// into a layer's public function in a Span: name, start, end, parent
/// span, thread, and an item count (operations, instructions or trials
/// the call covered, so per-item costs are measured where the work
/// happens). Spans live in per-thread buffers until the run ends, then
/// the recorder aggregates them and writes a Chrome trace_event file.
///
/// When no recorder is active a Span costs one relaxed load and records
/// nothing, so the untraced runs that produce the end-to-end metrics
/// pay nothing for the instrument.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One closed span. Name must be a string literal (it is not copied).
struct SpanRecord {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = a root span.
  uint32_t Thread = 0;
  uint64_t Items = 1;
  int64_t durationNs() const { return EndNs - StartNs; }
};

/// Aggregate of every span that shares a name.
struct SpanStats {
  uint64_t Count = 0;
  uint64_t Items = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0; ///< TotalNs minus the time child spans cover.
  std::vector<int64_t> Durations;

  double meanUs() const { return Count ? TotalNs / 1e3 / Count : 0.0; }
  double nsPerItem() const {
    return Items ? static_cast<double>(TotalNs) / Items : 0.0;
  }
  /// Nearest-rank percentile of the durations, in microseconds.
  double percentileUs(double P) const;
};

/// Collects spans from every thread while active. One recorder per
/// traced run; install it with activate() before the first Span.
class SpanRecorder {
public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;
  ~SpanRecorder();

  /// Makes this recorder the target of every Span until deactivate().
  void activate();
  void deactivate();

  /// The active recorder, or null (the untraced runs).
  static SpanRecorder *active();

  /// Every recorded span, merged across threads (call after the
  /// threads that recorded have been joined).
  std::vector<SpanRecord> spans() const;

  /// Per-name aggregates over the spans under \p Root (the root
  /// included); Root 0 aggregates everything.
  std::map<std::string, SpanStats> aggregate(uint64_t Root = 0) const;

  /// Share of \p Root's wall time that no span under it covers, merged
  /// as intervals across threads; spans \p IsContainer names (the
  /// benchmark's own grouping spans) do not count as cover.
  double uncoveredShare(uint64_t Root,
                        bool (*IsContainer)(const std::string &)) const;

  /// Writes the spans as Chrome trace_event JSON; false on I/O error.
  bool writeChromeTrace(const std::string &Path) const;

  // Internals used by Span.
  struct ThreadBuffer;
  ThreadBuffer &buffer();
  int64_t nowNs() const;

private:
  Clock::time_point Epoch;
  mutable std::mutex Mutex; ///< Guards Buffers (registration only).
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
};

/// RAII span around one call into a layer. Nests by thread: a Span's
/// parent is the innermost open Span on the same thread, or \p Parent
/// when given (spans opened on worker threads name the pass span that
/// caused them).
class Span {
public:
  explicit Span(const char *Name, uint64_t Items = 1, uint64_t Parent = 0);
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span();

  /// The span's id (0 when no recorder is active).
  uint64_t id() const { return Record.Id; }
  void setItems(uint64_t Items) { Record.Items = Items; }

private:
  SpanRecorder *Recorder;
  SpanRecord Record;
  uint64_t SavedOpen = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
