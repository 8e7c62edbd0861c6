//===- perfbench/src/spans.cpp - In-memory wall-clock spans ---------------===//

#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

using namespace perfbench;

struct SpanRecorder::ThreadBuffer {
  uint32_t Thread = 0;
  std::vector<SpanRecord> Spans;
};

namespace {

std::atomic<SpanRecorder *> ActiveRecorder{nullptr};
std::atomic<uint64_t> NextSpanId{1};

/// Per-thread registration with the active recorder plus the id of the
/// innermost open span on this thread.
struct ThreadState {
  SpanRecorder *Owner = nullptr;
  SpanRecorder::ThreadBuffer *Buffer = nullptr;
  uint64_t Open = 0;
};
thread_local ThreadState Local;

/// Length of the union of [Start, End) intervals, clipped to [Lo, Hi).
int64_t coveredNs(std::vector<std::pair<int64_t, int64_t>> Intervals,
                  int64_t Lo, int64_t Hi) {
  std::sort(Intervals.begin(), Intervals.end());
  int64_t Covered = 0, Cursor = Lo;
  for (auto [Start, End] : Intervals) {
    Start = std::max(Start, Cursor);
    End = std::min(End, Hi);
    if (End > Start) {
      Covered += End - Start;
      Cursor = End;
    }
  }
  return Covered;
}

} // namespace

double SpanStats::percentileUs(double P) const {
  if (Durations.empty())
    return 0.0;
  std::vector<int64_t> Sorted = Durations;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Sorted.size()));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1] / 1e3;
}

SpanRecorder::SpanRecorder() : Epoch(Clock::now()) {}

SpanRecorder::~SpanRecorder() { deactivate(); }

void SpanRecorder::activate() { ActiveRecorder.store(this); }

void SpanRecorder::deactivate() {
  SpanRecorder *Expected = this;
  ActiveRecorder.compare_exchange_strong(Expected, nullptr);
}

SpanRecorder *SpanRecorder::active() {
  return ActiveRecorder.load(std::memory_order_relaxed);
}

SpanRecorder::ThreadBuffer &SpanRecorder::buffer() {
  if (Local.Owner != this) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::make_unique<ThreadBuffer>());
    Buffers.back()->Thread = static_cast<uint32_t>(Buffers.size());
    Local.Owner = this;
    Local.Buffer = Buffers.back().get();
    Local.Open = 0;
  }
  return *Local.Buffer;
}

int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<SpanRecord> All;
  for (const auto &B : Buffers)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  std::sort(All.begin(), All.end(),
            [](const SpanRecord &A, const SpanRecord &B) { return A.Id < B.Id; });
  return All;
}

std::map<std::string, SpanStats>
SpanRecorder::aggregate(uint64_t Root) const {
  std::vector<SpanRecord> All = spans();
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      Children;
  for (const SpanRecord &S : All) {
    if (S.Parent)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});
  }
  // Spans are sorted by id and a parent always opens before its child,
  // so one forward sweep decides membership under Root.
  std::unordered_map<uint64_t, bool> Under;
  std::map<std::string, SpanStats> Stats;
  for (const SpanRecord &S : All) {
    bool In = Root == 0 || S.Id == Root || (S.Parent && Under[S.Parent]);
    Under[S.Id] = In;
    if (!In)
      continue;
    SpanStats &Row = Stats[S.Name];
    ++Row.Count;
    Row.Items += S.Items;
    Row.TotalNs += S.durationNs();
    auto It = Children.find(S.Id);
    int64_t Covered =
        It == Children.end() ? 0 : coveredNs(It->second, S.StartNs, S.EndNs);
    Row.SelfNs += S.durationNs() - Covered;
    Row.Durations.push_back(S.durationNs());
  }
  return Stats;
}

double SpanRecorder::uncoveredShare(
    uint64_t Root, bool (*IsContainer)(const std::string &)) const {
  std::vector<SpanRecord> All = spans();
  const SpanRecord *RootSpan = nullptr;
  std::unordered_map<uint64_t, bool> Under;
  std::vector<std::pair<int64_t, int64_t>> Cover;
  for (const SpanRecord &S : All) {
    bool In = S.Id == Root || (S.Parent && Under[S.Parent]);
    Under[S.Id] = In;
    if (S.Id == Root)
      RootSpan = &S;
    else if (In && !IsContainer(S.Name))
      Cover.push_back({S.StartNs, S.EndNs});
  }
  if (!RootSpan || RootSpan->durationNs() <= 0)
    return 0.0;
  int64_t Covered = coveredNs(Cover, RootSpan->StartNs, RootSpan->EndNs);
  return 1.0 - static_cast<double>(Covered) / RootSpan->durationNs();
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[";
  char Line[320];
  bool First = true;
  for (const SpanRecord &S : spans()) {
    std::snprintf(Line, sizeof(Line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"items\":%llu}}",
                  First ? "" : ",", S.Name, S.Thread, S.StartNs / 1e3,
                  S.durationNs() / 1e3, static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent),
                  static_cast<unsigned long long>(S.Items));
    Out << Line;
    First = false;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

Span::Span(const char *Name, uint64_t Items, uint64_t Parent)
    : Recorder(SpanRecorder::active()) {
  if (!Recorder)
    return;
  SpanRecorder::ThreadBuffer &Buffer = Recorder->buffer();
  Record.Name = Name;
  Record.Items = Items;
  Record.Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  Record.Parent = Parent ? Parent : Local.Open;
  Record.Thread = Buffer.Thread;
  SavedOpen = Local.Open;
  Local.Open = Record.Id;
  Record.StartNs = Recorder->nowNs();
}

Span::~Span() {
  if (!Recorder)
    return;
  Record.EndNs = Recorder->nowNs();
  Local.Open = SavedOpen;
  Recorder->buffer().Spans.push_back(Record);
}
