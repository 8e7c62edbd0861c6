//===- perfbench/src/bench.h - Shared benchmark declarations ----*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the workloads, the layer probe and main() share: the run
/// configuration, the metric rows a run reports, and the stage-by-stage
/// lowering (the same stage order as exec::ProgramCache's compileKernel,
/// called one stage at a time so each stage gets its own span).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "fault/config.h"
#include "isa/isa.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;     ///< Workload seed; 1 reproduces runEval's 1..N.
  double Seconds = 10.0; ///< Wall length of an untraced run.
  /// When the run began: an untraced run starts no round that would end
  /// after Start + Seconds.
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  bool Trace = false;    ///< The traced per-layer run.
  bool Smoke = false;    ///< Tiny grids, for the self-test only.
  unsigned Threads = 4;  ///< Worker threads (min(nproc, 4)).
  std::string Root;      ///< Repository checkout (holds examples/).
  std::string TraceOut;  ///< Where the traced run writes its spans.
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a run reports: the attempted/failed tallies of the output checks
/// and the metric rows (end-to-end untraced, per-layer traced).
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Failures; ///< First few failure messages.

  void fail(const std::string &Message) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Message);
  }
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

double median(std::vector<double> Values);

/// Reads a whole file; nullopt when it cannot be opened.
std::optional<std::string> readFile(const std::string &Path);

/// The kernel corpus directory and the nine kernel names (the nine
/// evaluation applications, in registry order).
std::string kernelDir(const Config &C);
std::vector<std::string> kernelNames();

/// Runs Body(0) .. Body(N - 1) on \p Threads workers that claim indices
/// from one atomic counter, as TrialRunner does. Body must not throw.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Body);

/// Every .fej file of the corpus (examples/fej, its apps/ and isa/
/// subdirectories), sorted.
std::vector<std::string> corpusPaths(const Config &C);

/// One (program, level) lowering through the full pipeline.
struct Lowering {
  bool Ok = false;
  std::string Error; ///< The rejecting stage's message when !Ok.
  enerj::isa::IsaProgram Binary;
  size_t OpsBefore = 0, OpsAfter = 0;
  double StaticEnergyFactor = 1.0; ///< Optimizer estimate at the level.
  /// The level-None reference run's result registers.
  int64_t RefInt = 0;
  double RefFp = 0.0;
};

/// Lowers \p Source at \p Level stage by stage — compile (lex, parse,
/// type check), codegen, assemble, verify, flow, optimize, reference
/// run — each stage in its own span.
Lowering lowerStages(const std::string &Source, enerj::ApproxLevel Level);

/// The layer probe: fixed calls into every layer's public functions,
/// each in a span under one "probe" root. Values that are not span
/// timings (ratios, counts) go to \p Values; the probe's own output
/// checks count in \p Report.
void runProbe(const Config &C, std::map<std::string, double> &Values,
              RunReport &Report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
