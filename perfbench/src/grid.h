//===- perfbench/src/grid.h - Seeded evaluation grids -----------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 6 grid (nine apps x mild/medium/aggressive) as the grid
/// workloads run it. harness::runEval always runs workload seeds 1..N
/// under the preset fault seed, so the benchmark enumerates the same
/// trials itself with seeds derived from its --seed, dispatches them
/// through harness::TrialRunner, and aggregates each cell the way
/// runEval does so renderEvalJson sees an ordinary EvalResult. Benchmark
/// seed 1 reproduces runEval exactly (the self-test pins the bytes).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GRID_H
#define PERFBENCH_GRID_H

#include "bench.h"

#include "exec/compiled.h"
#include "harness/eval.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One engine's share of a grid: every (app, level) cell with Seeds
/// workload seeds.
struct GridPart {
  enerj::harness::ExecMode Exec = enerj::harness::ExecMode::Interp;
  int Seeds = 1;
};

struct PartState {
  GridPart Part;
  std::unique_ptr<enerj::exec::ProgramCache> Kernels; ///< Compiled only.
  std::vector<enerj::harness::Trial> Trials;
};

/// A set-up grid. Trials point into Kernels and Power, so a GridState
/// never moves once built.
struct GridState {
  bool Armed = false;
  enerj::resilience::ResiliencePolicy Policy;
  enerj::env::PowerEnv Power;
  std::vector<PartState> Parts;
};

/// Builds the grid: for compiled parts a cold ProgramCache fill (every
/// ladder rung when the armed policy can degrade), for armed grids the
/// power trace and checkpoint policy, then the trial lists. With
/// \p Stages each cell is also lowered stage by stage and checked
/// against the cache's binary (the traced run's per-stage spans).
std::unique_ptr<GridState> setupGrid(const Config &C,
                                     const std::vector<GridPart> &Parts,
                                     bool Armed, bool Stages,
                                     RunReport &Report);

/// What one pass over a grid produced.
struct PassResult {
  double Seconds = 0.0;
  std::string Json; ///< renderEvalJson of every part, concatenated.
  uint64_t JournalHash = 0;
  uint64_t OutputHash = 0; ///< FNV-1a over Json and every journal.
  uint64_t Journals = 0, JournalBytes = 0;
  uint64_t LedgerBytes = 0;
  uint64_t Trials = 0, Aborted = 0;
  double QosSum = 0.0, EnergySum = 0.0;
  uint64_t Attempts = 0, FirstAttemptAccepts = 0;
  uint64_t ReExecutedOps = 0, LiveOps = 0;
};

/// Runs every trial of the grid once, aggregates, renders the eval JSON
/// and a ledger line, and (armed) renders every captured journal in
/// memory. \p Traced dispatches through the benchmark's own pool so
/// each TrialRunner::runOne call gets a span.
PassResult runPass(const GridState &G, unsigned Threads, bool Traced);

/// Counts the pass's trials as attempted checks, and each trial that
/// ended Aborted as a failure.
void countTrials(const PassResult &P, RunReport &Report);

/// The per-layer values a pass measures: resilience attempts and
/// first-attempt accepts, and when \p Armed the env re-execution share
/// and the mean journal size.
void passValues(const PassResult &P, bool Armed,
                std::map<std::string, double> &Out);

} // namespace perfbench

#endif // PERFBENCH_GRID_H
