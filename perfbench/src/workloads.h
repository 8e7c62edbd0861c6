//===- perfbench/src/workloads.h - Workload entry points --------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"
#include "spans.h"

#include <map>
#include <string>

namespace perfbench {

bool isWorkload(const std::string &Name);

/// The end-to-end run: every end-to-end metric of the workload.
void runUntraced(const Config &C, RunReport &Report);

/// One cold pass (set-up plus one pass from fresh process state) for the
/// parent run's schedule; prints "seconds peak_rss_mb attempted failed
/// output_hash" on stdout.
void runColdSample(const Config &C);

/// The traced run: every per-layer metric, from the workload's traced
/// pass and the layer probe.
void runTraced(const Config &C, RunReport &Report);

/// Turns the traced run's spans and values into the per-layer metrics,
/// writes the Chrome trace to C.TraceOut, and prints each layer's self
/// time to stderr.
void emitLayerMetrics(const Config &C, const SpanRecorder &Rec,
                      uint64_t WorkloadRoot, uint64_t ProbeRoot,
                      const std::map<std::string, double> &Pass,
                      const std::map<std::string, double> &Probe,
                      double OverheadFrac, RunReport &Report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
