//===- perfbench/src/layers.cpp - Per-layer metrics from spans ------------===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the traced run's spans into the per-layer metrics declared in
/// BENCHMARK.json (perfbench/metrics.json says which end-to-end metric
/// each should move, on which workload). A span the workload's own pass
/// recorded wins over the probe's span of the same name.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "apps/app.h"

#include <cstdio>

using namespace perfbench;

namespace {

/// Containers the benchmark opens around its own glue; they are not
/// calls into a layer, so they do not count as covering wall time.
bool isContainer(const std::string &Name) {
  return Name == "workload" || Name == "setup" || Name == "harness.pass" ||
         Name == "toolchain.pass" || Name == "toolchain.job" ||
         Name == "setup.oracles";
}

} // namespace

void perfbench::emitLayerMetrics(const Config &C, const SpanRecorder &Rec,
                                 uint64_t WorkloadRoot, uint64_t ProbeRoot,
                                 const std::map<std::string, double> &Pass,
                                 const std::map<std::string, double> &Probe,
                                 double OverheadFrac, RunReport &Report) {
  std::map<std::string, SpanStats> W = Rec.aggregate(WorkloadRoot);
  std::map<std::string, SpanStats> P = Rec.aggregate(ProbeRoot);
  auto Stat = [&](const std::string &Name) -> const SpanStats & {
    auto It = W.find(Name);
    if (It != W.end())
      return It->second;
    It = P.find(Name);
    if (It != P.end())
      return It->second;
    Report.fail("traced run recorded no '" + Name + "' span");
    static const SpanStats Empty;
    return Empty;
  };
  auto Value = [&](const std::string &Name) {
    auto It = Pass.find(Name);
    if (It != Pass.end())
      return It->second;
    It = Probe.find(Name);
    if (It != Probe.end())
      return It->second;
    Report.fail("traced run measured no '" + Name + "'");
    return 0.0;
  };
  auto Us = [&](const char *Metric, const char *SpanName) {
    Report.add(Metric, Stat(SpanName).meanUs(), "us");
  };
  auto NsPerItem = [&](const char *Metric, const char *SpanName) {
    Report.add(Metric, Stat(SpanName).nsPerItem(), "ns");
  };

  Us("fenerj.compile_us", "fenerj.compile");
  Us("fenerj.codegen_us", "fenerj.codegen");

  Us("isa.assemble_us", "isa.assemble");
  Us("isa.verify_us", "isa.verify");
  NsPerItem("isa.ns_per_insn.none", "isa.run.none");
  NsPerItem("isa.ns_per_insn.medium", "isa.run.medium");

  Us("analysis.flow_us", "analysis.flow");
  Us("analysis.opt_us", "analysis.opt");
  Report.add("analysis.opt_insns_removed",
             Value("analysis.opt_insns_removed"), "count");
  Report.add("analysis.code_size_insns", Value("analysis.code_size_insns"),
             "count");
  Us("analysis.bound_us", "analysis.bound");
  Us("analysis.lint_us", "analysis.lint");
  Us("analysis.infer_us", "analysis.infer");

  Report.add("exec.lower_ms", Stat("exec.lower").meanUs() / 1e3, "ms");
  Us("exec.machine_setup_us.none", "exec.machine_setup.none");
  Us("exec.machine_setup_us.medium", "exec.machine_setup.medium");
  NsPerItem("exec.ns_per_insn.none", "exec.run.none");
  NsPerItem("exec.ns_per_insn.medium", "exec.run.medium");
  NsPerItem("exec.ns_per_insn.aggressive", "exec.run.aggressive");
  // The like-for-like engine ratio: both engines, one binary, one level.
  // Its base is the pair of isa/exec ns_per_insn rows above.
  Report.add("exec.speedup_vs_isa.none",
             Stat("isa.run.none").nsPerItem() /
                 Stat("exec.run.none").nsPerItem(),
             "ratio");
  Report.add("exec.speedup_vs_isa.medium",
             Stat("isa.run.medium").nsPerItem() /
                 Stat("exec.run.medium").nsPerItem(),
             "ratio");
  Report.add("exec.trial_us.p50", Stat("exec.trial").percentileUs(0.50), "us");
  Report.add("exec.trial_us.p99", Stat("exec.trial").percentileUs(0.99), "us");
  const SpanStats &Runs = Stat("exec.run.medium");
  Report.add("exec.insns_per_trial",
             Runs.Count ? static_cast<double>(Runs.Items) / Runs.Count : 0.0,
             "count");

  NsPerItem("fault.ns_per_mask.medium", "fault.mask.medium");
  NsPerItem("fault.ns_per_mask.aggressive", "fault.mask.aggressive");
  NsPerItem("fault.sram_inject_ns", "fault.sram_inject");

  NsPerItem("runtime.approx_fp_op_ns", "runtime.approx_fp_op");
  NsPerItem("runtime.approx_int_op_ns", "runtime.approx_int_op");
  NsPerItem("runtime.precise_op_ns", "runtime.precise_op");
  NsPerItem("runtime.approx_array_rw_ns", "runtime.approx_array_rw");
  Report.add("runtime.sim_setup_us",
             Stat("runtime.sim_setup").nsPerItem() / 1e3, "us");
  NsPerItem("runtime.observed_op_ns", "runtime.observed_op");

  NsPerItem("arch.lease_release_ns", "arch.lease_release");
  NsPerItem("energy.price_ns", "energy.price");

  for (const enerj::apps::Application *App :
       enerj::apps::allApplications()) {
    std::string Name = App->name();
    Report.add("apps.approx_us." + Name,
               Stat("apps.approx." + Name).meanUs(), "us");
  }
  Report.add("apps.precise_share",
             static_cast<double>(Stat("apps.precise").TotalNs) /
                 static_cast<double>(Stat("apps.trial").TotalNs),
             "share");
  Us("qos.score_us", "qos.score");

  // busy = sum of runOne time / (threads x pool wall), from whichever
  // source recorded the runOne spans (the two spans come together).
  bool OwnPool = W.count("harness.runOne") != 0;
  const SpanStats &RunOne = OwnPool ? W["harness.runOne"] : Stat("harness.runOne");
  const SpanStats &Pool = OwnPool ? W["harness.pool"] : Stat("harness.pool");
  Report.add("harness.busy_frac",
             static_cast<double>(RunOne.TotalNs) /
                 (static_cast<double>(C.Threads) *
                  static_cast<double>(Pool.TotalNs)),
             "share");
  Report.add("harness.trial_us.p50", RunOne.percentileUs(0.50), "us");
  Report.add("harness.trial_us.p99", RunOne.percentileUs(0.99), "us");
  Report.add("harness.render_json_ms",
             Stat("harness.render_json").meanUs() / 1e3, "ms");

  Report.add("resilience.attempts_per_trial",
             Value("resilience.attempts_per_trial"), "count");
  Report.add("resilience.accepted_frac", Value("resilience.accepted_frac"),
             "share");

  NsPerItem("env.step_ns", "env.step");
  Report.add("env.reexec_frac", Value("env.reexec_frac"), "share");

  Report.add("obs.metrics_ratio.interp", Value("obs.metrics_ratio.interp"),
             "ratio");
  Report.add("obs.metrics_ratio.compiled",
             Value("obs.metrics_ratio.compiled"), "ratio");
  Report.add("obs.trace_ratio.interp", Value("obs.trace_ratio.interp"),
             "ratio");
  Report.add("obs.trace_ratio.compiled", Value("obs.trace_ratio.compiled"),
             "ratio");
  Us("obs.journal_us", "obs.journal");
  Report.add("obs.journal_bytes", Value("obs.journal_bytes"), "bytes");
  Us("obs.ledger_line_us", "obs.ledger_line");

  // Trace bookkeeping: how much of the workload's wall time no layer
  // call covers, and what tracing costs (traced / untraced pass).
  std::vector<SpanRecord> All = Rec.spans();
  Report.add("trace.uncovered_share",
             Rec.uncoveredShare(WorkloadRoot, isContainer), "share");
  Report.add("trace.overhead_frac", OverheadFrac, "ratio");

  // Self time per layer over the workload's spans, for the trace reader.
  std::map<std::string, double> SelfMs;
  for (const auto &[Name, S] : W)
    if (!isContainer(Name))
      SelfMs[Name.substr(0, Name.find('.'))] += S.SelfNs / 1e6;
  std::fprintf(stderr, "[perfbench] %s self time by layer (ms):", C.Workload.c_str());
  for (const auto &[Layer, Ms] : SelfMs)
    std::fprintf(stderr, " %s=%.3f", Layer.c_str(), Ms);
  std::fprintf(stderr, "\n");
  if (!C.TraceOut.empty()) {
    if (Rec.writeChromeTrace(C.TraceOut))
      std::fprintf(stderr, "[perfbench] wrote %zu spans to %s\n", All.size(),
                   C.TraceOut.c_str());
    else
      std::fprintf(stderr, "[perfbench] cannot write %s\n",
                   C.TraceOut.c_str());
  }
}
