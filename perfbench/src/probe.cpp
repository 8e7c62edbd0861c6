//===- perfbench/src/probe.cpp - The layer probe --------------------------===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed calls into every layer's public functions, each in a span, so
/// every traced run reports every per-layer metric. A workload's traced
/// pass takes precedence for the spans it records itself (the grids'
/// runOne calls, the compiled grids' lowering); the probe supplies the
/// rest. Inputs are the corpus kernels and small fixed grids, so probe
/// numbers compare across workloads and commits.
///
/// The engine rows run isa::Machine and exec::FastMachine on the *same*
/// optimized binary (each kernel's Medium cell), which is what makes
/// their ns-per-instruction ratio a like-for-like speedup.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "grid.h"
#include "spans.h"

#include "analysis/infer.h"
#include "analysis/lint.h"
#include "analysis/reliability/bounds.h"
#include "apps/app.h"
#include "core/enerj.h"
#include "energy/model.h"
#include "env/power.h"
#include "exec/compiled.h"
#include "exec/machine.h"
#include "fault/block.h"
#include "fault/rates.h"
#include "fenerj/diag.h"
#include "fenerj/typecheck.h"
#include "isa/machine.h"
#include "obs/telemetry.h"
#include "support/rng.h"

#include <cstring>
#include <optional>
#include <set>
#include <stdexcept>

using namespace enerj;
using namespace enerj::harness;
using namespace perfbench;

namespace {

/// Keeps a value observable so the timed loop is not folded away.
volatile uint64_t Sink = 0;

void sink(uint64_t V) { Sink = Sink + V; }
void sink(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof Bits);
  sink(Bits);
}

/// Per-op loops run this many operations per span.
constexpr uint64_t OpsPerLoop = 1u << 20;

/// "<Prefix>.<level>" as a span name. Span names are not copied, so
/// each distinct name is stored once for the life of the process.
const char *levelSpan(const char *Prefix, ApproxLevel Level) {
  static std::set<std::string> Names;
  return Names.insert(std::string(Prefix) + "." + approxLevelName(Level))
      .first->c_str();
}

/// Lowers the nine kernels at each evaluation level, stage by stage,
/// and returns the Medium binaries; counts the optimizer's effect.
std::vector<isa::IsaProgram> probeLowering(const Config &C,
                                           std::map<std::string, double> &V,
                                           RunReport &Report) {
  std::vector<isa::IsaProgram> Medium;
  double CodeSize = 0, Removed = 0;
  for (const std::string &Name : kernelNames()) {
    std::optional<std::string> Source =
        readFile(kernelDir(C) + "/" + Name + ".fej");
    if (!Source)
      throw std::runtime_error("missing kernel " + Name);
    for (ApproxLevel Level : evalLevels()) {
      Lowering L = lowerStages(*Source, Level);
      ++Report.Attempted;
      if (!L.Ok) {
        Report.fail(Name + " rejected: " + L.Error);
        continue;
      }
      if (Level == ApproxLevel::Medium) {
        CodeSize += static_cast<double>(L.OpsAfter);
        Removed += static_cast<double>(L.OpsBefore - L.OpsAfter);
        Medium.push_back(std::move(L.Binary));
      }
    }
  }
  V["analysis.code_size_insns"] = CodeSize;
  V["analysis.opt_insns_removed"] = Removed;
  return Medium;
}

void probeAnalyses(const Config &C,
                   const std::vector<isa::IsaProgram> &Medium) {
  for (const std::string &Path : corpusPaths(C)) {
    std::optional<std::string> Source = readFile(Path);
    fenerj::DiagnosticEngine Diags;
    fenerj::ClassTable Table;
    std::optional<fenerj::Program> Prog =
        Source ? fenerj::compile(*Source, Table, Diags) : std::nullopt;
    if (!Prog)
      continue;
    {
      Span S("analysis.lint");
      sink(static_cast<uint64_t>(
          analysis::runLint(*Prog, Table).Findings.size()));
    }
    {
      Span S("analysis.infer");
      sink(static_cast<uint64_t>(
          analysis::inferProgram(*Prog, Table, Path).TotalDecls));
    }
  }
  FaultRates Rates = FaultRates::of(FaultConfig::preset(ApproxLevel::Medium));
  for (const isa::IsaProgram &Binary : Medium) {
    Span S("analysis.bound");
    sink(analysis::reliability::analyzeProgram(Binary, Rates).ProgramBound);
  }
}

/// Both ISA engines on the same binaries, plus FastMachine set-up.
void probeEngines(const std::vector<isa::IsaProgram> &Medium,
                  uint64_t Seed) {
  constexpr int Reps = 24;
  for (int Rep = 0; Rep < Reps; ++Rep)
    for (const isa::IsaProgram &Binary : Medium) {
      for (ApproxLevel Level : {ApproxLevel::None, ApproxLevel::Medium}) {
        FaultConfig Config = FaultConfig::preset(Level);
        Config.Seed = mixSeed(Seed, static_cast<uint64_t>(Rep));
        isa::Machine M(Binary, Config);
        Span S(levelSpan("isa.run", Level));
        S.setItems(M.run().InstructionsExecuted);
      }
      for (ApproxLevel Level : {ApproxLevel::None, ApproxLevel::Medium,
                                ApproxLevel::Aggressive}) {
        FaultConfig Config = FaultConfig::preset(Level);
        Config.Seed = mixSeed(Seed, static_cast<uint64_t>(Rep));
        std::optional<exec::FastMachine> M;
        {
          Span S(levelSpan("exec.machine_setup", Level));
          M.emplace(Binary, Config);
        }
        Span S(levelSpan("exec.run", Level));
        S.setItems(M->run().InstructionsExecuted);
      }
    }
}

/// runCompiledTrial on every cell of a filled cache.
void probeCompiledTrials(exec::ProgramCache &Kernels) {
  for (const apps::Application *App : apps::allApplications())
    for (ApproxLevel Level : evalLevels()) {
      const exec::CompiledKernel &K = Kernels.get(App->name(), Level);
      for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
        Span S("exec.trial");
        sink(exec::runCompiledTrial(K, FaultConfig::preset(Level), Seed)
                 .QosError);
      }
    }
}

void probeFaultAndRuntime(uint64_t Seed) {
  for (ApproxLevel Level : {ApproxLevel::Medium, ApproxLevel::Aggressive}) {
    FaultRates Rates = FaultRates::of(FaultConfig::preset(Level));
    UpsetStream Stream(Rates.SramReadUpsetPerBit, Seed, BlockMode::Batched);
    Span S(Level == ApproxLevel::Medium ? "fault.mask.medium"
                                        : "fault.mask.aggressive",
           OpsPerLoop * 4);
    uint64_t Acc = 0;
    for (uint64_t I = 0; I < OpsPerLoop * 4; ++I)
      Acc ^= Stream.nextMask(64);
    sink(Acc);
  }
  {
    Simulator Sim(FaultConfig::preset(ApproxLevel::Aggressive));
    Span S("fault.sram_inject", OpsPerLoop);
    uint64_t Value = 0xDEADBEEF;
    for (uint64_t I = 0; I < OpsPerLoop; ++I)
      Value = Sim.sramRead(Value);
    sink(Value);
  }

  FaultConfig Medium = FaultConfig::preset(ApproxLevel::Medium);
  Medium.Seed = Seed;
  {
    Simulator Sim(Medium);
    SimulatorScope Scope(Sim);
    Approx<double> Acc = 0.0, Step = 1.0000001;
    Span S("runtime.approx_fp_op", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I)
      Acc += Step;
    sink(static_cast<uint64_t>(Sim.now()));
  }
  {
    Simulator Sim(Medium);
    SimulatorScope Scope(Sim);
    Approx<int32_t> Acc = 0, Step = 3;
    Span S("runtime.approx_int_op", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I)
      Acc += Step;
    sink(static_cast<uint64_t>(Sim.now()));
  }
  {
    Simulator Sim(Medium);
    SimulatorScope Scope(Sim);
    Precise<int32_t> Acc = 0;
    Span S("runtime.precise_op", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I)
      Acc += 1;
    sink(static_cast<uint64_t>(Sim.now()));
  }
  {
    Simulator Sim(Medium);
    SimulatorScope Scope(Sim);
    ApproxArray<double> Data(1024, 1.0);
    size_t Index = 0;
    Span S("runtime.approx_array_rw", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I) {
      Data.set(Index, Data.get(Index) + Approx<double>(0.5));
      Index = (Index + 7) & 1023;
    }
    sink(static_cast<uint64_t>(Sim.now()));
  }
  {
    // The same op with every observer attached: per-site metrics, the
    // event trace, and an (always-on supply) power meter.
    obs::TelemetryRequest Request;
    Request.Metrics = true;
    Request.Trace = true;
    obs::Telemetry Tel(Request);
    env::PowerEnv Env;
    env::PowerMeter Meter(Env, Medium);
    Simulator Sim(Medium);
    Sim.attachTelemetry(&Tel);
    Sim.attachPowerMeter(&Meter);
    SimulatorScope Scope(Sim);
    Approx<double> Acc = 0.0, Step = 1.0000001;
    Span S("runtime.observed_op", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I)
      Acc += Step;
    sink(static_cast<uint64_t>(Sim.now()));
  }
  {
    constexpr uint64_t Setups = 4096;
    Span S("runtime.sim_setup", Setups);
    for (uint64_t I = 0; I < Setups; ++I) {
      Simulator Sim(Medium);
      SimulatorScope Scope(Sim);
      sink(static_cast<uint64_t>(Sim.now()));
    }
  }
  {
    MemoryLedger Ledger;
    Span S("arch.lease_release", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I) {
      LeaseHandle Handle = Ledger.lease(Region::Sram, 8, 0);
      Ledger.tick();
      Ledger.release(Handle);
    }
    sink(static_cast<uint64_t>(Ledger.now()));
  }
  {
    env::PowerEnv Env;
    std::string Error;
    Env.Trace = *env::PowerTraceSpec::preset("brownout", &Error);
    Env.Checkpoint = *env::CheckpointPolicy::parse("periodic:2000", &Error);
    env::PowerMeter Meter(Env, Medium);
    Span S("env.step", OpsPerLoop);
    for (uint64_t I = 0; I < OpsPerLoop; ++I)
      Meter.onOp(static_cast<env::PowerOpClass>(I % env::NumPowerOpClasses));
    sink(Meter.stats().LiveOps);
  }
}

/// An interp trial taken apart the way TrialRunner::runOne composes it:
/// precise reference, approximate run, QoS score, energy pricing.
void probeApps(uint64_t Seed) {
  static const std::vector<std::string> ApproxNames = [] {
    std::vector<std::string> Names;
    for (const apps::Application *App : apps::allApplications())
      Names.push_back(std::string("apps.approx.") + App->name());
    return Names;
  }();
  FaultConfig Config = FaultConfig::preset(ApproxLevel::Medium);
  RunStats Stats;
  size_t Index = 0;
  for (const apps::Application *App : apps::allApplications()) {
    const char *ApproxName = ApproxNames[Index++].c_str();
    for (uint64_t W = 1; W <= 2; ++W) {
      uint64_t Workload = mixSeed(Seed, W);
      Span Trial("apps.trial");
      apps::AppOutput Reference;
      {
        Span S("apps.precise");
        Reference = apps::runPrecise(*App, Workload);
      }
      apps::AppRun Run;
      {
        Span S(ApproxName);
        Run = apps::runApproximate(*App, Config, Workload);
      }
      {
        Span S("qos.score");
        sink(App->qosError(Reference, Run.Output));
      }
      Stats = Run.Stats;
    }
  }
  constexpr uint64_t Prices = 1u << 16;
  Span S("energy.price", Prices);
  for (uint64_t I = 0; I < Prices; ++I)
    sink(computeEnergy(Stats, Config).TotalFactor);
}

/// runOne time with metrics (or the trace) on over off, per engine.
void probeObserverRatios(exec::ProgramCache &Kernels,
                         std::map<std::string, double> &V) {
  for (bool Compiled : {false, true}) {
    std::vector<Trial> Trials;
    for (const apps::Application *App : apps::allApplications())
      for (uint64_t W = 1; W <= (Compiled ? 40u : 1u); ++W) {
        Trial T;
        T.App = App;
        T.Config = FaultConfig::preset(ApproxLevel::Medium);
        T.WorkloadSeed = W;
        if (Compiled)
          T.Kernel = &Kernels.get(App->name(), ApproxLevel::Medium);
        Trials.push_back(T);
      }
    double Off = 0, Metrics = 0, Trace = 0;
    for (int Round = 0; Round < 2; ++Round)
      for (int Mode = 0; Mode < 3; ++Mode) {
        Clock::time_point Start = Clock::now();
        for (Trial T : Trials) {
          T.Obs.Metrics = Mode == 1;
          T.Obs.Trace = Mode == 2;
          sink(TrialRunner::runOne(T).QosError);
        }
        double Seconds = secondsSince(Start);
        (Mode == 0 ? Off : Mode == 1 ? Metrics : Trace) += Seconds;
      }
    const char *Engine = Compiled ? "compiled" : "interp";
    V[std::string("obs.metrics_ratio.") + Engine] = Metrics / Off;
    V[std::string("obs.trace_ratio.") + Engine] = Trace / Off;
  }
}

} // namespace

void perfbench::runProbe(const Config &C, std::map<std::string, double> &V,
                         RunReport &Report) {
  std::vector<isa::IsaProgram> Medium = probeLowering(C, V, Report);
  probeAnalyses(C, Medium);
  probeEngines(Medium, C.Seed);

  // A small armed grid on both engines (policy, brownout power,
  // metrics, journals) and a small plain interp grid: the harness,
  // resilience, env and obs rows for workloads that do not run them.
  std::unique_ptr<GridState> Armed = setupGrid(
      C, {{ExecMode::Interp, 1}, {ExecMode::Compiled, 8}}, true, false,
      Report);
  PassResult A = runPass(*Armed, C.Threads, true);
  countTrials(A, Report);
  passValues(A, true, V);

  std::unique_ptr<GridState> Plain =
      setupGrid(C, {{ExecMode::Interp, 2}}, false, false, Report);
  countTrials(runPass(*Plain, C.Threads, true), Report);

  exec::ProgramCache &Cache = *Armed->Parts[1].Kernels;
  probeCompiledTrials(Cache);
  probeObserverRatios(Cache, V);
  probeFaultAndRuntime(C.Seed);
  probeApps(C.Seed);
}
