//===- perfbench/src/grid.cpp - Seeded evaluation grids -------------------===//

#include "grid.h"

#include "spans.h"

#include "apps/app.h"
#include "isa/assembler.h"
#include "obs/journal.h"
#include "obs/ledger.h"
#include "support/rng.h"

#include <cstring>
#include <stdexcept>

using namespace enerj;
using namespace enerj::harness;
using namespace perfbench;

namespace {

uint64_t fnv1a(const std::string &Bytes, uint64_t Hash) {
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001B3ULL;
  }
  return Hash;
}

/// Workload seed of the I-th seed (1-based) of a part with N seeds:
/// benchmark seed S covers the block (S-1)*N + 1 .. S*N, so seed 1 is
/// runEval's 1..N and distinct seeds never share a workload.
uint64_t workloadSeed(uint64_t S, int N, int I) {
  return (S - 1) * static_cast<uint64_t>(N) + static_cast<uint64_t>(I);
}

/// The cell's fault configuration: the preset, with the fault seed
/// re-keyed by the benchmark seed (unchanged at seed 1).
FaultConfig cellConfig(ApproxLevel Level, uint64_t S) {
  FaultConfig Config = FaultConfig::preset(Level);
  if (S != 1)
    Config.Seed = mixSeed(Config.Seed, S);
  return Config;
}

/// runContained's contract, for the traced pool: an exception escaping
/// a trial becomes an Aborted result.
TrialResult abortedResult(const Trial &T, const std::string &Message) {
  TrialResult Failed;
  Failed.QosError = 1.0;
  Failed.Outcome = resilience::TrialOutcome::Aborted;
  Failed.FinalLevel = T.Config.Level;
  Failed.EffectiveEnergyFactor = 0.0;
  Failed.Error = Message;
  return Failed;
}

/// The traced stand-in for TrialRunner::run: the same lock-free ticket
/// queue, with every TrialRunner::runOne call in a span under the pool
/// span.
std::vector<TrialResult> tracedRun(const std::vector<Trial> &Trials,
                                   const resilience::ResiliencePolicy &Policy,
                                   unsigned Threads) {
  std::vector<TrialResult> Results(Trials.size());
  Span Pool("harness.pool", Trials.size());
  uint64_t Parent = Pool.id();
  parallelFor(Trials.size(), Threads, [&](size_t I) {
    Span S("harness.runOne", 1, Parent);
    try {
      Results[I] = TrialRunner::runOne(Trials[I], Policy);
    } catch (const std::exception &E) {
      Results[I] = abortedResult(Trials[I], E.what());
    } catch (...) {
      Results[I] = abortedResult(Trials[I], "unknown exception");
    }
  });
  return Results;
}

/// runEval's per-cell aggregation over one part's results.
EvalResult aggregate(const GridState &G, const PartState &P,
                     const std::vector<TrialResult> &Results) {
  EvalResult R;
  R.Apps = apps::allApplications();
  R.Levels = evalLevels();
  R.Seeds = P.Part.Seeds;
  R.Policy = G.Policy;
  R.MetricsCollected = G.Armed;
  R.Exec = P.Part.Exec;
  R.EchoExecMode = P.Part.Exec == ExecMode::Compiled;
  R.Power = G.Power;
  R.PowerArmed = G.Armed;
  size_t Index = 0;
  for (const apps::Application *App : R.Apps)
    for (ApproxLevel Level : R.Levels) {
      EvalCell Cell;
      Cell.App = App;
      Cell.Level = Level;
      std::vector<double> Qos, Energy, Effective;
      for (int Seed = 1; Seed <= R.Seeds; ++Seed, ++Index) {
        const Trial &T = P.Trials[Index];
        const TrialResult &Res = Results[Index];
        if (G.Armed && (Res.Outcome != resilience::TrialOutcome::Ok ||
                        (Seed - 1) % 8 == 0)) {
          TrialRecord Record;
          Record.AppName = App->name();
          Record.Level = Level;
          Record.WorkloadSeed = T.WorkloadSeed;
          Record.Config = T.Config;
          Record.Obs = T.Obs;
          Record.Result = Res;
          R.Journaled.push_back(std::move(Record));
        }
        Qos.push_back(Res.QosError);
        Energy.push_back(Res.Energy.TotalFactor);
        Effective.push_back(Res.EffectiveEnergyFactor);
        Cell.Outcomes.add(Res.Outcome);
        Cell.Retries += static_cast<uint64_t>(Res.Attempts - 1);
        if (G.Armed) {
          Cell.Metrics.merge(Res.Metrics);
          Cell.PowerLosses += Res.Power.Losses;
          Cell.PowerCheckpoints += Res.Power.Checkpoints;
          Cell.PowerReExecutedOps += Res.Power.ReExecutedOps;
          if (Res.Outcome != resilience::TrialOutcome::PowerFailed)
            ++Cell.PowerSurvived;
        }
        if (Seed == 1)
          Cell.Seed1 = Res;
      }
      Cell.Qos = TrialStats::over(Qos);
      Cell.EnergyFactor = TrialStats::over(Energy);
      Cell.EffectiveEnergy = TrialStats::over(Effective);
      R.Cells.push_back(std::move(Cell));
    }
  return R;
}

} // namespace

std::unique_ptr<GridState> perfbench::setupGrid(
    const Config &C, const std::vector<GridPart> &Parts, bool Armed,
    bool Stages, RunReport &Report) {
  auto G = std::make_unique<GridState>();
  G->Armed = Armed;
  if (Armed) {
    // What `eval --slo 0.05 --max-retries 1 --op-budget 500000000
    // --power-trace brownout --checkpoint periodic:2000 --metrics
    // --journal-dir` arms.
    Span S("env.load_trace");
    std::string Error;
    auto Trace = env::PowerTraceSpec::preset("brownout", &Error);
    auto Checkpoint = env::CheckpointPolicy::parse("periodic:2000", &Error);
    if (!Trace || !Checkpoint)
      throw std::runtime_error("power environment: " + Error);
    G->Power.Trace = *Trace;
    G->Power.Checkpoint = *Checkpoint;
    G->Policy.Enabled = true;
    G->Policy.Slo = 0.05;
    G->Policy.MaxRetries = 1;
    G->Policy.OpBudget = 500000000;
    G->Policy.Degrade = true;
  }

  for (const GridPart &Part : Parts) {
    PartState P;
    P.Part = Part;
    if (Part.Exec == ExecMode::Compiled) {
      P.Kernels = std::make_unique<exec::ProgramCache>(kernelDir(C));
      std::vector<ApproxLevel> Levels = evalLevels();
      if (G->Policy.Enabled && G->Policy.Degrade)
        Levels = {ApproxLevel::None, ApproxLevel::Mild, ApproxLevel::Medium,
                  ApproxLevel::Aggressive};
      for (const apps::Application *App : apps::allApplications())
        for (ApproxLevel Level : Levels) {
          const exec::CompiledKernel *Kernel = nullptr;
          {
            Span S("exec.lower");
            Kernel = &P.Kernels->get(App->name(), Level);
          }
          if (!Stages)
            continue;
          std::string Path = kernelDir(C) + "/" + App->name() + ".fej";
          std::optional<std::string> Source = readFile(Path);
          Lowering L = Source ? lowerStages(*Source, Level) : Lowering{};
          ++Report.Attempted;
          if (!L.Ok ||
              isa::disassemble(L.Binary) != isa::disassemble(Kernel->Binary) ||
              L.RefInt != Kernel->RefInt ||
              std::memcmp(&L.RefFp, &Kernel->RefFp, sizeof(double)) != 0)
            Report.fail(std::string("stage-by-stage lowering of ") +
                        App->name() + " differs from the program cache" +
                        (L.Error.empty() ? "" : ": " + L.Error));
        }
    }
    G->Parts.push_back(std::move(P));
  }

  {
    Span S("setup.trials");
    for (PartState &P : G->Parts)
      for (const apps::Application *App : apps::allApplications())
        for (ApproxLevel Level : evalLevels()) {
          FaultConfig Config = cellConfig(Level, C.Seed);
          const exec::CompiledKernel *Kernel =
              P.Kernels ? &P.Kernels->get(App->name(), Level) : nullptr;
          for (int I = 1; I <= P.Part.Seeds; ++I) {
            Trial T;
            T.App = App;
            T.Config = Config;
            T.WorkloadSeed = workloadSeed(C.Seed, P.Part.Seeds, I);
            T.Obs.Metrics = Armed;
            T.Obs.Trace = Armed;
            T.Kernel = Kernel;
            T.Kernels = P.Kernels.get();
            T.Power = Armed ? &G->Power : nullptr;
            P.Trials.push_back(std::move(T));
          }
        }
  }
  return G;
}

PassResult perfbench::runPass(const GridState &G, unsigned Threads,
                              bool Traced) {
  PassResult Out;
  Clock::time_point Start = Clock::now();
  Span PassSpan("harness.pass");
  uint64_t JournalHash = 0xCBF29CE484222325ULL;
  for (const PartState &P : G.Parts) {
    std::vector<TrialResult> Results =
        Traced ? tracedRun(P.Trials, G.Policy, Threads)
               : TrialRunner(Threads).run(P.Trials, G.Policy);
    EvalResult R = aggregate(G, P, Results);
    std::string Json;
    {
      Span S("harness.render_json");
      Json = renderEvalJson(R);
    }
    {
      Span S("obs.ledger_line");
      obs::LedgerEntry Entry =
          obs::ledgerEntryForEval(R, Json, secondsSince(Start));
      Out.LedgerBytes += obs::renderLedgerLine(Entry).size();
    }
    Out.Json += Json;
    for (const TrialRecord &Record : R.Journaled) {
      Span S("obs.journal");
      std::string Text =
          obs::renderJournalJson(obs::buildJournal(R, Record));
      JournalHash = fnv1a(Text, JournalHash);
      ++Out.Journals;
      Out.JournalBytes += Text.size();
    }
    for (const TrialResult &Res : Results) {
      ++Out.Trials;
      if (Res.Outcome == resilience::TrialOutcome::Aborted)
        ++Out.Aborted;
      if (Res.Outcome == resilience::TrialOutcome::Ok)
        ++Out.FirstAttemptAccepts;
      Out.Attempts += static_cast<uint64_t>(Res.Attempts);
      Out.QosSum += Res.QosError;
      Out.EnergySum += Res.EffectiveEnergyFactor;
      Out.ReExecutedOps += Res.Power.ReExecutedOps;
      Out.LiveOps += Res.Power.LiveOps;
    }
  }
  Out.JournalHash = JournalHash;
  Out.OutputHash = fnv1a(Out.Json, JournalHash);
  Out.Seconds = secondsSince(Start);
  return Out;
}

void perfbench::countTrials(const PassResult &P, RunReport &Report) {
  Report.Attempted += P.Trials;
  for (uint64_t I = 0; I < P.Aborted; ++I)
    Report.fail("a trial ended Aborted");
}

void perfbench::passValues(const PassResult &P, bool Armed,
                           std::map<std::string, double> &Out) {
  Out["resilience.attempts_per_trial"] =
      static_cast<double>(P.Attempts) / static_cast<double>(P.Trials);
  Out["resilience.accepted_frac"] =
      static_cast<double>(P.FirstAttemptAccepts) /
      static_cast<double>(P.Attempts);
  if (!Armed)
    return;
  Out["env.reexec_frac"] = static_cast<double>(P.ReExecutedOps) /
                           static_cast<double>(P.ReExecutedOps + P.LiveOps);
  Out["obs.journal_bytes"] =
      static_cast<double>(P.JournalBytes) / static_cast<double>(P.Journals);
}
