//===- perfbench/src/workloads.cpp - The four workloads -------------------===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// interp-grid, compiled-grid, armed-grid and toolchain. An untraced run
/// renders a reference pass, then repeats rounds of a cold pass in a
/// fresh child process, set-up repeats, and one warm pass, in a closed
/// loop (the next pass starts when the previous one ends), for the run
/// length; each round runs its own block of inputs. Every pass checks its
/// outputs: no trial may end Aborted, a round's cold and warm passes must
/// render the same bytes, and round 0's must equal the reference pass's.
/// The traced run records spans around the same calls, then runs the
/// layer probe.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "grid.h"
#include "spans.h"

#include "analysis/infer.h"
#include "analysis/lint.h"
#include "analysis/reliability/bounds.h"
#include "fenerj/diag.h"
#include "fenerj/generator.h"
#include "fenerj/interp.h"
#include "fenerj/typecheck.h"
#include "fault/rates.h"
#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

using namespace enerj;
using namespace enerj::harness;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Sizes. Seed counts per pass are fixed so a pass is the same batch on
// every commit; they were chosen so one pass takes about 1 s on a shared
// 4-vCPU host at the commit that introduced the benchmark. A run then
// holds a dozen or more cold samples and warm passes, so a burst of host
// contention moves a few samples rather than the median, while each pass
// still has enough seeds that the modelled energy and QoS means barely
// move with the seed.
//===----------------------------------------------------------------------===//

std::vector<GridPart> gridParts(const std::string &Workload, bool Smoke) {
  if (Workload == "interp-grid")
    return {{ExecMode::Interp, Smoke ? 1 : 8}};
  if (Workload == "compiled-grid")
    return {{ExecMode::Compiled, Smoke ? 20 : 500}};
  // armed-grid: each engine about half a pass.
  return {{ExecMode::Interp, Smoke ? 1 : 2},
          {ExecMode::Compiled, Smoke ? 10 : 100}};
}

/// The untraced schedule: after a reference pass, rounds of one cold
/// sample, set-up repeats and one warm pass until the run length is used
/// (at least MinRounds), so every metric samples the whole run rather
/// than one stretch of it. Set-up repeats fill SetupRoundBudgetS per
/// round (cheap set-ups get a larger sample).
constexpr int MinRounds = 3;
constexpr double SetupRoundBudgetS = 0.2;
constexpr int MaxSetupRepsPerRound = 64;

/// Peak resident set so far (VmHWM), in MB; 0 if /proc is unavailable.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// One cold pass — set-up plus one pass from fresh process state — as
/// measured by a `--cold-sample` child process.
struct ColdSample {
  double Seconds = 0.0;
  double PeakRssMb = 0.0;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t OutputHash = 0;
};

/// Runs this binary again with --cold-sample and reads its one-line
/// report. A child that fails or reports nothing counts as one failed
/// check.
ColdSample spawnCold(const Config &C) {
  std::vector<std::string> Args = {
      "perfbench", "--workload", C.Workload, "--seed", std::to_string(C.Seed),
      "--seconds", "1", "--trace", "0", "--root", C.Root, "--cold-sample"};
  if (C.Smoke)
    Args.push_back("--smoke");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  ColdSample S;
  S.Attempted = S.Failed = 1;
  int Fds[2];
  if (pipe(Fds) != 0)
    return S;
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid == 0) {
    dup2(Fds[1], STDOUT_FILENO);
    close(Fds[0]);
    close(Fds[1]);
    execv("/proc/self/exe", Argv.data());
    _exit(127);
  }
  close(Fds[1]);
  std::string Text;
  char Buffer[256];
  ssize_t N = 0;
  while (Pid > 0 && (N = read(Fds[0], Buffer, sizeof Buffer)) > 0)
    Text.append(Buffer, static_cast<size_t>(N));
  close(Fds[0]);
  int Status = 0;
  if (Pid < 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return S;
  unsigned long long Attempted = 0, Failed = 0, Hash = 0;
  if (std::sscanf(Text.c_str(), "%lf %lf %llu %llu %llu", &S.Seconds,
                  &S.PeakRssMb, &Attempted, &Failed, &Hash) != 5)
    return S;
  S.Attempted = Attempted;
  S.Failed = Failed;
  S.OutputHash = Hash;
  return S;
}

/// Round K of a run with seed S runs the inputs of seed S + K * 2^32.
/// Round 0 is the seed itself, so seed 1 still starts with runEval's
/// grid, and seeds below 2^32 never share a round's inputs. A run thus
/// samples a dozen input blocks, not one: on interp-grid a pass's peak
/// RSS depends on the block, and the largest over many blocks is a
/// property of the workload rather than of one draw.
Config roundConfig(const Config &C, int Round) {
  Config R = C;
  R.Seed = C.Seed + (static_cast<uint64_t>(Round) << 32);
  return R;
}

/// What the schedule needs from a workload.
struct Schedule {
  std::function<void()> Release; ///< Frees the state (untimed).
  /// Builds the state for a round's inputs (timed).
  std::function<void(const Config &)> Setup;
  /// One warm pass on the state the last Setup built, output-checked;
  /// sets Hash to the pass's output hash and returns items/s.
  std::function<double(int Round, uint64_t &Hash)> Pass;
};

/// Runs the rounds and reports cold_grid_s, setup_s, items_per_s and
/// peak_rss_mb (the largest cold sample's).
void runSchedule(const Config &C, Schedule &S, RunReport &Report) {
  std::vector<double> Colds, Rss, Setups, Rates;
  // A round starts only if one as long as the longest so far still ends
  // within the run length, counted from the run's start (reference pass
  // included), so a run's wall time stays close to --seconds.
  double LongestRound = 0.0;
  for (int Round = 0;
       Round < MinRounds || secondsSince(C.Start) + LongestRound < C.Seconds;
       ++Round) {
    Clock::time_point RoundStart = Clock::now();
    Config R = roundConfig(C, Round);
    ColdSample Cold = spawnCold(R);
    Report.Attempted += Cold.Attempted + 1;
    for (uint64_t I = 0; I < Cold.Failed; ++I)
      Report.fail("a cold pass failed an output check");
    Colds.push_back(Cold.Seconds);
    Rss.push_back(Cold.PeakRssMb);

    // Each repeat frees the previous state first, so repeats neither
    // overlap in memory nor time a destructor.
    double RoundSetup = 0.0;
    for (int Rep = 0;
         Rep < MaxSetupRepsPerRound && RoundSetup < SetupRoundBudgetS; ++Rep) {
      S.Release();
      Clock::time_point SetupStart = Clock::now();
      S.Setup(R);
      Setups.push_back(secondsSince(SetupStart));
      RoundSetup += Setups.back();
    }

    uint64_t Hash = 0;
    Rates.push_back(S.Pass(Round, Hash));
    if (Cold.OutputHash != Hash)
      Report.fail("a cold pass rendered different bytes from the warm pass "
                  "on the same inputs");
    std::fprintf(stderr,
                 "[perfbench] round %d: cold %.3f s, %.1f MB, %.1f items/s\n",
                 Round + 1, Colds.back(), Rss.back(), Rates.back());
    LongestRound = std::max(LongestRound, secondsSince(RoundStart));
  }
  Report.add("items_per_s", median(Rates), "1/s");
  Report.add("cold_grid_s", median(Colds), "s");
  Report.add("setup_s", median(Setups), "s");
  // The largest peak: how many pages the worker threads' allocator
  // arenas hold at once varies with scheduling, and the maximum over the
  // samples is steadier than their median.
  Report.add("peak_rss_mb", *std::max_element(Rss.begin(), Rss.end()), "MB");
}

/// Generated programs per toolchain pass.
int generatedPrograms(bool Smoke) { return Smoke ? 2 : 48; }

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

//===----------------------------------------------------------------------===//
// Grid workloads.
//===----------------------------------------------------------------------===//

/// Output checks of one pass against the reference pass.
void checkPass(const PassResult &P, const PassResult &Reference,
               RunReport &Report) {
  countTrials(P, Report);
  ++Report.Attempted;
  if (P.Json != Reference.Json)
    Report.fail("renderEvalJson bytes differ between passes");
  if (P.JournalHash != Reference.JournalHash ||
      P.Journals != Reference.Journals)
    Report.fail("journal bytes differ between passes");
}

/// At seed 1 the grid must be runEval's grid: same trials, same bytes.
void checkAgainstRunEval(const Config &C, const std::vector<GridPart> &Parts,
                         bool Armed, const PassResult &First,
                         RunReport &Report) {
  std::unique_ptr<GridState> G = setupGrid(C, Parts, Armed, false, Report);
  std::string Json;
  for (const PartState &P : G->Parts) {
    EvalOptions Options;
    Options.Seeds = P.Part.Seeds;
    Options.Threads = C.Threads;
    Options.Exec = P.Part.Exec;
    Options.EchoExecMode = P.Part.Exec == ExecMode::Compiled;
    Options.KernelDir = kernelDir(C);
    Options.Policy = G->Policy;
    Options.Metrics = Armed;
    Options.Journal = Armed;
    Options.Power = G->Power;
    Options.PowerArmed = Armed;
    Json += renderEvalJson(runEval(Options));
  }
  ++Report.Attempted;
  if (Json != First.Json)
    Report.fail("seed 1 does not reproduce runEval's grid");
}

void runGrid(const Config &C, RunReport &Report) {
  std::vector<GridPart> Parts = gridParts(C.Workload, C.Smoke);
  bool Armed = C.Workload == "armed-grid";

  // The reference pass: round 0's passes must render the same bytes.
  std::unique_ptr<GridState> G = setupGrid(C, Parts, Armed, false, Report);
  PassResult First = runPass(*G, C.Threads, false);
  checkPass(First, First, Report);
  if (C.Seed == 1)
    checkAgainstRunEval(C, Parts, Armed, First, Report);

  Schedule S;
  S.Release = [&] { G.reset(); };
  S.Setup = [&](const Config &R) {
    G = setupGrid(R, Parts, Armed, false, Report);
  };
  S.Pass = [&](int Round, uint64_t &Hash) {
    PassResult P = runPass(*G, C.Threads, false);
    if (Round == 0)
      checkPass(P, First, Report);
    else
      countTrials(P, Report);
    Hash = P.OutputHash;
    return static_cast<double>(P.Trials) / P.Seconds;
  };
  runSchedule(C, S, Report);
  Report.add("energy_factor", First.EnergySum / First.Trials, "factor");
  Report.add("qos_error", First.QosSum / First.Trials, "share");
}

//===----------------------------------------------------------------------===//
// toolchain.
//===----------------------------------------------------------------------===//

/// One program of the toolchain corpus with its interpreter oracle.
struct ToolProgram {
  std::string Name;
  std::string Source;
  bool Kernel = false; ///< One of the nine corpus kernels.
  bool FpResult = false;
  int64_t ExpectInt = 0;
  double ExpectFp = 0.0;
};

struct ToolState {
  std::vector<ToolProgram> Programs; ///< Kernels + generated programs.
  std::vector<std::pair<std::string, std::string>> Corpus; ///< .fej files.
};

/// Reads the kernels and the .fej corpus, draws the generated programs
/// from the benchmark seed, and runs the interpreter oracle on each
/// program (the independent reference, as in the codegen differential
/// test; the compiler under test never sees it).
std::unique_ptr<ToolState> setupToolchain(const Config &C) {
  auto S = std::make_unique<ToolState>();
  {
    Span Read("setup.read_corpus");
    for (const std::string &Name : kernelNames()) {
      std::string Path = kernelDir(C) + "/" + Name + ".fej";
      std::optional<std::string> Text = readFile(Path);
      if (!Text)
        throw std::runtime_error("missing kernel " + Path);
      S->Programs.push_back({Name, *Text, true});
    }
    for (const std::string &Path : corpusPaths(C))
      S->Corpus.push_back({Path, readFile(Path).value_or("")});
  }
  {
    Span Gen("fenerj.generate", generatedPrograms(C.Smoke));
    for (int I = 0; I < generatedPrograms(C.Smoke); ++I) {
      fenerj::GeneratorOptions Options;
      Options.Seed = mixSeed(C.Seed, static_cast<uint64_t>(I));
      Options.NumClasses = 0;
      Options.AllowBools = false;
      S->Programs.push_back({"generated-" + std::to_string(I),
                             fenerj::generateProgram(Options)});
    }
  }
  // Interpreter failures are rare and fatal to the run; the workers
  // record them and the set-up throws after the join.
  std::vector<std::string> Errors(S->Programs.size());
  Span Oracles("setup.oracles");
  uint64_t Parent = Oracles.id();
  parallelFor(S->Programs.size(), C.Threads, [&](size_t I) {
    ToolProgram &P = S->Programs[I];
    Span Oracle("fenerj.interpret", 1, Parent);
    fenerj::DiagnosticEngine Diags;
    fenerj::ClassTable Table;
    std::optional<fenerj::Program> Prog =
        fenerj::compile(P.Source, Table, Diags);
    if (!Prog) {
      Errors[I] = P.Name + " does not type check";
      return;
    }
    fenerj::Interpreter Interp(*Prog, Table, {});
    fenerj::EvalResult Result = Interp.run();
    if (Result.Trapped || (Result.Result.K != fenerj::Value::Kind::Int &&
                           Result.Result.K != fenerj::Value::Kind::Float)) {
      Errors[I] = P.Name + ": interpreter oracle has no result";
      return;
    }
    P.FpResult = Result.Result.K == fenerj::Value::Kind::Float;
    P.ExpectInt = Result.Result.I;
    P.ExpectFp = Result.Result.F;
  });
  for (const std::string &Error : Errors)
    if (!Error.empty())
      throw std::runtime_error(Error);
  return S;
}

struct ToolPass {
  double Seconds = 0.0;
  uint64_t Items = 0;
  std::string Digest; ///< Everything the pass computed, for repeat checks.
  double EnergySum = 0.0;
  uint64_t EnergyCount = 0;
  double InexactSum = 0.0;
  uint64_t InexactCount = 0;
};

const ApproxLevel AllLevels[] = {ApproxLevel::None, ApproxLevel::Mild,
                                 ApproxLevel::Medium,
                                 ApproxLevel::Aggressive};

/// What one toolchain job produced: a lowering plus its bound, or the
/// lint and infer analyses of one corpus file. Jobs run on the worker
/// pool and are folded in job order, so the pass's digest does not
/// depend on scheduling.
struct ToolJob {
  uint64_t Items = 0;
  std::vector<std::string> Failures;
  std::string Digest;
  double Energy = 0.0, Inexact = 0.0;
  bool HasEnergy = false, HasInexact = false;
};

ToolJob lowerJob(const ToolProgram &P, ApproxLevel Level) {
  ToolJob J;
  Lowering L = lowerStages(P.Source, Level);
  ++J.Items;
  if (!L.Ok) {
    J.Failures.push_back(P.Name + " rejected: " + L.Error);
    return J;
  }
  bool Match = P.FpResult ? sameBits(L.RefFp, P.ExpectFp)
                          : L.RefInt == P.ExpectInt;
  if (!Match)
    J.Failures.push_back(P.Name +
                         ": level-None result differs from the interpreter");
  if (Level != ApproxLevel::None) {
    J.Energy = L.StaticEnergyFactor;
    J.HasEnergy = true;
  }
  analysis::reliability::ReliabilityReport Bound;
  {
    Span B("analysis.bound");
    Bound = analysis::reliability::analyzeProgram(
        L.Binary, FaultRates::of(FaultConfig::preset(Level)));
  }
  ++J.Items;
  if (!(Bound.ProgramBound >= 0.0 && Bound.ProgramBound <= 1.0) ||
      (Level == ApproxLevel::None && Bound.ProgramBound != 1.0))
    J.Failures.push_back(P.Name + ": reliability bound out of range");
  if (Level != ApproxLevel::None && P.Kernel) {
    // The modelled QoS loss: the share of exit registers the bound does
    // not prove exact, over the kernels (the generated draw varies too
    // much with the seed to hold a bound).
    double Exact = 0.0;
    for (double B : Bound.ExitRegBounds)
      Exact += B;
    J.Inexact = 1.0 - Exact / Bound.ExitRegBounds.size();
    J.HasInexact = true;
  }
  char Buffer[160];
  std::snprintf(Buffer, sizeof Buffer, "%zu %zu %.17g %.17g %lld;",
                L.OpsBefore, L.OpsAfter, L.StaticEnergyFactor,
                Bound.ProgramBound, static_cast<long long>(L.RefInt));
  J.Digest = Buffer;
  return J;
}

ToolJob analysisJob(const std::string &Path, const std::string &Source) {
  ToolJob J;
  J.Items = 2;
  fenerj::DiagnosticEngine Diags;
  fenerj::ClassTable Table;
  std::optional<fenerj::Program> Prog;
  {
    Span Compile("fenerj.compile");
    Prog = fenerj::compile(Source, Table, Diags);
  }
  if (!Prog) {
    J.Failures = {Path + " does not type check", Path + " not inferred"};
    return J;
  }
  analysis::LintResult Lint;
  {
    Span L("analysis.lint");
    Lint = analysis::runLint(*Prog, Table);
  }
  analysis::InferResult Infer;
  {
    Span I("analysis.infer");
    Infer = analysis::inferProgram(*Prog, Table, Path);
  }
  char Buffer[160];
  std::snprintf(Buffer, sizeof Buffer, "%zu %u %u %.17g;",
                Lint.Findings.size(), Infer.TotalDecls, Infer.InferredApprox,
                Infer.InferredEnergyFactor);
  J.Digest = Buffer;
  return J;
}

/// One toolchain pass: every (program, level) lowering job, then every
/// corpus analysis job, on \p Threads workers.
ToolPass runToolPass(const ToolState &S, unsigned Threads,
                     RunReport &Report) {
  ToolPass Out;
  Clock::time_point Start = Clock::now();
  Span PassSpan("toolchain.pass");
  constexpr size_t NumLevels = std::size(AllLevels);
  size_t Lowerings = S.Programs.size() * NumLevels;
  std::vector<ToolJob> Jobs(Lowerings + S.Corpus.size());
  uint64_t Parent = PassSpan.id();
  parallelFor(Jobs.size(), Threads, [&](size_t I) {
    Span Job("toolchain.job", 1, Parent);
    try {
      Jobs[I] = I < Lowerings ? lowerJob(S.Programs[I / NumLevels],
                                         AllLevels[I % NumLevels])
                              : analysisJob(S.Corpus[I - Lowerings].first,
                                            S.Corpus[I - Lowerings].second);
    } catch (const std::exception &E) {
      Jobs[I].Items = 1;
      Jobs[I].Failures = {std::string("toolchain job threw: ") + E.what()};
    }
  });

  for (const ToolJob &J : Jobs) {
    Out.Items += J.Items;
    Report.Attempted += J.Items;
    for (const std::string &Failure : J.Failures)
      Report.fail(Failure);
    Out.Digest += J.Digest;
    if (J.HasEnergy) {
      Out.EnergySum += J.Energy;
      ++Out.EnergyCount;
    }
    if (J.HasInexact) {
      Out.InexactSum += J.Inexact;
      ++Out.InexactCount;
    }
  }
  Out.Seconds = secondsSince(Start);
  return Out;
}

void runToolchain(const Config &C, RunReport &Report) {
  std::unique_ptr<ToolState> State = setupToolchain(C);
  ToolPass First = runToolPass(*State, C.Threads, Report);

  Schedule S;
  S.Release = [&] { State.reset(); };
  S.Setup = [&](const Config &R) { State = setupToolchain(R); };
  S.Pass = [&](int Round, uint64_t &Hash) {
    ToolPass P = runToolPass(*State, C.Threads, Report);
    Hash = std::hash<std::string>{}(P.Digest);
    if (Round == 0) {
      ++Report.Attempted;
      if (P.Digest != First.Digest)
        Report.fail("toolchain outputs differ between passes");
    }
    return static_cast<double>(P.Items) / P.Seconds;
  };
  runSchedule(C, S, Report);
  Report.add("energy_factor", First.EnergySum / First.EnergyCount, "factor");
  Report.add("qos_error", First.InexactSum / First.InexactCount, "share");
}

//===----------------------------------------------------------------------===//
// The traced run.
//===----------------------------------------------------------------------===//

using Values = std::map<std::string, double>;

/// Runs the workload traced: set-up and one pass under the "workload"
/// root (the spans the per-layer metrics read), then an untraced and a
/// traced pass outside it for the tracing overhead. Values measured by
/// the traced pass go to \p Pass; quantities it does not exercise fall
/// back to the probe's measurement. Returns the workload root's id.
uint64_t tracedWorkload(const Config &C, RunReport &Report, Values &Pass,
                        double &OverheadFrac) {
  SpanRecorder *Rec = SpanRecorder::active();
  uint64_t Root = 0;
  if (C.Workload == "toolchain") {
    std::unique_ptr<ToolState> S;
    ToolPass Traced;
    {
      Span R("workload");
      Root = R.id();
      {
        Span Setup("setup");
        S = setupToolchain(C);
      }
      Traced = runToolPass(*S, C.Threads, Report);
    }
    Rec->deactivate();
    ToolPass Plain = runToolPass(*S, C.Threads, Report);
    Rec->activate();
    ToolPass Again;
    {
      Span R("overhead");
      Again = runToolPass(*S, C.Threads, Report);
    }
    Report.Attempted += 2;
    if (Plain.Digest != Traced.Digest || Again.Digest != Traced.Digest)
      Report.fail("toolchain outputs differ between passes");
    OverheadFrac = Again.Seconds / Plain.Seconds;
    return Root;
  }
  std::vector<GridPart> Parts = gridParts(C.Workload, C.Smoke);
  bool Armed = C.Workload == "armed-grid";
  std::unique_ptr<GridState> G;
  PassResult Traced;
  {
    Span R("workload");
    Root = R.id();
    {
      Span Setup("setup");
      G = setupGrid(C, Parts, Armed, true, Report);
    }
    Traced = runPass(*G, C.Threads, true);
  }
  Rec->deactivate();
  PassResult Plain = runPass(*G, C.Threads, false);
  Rec->activate();
  PassResult Again;
  {
    Span R("overhead");
    Again = runPass(*G, C.Threads, true);
  }
  checkPass(Traced, Plain, Report);
  checkPass(Plain, Plain, Report);
  checkPass(Again, Plain, Report);
  OverheadFrac = Again.Seconds / Plain.Seconds;

  passValues(Traced, Armed, Pass);
  return Root;
}

} // namespace

bool perfbench::isWorkload(const std::string &Name) {
  return Name == "interp-grid" || Name == "compiled-grid" ||
         Name == "armed-grid" || Name == "toolchain";
}

void perfbench::runColdSample(const Config &C) {
  Clock::time_point Start = Clock::now();
  RunReport Report;
  uint64_t Hash = 0;
  if (C.Workload == "toolchain") {
    std::unique_ptr<ToolState> S = setupToolchain(C);
    Hash = std::hash<std::string>{}(runToolPass(*S, C.Threads, Report).Digest);
  } else {
    std::unique_ptr<GridState> G =
        setupGrid(C, gridParts(C.Workload, C.Smoke),
                  C.Workload == "armed-grid", false, Report);
    PassResult P = runPass(*G, C.Threads, false);
    countTrials(P, Report);
    Hash = P.OutputHash;
  }
  double Seconds = secondsSince(Start);
  std::printf("%.17g %.17g %llu %llu %llu\n", Seconds, peakRssMb(),
              static_cast<unsigned long long>(Report.Attempted),
              static_cast<unsigned long long>(Report.Failed),
              static_cast<unsigned long long>(Hash));
}

void perfbench::runUntraced(const Config &C, RunReport &Report) {
  if (C.Workload == "toolchain")
    runToolchain(C, Report);
  else
    runGrid(C, Report);
}

void perfbench::runTraced(const Config &C, RunReport &Report) {
  SpanRecorder Rec;
  Rec.activate();
  Values Pass, Probe;
  double OverheadFrac = 1.0;
  uint64_t WorkloadRoot = tracedWorkload(C, Report, Pass, OverheadFrac);
  uint64_t ProbeRoot = 0;
  {
    Span Root("probe");
    ProbeRoot = Root.id();
    runProbe(C, Probe, Report);
  }
  Rec.deactivate();
  emitLayerMetrics(C, Rec, WorkloadRoot, ProbeRoot, Pass, Probe, OverheadFrac,
                   Report);
}
