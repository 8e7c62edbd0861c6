//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--smoke] [--root <dir>] [--trace-out <file>]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. --trace 0
/// reports the end-to-end metrics, --trace 1 the per-layer metrics.
/// Exits 1 when an output check failed, 2 on a usage error.
///
/// --smoke shrinks every pass (the self-test's length). --cold-sample is
/// internal: the untraced run starts the binary with it to time one cold
/// pass in a fresh process.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<interp-grid|compiled-grid|armed-grid|toolchain> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--root <dir>] "
               "[--trace-out <file>]\n",
               Message);
  return 2;
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 19 ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::stoull(Text);
  return true;
}

std::string jsonEscape(const std::string &Text) {
  std::string Out;
  for (char Ch : Text) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  C.Root = ".";
  int Trace = -1;
  bool ColdSample = false; // Internal: one cold pass for the parent run.
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      C.Smoke = true;
      continue;
    }
    if (Arg == "--cold-sample") {
      ColdSample = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      C.Workload = Value;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Value, N))
        return usage("--seed takes a non-negative integer");
      C.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, N) || N < 1 || N > 600)
        return usage("--seconds takes an integer in [1, 600]");
      C.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Trace = Value == "1";
    } else if (Arg == "--root") {
      C.Root = Value;
    } else if (Arg == "--trace-out") {
      C.TraceOut = Value;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  if (!isWorkload(C.Workload))
    return usage("unknown or missing --workload");
  if (!HaveSeed || !HaveSeconds || Trace < 0)
    return usage("--seed, --seconds and --trace are required");
  C.Trace = Trace == 1;
  C.Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  if (ColdSample) {
    try {
      runColdSample(C);
      return 0;
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: cold sample: %s\n", E.what());
      return 1;
    }
  }

  RunReport Report;
  try {
    if (C.Trace) {
      runTraced(C, Report);
    } else {
      runUntraced(C, Report);
    }
  } catch (const std::exception &E) {
    Report.fail(std::string("run aborted: ") + E.what());
  }
  if (Report.Attempted < Report.Failed || Report.Attempted == 0)
    Report.Attempted = std::max<uint64_t>(Report.Failed, 1);

  for (const std::string &Failure : Report.Failures)
    std::fprintf(stderr, "[perfbench] FAILED: %s\n", Failure.c_str());
  bool Correct = Report.Failed == 0;
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Report.Attempted) +
          ", \"failed\": " + std::to_string(Report.Failed) +
          ", \"metrics\": {";
  char Buffer[64];
  for (size_t I = 0; I < Report.Metrics.size(); ++I) {
    const Metric &M = Report.Metrics[I];
    std::snprintf(Buffer, sizeof Buffer, "%.17g", M.Value);
    Line += (I ? ", \"" : "\"") + jsonEscape(M.Name) + "\": {\"value\": " +
            Buffer + ", \"unit\": \"" + jsonEscape(M.Unit) + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return Correct ? 0 : 1;
}
