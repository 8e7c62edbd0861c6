//===- perfbench/src/lowering.cpp - Stage-by-stage lowering ---------------===//

#include "bench.h"

#include "spans.h"

#include "analysis/isa_flow.h"
#include "analysis/opt/pipeline.h"
#include "apps/app.h"
#include "exec/machine.h"
#include "fenerj/codegen.h"
#include "fenerj/diag.h"
#include "fenerj/typecheck.h"
#include "isa/assembler.h"
#include "isa/verifier.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace enerj;
using namespace perfbench;

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

std::optional<std::string> perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In.good())
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string perfbench::kernelDir(const Config &C) {
  return C.Root + "/examples/fej/isa";
}

std::vector<std::string> perfbench::kernelNames() {
  std::vector<std::string> Names;
  for (const apps::Application *App : apps::allApplications())
    Names.push_back(App->name());
  return Names;
}

void perfbench::parallelFor(size_t N, unsigned Threads,
                            const std::function<void(size_t)> &Body) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
      Body(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Threads; ++W)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
}

std::vector<std::string> perfbench::corpusPaths(const Config &C) {
  std::vector<std::string> Paths;
  for (const char *Dir : {"", "/apps", "/isa"})
    for (const auto &E :
         std::filesystem::directory_iterator(C.Root + "/examples/fej" + Dir))
      if (E.path().extension() == ".fej")
        Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

Lowering perfbench::lowerStages(const std::string &Source,
                                ApproxLevel Level) {
  Lowering L;
  fenerj::DiagnosticEngine Diags;
  fenerj::ClassTable Table;
  std::optional<fenerj::Program> Prog;
  {
    Span S("fenerj.compile");
    Prog = fenerj::compile(Source, Table, Diags);
  }
  if (!Prog) {
    L.Error = "type checking failed";
    return L;
  }
  fenerj::CodegenResult Code;
  {
    Span S("fenerj.codegen");
    Code = fenerj::compileToIsa(*Prog);
  }
  if (!Code.Ok) {
    L.Error = "codegen: " + Code.Error;
    return L;
  }
  std::vector<std::string> Errors;
  std::optional<isa::IsaProgram> Binary;
  {
    Span S("isa.assemble");
    Binary = isa::assemble(Code.Assembly, Errors);
  }
  if (!Binary) {
    L.Error = "assembler: " + (Errors.empty() ? "unknown" : Errors.front());
    return L;
  }
  bool Verified = false;
  {
    Span S("isa.verify");
    Verified = isa::verify(*Binary).empty();
  }
  if (!Verified) {
    L.Error = "ISA verification failed";
    return L;
  }
  {
    Span S("analysis.flow");
    Verified = analysis::verifyFlow(*Binary).ok();
  }
  if (!Verified) {
    L.Error = "flow verification failed";
    return L;
  }
  analysis::opt::OptOptions Options;
  Options.EnergyLevel = Level;
  analysis::opt::OptReport Report;
  {
    Span S("analysis.opt");
    Report = analysis::opt::optimizeProgram(*Binary, Options);
  }
  if (!Report.Ok) {
    L.Error = "optimizer: " + Report.Error;
    return L;
  }
  L.OpsBefore = Report.OpsBefore;
  L.OpsAfter = Report.OpsAfter;
  L.StaticEnergyFactor = Report.EnergyAfter.factor();
  L.Binary = std::move(*Binary);
  {
    Span S("exec.reference");
    exec::FastMachine Reference(L.Binary,
                                FaultConfig::preset(ApproxLevel::None));
    exec::FastResult Ref = Reference.run();
    if (Ref.Trapped) {
      L.Error = "reference run trapped: " + Ref.TrapMessage;
      return L;
    }
    L.RefInt = Reference.intReg(1);
    L.RefFp = Reference.fpReg(1);
  }
  L.Ok = true;
  return L;
}
