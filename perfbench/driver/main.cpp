//===- perfbench/driver/main.cpp - Benchmark driver entry point -----------===//
//
// perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR --raw FILE [--spans FILE]
//
// Runs one workload and writes its raw measurements to FILE as JSON.
// perfbench/run.py builds this driver, runs it, and turns the raw result
// into the report; run that script rather than this binary.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Obs.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  std::string Workload, RawPath, SpanPath, WorkDir;
  RunContext Ctx;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload")
      Workload = Val;
    else if (Key == "--seed")
      Ctx.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Key == "--seconds")
      Ctx.Seconds = std::strtod(Val.c_str(), &End);
    else if (Key == "--trace")
      Ctx.Trace = Val == "1";
    else if (Key == "--work-dir")
      Ctx.WorkDir = Val;
    else if (Key == "--raw")
      RawPath = Val;
    else if (Key == "--spans")
      SpanPath = Val;
    else {
      std::fprintf(stderr, "perfbench_driver: unknown argument %s\n",
                   Key.c_str());
      return 2;
    }
    if (End != nullptr && *End != '\0') {
      std::fprintf(stderr, "perfbench_driver: invalid value for %s: '%s'\n",
                   Key.c_str(), Val.c_str());
      return 2;
    }
  }
  if (RawPath.empty() || Ctx.WorkDir.empty() || !(Ctx.Seconds > 0)) {
    std::fprintf(stderr, "perfbench_driver: --raw, --work-dir and a "
                         "positive --seconds are required\n");
    return 2;
  }
  // The program's own tracing stays at its default (off) in every run:
  // the traced run records spans from the benchmark's side only.
  anosy::obs::setEnabled(false);

  Ctx.Proc.sample();
  if (Workload == "register-cold")
    runRegisterCold(Ctx);
  else if (Workload == "serve-steady")
    runServeSteady(Ctx);
  else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }
  Ctx.Proc.sample();
  Ctx.Out.Values["peak_rss_mb"] = Ctx.Proc.peakRssMb();
  Ctx.Out.Values["threads_peak"] = Ctx.Proc.threadsPeak();

  std::vector<const SpanLog *> Logs;
  for (const auto &L : Ctx.Logs)
    Logs.push_back(L.get());
  if (!writeRawResult(RawPath, Workload, Ctx.Seed, Ctx.Trace, Ctx.Out, Logs,
                      SpanPath)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 RawPath.c_str());
    return 1;
  }
  return 0;
}
