//===- perfbench/driver/Workloads.h - The benchmark's workloads -*- C++ -*-===//
//
// Part of the anosy-cpp benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Util.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Everything a workload receives. The program under test sees only the
/// inputs the workload generates from Seed.
struct RunContext {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for data and cache directories; empty at start.
  std::string WorkDir;
  Clock::time_point Epoch = Clock::now();
  ProcWatch Proc;
  RawResult Out;
  /// One span log per benchmark thread (all disabled when !Trace).
  std::vector<std::unique_ptr<SpanLog>> Logs;

  SpanLog &newLog() {
    Logs.push_back(std::make_unique<SpanLog>(Trace, Epoch));
    return *Logs.back();
  }
};

/// Cold registration of single-query modules through AnosySession, then
/// the Fig. 6 replay over the k=10 artifacts and their reload from disk.
void runRegisterCold(RunContext &Ctx);

/// Open-loop downgrades against a pre-registered anosyd, over a ladder of
/// fixed rates.
void runServeSteady(RunContext &Ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
