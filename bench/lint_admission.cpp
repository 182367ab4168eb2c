//===- bench/lint_admission.cpp - Static-analysis cost/benefit ------------===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the static leakage analyzer (DESIGN.md §7) against the
/// Mardziel benchmarks (B1–B5), on three axes:
///
///   1. Cost: lint wall time vs synthesis wall time, for the box tier
///      (pure interval arithmetic) and for the forced octagon tier
///      (--relational=on, which adds closed DBMs). A measurement, not a
///      bar: the committed report reads about 9% and 12% in total, and
///      B3, the cheapest synthesis, about 27% on both tiers.
///   2. Admission: with a min-size policy and StaticAdmission on, how
///      many queries are rejected before synthesis and how many solver
///      nodes that saves (a statically rejected query spends zero).
///   3. Seeding: solver nodes for interval synthesis with the analyzer's
///      posterior regions confining the search
///      (SynthOptions::TrueRegionSeed/FalseRegionSeed) vs unseeded. The
///      over arm's branch-and-bound bounding runs inside the region
///      instead of the full space, and the region faces extend the split
///      hints.
///
/// Writes BENCH_static_analysis.json next to the binary (same reporting
/// style as BENCH_degradation.json).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/LeakageAnalyzer.h"
#include "analysis/SolverSeeds.h"
#include "core/AnosySession.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace anosy;

namespace {

/// The admission scenario's policy threshold: k = 100 is the paper's
/// qpolicy and small enough that only genuinely tiny posteriors (B3's
/// photo query keeps 4 candidates) reject.
constexpr int64_t AdmissionMinSize = 100;

struct AnalysisSample {
  std::string Id;
  std::string Name;
  double LintSeconds = 0;           ///< Box tier only (--relational=off).
  double LintRelationalSeconds = 0; ///< Octagon tier forced (--relational=on).
  double SynthSeconds = 0;          ///< Unseeded interval under+over.
  unsigned Queries = 0;
  unsigned StaticallyRejected = 0;  ///< At k = AdmissionMinSize.
  uint64_t AdmissionNodesSaved = 0; ///< Unseeded nodes of rejected queries.
  uint64_t NodesUnseeded = 0;
  uint64_t NodesSeeded = 0;
};

/// Interval synthesis (under + over) of every query in \p P, optionally
/// seeded with the analyzer's posterior regions. Returns total solver
/// nodes; wall seconds through \p SecondsOut.
uint64_t synthesizeAll(const BenchmarkProblem &P, const ModuleAnalysis *MA,
                       double &SecondsOut) {
  uint64_t Nodes = 0;
  Stopwatch W;
  for (const QueryDef &Q : P.M.queries()) {
    SynthOptions SOpt;
    if (MA != nullptr)
      if (const QueryAnalysis *QA = MA->find(Q.Name))
        applyAnalysisSeeds(*QA, P.M.schema(), SOpt);
    auto Sy = Synthesizer::create(P.M.schema(), Q.Body, SOpt);
    if (!Sy) {
      std::fprintf(stderr, "%s/%s: %s\n", P.Id.c_str(), Q.Name.c_str(),
                   Sy.error().str().c_str());
      continue;
    }
    SynthStats Stats;
    if (auto R = Sy->synthesizeInterval(ApproxKind::Under, &Stats); !R)
      std::fprintf(stderr, "%s/%s: %s\n", P.Id.c_str(), Q.Name.c_str(),
                   R.error().str().c_str());
    if (auto R = Sy->synthesizeInterval(ApproxKind::Over, &Stats); !R)
      std::fprintf(stderr, "%s/%s: %s\n", P.Id.c_str(), Q.Name.c_str(),
                   R.error().str().c_str());
    Nodes += Stats.SolverNodes;
  }
  SecondsOut = W.seconds();
  return Nodes;
}

AnalysisSample measure(const BenchmarkProblem &P, unsigned Runs) {
  AnalysisSample Sample;
  Sample.Id = P.Id;
  Sample.Name = P.Name;
  Sample.Queries = static_cast<unsigned>(P.M.queries().size());

  // 1. Lint cost (no policy: posterior computation is the dominant
  //    work and is threshold-independent). Box tier and forced-octagon
  //    tier are measured separately.
  LintOptions LOpt;
  LOpt.Relational = RelationalTier::Off;
  Sample.LintSeconds =
      medianSeconds(Runs, [&] { (void)analyzeModule(P.M, LOpt); });
  LintOptions ROpt;
  ROpt.Relational = RelationalTier::On;
  Sample.LintRelationalSeconds =
      medianSeconds(Runs, [&] { (void)analyzeModule(P.M, ROpt); });
  ModuleAnalysis MA = analyzeModule(P.M, LOpt);

  // 2. Admission at k = 100: which queries reject statically, and how
  //    many unseeded solver nodes they would have burned.
  LintOptions AdmissionOpt;
  AdmissionOpt.MinSize = AdmissionMinSize;
  ModuleAnalysis Admission = analyzeModule(P.M, AdmissionOpt);
  for (const QueryDef &Q : P.M.queries()) {
    const QueryAnalysis *QA = Admission.find(Q.Name);
    if (QA == nullptr || !QA->RejectStatically)
      continue;
    ++Sample.StaticallyRejected;
    SynthOptions SOpt;
    auto Sy = Synthesizer::create(P.M.schema(), Q.Body, SOpt);
    if (!Sy)
      continue;
    SynthStats Stats;
    (void)Sy->synthesizeInterval(ApproxKind::Under, &Stats);
    (void)Sy->synthesizeInterval(ApproxKind::Over, &Stats);
    Sample.AdmissionNodesSaved += Stats.SolverNodes;
  }

  // 3. Seeding: node counts with and without the analyzer's regions.
  //    Node counts are deterministic per configuration; the wall time
  //    is the median over Runs.
  std::vector<double> Walls;
  for (unsigned R = 0; R != Runs; ++R) {
    double Secs = 0;
    Sample.NodesUnseeded = synthesizeAll(P, nullptr, Secs);
    Walls.push_back(Secs);
  }
  std::sort(Walls.begin(), Walls.end());
  Sample.SynthSeconds = Walls[Walls.size() / 2];
  double Ignored = 0;
  Sample.NodesSeeded = synthesizeAll(P, &MA, Ignored);
  return Sample;
}

void writeAnalysisJson(const std::string &Path,
                       const std::vector<AnalysisSample> &Samples) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "{\n  \"admission_min_size\": %lld,\n  \"problems\": [\n",
               static_cast<long long>(AdmissionMinSize));
  for (size_t I = 0; I != Samples.size(); ++I) {
    const AnalysisSample &S = Samples[I];
    double Fraction =
        S.SynthSeconds > 0 ? S.LintSeconds / S.SynthSeconds : 0;
    double Reduction =
        S.NodesUnseeded > 0
            ? 1.0 - static_cast<double>(S.NodesSeeded) /
                        static_cast<double>(S.NodesUnseeded)
            : 0;
    std::fprintf(
        F,
        "    {\"id\": \"%s\", \"name\": \"%s\", \"queries\": %u, "
        "\"lint_s\": %.6f, \"lint_relational_s\": %.6f, "
        "\"synth_s\": %.6f, \"lint_fraction\": %.4f, "
        "\"relational_fraction\": %.4f, "
        "\"statically_rejected\": %u, \"admission_nodes_saved\": %llu, "
        "\"nodes_unseeded\": %llu, \"nodes_seeded\": %llu, "
        "\"node_reduction\": %.4f}%s\n",
        S.Id.c_str(), S.Name.c_str(), S.Queries, S.LintSeconds,
        S.LintRelationalSeconds, S.SynthSeconds, Fraction,
        S.SynthSeconds > 0 ? S.LintRelationalSeconds / S.SynthSeconds : 0,
        S.StaticallyRejected,
        static_cast<unsigned long long>(S.AdmissionNodesSaved),
        static_cast<unsigned long long>(S.NodesUnseeded),
        static_cast<unsigned long long>(S.NodesSeeded), Reduction,
        I + 1 == Samples.size() ? "" : ",");
  }
  double LintTotal = 0, RelationalTotal = 0, SynthTotal = 0;
  uint64_t UnseededTotal = 0, SeededTotal = 0;
  unsigned Improved = 0;
  for (const AnalysisSample &S : Samples) {
    LintTotal += S.LintSeconds;
    RelationalTotal += S.LintRelationalSeconds;
    SynthTotal += S.SynthSeconds;
    UnseededTotal += S.NodesUnseeded;
    SeededTotal += S.NodesSeeded;
    if (S.NodesSeeded < S.NodesUnseeded)
      ++Improved;
  }
  std::fprintf(
      F,
      "  ],\n  \"totals\": {\"lint_s\": %.6f, \"lint_relational_s\": %.6f, "
      "\"synth_s\": %.6f, "
      "\"lint_fraction\": %.4f, \"relational_fraction\": %.4f, "
      "\"nodes_unseeded\": %llu, "
      "\"nodes_seeded\": %llu, \"problems_improved\": %u}\n}\n",
      LintTotal, RelationalTotal, SynthTotal,
      SynthTotal > 0 ? LintTotal / SynthTotal : 0,
      SynthTotal > 0 ? RelationalTotal / SynthTotal : 0,
      static_cast<unsigned long long>(UnseededTotal),
      static_cast<unsigned long long>(SeededTotal), Improved);
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 5);

  std::vector<AnalysisSample> Samples;
  std::printf("%-4s %-10s %10s %10s %10s %8s %9s %14s %14s %10s\n", "id",
              "name", "lint_s", "oct_s", "synth_s", "lint_%", "rejected",
              "nodes_unseeded", "nodes_seeded", "reduction");
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    AnalysisSample S = measure(P, Runs);
    double Fraction = S.SynthSeconds > 0 ? S.LintSeconds / S.SynthSeconds : 0;
    double Reduction =
        S.NodesUnseeded > 0
            ? 1.0 - static_cast<double>(S.NodesSeeded) /
                        static_cast<double>(S.NodesUnseeded)
            : 0;
    std::printf(
        "%-4s %-10s %10.6f %10.6f %10.6f %7.2f%% %9u %14llu %14llu %9.1f%%\n",
        S.Id.c_str(), S.Name.c_str(), S.LintSeconds, S.LintRelationalSeconds,
        S.SynthSeconds, Fraction * 100.0, S.StaticallyRejected,
                static_cast<unsigned long long>(S.NodesUnseeded),
                static_cast<unsigned long long>(S.NodesSeeded),
                Reduction * 100.0);
    Samples.push_back(S);
  }
  writeAnalysisJson("BENCH_static_analysis.json", Samples);
  std::printf("wrote BENCH_static_analysis.json (%zu problems)\n",
              Samples.size());
  return 0;
}
