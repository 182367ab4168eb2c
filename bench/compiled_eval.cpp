//===- bench/compiled_eval.cpp - Tape vs tree-walk probe throughput -------===//
//
// Pins the compiled solver hot path (src/compile, DESIGN.md §11) against
// the tree-walking evaluator it replaced: raw per-box evaluation of each
// paper benchmark's query, evals/sec, `Tape::run` vs `evalTribool`. The
// two must agree on every probe box before their clocks matter, and this
// harness exits nonzero if they do not. (End-to-end solver nodes/sec
// lives in the fig5a/fig5b/table1 harnesses; the tape is the only runtime
// box evaluator, so there is no tree-walk lane to run them against.)
//
// Results go to BENCH_compiled.json via the shared throughput reporter
// (BenchCommon.h), same fields as the other harnesses.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "compile/Tape.h"
#include "solver/RangeEval.h"
#include "support/Rng.h"

using namespace anosy;

namespace {

/// Random subboxes of the schema's space: the probe workload. Mixes full
/// dimensions with narrow slices so the query's Tribool answer varies.
std::vector<Box> probeBoxes(const Schema &S, size_t N) {
  Box Top = Box::top(S);
  Rng R(/*Seed=*/0xC0FFEEull);
  std::vector<Box> Boxes;
  Boxes.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    std::vector<Interval> Dims;
    Dims.reserve(Top.arity());
    for (unsigned D = 0; D != Top.arity(); ++D) {
      Interval Full = Top.dim(D);
      if (R.range(0, 3) == 0) {
        Dims.push_back(Full);
        continue;
      }
      int64_t A = R.range(Full.Lo, Full.Hi), B = R.range(Full.Lo, Full.Hi);
      Dims.push_back({std::min(A, B), std::max(A, B)});
    }
    Boxes.emplace_back(std::move(Dims));
  }
  return Boxes;
}

void dieOnMismatch(const char *What, const std::string &Id, bool Equal) {
  if (!Equal) {
    std::fprintf(stderr, "TAPE/TREE-WALK MISMATCH (%s) on %s\n", What,
                 Id.c_str());
    std::exit(1);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = parseRuns(Argc, Argv, 5);
  std::printf("Compiled-eval probe throughput: tape vs tree walk (%u runs)\n",
              Runs);
  std::vector<ThroughputSample> Samples;

  std::printf("\n== probe evals/sec (tree walk vs tape) ==\n");
  const size_t ProbeBoxes = 4096;
  const size_t ProbeIters = 32;
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    ExprRef Q = P.query().Body;
    TapeRef T = Tape::compile(*Q);
    if (!T) {
      std::fprintf(stderr, "query failed to compile on %s\n", P.Id.c_str());
      return 1;
    }
    std::vector<Box> Boxes = probeBoxes(P.M.schema(), ProbeBoxes);
    TapeScratch Scratch;
    const uint64_t Evals = ProbeBoxes * ProbeIters;

    // The variants must agree before their clocks matter.
    for (const Box &B : Boxes)
      dieOnMismatch("probe", P.Id, T->run(B, Scratch) == evalTribool(*Q, B));

    ThroughputSample Walk{P.Id + "_probe", "tree_walk",
                          medianSeconds(Runs,
                                        [&] {
                                          for (size_t It = 0; It != ProbeIters;
                                               ++It)
                                            for (const Box &B : Boxes)
                                              (void)evalTribool(*Q, B);
                                        }),
                          0, Evals};
    ThroughputSample Scalar{P.Id + "_probe", "tape",
                            medianSeconds(Runs,
                                          [&] {
                                            for (size_t It = 0;
                                                 It != ProbeIters; ++It)
                                              for (const Box &B : Boxes)
                                                (void)T->run(B, Scratch);
                                          }),
                            0, Evals};
    std::printf("  %s: tree walk %.2fM/s, tape %.2fM/s (%.2fx)\n",
                P.Id.c_str(), Walk.evalsPerSec() / 1e6,
                Scalar.evalsPerSec() / 1e6,
                Walk.Seconds > 0 ? Walk.Seconds / Scalar.Seconds : 0.0);
    Samples.push_back(Walk);
    Samples.push_back(Scalar);
  }

  writeThroughputJson("BENCH_compiled.json", Samples,
                      "  \"probe_boxes\": " + std::to_string(ProbeBoxes) +
                          ",\n  \"probe_iters\": " +
                          std::to_string(ProbeIters) + ",\n");
  std::printf("\n  wrote BENCH_compiled.json\n");
  return 0;
}
