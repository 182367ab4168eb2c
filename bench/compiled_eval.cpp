//===- bench/compiled_eval.cpp - Tape vs tree-walk throughput -------------===//
//
// Pins the compiled solver hot path (src/compile, DESIGN.md) against the
// tree-walking evaluators it replaces, on the paper's own workloads:
//
//   * fig5a: interval synthesis (under + over), solver nodes/sec,
//   * fig5b: powerset synthesis at k = 3, solver nodes/sec,
//   * table1: exact ind. set counting, solver nodes/sec,
//   * probe: raw per-box query evaluation, evals/sec, tree walk vs tape.
//
// Every search workload is also a determinism check: the tape is
// bit-identical to the tree walk, so Off-mode and On-mode runs must
// produce byte-equal artifacts and identical node counts, and this
// harness exits nonzero if they do not.
//
// Results go to BENCH_compiled.json via the shared throughput reporter
// (BenchCommon.h), same fields as the other harnesses.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "compile/CompiledEval.h"
#include "compile/Tape.h"
#include "solver/RangeEval.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

using namespace anosy;

namespace {

/// Runs both interval synthesis arms and returns (artifacts, nodes).
struct IntervalRun {
  IndSets<Box> Under, Over;
  uint64_t Nodes = 0;
};

IntervalRun runInterval(const Synthesizer &Sy) {
  IntervalRun R;
  SynthStats SU, SO;
  auto U = Sy.synthesizeInterval(ApproxKind::Under, &SU);
  auto O = Sy.synthesizeInterval(ApproxKind::Over, &SO);
  if (!U || !O) {
    std::fprintf(stderr, "interval synthesis failed\n");
    std::exit(1);
  }
  R.Under = U.takeValue();
  R.Over = O.takeValue();
  R.Nodes = SU.SolverNodes + SO.SolverNodes;
  return R;
}

struct PowersetRun {
  IndSets<PowerBox> Under, Over;
  uint64_t Nodes = 0;
};

PowersetRun runPowerset(const Synthesizer &Sy, unsigned K) {
  PowersetRun R;
  SynthStats SU, SO;
  auto U = Sy.synthesizePowerset(ApproxKind::Under, K, &SU);
  auto O = Sy.synthesizePowerset(ApproxKind::Over, K, &SO);
  if (!U || !O) {
    std::fprintf(stderr, "powerset synthesis failed\n");
    std::exit(1);
  }
  R.Under = U.takeValue();
  R.Over = O.takeValue();
  R.Nodes = SU.SolverNodes + SO.SolverNodes;
  return R;
}

struct CountRun {
  BigCount TrueSize, FalseSize;
  uint64_t Nodes = 0;
};

CountRun runCount(const BenchmarkProblem &P) {
  CountRun R;
  Box Top = Box::top(P.M.schema());
  PredicateRef Q = exprPredicate(P.query().Body);
  SolverBudget BT, BF;
  CountResult T = countSat(*Q, Top, BT);
  CountResult F = countSat(*notPredicate(Q), Top, BF);
  if (T.Exhausted || F.Exhausted) {
    std::fprintf(stderr, "counting exhausted its budget on %s\n",
                 P.Id.c_str());
    std::exit(1);
  }
  R.TrueSize = T.Count;
  R.FalseSize = F.Count;
  R.Nodes = BT.used() + BF.used();
  return R;
}

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
  std::printf("Compiled-eval throughput: tape vs tree walk (%u runs)\n\n",
              Runs);
  std::vector<ThroughputSample> Samples;

  // -- Search workloads: fig5a / fig5b / table1 under both modes. -------
  std::printf("== solver nodes/sec (fig5a interval, fig5b powerset k=3, "
              "table1 counting) ==\n");
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    const Schema &S = P.M.schema();

    setCompiledEvalMode(CompiledEvalMode::Off);
    auto SyWalk = Synthesizer::create(S, P.query().Body);
    setCompiledEvalMode(CompiledEvalMode::On);
    auto SyTape = Synthesizer::create(S, P.query().Body);
    if (!SyWalk || !SyTape)
      continue;

    // fig5a. One reference run per mode checks bit-identity; the nodes
    // are deterministic, so they come from the reference run.
    IntervalRun WantI = runInterval(*SyWalk);
    IntervalRun GotI = runInterval(*SyTape);
    dieOnMismatch("fig5a artifacts", P.Id,
                  WantI.Under.TrueSet == GotI.Under.TrueSet &&
                      WantI.Under.FalseSet == GotI.Under.FalseSet &&
                      WantI.Over.TrueSet == GotI.Over.TrueSet &&
                      WantI.Over.FalseSet == GotI.Over.FalseSet &&
                      WantI.Nodes == GotI.Nodes);
    ThroughputSample Walk{P.Id + "_fig5a", "tree_walk",
                          medianSeconds(Runs, [&] { runInterval(*SyWalk); }),
                          WantI.Nodes, 0};
    ThroughputSample Tape{P.Id + "_fig5a", "tape",
                          medianSeconds(Runs, [&] { runInterval(*SyTape); }),
                          GotI.Nodes, 0};
    std::printf("  %s fig5a: tree walk %.0f nodes/s, tape %.0f nodes/s "
                "(%.2fx)\n",
                P.Id.c_str(), Walk.nodesPerSec(), Tape.nodesPerSec(),
                Walk.Seconds > 0 ? Walk.Seconds / Tape.Seconds : 0.0);
    Samples.push_back(Walk);
    Samples.push_back(Tape);

    // fig5b at the figure's k = 3.
    PowersetRun WantP = runPowerset(*SyWalk, 3);
    PowersetRun GotP = runPowerset(*SyTape, 3);
    dieOnMismatch("fig5b artifacts", P.Id,
                  WantP.Under.TrueSet == GotP.Under.TrueSet &&
                      WantP.Under.FalseSet == GotP.Under.FalseSet &&
                      WantP.Over.TrueSet == GotP.Over.TrueSet &&
                      WantP.Over.FalseSet == GotP.Over.FalseSet &&
                      WantP.Nodes == GotP.Nodes);
    Walk = {P.Id + "_fig5b", "tree_walk",
            medianSeconds(Runs, [&] { runPowerset(*SyWalk, 3); }),
            WantP.Nodes, 0};
    Tape = {P.Id + "_fig5b", "tape",
            medianSeconds(Runs, [&] { runPowerset(*SyTape, 3); }),
            GotP.Nodes, 0};
    std::printf("  %s fig5b: tree walk %.0f nodes/s, tape %.0f nodes/s "
                "(%.2fx)\n",
                P.Id.c_str(), Walk.nodesPerSec(), Tape.nodesPerSec(),
                Walk.Seconds > 0 ? Walk.Seconds / Tape.Seconds : 0.0);
    Samples.push_back(Walk);
    Samples.push_back(Tape);

    // table1 exact counting.
    setCompiledEvalMode(CompiledEvalMode::Off);
    CountRun WantC = runCount(P);
    setCompiledEvalMode(CompiledEvalMode::On);
    CountRun GotC = runCount(P);
    dieOnMismatch("table1 counts", P.Id,
                  WantC.TrueSize == GotC.TrueSize &&
                      WantC.FalseSize == GotC.FalseSize &&
                      WantC.Nodes == GotC.Nodes);
    setCompiledEvalMode(CompiledEvalMode::Off);
    Walk = {P.Id + "_table1", "tree_walk",
            medianSeconds(Runs, [&] { runCount(P); }), WantC.Nodes, 0};
    setCompiledEvalMode(CompiledEvalMode::On);
    Tape = {P.Id + "_table1", "tape",
            medianSeconds(Runs, [&] { runCount(P); }), GotC.Nodes, 0};
    std::printf("  %s table1: tree walk %.0f nodes/s, tape %.0f nodes/s "
                "(%.2fx)\n",
                P.Id.c_str(), Walk.nodesPerSec(), Tape.nodesPerSec(),
                Walk.Seconds > 0 ? Walk.Seconds / Tape.Seconds : 0.0);
    Samples.push_back(Walk);
    Samples.push_back(Tape);
  }

  // -- Probe workload: raw per-box evaluation, evals/sec. ---------------
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
