//===- bench/domain_ops.cpp - Microbenchmarks of the hot operations -------===//
//
// google-benchmark microbenchmarks for the operations bounded downgrade
// executes at runtime (the ones the §6.1 amortization argument says are
// "free": intersections and size computations) and for the solver
// primitives synthesis is built from.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "domains/AbstractDomain.h"
#include "solver/ModelCounter.h"
#include "solver/RangeEval.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace anosy;

namespace {

Box randomBox(Rng &R, int64_t Max) {
  int64_t XL = R.range(0, Max), YL = R.range(0, Max);
  return Box({{XL, R.range(XL, Max)}, {YL, R.range(YL, Max)}});
}

PowerBox randomPowerBox(Rng &R, size_t NumBoxes) {
  std::vector<Box> Inc;
  for (size_t I = 0; I != NumBoxes; ++I)
    Inc.push_back(randomBox(R, 400));
  return PowerBox(2, std::move(Inc), {});
}

void BM_BoxIntersect(benchmark::State &State) {
  Rng R(1);
  Box A = randomBox(R, 400), B = randomBox(R, 400);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.intersect(B));
}
BENCHMARK(BM_BoxIntersect);

void BM_BoxVolume(benchmark::State &State) {
  Rng R(2);
  Box A = randomBox(R, 400);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.volume());
}
BENCHMARK(BM_BoxVolume);

void BM_PowerBoxIntersect(benchmark::State &State) {
  Rng R(3);
  PowerBox A = randomPowerBox(R, static_cast<size_t>(State.range(0)));
  PowerBox B = randomPowerBox(R, static_cast<size_t>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(A.intersect(B));
}
BENCHMARK(BM_PowerBoxIntersect)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_PowerBoxExactSize(benchmark::State &State) {
  Rng R(4);
  PowerBox A = randomPowerBox(R, static_cast<size_t>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(A.size());
}
BENCHMARK(BM_PowerBoxExactSize)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_PowerBoxLinearEstimate(benchmark::State &State) {
  Rng R(5);
  PowerBox A = randomPowerBox(R, 32);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.sizeLinearEstimate());
}
BENCHMARK(BM_PowerBoxLinearEstimate);

void BM_TriboolEvalNearby(benchmark::State &State) {
  const BenchmarkProblem &NB = nearbyProblem();
  ExprRef Q = NB.M.findQuery("nearby200")->Body;
  Rng R(6);
  Box B = randomBox(R, 400);
  for (auto _ : State)
    benchmark::DoNotOptimize(evalTribool(*Q, B));
}
BENCHMARK(BM_TriboolEvalNearby);

void BM_ExactCountDiamond(benchmark::State &State) {
  const BenchmarkProblem &NB = nearbyProblem();
  PredicateRef Q = exprPredicate(NB.M.findQuery("nearby200")->Body);
  Box Top = Box::top(NB.M.schema());
  for (auto _ : State)
    benchmark::DoNotOptimize(countSatExact(*Q, Top));
}
BENCHMARK(BM_ExactCountDiamond);

/// The runtime cost of one bounded downgrade's knowledge update (the
/// "free at runtime" claim of §6.1): intersect + two policy sizes.
void BM_DowngradeKnowledgeUpdate(benchmark::State &State) {
  Rng R(7);
  PowerBox Prior = randomPowerBox(R, 8);
  PowerBox IndT = randomPowerBox(R, 3);
  PowerBox IndF = randomPowerBox(R, 3);
  for (auto _ : State) {
    PowerBox PostT = Prior.intersect(IndT);
    PowerBox PostF = Prior.intersect(IndF);
    benchmark::DoNotOptimize(PostT.size() > 100);
    benchmark::DoNotOptimize(PostF.size() > 100);
  }
}
BENCHMARK(BM_DowngradeKnowledgeUpdate);

} // namespace

BENCHMARK_MAIN();
