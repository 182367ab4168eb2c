//===- tests/obs/ObsPipelineTest.cpp - Observability cost contract --------===//
//
// The §8 cost contract (obs/Obs.h): instrumentation only *reads* what the
// pipeline already computes. Synthesized artifacts, node counts, and
// verification verdicts must be bit-identical with tracing off, with
// tracing on, and across repeated traced runs — and with the runtime
// switch off
// (the default) a full pipeline run must leave the global recorder and
// registry completely untouched, which is the mechanism behind the ≤1%
// disabled-overhead bound pinned in bench/BENCH_observability.json.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "core/AnosySession.h"
#include "expr/Parser.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

/// Everything one pipeline run produces that the contract pins.
struct RunResult {
  std::string TrueSet;
  std::string FalseSet;
  uint64_t SolverNodes = 0;
  unsigned Boxes = 0;
  bool Valid = false;
};

/// Synthesize + verify one problem's query at the interval domain.
RunResult runPipeline(const BenchmarkProblem &P) {
  auto Sy = Synthesizer::create(P.M.schema(), P.query().Body);
  EXPECT_TRUE(Sy.ok()) << Sy.error().str();
  SynthStats Stats;
  auto Sets = Sy->synthesizeInterval(ApproxKind::Under, &Stats);
  EXPECT_TRUE(Sets.ok()) << Sets.error().str();
  RunResult R;
  R.TrueSet = Sets->TrueSet.str();
  R.FalseSet = Sets->FalseSet.str();
  R.SolverNodes = Stats.SolverNodes;
  R.Boxes = Stats.BoxesSynthesized;
  R.Valid = RefinementChecker(P.M.schema(), P.query().Body)
                .checkIndSets(*Sets, ApproxKind::Under)
                .valid();
  return R;
}

void expectSameResult(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.TrueSet, B.TrueSet);
  EXPECT_EQ(A.FalseSet, B.FalseSet);
  EXPECT_EQ(A.SolverNodes, B.SolverNodes);
  EXPECT_EQ(A.Boxes, B.Boxes);
  EXPECT_EQ(A.Valid, B.Valid);
}

} // namespace

TEST(ObsPipeline, DisabledRunTouchesNoGlobalState) {
  obs::ScopedEnable Off(false);
  obs::TraceRecorder::global().clear();
  std::string MetricsBefore = obs::MetricsRegistry::global().renderPrometheus();

  RunResult R = runPipeline(nearbyProblem());
  EXPECT_TRUE(R.Valid);

  EXPECT_EQ(obs::TraceRecorder::global().eventCount(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::global().renderPrometheus(), MetricsBefore);
}

TEST(ObsPipeline, ArtifactsBitIdenticalTracingOnAndOff) {
  for (const char *Id : {"nearby", "B1"}) {
    const BenchmarkProblem &P =
        std::string(Id) == "nearby" ? nearbyProblem() : benchmarkById(Id);

    RunResult Off;
    {
      obs::ScopedEnable Disable(false);
      Off = runPipeline(P);
    }
    RunResult On;
    {
      obs::ScopedEnable Enable(true);
      obs::TraceRecorder::global().clear();
      On = runPipeline(P);
      // Tracing observed the run: spans exist — and did not perturb it.
      EXPECT_GT(obs::TraceRecorder::global().eventCount(), 0u);
    }
    expectSameResult(Off, On);
  }
  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().reset();
}

TEST(ObsPipeline, RepeatedTracedRunsAreBitIdentical) {
  const BenchmarkProblem &P = nearbyProblem();
  obs::ScopedEnable Enable(true);
  obs::TraceRecorder::global().clear();

  // Registration is serial, so everything reproduces exactly from run to
  // run — artifacts and node counts alike, tracing included.
  RunResult First = runPipeline(P);
  RunResult Again = runPipeline(P);
  expectSameResult(First, Again);

  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().reset();
}

TEST(ObsPipeline, TracedRunRecordsSynthAndVerifySpans) {
  obs::ScopedEnable Enable(true);
  obs::TraceRecorder::global().clear();
  RunResult R = runPipeline(nearbyProblem());
  EXPECT_TRUE(R.Valid);

  bool SawSynth = false, SawVerify = false;
  for (const obs::TraceEvent &E : obs::TraceRecorder::global().snapshot()) {
    SawSynth |= E.Name == "anosy.synth.interval";
    SawVerify |= E.Name == "anosy.verify.indsets";
  }
  EXPECT_TRUE(SawSynth);
  EXPECT_TRUE(SawVerify);

  // Every built query observes anosy_query_build_seconds once, whichever
  // exit it takes: synthesized, statically rejected, or constant-answer.
  auto M = parseModule("secret S { x: int[0, 100] }\n"
                       "query half = x <= 50\n"
                       "query pinned = x == 3\n"
                       "query always = x >= 0\n");
  ASSERT_TRUE(M.ok()) << M.error().str();
  obs::MetricsRegistry::global().reset();
  SessionOptions Opt;
  Opt.StaticAdmission = true;
  auto S = AnosySession<Box>::create(M.takeValue(), minSizePolicy<Box>(10),
                                     Opt);
  ASSERT_TRUE(S.ok()) << S.error().str();
  const QueryArtifacts<Box> *Pinned = S->artifacts("pinned");
  ASSERT_NE(Pinned, nullptr);
  ASSERT_TRUE(Pinned->Degradation.has_value());
  EXPECT_EQ(Pinned->Degradation->Reason, DegradationReason::StaticallyRejected);
  const QueryArtifacts<Box> *Always = S->artifacts("always");
  ASSERT_NE(Always, nullptr);
  EXPECT_EQ(Always->Attempts, 0u);
  EXPECT_FALSE(Always->Degradation.has_value());
  EXPECT_EQ(obs::MetricsRegistry::global()
                .histogram("anosy_query_build_seconds")
                .count(),
            3u);

  obs::TraceRecorder::global().clear();
  obs::MetricsRegistry::global().reset();
}
