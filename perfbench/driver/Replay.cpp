//===- perfbench/driver/Replay.cpp - Serial per-layer replay --------------===//

#include "Replay.h"

#include "analysis/LeakageAnalyzer.h"
#include "cache/QueryKey.h"
#include "compile/Tape.h"
#include "synth/Synthesizer.h"
#include "verify/RefinementChecker.h"

using namespace perfbench;
using namespace anosy;

namespace {

template <AbstractDomain D>
double replayQuery(RunContext &Ctx, SpanLog &Log, uint64_t Req,
                   const Schema &S, const QueryDef &Q,
                   const ReplayOptions &Opt, ArtifactCache &Cache) {
  RawResult &Out = Ctx.Out;
  double Attributed = 0;

  int64_t C = Log.open("cache.canonicalize", Req);
  CanonicalQuery Key =
      canonicalizeQuery(S, Q.Body, DomainTraits<D>::Name, Opt.K);
  Log.close(C);
  int64_t L = Log.open("cache.lookup", Req);
  bool Hit = Cache.lookup<D>(Key).has_value();
  Log.close(L);
  Out.Counters[Hit ? "cache.replay_hits" : "cache.replay_misses"] += 1;
  int64_t T = Log.open("compile.tape", Req);
  TapeRef Tape = Tape::compile(*Q.Body);
  Attributed += Log.close(T);
  (void)Tape;

  // Synthesis runs even on a cache hit, so the replayed layers account
  // for what an uncached registration does.
  SynthStats Stats;
  std::optional<IndSets<D>> Ind;
  int64_t Sp = Log.open(Opt.K == 0 ? "synth.interval" : "synth.powerset", Req);
  auto Synth = Synthesizer::create(S, Q.Body, SynthOptions{});
  if (Synth) {
    if constexpr (std::is_same_v<D, Box>) {
      auto Sets = Synth->synthesizeInterval(ApproxKind::Under, &Stats);
      if (Sets)
        Ind = Sets.takeValue();
    } else {
      auto Sets = Synth->synthesizePowerset(ApproxKind::Under, Opt.K, &Stats);
      if (Sets)
        Ind = Sets.takeValue();
    }
  }
  double SynthUs = Log.close(Sp);
  Attributed += SynthUs;
  if (!Ind) {
    Out.fail("error", "replayed synthesis failed for " + Q.Name);
    return Attributed;
  }
  if (Stats.SolverNodes != 0)
    Out.Samples["solver.ns_per_node"].push_back(SynthUs * 1e3 /
                                                Stats.SolverNodes);
  if (Opt.CountExact)
    Out.Counters["solver.nodes"] += Stats.SolverNodes;
  if (!Hit) {
    int64_t St = Log.open("cache.store", Req);
    (void)Cache.store<D>(Key, *Ind);
    Log.close(St);
  }

  int64_t V = Log.open("verify", Req);
  RefinementChecker Checker(S, Q.Body);
  CertificateBundle B = Checker.checkIndSets(*Ind, ApproxKind::Under);
  Attributed += Log.close(V);
  if (!B.valid())
    Out.fail("wrong-answer", "replayed artifact does not verify: " + Q.Name);
  if (Opt.CountExact)
    Out.Counters["verify.nodes"] += Checker.solverNodesUsed();
  return Attributed;
}

} // namespace

double perfbench::replayLayers(RunContext &Ctx, SpanLog &Log, uint64_t Req,
                               const Module &M, const ReplayOptions &Opt,
                               ArtifactCache &Cache) {
  ScopedSpan Root(Log, "replay", Req);
  int64_t Lint = Log.open("analysis.lint", Req);
  LintOptions LOpt;
  LOpt.MinSize = Opt.MinSize;
  ModuleAnalysis A = analyzeModule(M, LOpt);
  Log.close(Lint);
  if (Opt.CountExact)
    for (const LintDiagnostic &D : A.Diagnostics)
      if (D.Verdict == LintVerdict::PolicyUnsatisfiable)
        Ctx.Out.Counters["analysis.static_rejects"] += 1;

  double Attributed = 0;
  for (const QueryDef &Q : M.queries())
    Attributed += Opt.K == 0
                      ? replayQuery<Box>(Ctx, Log, Req, M.schema(), Q, Opt,
                                         Cache)
                      : replayQuery<PowerBox>(Ctx, Log, Req, M.schema(), Q,
                                              Opt, Cache);
  return Attributed;
}
