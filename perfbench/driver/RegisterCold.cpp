//===- perfbench/driver/RegisterCold.cpp - The register-cold workload -----===//
//
// A closed loop with one caller, like a developer or CI compiling modules:
// each iteration parses one single-query module and registers it through
// AnosySession<Box|PowerBox>::create with default options and no cache.
// The module mix is fixed per round: the §6.1 suite (B1–B5 under interval
// and powerset k=3), seeded §6.2 `nearby` queries under powerset k=10, and
// seeded queries from all six scenario families. The first 50 k=10
// artifacts then serve Fig. 6 users through KnowledgeTracker<PowerBox>,
// and are written to disk and reloaded (verified) as a restart would.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "benchlib/Problems.h"
#include "core/AnosySession.h"
#include "core/ArtifactIO.h"
#include "expr/Parser.h"
#include "gen/ScenarioGen.h"

#include <algorithm>
#include <numeric>

using namespace perfbench;
using namespace anosy;

namespace {

constexpr unsigned AdsPerRound = 5;
constexpr unsigned ScenarioPerFamily = 2;
constexpr unsigned Rounds = 200;
/// Fig. 6 replays Fig6Sets independent sets of 50 restaurants, so one
/// seed's restaurant geometry does not decide the precision figure.
constexpr unsigned Restaurants = 50;
constexpr unsigned Fig6Sets = 4;
constexpr unsigned UsersPerSet = 150;
constexpr int64_t AdsMinSize = 100;
constexpr unsigned AdsK = 10;
constexpr unsigned SuiteK = 3;
/// Input generation takes about 40 ms; its median over this many repeats,
/// spread over the run, is the run's set-up time.
constexpr unsigned SetupRepeats = 61;
constexpr unsigned SpotSamples = 8;

struct Job {
  std::string Source;
  /// Powerset size; 0 selects the interval domain.
  unsigned K = 0;
  /// Lint threshold of the module's policy (-1 = none published).
  int64_t MinSize = -1;
  /// Index into the ads restaurant stream, or -1.
  int AdsIndex = -1;
};

std::string adsSource(unsigned Index, int64_t OX, int64_t OY) {
  return "secret UserLoc { x: int[0, 400], y: int[0, 400] }\n"
         "query restaurant" +
         std::to_string(Index) + " = abs(x - " + std::to_string(OX) +
         ") + abs(y - " + std::to_string(OY) + ") <= 100\n";
}

/// The job list for the whole run: Rounds rounds of a fixed mix, every
/// seeded part drawn from \p Seed.
std::vector<Job> generateJobs(uint64_t Seed) {
  std::vector<Job> Jobs;
  Rng Ads(Seed ^ 0xad5ad5ad5ULL);
  unsigned AdsIndex = 0;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    for (const BenchmarkProblem &P : mardzielBenchmarks()) {
      Jobs.push_back({P.Source, 0, -1, -1});
      Jobs.push_back({P.Source, SuiteK, -1, -1});
    }
    for (unsigned I = 0; I != AdsPerRound; ++I, ++AdsIndex) {
      int64_t OX = Ads.range(0, 400), OY = Ads.range(0, 400);
      Jobs.push_back({adsSource(AdsIndex, OX, OY), AdsK, AdsMinSize,
                      static_cast<int>(AdsIndex)});
    }
    for (unsigned F = 0; F != NumScenarioFamilies; ++F) {
      ScenarioOptions SO;
      SO.Family = static_cast<ScenarioFamily>(F);
      SO.Seed = Seed * 1000003ULL + Round * NumScenarioFamilies + F;
      SO.Queries = 4;
      GeneratedModule GM = generateScenarioModule(SO);
      auto M = parseModule(GM.Source);
      if (!M)
        continue;
      const std::vector<QueryDef> &Qs = M->queries();
      for (unsigned I = 0; I != ScenarioPerFamily && I < Qs.size(); ++I) {
        Module Single(M->schema(), {Qs[(Round + I) % Qs.size()]});
        Jobs.push_back(
            {renderModuleSource(Single), 0, GM.PolicyMinSize, -1});
      }
    }
  }
  return Jobs;
}

/// Checks a registered query's artifacts: verified certificates, and the
/// query's answer at sampled member points of both ind. sets.
template <AbstractDomain D>
bool checkArtifacts(const AnosySession<D> &S, Rng &R, std::string &Why) {
  for (const QueryDef &Q : S.module().queries()) {
    const QueryArtifacts<D> *A = S.artifacts(Q.Name);
    if (A == nullptr) {
      Why = "no artifacts for " + Q.Name;
      return false;
    }
    if (!A->Certificates.valid()) {
      Why = "unverified artifacts for " + Q.Name;
      return false;
    }
    if (!spotCheckSet(A->Ind.TrueSet, *Q.Body, true, R, SpotSamples) ||
        !spotCheckSet(A->Ind.FalseSet, *Q.Body, false, R, SpotSamples)) {
      Why = "ind. set member answers wrongly for " + Q.Name;
      return false;
    }
  }
  return true;
}

/// Parses and registers one job; returns the artifacts of its query when
/// the job is a k=10 ads module.
template <AbstractDomain D>
std::optional<QueryInfo<D>> registerJob(RunContext &Ctx, SpanLog &Log,
                                        uint64_t Req, const Job &J, Rng &Check,
                                        bool FirstRound,
                                        ArtifactCache &ReplayCache) {
  RawResult &Out = Ctx.Out;
  ++Out.Attempted;
  ScopedSpan Root(Log, "register", Req);
  Clock::time_point T0 = Clock::now();
  int64_t P = Log.open("expr.parse", Req);
  auto M = parseModule(J.Source);
  Log.close(P);
  if (!M) {
    Out.fail("error", "parse: " + M.error().message());
    return std::nullopt;
  }
  SessionOptions Opt;
  Opt.PowersetSize = J.K == 0 ? Opt.PowersetSize : J.K;
  int64_t C = Log.open("core.session_create", Req);
  Clock::time_point TC = Clock::now();
  auto S = AnosySession<D>::create(*M, minSizePolicy<D>(J.MinSize), Opt);
  Clock::time_point T1 = Clock::now();
  Log.close(C);
  if (!S) {
    Out.fail("error", "create: " + S.error().message());
    return std::nullopt;
  }
  // Sampled while the session, and the thread pool it owns, is alive.
  Ctx.Proc.sample();
  Out.Samples["register_ms"].push_back(msBetween(T0, T1));
  Out.Samples["register_queries"].push_back(
      static_cast<double>(S->module().queries().size()));
  const SessionStats &St = S->stats();
  Out.Counters["core.session_solver_nodes"] += St.SolverNodes;
  Out.Counters["synth.attempts"] += St.Attempts;
  Out.Counters["synth.queries"] += S->module().queries().size();
  if (FirstRound)
    Out.Samples["core.session_solver_nodes.first_round"].push_back(
        static_cast<double>(St.SolverNodes));
  std::string Why;
  if (!checkArtifacts(*S, Check, Why))
    Out.fail("wrong-answer", Why);
  if (Log.enabled()) {
    ReplayOptions RO;
    RO.MinSize = J.MinSize;
    RO.K = J.K;
    RO.CountExact = FirstRound;
    double AttributedUs = replayLayers(Ctx, Log, Req, *M, RO, ReplayCache);
    Out.Samples["core.session_unattributed_ms"].push_back(
        msBetween(TC, T1) - AttributedUs / 1e3);
  }
  if (J.AdsIndex >= 0 &&
      J.AdsIndex < static_cast<int>(Fig6Sets * Restaurants))
    if (const QueryInfo<D> *I =
            S->tracker().queryInfo(S->module().queries().front().Name))
      return *I;
  return std::nullopt;
}

} // namespace

void perfbench::runRegisterCold(RunContext &Ctx) {
  RawResult &Out = Ctx.Out;
  SpanLog &Log = Ctx.newLog();

  // Set-up is input generation. It is timed here and repeated at even
  // intervals through the registration loop, each repeat's list discarded:
  // a shared virtual machine's speed can switch between states for a
  // second at a time, and repeats taken back to back would all sample the
  // state the run began in.
  auto timedGenerate = [&] {
    Clock::time_point T0 = Clock::now();
    std::vector<Job> List = generateJobs(Ctx.Seed);
    Out.Samples["setup_s"].push_back(secondsBetween(T0, Clock::now()));
    return List;
  };
  const std::vector<Job> Jobs = timedGenerate();
  const size_t RoundSize = Jobs.size() / Rounds;
  Out.Values["register_chunk"] = static_cast<double>(RoundSize);

  // The closed registration loop. The traced run's layer replay probes
  // its own cache: the suite repeats every round, so those probes hit.
  Rng Check(Ctx.Seed ^ 0xc4ecc4ecULL);
  ArtifactCache ReplayCache(Ctx.WorkDir + "/replay-cache");
  std::vector<std::optional<QueryInfo<PowerBox>>> Fig6(Fig6Sets * Restaurants);
  Clock::time_point Start = Clock::now();
  Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Ctx.Seconds));
  const Clock::duration SetupEvery = (End - Start) / SetupRepeats;
  Clock::time_point NextSetup = Start + SetupEvery;
  size_t Done = 0;
  while (Clock::now() < End) {
    if (Clock::now() >= NextSetup) {
      (void)timedGenerate();
      NextSetup += SetupEvery;
    }
    const Job &J = Jobs[Done % Jobs.size()];
    bool FirstRound = Done < RoundSize;
    if (J.K != 0) {
      auto Info = registerJob<PowerBox>(Ctx, Log, Done, J, Check, FirstRound,
                                        ReplayCache);
      if (Info && Done < Jobs.size())
        Fig6[static_cast<size_t>(J.AdsIndex)] = std::move(Info);
    } else {
      registerJob<Box>(Ctx, Log, Done, J, Check, FirstRound, ReplayCache);
    }
    ++Done;
  }
  Out.Counters["register.modules"] = static_cast<double>(Done);
  Out.Values["register_loop_s"] = secondsBetween(Start, Clock::now());

  // Restaurants the loop did not reach are registered now, untimed, so
  // the Fig. 6 replay always sees every set in full.
  for (size_t I = 0; I != Jobs.size(); ++I)
    if (Jobs[I].AdsIndex >= 0 &&
        Jobs[I].AdsIndex < static_cast<int>(Fig6.size()) &&
        !Fig6[static_cast<size_t>(Jobs[I].AdsIndex)]) {
      SessionOptions Opt;
      Opt.PowersetSize = AdsK;
      auto M = parseModule(Jobs[I].Source);
      auto S = M ? AnosySession<PowerBox>::create(
                       *M, minSizePolicy<PowerBox>(AdsMinSize), Opt)
                 : Result<AnosySession<PowerBox>>(M.error());
      if (!S) {
        Out.fail("error", "fig6 registration failed");
        return;
      }
      Fig6[static_cast<size_t>(Jobs[I].AdsIndex)] =
          *S->tracker().queryInfo(S->module().queries().front().Name);
    }

  const Schema S = parseModule(adsSource(0, 0, 0))->schema();
  FreshPoints Secrets(0, 400, Ctx.Seed ^ 0xf16f16ULL);
  Rng Order(Ctx.Seed ^ 0x0bde7ULL);
  uint64_t Answered = 0, Refused = 0;
  for (unsigned Set = 0; Set != Fig6Sets; ++Set) {
    std::vector<QueryInfo<PowerBox>> Infos;
    for (unsigned R = 0; R != Restaurants; ++R)
      Infos.push_back(*Fig6[Set * Restaurants + R]);

    // Fig. 6 replay: each user has a fresh secret, visits the restaurants
    // in a fresh order and downgrades until the policy refuses.
    for (unsigned U = 0; U != UsersPerSet; ++U) {
      uint64_t User = Set * UsersPerSet + U;
      Point Secret = Secrets.next();
      std::vector<unsigned> Visit(Restaurants);
      std::iota(Visit.begin(), Visit.end(), 0u);
      for (size_t I = Visit.size(); I > 1; --I)
        std::swap(Visit[I - 1],
                  Visit[static_cast<size_t>(
                      Order.range(0, static_cast<int64_t>(I) - 1))]);
      KnowledgeTracker<PowerBox> Tracker(S,
                                         minSizePolicy<PowerBox>(AdsMinSize));
      for (const QueryInfo<PowerBox> &Info : Infos)
        Tracker.registerQuery(Info);
      std::vector<std::pair<ExprRef, bool>> Steps;
      unsigned UserAnswered = 0;
      for (unsigned Step = 0; Step != Restaurants; ++Step) {
        const QueryInfo<PowerBox> &Info = Infos[Visit[Step]];
        ++Out.Attempted;
        if (Log.enabled()) {
          int64_t A = Log.open("domains.approx", User);
          auto Post = Info.approx(Tracker.knowledgeFor(Secret));
          Log.close(A);
          (void)Post;
        }
        int64_t D = Log.open("core.downgrade", User);
        Clock::time_point T0 = Clock::now();
        Result<bool> R = Tracker.downgrade(Secret, Info.Name);
        Clock::time_point T1 = Clock::now();
        Log.close(D);
        if (!R) {
          if (R.error().code() == ErrorCode::PolicyViolation) {
            ++Refused;
            break;
          }
          Out.fail("error", "downgrade: " + R.error().message());
          break;
        }
        ++Answered;
        ++UserAnswered;
        Out.Samples["downgrade_us"].push_back(usBetween(T0, T1));
        if (*R != evalBool(*Info.QueryExpr, Secret))
          Out.fail("wrong-answer", "downgrade answered wrongly");
        Steps.emplace_back(Info.QueryExpr, *R);
        if (Log.enabled())
          Out.Samples["domains.knowledge_boxes"].push_back(static_cast<double>(
              Tracker.knowledgeFor(Secret).includes().size()));
      }
      Out.Samples["answered_per_user"].push_back(UserAnswered);
      // The exact posterior of a seeded sample of users must stay above
      // the policy threshold.
      if (U % 15 == 0 && exactPosteriorSize(S, Steps) <= AdsMinSize)
        Out.fail("unsound", "exact posterior at or below the threshold");
    }

    // Restart: write the set's k=10 artifacts as one knowledge base and
    // bring them back, re-verified, as a deployment restart would.
    std::string Path = Ctx.WorkDir + "/ads" + std::to_string(Set) + ".akb";
    ++Out.Attempted;
    int64_t Ser = Log.open("core.kb_serialize", Set);
    std::string Text = serializeKnowledgeBaseV2(S, Infos);
    Log.close(Ser);
    int64_t W = Log.open("core.kb_write", Set);
    auto Wrote = writeKnowledgeBaseFileAtomic(Path, Text);
    Log.close(W);
    if (!Wrote) {
      Out.fail("error", "kb write: " + Wrote.error().message());
      continue;
    }
    if (Log.enabled()) {
      int64_t Rec = Log.open("core.kb_recover", Set);
      auto Parsed = recoverKnowledgeBase<PowerBox>(Text);
      Log.close(Rec);
      (void)Parsed;
    }
    SessionOptions Opt;
    Opt.PowersetSize = AdsK;
    Clock::time_point T0 = Clock::now();
    auto Read = readKnowledgeBaseFile(Path);
    auto Loaded =
        Read ? AnosySession<PowerBox>::createFromKnowledgeBase(
                   *Read, minSizePolicy<PowerBox>(AdsMinSize), Opt)
             : Result<AnosySession<PowerBox>>(Read.error());
    Out.Samples["salvage_s"].push_back(secondsBetween(T0, Clock::now()));
    // Sampled while the loaded session, and its thread pool, is alive.
    Ctx.Proc.sample();
    if (!Loaded)
      Out.fail("error", "kb reload: " + Loaded.error().message());
    else if (Loaded->module().queries().size() != Restaurants ||
             !Loaded->degradation().Queries.empty())
      Out.fail("error", "kb reload lost or degraded artifacts");
  }
  Out.Counters["downgrade.answered"] = static_cast<double>(Answered);
  Out.Counters["downgrade.refused"] = static_cast<double>(Refused);
  Out.Counters["downgrade.bottom"] = 0;
  // Each Fig. 6 user has a tracker of its own, holding one secret.
  Out.Values["core.tracked_secrets"] = 1;
}
