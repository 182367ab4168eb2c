//===- tests/core/RegistrationDeterminismTest.cpp - Repeatable nodes ------===//
//
// Registration is serial, so its deterministic work counters reproduce
// exactly on any host: cold-registering each Mardziel benchmark (B1–B5)
// twice, with the options bench/cache_economics uses (default session
// options plus an empty artifact cache), must spend the same number of
// solver nodes both times — and exactly the numbers committed in
// bench/BENCH_cache.json. Registering the §6.2 ads tenants the serve
// benchmark sets up (the daemon's registration options) pins the node
// counts of the Box path with lint admission on.
//
// The artifacts themselves are pinned too, by digest: a change that only
// makes the solver cheaper (fewer nodes for the same answers) must leave
// every knowledge-base byte where it was.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "cache/ArtifactCache.h"
#include "core/AnosySession.h"
#include "expr/Parser.h"
#include "support/Checksum.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

using namespace anosy;

namespace {

/// One cold registration of \p P against a fresh, empty cache directory.
uint64_t coldSolverNodes(const BenchmarkProblem &P) {
  std::string Root = testing::TempDir() + "anosy_determinism_cache";
  std::filesystem::remove_all(Root);
  ArtifactCache Cache(Root);
  SessionOptions Opt;
  Opt.Cache = &Cache;
  auto S = AnosySession<Box>::create(P.M, permissivePolicy<Box>(), Opt);
  std::filesystem::remove_all(Root);
  EXPECT_TRUE(S.ok()) << P.Id << ": " << S.error().str();
  if (!S.ok())
    return 0;
  EXPECT_EQ(S->stats().CacheHits, 0u) << P.Id;
  return S->stats().SolverNodes;
}

/// Tenant \p T of the ads set: eight `nearby` queries over a 400×400
/// location, origins drawn from a fixed seed.
std::string adsTenantSource(unsigned T) {
  Rng R(0xad5ULL + T);
  std::string Src = "secret UserLoc { x: int[0, 400], y: int[0, 400] }\n";
  for (unsigned Q = 0; Q != 8; ++Q) {
    int64_t OX = R.range(0, 399), OY = R.range(0, 399);
    Src += "query q" + std::to_string(Q) + " = abs(x - " +
           std::to_string(OX) + ") + abs(y - " + std::to_string(OY) +
           ") <= 100\n";
  }
  return Src;
}

std::string digest(const std::string &Text) {
  return checksumHex(fnv1a64(Text));
}

/// What registering one ads tenant spent and produced.
struct TenantRun {
  uint64_t SolverNodes = 0;
  std::string KbDigest;
};

/// Registers ads tenant \p T the way anosyd does: Box domain, lint
/// admission, graceful degradation, a watchdog budget above the session
/// budget, and a min-size-100 policy.
TenantRun registerAdsTenant(unsigned T) {
  auto M = parseModule(adsTenantSource(T));
  EXPECT_TRUE(M.ok()) << T;
  if (!M.ok())
    return {};
  SolverBudget Watchdog(UINT64_MAX);
  SessionOptions Opt;
  Opt.StaticAdmission = true;
  Opt.GracefulDegradation = true;
  Opt.WatchdogBudget = &Watchdog;
  auto S =
      AnosySession<Box>::create(M.takeValue(), minSizePolicy<Box>(100), Opt);
  EXPECT_TRUE(S.ok()) << T << ": " << S.error().str();
  if (!S.ok())
    return {};
  return {S->stats().SolverNodes, digest(S->exportKnowledgeBase())};
}

/// Digest of the knowledge base a default session exports for \p P.
template <AbstractDomain D> std::string underDigest(const BenchmarkProblem &P) {
  auto S = AnosySession<D>::create(P.M, permissivePolicy<D>());
  EXPECT_TRUE(S.ok()) << P.Id << ": " << S.error().str();
  return S.ok() ? digest(S->exportKnowledgeBase()) : "";
}

std::string indSetsDigest(const auto &Sets) {
  return digest(Sets.TrueSet.str() + "\n" + Sets.FalseSet.str());
}

/// Digest of the over-approximating ind. sets of \p P (k = 3 boxes for
/// the powerset domain). The knowledge-base format carries only the
/// enforcement (under) artifacts, so these are digested as rendered.
std::string overDigest(const BenchmarkProblem &P, bool Powerset) {
  auto Sy = Synthesizer::create(P.M.schema(), P.query().Body);
  EXPECT_TRUE(Sy.ok()) << P.Id;
  if (!Sy.ok())
    return "";
  if (Powerset) {
    auto Sets = Sy->synthesizePowerset(ApproxKind::Over, 3);
    return Sets.ok() ? indSetsDigest(*Sets) : "";
  }
  auto Sets = Sy->synthesizeInterval(ApproxKind::Over);
  return Sets.ok() ? indSetsDigest(*Sets) : "";
}

} // namespace

TEST(RegistrationDeterminism, ColdSolverNodesRepeatExactly) {
  // bench/BENCH_cache.json, "cold_solver_nodes".
  const std::map<std::string, uint64_t> Committed = {
      {"B1", 145}, {"B2", 656}, {"B3", 114}, {"B4", 638}, {"B5", 339}};
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    auto Want = Committed.find(P.Id);
    ASSERT_NE(Want, Committed.end()) << P.Id;
    uint64_t First = coldSolverNodes(P);
    uint64_t Second = coldSolverNodes(P);
    EXPECT_EQ(First, Second) << P.Id;
    EXPECT_EQ(First, Want->second) << P.Id;
  }
}

TEST(RegistrationDeterminism, AdsTenantSolverNodesRepeatExactly) {
  // Recorded with the grower probing only the unproved part of each slab,
  // skipping repeated seeds and taking the True answer's boxes as facts
  // about the False answer; how hints are stored or boxes are laid out
  // must not move a single split.
  const uint64_t Committed[] = {3866, 3645, 3450, 3785,
                                3327, 3451, 3821, 3807};
  for (unsigned T = 0; T != 8; ++T) {
    uint64_t First = registerAdsTenant(T).SolverNodes;
    EXPECT_EQ(First, registerAdsTenant(T).SolverNodes) << "tenant " << T;
    EXPECT_EQ(First, Committed[T]) << "tenant " << T;
  }
}

TEST(RegistrationDeterminism, BenchmarkArtifactsMatchGoldenDigests) {
  // Recorded before the grower memoized its own ∀ answers; a change that
  // only saves solver work must not move a byte.
  const std::map<std::string, std::string> Golden = {
      {"B1/interval/over", "13fda6d04752a704"},
      {"B1/interval/under", "f29baec147c7f974"},
      {"B1/powerset3/over", "b40106e38eb7c342"},
      {"B1/powerset3/under", "153f16f7b785774b"},
      {"B2/interval/over", "20c9a5efdb66914f"},
      {"B2/interval/under", "2fa1f96afe948ad4"},
      {"B2/powerset3/over", "7f08231d7e0c686b"},
      {"B2/powerset3/under", "d6ec215545e14b06"},
      {"B3/interval/over", "e94b1cfee9826c06"},
      {"B3/interval/under", "6be2bfa45258e28b"},
      {"B3/powerset3/over", "8970289a089de6f1"},
      {"B3/powerset3/under", "be780666e188b124"},
      {"B4/interval/over", "c0267e942b2fb788"},
      {"B4/interval/under", "a4ebebb08e9508bb"},
      {"B4/powerset3/over", "27de8b347fdd2a8d"},
      {"B4/powerset3/under", "873e9c3e8235adb4"},
      {"B5/interval/over", "dc4a5dff5384fa97"},
      {"B5/interval/under", "e84d2770e8909ece"},
      {"B5/powerset3/over", "54a74aff24bf2384"},
      {"B5/powerset3/under", "11fa8f6b4e591d56"}};
  for (const BenchmarkProblem &P : mardzielBenchmarks()) {
    std::map<std::string, std::string> Got = {
        {P.Id + "/interval/under", underDigest<Box>(P)},
        {P.Id + "/powerset3/under", underDigest<PowerBox>(P)},
        {P.Id + "/interval/over", overDigest(P, /*Powerset=*/false)},
        {P.Id + "/powerset3/over", overDigest(P, /*Powerset=*/true)}};
    for (const auto &[Key, Digest] : Got) {
      auto Want = Golden.find(Key);
      ASSERT_NE(Want, Golden.end()) << Key;
      EXPECT_EQ(Digest, Want->second) << Key;
    }
  }
}

TEST(RegistrationDeterminism, AdsTenantKnowledgeBasesMatchGoldenDigests) {
  // Recorded with the golden benchmark digests above.
  const char *Golden[] = {"db0abdb67e217674", "30c085781b66f1d0",
                          "f6b124bab2552bfb", "6f1ca7f61303608c",
                          "a2b7309530a20742", "9d08d3b440c631b3",
                          "939ea61595cdc801", "eda3f7d40d8a6d35"};
  for (unsigned T = 0; T != 8; ++T)
    EXPECT_EQ(registerAdsTenant(T).KbDigest, Golden[T]) << "tenant " << T;
}
