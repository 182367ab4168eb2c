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
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "cache/ArtifactCache.h"
#include "core/AnosySession.h"
#include "expr/Parser.h"
#include "support/Rng.h"

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

/// Registers ads tenant \p T the way anosyd does: Box domain, lint
/// admission, graceful degradation, a watchdog budget above the session
/// budget, and a min-size-100 policy.
uint64_t adsTenantSolverNodes(unsigned T) {
  auto M = parseModule(adsTenantSource(T));
  EXPECT_TRUE(M.ok()) << T;
  if (!M.ok())
    return 0;
  SolverBudget Watchdog(UINT64_MAX);
  SessionOptions Opt;
  Opt.StaticAdmission = true;
  Opt.GracefulDegradation = true;
  Opt.WatchdogBudget = &Watchdog;
  auto S =
      AnosySession<Box>::create(M.takeValue(), minSizePolicy<Box>(100), Opt);
  EXPECT_TRUE(S.ok()) << T << ": " << S.error().str();
  if (!S.ok())
    return 0;
  return S->stats().SolverNodes;
}

} // namespace

TEST(RegistrationDeterminism, ColdSolverNodesRepeatExactly) {
  // bench/BENCH_cache.json, "cold_solver_nodes".
  const std::map<std::string, uint64_t> Committed = {
      {"B1", 490}, {"B2", 2398}, {"B3", 433}, {"B4", 3156}, {"B5", 865}};
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
  // Recorded with per-call split-hint collection and vector-backed
  // boxes; how hints are stored or boxes are laid out must not move a
  // single split.
  const uint64_t Committed[] = {11906, 11346, 11717, 12423,
                                11261, 10894, 11845, 11129};
  for (unsigned T = 0; T != 8; ++T) {
    uint64_t First = adsTenantSolverNodes(T);
    EXPECT_EQ(First, adsTenantSolverNodes(T)) << "tenant " << T;
    EXPECT_EQ(First, Committed[T]) << "tenant " << T;
  }
}
