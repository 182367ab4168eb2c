//===- tests/core/RegistrationDeterminismTest.cpp - Repeatable nodes ------===//
//
// Registration is serial, so its deterministic work counters reproduce
// exactly on any host: cold-registering each Mardziel benchmark (B1–B5)
// twice, with the options bench/cache_economics uses (default session
// options plus an empty artifact cache), must spend the same number of
// solver nodes both times — and exactly the numbers committed in
// bench/BENCH_cache.json.
//
//===----------------------------------------------------------------------===//

#include "benchlib/Problems.h"
#include "cache/ArtifactCache.h"
#include "core/AnosySession.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

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
