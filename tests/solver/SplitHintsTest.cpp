//===- tests/solver/SplitHintsTest.cpp - Guided-splitting tests -----------===//

#include "solver/SplitHints.h"

#include "expr/Parser.h"
#include "solver/Decide.h"
#include "solver/ModelCounter.h"
#include "support/Rng.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema twoField() { return Schema("S", {{"a", 0, 1000}, {"b", 0, 1000}}); }

ExprRef q(const std::string &Src) {
  auto R = parseQueryExpr(twoField(), Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return R.value();
}

bool hasHint(const SplitHints &H, size_t Dim, int64_t V) {
  if (Dim >= H.size())
    return false;
  return std::find(H[Dim].begin(), H[Dim].end(), V) != H[Dim].end();
}

} // namespace

TEST(SplitHints, ComparisonAtomsYieldThresholds) {
  SplitHints H;
  collectExprSplitHints(*q("a <= 137"), H);
  // The boundary sits between 137 and 138.
  EXPECT_TRUE(hasHint(H, 0, 137) || hasHint(H, 0, 138));
}

TEST(SplitHints, CoefficientAndOffsetSolved) {
  SplitHints H;
  collectExprSplitHints(*q("2 * a - 10 >= 100"), H);
  // 2a - 110 = 0 at a = 55.
  EXPECT_TRUE(hasHint(H, 0, 55) || hasHint(H, 0, 56));
}

TEST(SplitHints, AbsKinksContribute) {
  SplitHints H;
  collectExprSplitHints(*q("abs(a - 200) + abs(b - 300) <= 50"), H);
  EXPECT_TRUE(hasHint(H, 0, 200) || hasHint(H, 0, 201));
  EXPECT_TRUE(hasHint(H, 1, 300) || hasHint(H, 1, 301));
}

TEST(SplitHints, RelationalAtomsYieldNothing) {
  SplitHints H;
  collectExprSplitHints(*q("a + b <= 500"), H);
  for (const auto &Dim : H)
    EXPECT_TRUE(Dim.empty());
}

TEST(SplitHints, BoxFacesContribute) {
  SplitHints H;
  collectBoxSplitHints(Box({{10, 20}, {30, 40}}), H);
  normalizeSplitHints(H);
  EXPECT_TRUE(hasHint(H, 0, 10));
  EXPECT_TRUE(hasHint(H, 0, 21));
  EXPECT_TRUE(hasHint(H, 1, 30));
  EXPECT_TRUE(hasHint(H, 1, 41));
}

TEST(SplitHints, SplitWithHintsPartitions) {
  SplitHints H{{137}, {}};
  Box B({{0, 1000}, {0, 1000}});
  auto [L, R] = splitWithHints(B, H);
  EXPECT_EQ(L.dim(0), (Interval{0, 136}));
  EXPECT_EQ(R.dim(0), (Interval{137, 1000}));
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
}

TEST(SplitHints, FallsBackToMidpointWithoutHints) {
  SplitHints H;
  Box B({{0, 9}, {0, 99}});
  auto [L, R] = splitWithHints(B, H);
  // Midpoint split of the widest dimension (dim 1).
  EXPECT_EQ(L.dim(0), B.dim(0));
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
}

TEST(SplitHints, OutOfRangeHintsIgnored) {
  SplitHints H{{5000}, {}};
  Box B({{0, 9}, {0, 9}});
  auto [L, R] = splitWithHints(B, H);
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
}

TEST(SplitHints, GuidedCountingVisitsFewNodes) {
  // The point of the machinery: a separable query over a huge domain must
  // resolve in a handful of nodes, not O(surface).
  Schema S("Big", {{"u", 0, 9999999}, {"v", 0, 9999999}});
  auto Q = parseQueryExpr(S, "u >= 1234567 && v <= 7654321");
  ASSERT_TRUE(Q.ok());
  SolverBudget Budget;
  CountResult R = countSat(*exprPredicate(Q.value()), Box::top(S), Budget);
  ASSERT_FALSE(R.Exhausted);
  EXPECT_EQ(R.Count, BigCount(10000000 - 1234567) * BigCount(7654322));
  EXPECT_LT(Budget.used(), 64u);
}

TEST(SplitHints, NormalizeSortsAndDedups) {
  SplitHints H{{5, 3, 5, 1}};
  normalizeSplitHints(H);
  EXPECT_EQ(H[0], (std::vector<int64_t>{1, 3, 5}));
}

TEST(SplitHints, MergeEqualsAppendThenNormalize) {
  Rng R(5);
  for (int Trial = 0; Trial != 300; ++Trial) {
    SplitHints A(static_cast<size_t>(R.range(0, 3)));
    SplitHints B(static_cast<size_t>(R.range(0, 3)));
    for (SplitHints *H : {&A, &B})
      for (auto &Dim : *H)
        for (int64_t I = 0, N = R.range(0, 6); I != N; ++I)
          Dim.push_back(R.range(-4, 4));
    SplitHints Appended = A;
    Appended.resize(std::max(A.size(), B.size()));
    for (size_t D = 0; D != B.size(); ++D)
      Appended[D].insert(Appended[D].end(), B[D].begin(), B[D].end());
    normalizeSplitHints(Appended);
    normalizeSplitHints(A);
    normalizeSplitHints(B);
    EXPECT_EQ(mergeSplitHints(A, B), Appended);
  }
}
