//===- tests/solver/OptimizeTest.cpp - Box optimizer tests ----------------===//

#include "solver/Optimize.h"

#include "expr/Parser.h"
#include "gen/QueryGen.h"
#include "solver/ModelCounter.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

PredicateRef q(const Schema &S, const std::string &Src) {
  auto R = parseQueryExpr(S, Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return exprPredicate(R.value());
}

/// Checks that \p B cannot be extended by one step in any direction while
/// staying valid — inclusion maximality, SYNTH's optimality notion.
void expectMaximal(const Predicate &Valid, const Box &B, const Box &Bounds) {
  SolverBudget Budget;
  ASSERT_FALSE(B.isEmpty());
  EXPECT_TRUE(checkForall(Valid, B, Budget).Holds);
  for (size_t D = 0; D != B.arity(); ++D) {
    const Interval &Dim = B.dim(D);
    if (Dim.Hi < Bounds.dim(D).Hi) {
      Box Slab = B.withDim(D, {Dim.Hi + 1, Dim.Hi + 1});
      EXPECT_FALSE(checkForall(Valid, Slab, Budget).Holds)
          << "extensible upward in dim " << D << ": " << B.str();
    }
    if (Dim.Lo > Bounds.dim(D).Lo) {
      Box Slab = B.withDim(D, {Dim.Lo - 1, Dim.Lo - 1});
      EXPECT_FALSE(checkForall(Valid, Slab, Budget).Holds)
          << "extensible downward in dim " << D << ": " << B.str();
    }
  }
}

/// Calls \p F on every point of the non-empty box \p B; stops at the first
/// point where F returns false and returns false then.
template <typename Fn> bool allPoints(const Box &B, Fn F) {
  Point P(B.arity());
  for (size_t D = 0; D != B.arity(); ++D)
    P[D] = B.dim(D).Lo;
  while (true) {
    if (!F(P))
      return false;
    size_t D = 0;
    while (D != B.arity() && P[D] == B.dim(D).Hi) {
      P[D] = B.dim(D).Lo;
      ++D;
    }
    if (D == B.arity())
      return true;
    ++P[D];
  }
}

bool validEverywhere(const Predicate &P, const Box &B) {
  return allPoints(B, [&](const Point &X) { return P.evalPoint(X); });
}

/// Every point is valid, but the box answer on the unit box at (1, 0) is
/// False: a deliberately unsound box evaluation. Counts the box probes
/// that contain (1, 0) and get an honest answer.
class LyingAtOneZero final : public Predicate {
public:
  Tribool evalBox(const Box &B) const override {
    if (B == Box::point(Lie))
      return Tribool::False;
    if (B.contains(Lie))
      ++HonestProbes;
    return Tribool::True;
  }
  bool evalPoint(const Point &) const override { return true; }
  std::string str() const override { return "lying-at-(1,0)"; }

  const Point Lie{1, 0};
  mutable unsigned HonestProbes = 0;
};

} // namespace

TEST(Optimize, GrowFindsExactBoxWhenRegionIsBox) {
  // The satisfying set *is* a box: the grower must recover it exactly.
  Schema S = userLoc();
  PredicateRef P = q(S, "x >= 100 && x <= 250 && y >= 30 && y <= 50");
  SolverBudget Budget;
  GrowResult R = growMaximalBox(*P, *P, Box::top(S), GrowerConfig(), Budget);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_EQ(*R.Best, Box({{100, 250}, {30, 50}}));
}

TEST(Optimize, GrownBoxIsMaximalInDiamond) {
  Schema S = userLoc();
  PredicateRef P = q(S, "abs(x - 200) + abs(y - 200) <= 100");
  for (GrowObjective Obj : {GrowObjective::Volume, GrowObjective::Balanced,
                            GrowObjective::ParetoWidth}) {
    GrowerConfig Config;
    Config.Objective = Obj;
    SolverBudget Budget;
    GrowResult R = growMaximalBox(*P, *P, Box::top(S), Config, Budget);
    ASSERT_TRUE(R.Best.has_value()) << growObjectiveName(Obj);
    expectMaximal(*P, *R.Best, Box::top(S));
  }
}

TEST(Optimize, EmptyRegionYieldsNoBox) {
  Schema S = userLoc();
  PredicateRef P = q(S, "x + y >= 5000");
  SolverBudget Budget;
  GrowResult R = growMaximalBox(*P, *P, Box::top(S), GrowerConfig(), Budget);
  EXPECT_FALSE(R.Best.has_value());
  EXPECT_TRUE(R.ParetoFront.empty());
}

TEST(Optimize, SeedPredicateRestrictsStart) {
  // Valid region is the whole left half; the seed predicate forces a start
  // in the top-left corner. The grown box must still be valid everywhere.
  Schema S = userLoc();
  PredicateRef Valid = q(S, "x <= 200");
  PredicateRef Seed = q(S, "x <= 10 && y >= 390");
  SolverBudget Budget;
  GrowResult R =
      growMaximalBox(*Valid, *Seed, Box::top(S), GrowerConfig(), Budget);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_TRUE(checkForall(*Valid, *R.Best, Budget).Holds);
  EXPECT_TRUE(R.Best->contains({10, 390}) || R.Best->dim(0).Hi <= 200);
}

TEST(Optimize, ParetoFrontIsNonDominated) {
  Schema S = userLoc();
  PredicateRef P = q(S, "abs(x - 200) + abs(y - 200) <= 100");
  GrowerConfig Config;
  Config.Objective = GrowObjective::ParetoWidth;
  Config.Restarts = 8;
  SolverBudget Budget;
  GrowResult R = growMaximalBox(*P, *P, Box::top(S), Config, Budget);
  ASSERT_FALSE(R.ParetoFront.empty());
  for (const Box &A : R.ParetoFront)
    for (const Box &B : R.ParetoFront) {
      if (A == B)
        continue;
      bool Dominates = true, Strict = false;
      for (size_t D = 0; D != 2; ++D) {
        int64_t WA = A.dim(D).Hi - A.dim(D).Lo;
        int64_t WB = B.dim(D).Hi - B.dim(D).Lo;
        if (WA < WB)
          Dominates = false;
        if (WA > WB)
          Strict = true;
      }
      EXPECT_FALSE(Dominates && Strict)
          << A.str() << " dominates " << B.str();
    }
}

TEST(Optimize, VolumeObjectiveAtLeastAsBigAsPaperBox) {
  // The paper's Z3-Pareto box for nearby(200,200) has volume 6837 (§3);
  // the volume objective must do at least that well.
  Schema S = userLoc();
  PredicateRef P = q(S, "abs(x - 200) + abs(y - 200) <= 100");
  GrowerConfig Config;
  Config.Objective = GrowObjective::Volume;
  SolverBudget Budget;
  GrowResult R = growMaximalBox(*P, *P, Box::top(S), Config, Budget);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_GE(R.Best->volume().toInt64(), 6837);
}

TEST(Optimize, TightBoundingBoxOfDiamond) {
  Schema S = userLoc();
  PredicateRef P = q(S, "abs(x - 200) + abs(y - 200) <= 100");
  SolverBudget Budget;
  BoundResult R = tightBoundingBox(*P, Box::top(S), Budget);
  EXPECT_EQ(R.Bounding, Box({{100, 300}, {100, 300}}));
}

TEST(Optimize, TightBoundingBoxClipsAtBounds) {
  Schema S = userLoc();
  PredicateRef P = q(S, "abs(x - 0) + abs(y - 0) <= 50");
  SolverBudget Budget;
  BoundResult R = tightBoundingBox(*P, Box::top(S), Budget);
  EXPECT_EQ(R.Bounding, Box({{0, 50}, {0, 50}}));
}

TEST(Optimize, TightBoundingBoxEmptySet) {
  Schema S = userLoc();
  PredicateRef P = q(S, "x + y >= 5000");
  SolverBudget Budget;
  BoundResult R = tightBoundingBox(*P, Box::top(S), Budget);
  EXPECT_TRUE(R.Bounding.isEmpty());
}

TEST(Optimize, TightBoundingBoxDisjointUnion) {
  // Two separated blobs: the bounding box spans both.
  Schema S = userLoc();
  PredicateRef P = q(S, "(x <= 10 && y <= 10) || (x >= 390 && y >= 390)");
  SolverBudget Budget;
  BoundResult R = tightBoundingBox(*P, Box::top(S), Budget);
  EXPECT_EQ(R.Bounding, Box::top(S));
}

TEST(Optimize, TightBoundingBoxSinglePoint) {
  Schema S = userLoc();
  PredicateRef P = q(S, "x == 123 && y == 321");
  SolverBudget Budget;
  BoundResult R = tightBoundingBox(*P, Box::top(S), Budget);
  EXPECT_EQ(R.Bounding, Box::point({123, 321}));
}

TEST(Optimize, GrowObjectiveNames) {
  EXPECT_STREQ(growObjectiveName(GrowObjective::Volume), "volume");
  EXPECT_STREQ(growObjectiveName(GrowObjective::Balanced), "balanced");
  EXPECT_STREQ(growObjectiveName(GrowObjective::ParetoWidth),
               "pareto-width");
}

TEST(Optimize, GrowsToAnInt64MaxFieldBound) {
  // The first dimension is 2^63 wide, one more than int64 holds: the
  // grower's room, step doubling, width cap and Pareto/balanced keys must
  // not overflow (UBSan flagged the width cap and the balanced key).
  Schema S("S", {{"a", 0, INT64_MAX}, {"b", 0, 3}});
  PredicateRef P = q(S, "b <= 1");
  for (GrowObjective Obj : {GrowObjective::Volume, GrowObjective::Balanced,
                            GrowObjective::ParetoWidth}) {
    GrowerConfig Config;
    Config.Objective = Obj;
    SolverBudget Budget;
    GrowResult R = growMaximalBox(*P, *P, Box::top(S), Config, Budget);
    ASSERT_TRUE(R.Best.has_value()) << growObjectiveName(Obj);
    EXPECT_EQ(*R.Best, Box({{0, INT64_MAX}, {0, 1}})) << growObjectiveName(Obj);
  }
}

TEST(Optimize, GrownBoxIsValidAndOneStepMaximalOnRandomQueries) {
  // Random queries of the §5.1 fragment over a 64×64 box (2^12 points),
  // checked point by point rather than by the solver the grower uses:
  // the grown box is valid, and every one-step extension inside the
  // bounds holds an invalid point.
  const Box Bounds({{-32, 31}, {-32, 31}});
  unsigned Grown = 0;
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    QueryGen Gen(Seed);
    PredicateRef P = exprPredicate(Gen.genQuery());
    for (GrowObjective Obj : {GrowObjective::Volume, GrowObjective::Balanced,
                              GrowObjective::ParetoWidth}) {
      GrowerConfig Config;
      Config.Objective = Obj;
      SolverBudget Budget;
      GrowResult R = growMaximalBox(*P, *P, Bounds, Config, Budget);
      ASSERT_FALSE(R.Exhausted) << P->str();
      if (!R.Best) {
        EXPECT_TRUE(allPoints(
            Bounds, [&](const Point &X) { return !P->evalPoint(X); }))
            << "missed a valid point: " << P->str();
        continue;
      }
      ++Grown;
      const Box &B = *R.Best;
      EXPECT_TRUE(validEverywhere(*P, B)) << P->str() << " " << B.str();
      for (size_t D = 0; D != B.arity(); ++D) {
        const Interval &Dim = B.dim(D);
        if (Dim.Hi < Bounds.dim(D).Hi) {
          EXPECT_FALSE(
              validEverywhere(*P, B.withDim(D, {Dim.Hi + 1, Dim.Hi + 1})))
              << "extensible upward in dim " << D << ": " << P->str()
              << " " << B.str();
        }
        if (Dim.Lo > Bounds.dim(D).Lo) {
          EXPECT_FALSE(
              validEverywhere(*P, B.withDim(D, {Dim.Lo - 1, Dim.Lo - 1})))
              << "extensible downward in dim " << D << ": " << P->str()
              << " " << B.str();
        }
      }
    }
  }
  // The sweep must exercise the grower, not only empty regions.
  EXPECT_GE(Grown, 90u);
}

TEST(Optimize, GrowerRemembersOnlyCounterexamplesThePointAnswerConfirms) {
  // The first probe right of the seed is the unit box at (1, 0), whose box
  // answer says False although (1, 0) is valid. Its "counterexample" must
  // not be remembered: once the box has grown to column x = 0, the slab
  // [1,1]×[0,7] holds (1, 0) and must still be searched (and charged),
  // which finds it valid and lets the box grow to the whole bounds.
  LyingAtOneZero Valid;
  PredicateRef Seed = inBoxPredicate(Box::point({0, 0}));
  const Box Bounds({{0, 7}, {0, 7}});
  GrowerConfig Config;
  Config.Objective = GrowObjective::Volume;
  Config.Restarts = 1;
  SolverBudget Budget;
  GrowResult R = growMaximalBox(Valid, *Seed, Bounds, Config, Budget);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_EQ(*R.Best, Bounds);
  EXPECT_GE(Valid.HonestProbes, 1u);
}

TEST(Optimize, NoValidPointBoxCountsOnlyThroughThePointAnswer) {
  // Every point is valid, but the caller claims (3, 0) is not. evalPoint
  // accepts (3, 0), so the claim must neither stop the slab that meets it
  // nor be remembered: the grow reaches the whole bounds with exactly the
  // work it does without the claim.
  PredicateRef Valid = constPredicate(true);
  PredicateRef Seed = inBoxPredicate(Box::point({0, 0}));
  const Box Bounds({{0, 7}, {0, 7}});
  GrowerConfig Config;
  Config.Objective = GrowObjective::Volume;
  Config.Restarts = 1;
  SolverBudget Plain;
  GrowResult Want = growMaximalBox(*Valid, *Seed, Bounds, Config, Plain);
  Config.NoValidPoint = {Box::point({3, 0})};
  SolverBudget Claimed;
  GrowResult Got = growMaximalBox(*Valid, *Seed, Bounds, Config, Claimed);
  ASSERT_TRUE(Got.Best.has_value());
  EXPECT_EQ(*Got.Best, Bounds);
  EXPECT_EQ(Got.Best, Want.Best);
  EXPECT_EQ(Claimed.used(), Plain.used());
}

TEST(Optimize, NoValidPointBoxesSaveSearchesNotAnswers) {
  // The query's other answer, handed over as boxes with no valid point:
  // the grown boxes stay the same and the grow gets no dearer.
  Schema S = userLoc();
  uint64_t PlainNodes = 0, FactNodes = 0;
  PredicateRef Valid = q(S, "!(abs(x - 200) + abs(y - 200) <= 100)");
  PredicateRef Other = q(S, "abs(x - 200) + abs(y - 200) <= 100");
  for (GrowObjective Obj : {GrowObjective::Volume, GrowObjective::Balanced,
                            GrowObjective::ParetoWidth}) {
    GrowerConfig Config;
    Config.Objective = Obj;
    SolverBudget OtherBudget;
    GrowResult Facts =
        growMaximalBox(*Other, *Other, Box::top(S), Config, OtherBudget);
    ASSERT_FALSE(Facts.ParetoFront.empty());
    SolverBudget Plain;
    GrowResult Want =
        growMaximalBox(*Valid, *Valid, Box::top(S), Config, Plain);
    Config.NoValidPoint = Facts.ParetoFront;
    SolverBudget WithFacts;
    GrowResult Got =
        growMaximalBox(*Valid, *Valid, Box::top(S), Config, WithFacts);
    EXPECT_EQ(Got.Best, Want.Best) << growObjectiveName(Obj);
    EXPECT_EQ(Got.ParetoFront, Want.ParetoFront) << growObjectiveName(Obj);
    EXPECT_LE(WithFacts.used(), Plain.used()) << growObjectiveName(Obj);
    PlainNodes += Plain.used();
    FactNodes += WithFacts.used();
  }
  EXPECT_LT(FactNodes, PlainNodes);
}
