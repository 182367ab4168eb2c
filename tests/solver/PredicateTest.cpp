//===- tests/solver/PredicateTest.cpp - Predicate combinator tests --------===//

#include "solver/Predicate.h"

#include "domains/BoxAlgebra.h"
#include "expr/Parser.h"
#include "support/Rng.h"

#include <functional>
#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema grid() { return Schema("G", {{"a", 0, 20}, {"b", 0, 20}}); }

Box box(int64_t XL, int64_t XH, int64_t YL, int64_t YH) {
  return Box({{XL, XH}, {YL, YH}});
}

PredicateRef q(const std::string &Src) {
  auto R = parseQueryExpr(grid(), Src);
  EXPECT_TRUE(R.ok());
  return exprPredicate(R.value());
}

} // namespace

TEST(Predicate, ExprPredicateMatchesConcreteEval) {
  PredicateRef P = q("a + b <= 10");
  EXPECT_TRUE(P->evalPoint({5, 5}));
  EXPECT_FALSE(P->evalPoint({6, 5}));
  EXPECT_EQ(P->evalBox(box(0, 2, 0, 2)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(10, 20, 10, 20)), Tribool::False);
}

TEST(Predicate, ConstPredicate) {
  EXPECT_TRUE(constPredicate(true)->evalPoint({0, 0}));
  EXPECT_EQ(constPredicate(false)->evalBox(box(0, 1, 0, 1)),
            Tribool::False);
}

TEST(Predicate, CombinatorsUseKleeneLogic) {
  PredicateRef A = q("a <= 10");
  PredicateRef B = q("b <= 10");
  PredicateRef Both = andPredicate(A, B);
  PredicateRef Either = orPredicate(A, B);
  PredicateRef NotA = notPredicate(A);

  EXPECT_TRUE(Both->evalPoint({10, 10}));
  EXPECT_FALSE(Both->evalPoint({10, 11}));
  EXPECT_TRUE(Either->evalPoint({20, 5}));
  EXPECT_TRUE(NotA->evalPoint({11, 0}));

  EXPECT_EQ(Both->evalBox(box(0, 5, 0, 5)), Tribool::True);
  EXPECT_EQ(Both->evalBox(box(11, 20, 0, 5)), Tribool::False);
  EXPECT_EQ(Both->evalBox(box(5, 15, 0, 5)), Tribool::Unknown);
  // False annihilates Unknown under &&.
  EXPECT_EQ(andPredicate(q("a >= 100"), Both)->evalBox(box(5, 15, 0, 5)),
            Tribool::False);
  // True absorbs Unknown under ||.
  EXPECT_EQ(orPredicate(q("a >= 0"), Both)->evalBox(box(5, 15, 0, 5)),
            Tribool::True);
}

TEST(Predicate, InBoxExactThreeValued) {
  PredicateRef P = inBoxPredicate(box(5, 10, 5, 10));
  EXPECT_TRUE(P->evalPoint({5, 10}));
  EXPECT_FALSE(P->evalPoint({4, 10}));
  EXPECT_EQ(P->evalBox(box(6, 9, 6, 9)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(0, 4, 0, 4)), Tribool::False);
  EXPECT_EQ(P->evalBox(box(0, 7, 5, 10)), Tribool::Unknown);
}

TEST(Predicate, InEmptyBoxIsFalse) {
  PredicateRef P = inBoxPredicate(Box::bottom(2));
  EXPECT_FALSE(P->evalPoint({0, 0}));
  EXPECT_EQ(P->evalBox(box(0, 5, 0, 5)), Tribool::False);
}

TEST(Predicate, InUnionSeesJointCoverage) {
  // Neither half alone covers the probe box, but together they do — the
  // union predicate must answer True, not Unknown.
  PredicateRef P =
      inUnionPredicate({box(0, 10, 0, 20), box(11, 20, 0, 20)});
  EXPECT_EQ(P->evalBox(box(5, 15, 2, 18)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(0, 20, 0, 20)), Tribool::True);
}

TEST(Predicate, InUnionDisjointAndPartial) {
  PredicateRef P = inUnionPredicate({box(0, 4, 0, 4), box(10, 14, 10, 14)});
  EXPECT_EQ(P->evalBox(box(6, 8, 6, 8)), Tribool::False);
  EXPECT_EQ(P->evalBox(box(3, 6, 3, 6)), Tribool::Unknown);
  EXPECT_TRUE(P->evalPoint({12, 12}));
  EXPECT_FALSE(P->evalPoint({5, 5}));
}

TEST(Predicate, InPowerBoxHonorsExcludes) {
  PowerBox PB(2, {box(0, 10, 0, 10)}, {box(4, 6, 4, 6)});
  PredicateRef P = inPowerBoxPredicate(PB);
  EXPECT_TRUE(P->evalPoint({0, 0}));
  EXPECT_FALSE(P->evalPoint({5, 5}));
  EXPECT_EQ(P->evalBox(box(0, 2, 0, 2)), Tribool::True);
  EXPECT_EQ(P->evalBox(box(4, 6, 4, 6)), Tribool::False);
  EXPECT_EQ(P->evalBox(box(3, 7, 3, 7)), Tribool::Unknown);
}

TEST(Predicate, StrRenderings) {
  EXPECT_EQ(constPredicate(true)->str(), "true");
  EXPECT_NE(inBoxPredicate(box(0, 1, 0, 1))->str().find("in ["),
            std::string::npos);
  EXPECT_NE(notPredicate(q("a <= 1"))->str().find("!("), std::string::npos);
}

// Hints are computed once, when a predicate is built; combinators merge
// their children's normalized lists. For random predicate trees the
// result must equal collecting every part's hints fresh and normalizing.
namespace {

/// A random predicate plus a function that appends the raw (unnormalized)
/// hints of its parts, part by part.
struct HintCase {
  PredicateRef P;
  std::function<void(SplitHints &)> Collect;
};

Box randomGridBox(Rng &R) {
  if (R.range(0, 7) == 0)
    return Box::bottom(2);
  int64_t XL = R.range(0, 20), YL = R.range(0, 20);
  return box(XL, R.range(XL, 20), YL, R.range(YL, 20));
}

std::vector<Box> randomGridBoxes(Rng &R) {
  std::vector<Box> Boxes;
  for (int64_t I = 0, N = R.range(0, 4); I != N; ++I)
    Boxes.push_back(randomGridBox(R));
  return Boxes;
}

void collectUnion(const std::vector<Box> &Boxes, SplitHints &H) {
  for (const Box &B : pruneSubsumed(Boxes))
    collectBoxSplitHints(B, H);
}

HintCase randomHintCase(Rng &R, unsigned Depth) {
  static const char *Queries[] = {
      "a <= 7",
      "abs(a - 10) + abs(b - 3) <= 5",
      "a + b <= 12",
      "2 * a - 3 >= 9 && b > 4",
      "min(a, 6) == max(b - 2, 1)",
      "b == 13 || a != 2",
  };
  int64_t Kind = R.range(0, Depth == 0 ? 3 : 6);
  switch (Kind) {
  case 0: {
    auto E = parseQueryExpr(grid(), Queries[R.range(0, 5)]).value();
    return {exprPredicate(E),
            [E](SplitHints &H) { collectExprSplitHints(*E, H); }};
  }
  case 1: {
    Box B = randomGridBox(R);
    return {inBoxPredicate(B), [B](SplitHints &H) {
              collectBoxSplitHints(B, H);
            }};
  }
  case 2: {
    std::vector<Box> Boxes = randomGridBoxes(R);
    return {inUnionPredicate(Boxes),
            [Boxes](SplitHints &H) { collectUnion(Boxes, H); }};
  }
  case 3: {
    PowerBox PB(2, randomGridBoxes(R), randomGridBoxes(R));
    return {inPowerBoxPredicate(PB), [PB](SplitHints &H) {
              collectUnion(PB.includes(), H);
              if (!PB.excludes().empty())
                collectUnion(PB.excludes(), H);
            }};
  }
  case 4: {
    HintCase A = randomHintCase(R, Depth - 1);
    return {notPredicate(A.P), A.Collect};
  }
  default: {
    HintCase A = randomHintCase(R, Depth - 1);
    HintCase B = randomHintCase(R, Depth - 1);
    PredicateRef P =
        Kind == 5 ? andPredicate(A.P, B.P) : orPredicate(A.P, B.P);
    return {P, [A, B](SplitHints &H) {
              A.Collect(H);
              B.Collect(H);
            }};
  }
  }
}

} // namespace

TEST(Predicate, SplitHintsEqualFreshCollection) {
  Rng R(77);
  for (int Trial = 0; Trial != 400; ++Trial) {
    HintCase C = randomHintCase(R, static_cast<unsigned>(R.range(0, 4)));
    SplitHints Want;
    C.Collect(Want);
    normalizeSplitHints(Want);
    EXPECT_EQ(C.P->splitHints(), Want) << C.P->str();
  }
}
