//===- tests/solver/GrowerDifferentialTest.cpp - Grower vs. reference -----===//
//
// growMaximalBox against a frozen reference copy of an earlier grower: the
// per-call memo of point-checked counterexamples and proved-valid boxes,
// with a full ∀-search of every slab it cannot answer from the memo. Every
// grow decision of both is an exact answer to "is this slab valid?", so on
// random queries both must return the same Best box and the same Pareto
// front, and the grower under test may spend no more solver nodes than
// the reference.
//
//===----------------------------------------------------------------------===//

#include "solver/Optimize.h"

#include "gen/QueryGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace anosy;

namespace reference {

uint64_t distance(int64_t Lo, int64_t Hi) {
  return static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
}

int64_t satDistance(int64_t Lo, int64_t Hi) {
  return static_cast<int64_t>(
      std::min(distance(Lo, Hi), static_cast<uint64_t>(INT64_MAX)));
}

int64_t satWidth(const Interval &I) {
  int64_t D = satDistance(I.Lo, I.Hi);
  return D == INT64_MAX ? D : D + 1;
}

int64_t doubledUpTo(int64_t X, int64_t Limit) {
  return X > Limit / 2 ? Limit : X * 2;
}

class GrowMemo {
public:
  static constexpr size_t MaxInvalidPoints = 128;

  std::optional<bool> slabValid(const Box &Slab) const {
    for (const Box &B : ValidBoxes)
      if (Slab.subsetOf(B))
        return true;
    for (auto It = InvalidPoints.rbegin(); It != InvalidPoints.rend(); ++It)
      if (Slab.contains(*It))
        return false;
    return std::nullopt;
  }

  void addInvalidPoint(Point P) {
    if (InvalidPoints.size() == MaxInvalidPoints)
      InvalidPoints.erase(InvalidPoints.begin());
    InvalidPoints.push_back(std::move(P));
  }

  void addValidBox(const Box &B) { ValidBoxes.push_back(B); }

private:
  std::vector<Point> InvalidPoints;
  std::vector<Box> ValidBoxes;
};

Interval extendSide(const Predicate &Valid, const Box &Cur, size_t D,
                    bool Upper, const Interval &Limit, int64_t MaxStep,
                    GrowMemo &Memo, SolverBudget &Budget, bool &Exhausted) {
  const Interval &CurD = Cur.dim(D);
  if (Upper ? CurD.Hi >= Limit.Hi : CurD.Lo <= Limit.Lo)
    return CurD;
  int64_t Room = Upper ? satDistance(CurD.Hi, Limit.Hi)
                       : satDistance(Limit.Lo, CurD.Lo);
  if (MaxStep > 0)
    Room = std::min(Room, MaxStep);

  auto SlabValid = [&](int64_t Steps) {
    Interval SlabD = Upper ? Interval{CurD.Hi + 1, CurD.Hi + Steps}
                           : Interval{CurD.Lo - Steps, CurD.Lo - 1};
    Box Slab = Cur.withDim(D, SlabD);
    if (std::optional<bool> Known = Memo.slabValid(Slab))
      return *Known;
    ForallResult R = checkForall(Valid, Slab, Budget);
    if (R.Exhausted)
      Exhausted = true;
    else if (!R.Holds && !Valid.evalPoint(*R.CounterExample))
      Memo.addInvalidPoint(std::move(*R.CounterExample));
    return R.Holds;
  };

  int64_t Good = 0;
  int64_t Probe = 1;
  while (Probe <= Room && !Exhausted && SlabValid(Probe)) {
    Good = Probe;
    if (Probe == Room)
      break;
    Probe = doubledUpTo(Probe, Room);
  }
  if (Good == 0)
    return CurD;
  int64_t Lo = Good, Hi = doubledUpTo(Good, Room);
  while (Lo < Hi && !Exhausted) {
    int64_t Mid = Lo + (Hi - Lo + 1) / 2;
    if (SlabValid(Mid))
      Lo = Mid;
    else
      Hi = Mid - 1;
  }
  return Upper ? Interval{CurD.Lo, CurD.Hi + Lo}
               : Interval{CurD.Lo - Lo, CurD.Hi};
}

Box growFrom(const Predicate &Valid, const Point &SeedPoint,
             const Box &Bounds, bool Capped, GrowMemo &Memo,
             SolverBudget &Budget, bool &Exhausted) {
  Box Cur = Box::point(SeedPoint);
  size_t N = Cur.arity();
  bool Changed = true;
  while (Changed && !Exhausted) {
    Changed = false;
    for (size_t D = 0; D != N && !Exhausted; ++D) {
      int64_t MaxStep = Capped ? satWidth(Cur.dim(D)) : 0;
      for (bool Upper : {true, false}) {
        Interval NewD = extendSide(Valid, Cur, D, Upper, Bounds.dim(D),
                                   MaxStep, Memo, Budget, Exhausted);
        if (NewD != Cur.dim(D)) {
          Cur = Cur.withDim(D, NewD);
          Changed = true;
        }
      }
    }
  }
  return Cur;
}

bool widthDominates(const Box &A, const Box &B) {
  bool Strict = false;
  for (size_t D = 0, N = A.arity(); D != N; ++D) {
    uint64_t WA = distance(A.dim(D).Lo, A.dim(D).Hi);
    uint64_t WB = distance(B.dim(D).Lo, B.dim(D).Hi);
    if (WA < WB)
      return false;
    if (WA > WB)
      Strict = true;
  }
  return Strict;
}

int64_t minWidth(const Box &B) {
  int64_t Min = INT64_MAX;
  for (size_t D = 0, N = B.arity(); D != N; ++D)
    Min = std::min(Min, satWidth(B.dim(D)));
  return Min;
}

GrowResult growMaximalBox(const Predicate &Valid, const Predicate &Seed,
                          const Box &Bounds, const GrowerConfig &Config,
                          SolverBudget &Budget) {
  GrowResult Result;
  if (Bounds.isEmpty())
    return Result;
  unsigned Restarts = std::max(1u, Config.Restarts);
  bool Capped = Config.Objective != GrowObjective::Volume;
  std::vector<Box> Candidates;
  GrowMemo Memo;
  for (unsigned R = 0; R != Restarts; ++R) {
    ExistsResult W = findWitnessDiverse(Seed, Bounds, Config.Seed + R, Budget);
    if (W.Exhausted) {
      Result.Exhausted = true;
      break;
    }
    if (!W.Witness)
      break;
    bool GrowExhausted = false;
    Box Grown = growFrom(Valid, *W.Witness, Bounds, Capped, Memo, Budget,
                         GrowExhausted);
    if (GrowExhausted) {
      Result.Exhausted = true;
      break;
    }
    if (Valid.evalPoint(*W.Witness))
      Memo.addValidBox(Grown);
    if (std::find(Candidates.begin(), Candidates.end(), Grown) ==
        Candidates.end())
      Candidates.push_back(std::move(Grown));
  }
  if (Candidates.empty())
    return Result;
  for (const Box &C : Candidates) {
    bool Dominated = false;
    for (const Box &O : Candidates)
      if (widthDominates(O, C))
        Dominated = true;
    if (!Dominated)
      Result.ParetoFront.push_back(C);
  }
  const std::vector<Box> &Pool = Config.Objective == GrowObjective::ParetoWidth
                                     ? Result.ParetoFront
                                     : Candidates;
  const Box *Best = &Pool.front();
  for (const Box &C : Pool) {
    if (Config.Objective == GrowObjective::Balanced) {
      auto Key = [](const Box &B) {
        return std::make_pair(minWidth(B), B.volume());
      };
      if (Key(*Best) < Key(C))
        Best = &C;
    } else if (Best->volume() < C.volume()) {
      Best = &C;
    }
  }
  Result.Best = *Best;
  return Result;
}

} // namespace reference

namespace {

/// Runs both growers on \p P over \p Bounds with every objective and
/// compares their answers and node counts; returns how many grows found
/// a box.
unsigned compareGrowers(const Predicate &P, const Box &Bounds,
                        uint64_t &NodesRef, uint64_t &NodesNew) {
  unsigned Grown = 0;
  for (GrowObjective Obj : {GrowObjective::Volume, GrowObjective::Balanced,
                            GrowObjective::ParetoWidth}) {
    GrowerConfig Config;
    Config.Objective = Obj;
    SolverBudget RefBudget, NewBudget;
    GrowResult Ref =
        reference::growMaximalBox(P, P, Bounds, Config, RefBudget);
    GrowResult New = growMaximalBox(P, P, Bounds, Config, NewBudget);
    EXPECT_FALSE(Ref.Exhausted || New.Exhausted) << P.str();
    EXPECT_EQ(New.Best, Ref.Best)
        << growObjectiveName(Obj) << " " << P.str();
    EXPECT_EQ(New.ParetoFront, Ref.ParetoFront)
        << growObjectiveName(Obj) << " " << P.str();
    EXPECT_LE(NewBudget.used(), RefBudget.used())
        << growObjectiveName(Obj) << " " << P.str();
    NodesRef += RefBudget.used();
    NodesNew += NewBudget.used();
    Grown += Ref.Best ? 1 : 0;
  }
  return Grown;
}

} // namespace

TEST(Optimize, GrowerMatchesReferenceOnRandomQueries) {
  // Random queries of the §5.1 fragment on 2^12-point boxes: 64×64 in two
  // fields and 16×16×16 in three.
  struct Shape {
    unsigned Arity;
    Box Bounds;
  };
  const Shape Shapes[] = {{2, Box({{-32, 31}, {-32, 31}})},
                          {3, Box({{-8, 7}, {-8, 7}, {-8, 7}})}};
  unsigned Grown = 0;
  uint64_t NodesRef = 0, NodesNew = 0;
  for (const Shape &Sh : Shapes) {
    QueryGenConfig GenConfig;
    GenConfig.Arity = Sh.Arity;
    for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
      QueryGen Gen(Seed, GenConfig);
      PredicateRef P = exprPredicate(Gen.genQuery());
      Grown += compareGrowers(*P, Sh.Bounds, NodesRef, NodesNew);
    }
  }
  // The sweep must exercise the grower, not only empty regions.
  EXPECT_GE(Grown, 150u);
  RecordProperty("nodes_reference", std::to_string(NodesRef));
  RecordProperty("nodes_grower", std::to_string(NodesNew));
}
