//===- solver/Optimize.cpp - Box optimization procedures -------------------===//

#include "solver/Optimize.h"

#include "support/Rng.h"

#include <algorithm>
#include <optional>

using namespace anosy;

const char *anosy::growObjectiveName(GrowObjective Obj) {
  switch (Obj) {
  case GrowObjective::Volume:
    return "volume";
  case GrowObjective::Balanced:
    return "balanced";
  case GrowObjective::ParetoWidth:
    return "pareto-width";
  }
  return "?";
}

namespace {

/// Hi - Lo for Lo <= Hi: exact in uint64, where it may not fit int64 (a
/// dimension may end at INT64_MAX).
uint64_t distance(int64_t Lo, int64_t Hi) {
  return static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
}

/// Hi - Lo for Lo <= Hi, saturated at INT64_MAX.
int64_t satDistance(int64_t Lo, int64_t Hi) {
  return static_cast<int64_t>(
      std::min(distance(Lo, Hi), static_cast<uint64_t>(INT64_MAX)));
}

/// The width of the non-empty interval \p I, saturated at INT64_MAX.
int64_t satWidth(const Interval &I) {
  int64_t D = satDistance(I.Lo, I.Hi);
  return D == INT64_MAX ? D : D + 1;
}

/// min(Limit, 2 * X) for 0 <= X <= Limit, without overflowing.
int64_t doubledUpTo(int64_t X, int64_t Limit) {
  return X > Limit / 2 ? Limit : X * 2;
}

/// What one growMaximalBox call has proved about its validity predicate,
/// so a slab probe can be answered without a search (DESIGN.md §13, "The
/// grower reuses its own answers"). Every answer it gives is the one a
/// complete checkForall would give, provided box evaluation is sound with
/// respect to evalPoint: a slab holding a point that evalPoint rejects
/// cannot be valid, and a slab inside a box whose every point is valid
/// cannot be invalid. So the grow decisions, and every artifact, are
/// exactly those of the search; only the node count drops.
class GrowMemo {
public:
  /// Counterexamples kept, newest last; a full memo forgets its oldest.
  /// A memory cap, not a tuning knob: no grow of the 64 serve-steady ads
  /// tenants (seeds 1 and 7919) or of the corpus modules stores more
  /// than 40, and no hit there is older than 32 entries.
  static constexpr size_t MaxInvalidPoints = 128;

  /// True when every point of \p Slab is known valid.
  bool knownValid(const Box &Slab) const {
    for (const Box &B : ValidBoxes)
      if (Slab.subsetOf(B))
        return true;
    return false;
  }

  /// A stored point of \p Slab that evalPoint rejects, newest first.
  const Point *knownInvalidPoint(const Box &Slab) const {
    for (auto It = InvalidPoints.rbegin(); It != InvalidPoints.rend(); ++It)
      if (Slab.contains(*It))
        return &*It;
    return nullptr;
  }

  /// Records \p P, which evalPoint has rejected. A box answer alone is
  /// not trusted here: the tape saturates at the int64 rails, where point
  /// arithmetic overflows instead, so the two can disagree there.
  void addInvalidPoint(Point P) {
    if (InvalidPoints.size() == MaxInvalidPoints)
      InvalidPoints.erase(InvalidPoints.begin());
    InvalidPoints.push_back(std::move(P));
  }

  /// Records \p B, every point of which is valid.
  void addValidBox(const Box &B) { ValidBoxes.push_back(B); }

private:
  std::vector<Point> InvalidPoints;
  std::vector<Box> ValidBoxes;
};

/// What every slab probe of one growMaximalBox call shares.
struct GrowContext {
  const Predicate &Valid;
  /// GrowerConfig::NoValidPoint.
  const std::vector<Box> &NoValidPoint;
  SolverBudget &Budget;
  GrowMemo Memo;
  bool Exhausted = false;
};

/// Largest extension of \p Cur's dimension \p D by a slab on side \p Upper
/// that keeps every new point valid. Returns the new interval for D.
/// Uses exponential probing then binary refinement over the slab's depth
/// in steps. A probe checks only the part of its slab that no earlier
/// probe of this call proved valid: the current box is valid, and the
/// slab of Proved steps is too, so the rest is valid iff the whole slab
/// is (DESIGN.md §13, "Registration does not re-prove what it knows").
Interval extendSide(GrowContext &Ctx, const Box &Cur, size_t D, bool Upper,
                    const Interval &Limit, int64_t MaxStep) {
  const Interval &CurD = Cur.dim(D);
  if (Upper ? CurD.Hi >= Limit.Hi : CurD.Lo <= Limit.Lo)
    return CurD;
  int64_t Room = Upper ? satDistance(CurD.Hi, Limit.Hi)
                       : satDistance(Limit.Lo, CurD.Lo);
  if (MaxStep > 0)
    Room = std::min(Room, MaxStep);

  // Every slab of at most Proved steps is valid; every slab of at least
  // Refuted steps holds a point that evalPoint rejects.
  int64_t Proved = 0;
  int64_t Refuted = INT64_MAX;
  // The depth of slab coordinate \p C: the steps it takes to reach it.
  auto StepsTo = [&](int64_t C) {
    return static_cast<int64_t>(Upper ? distance(CurD.Hi, C)
                                      : distance(C, CurD.Lo));
  };
  // The point of \p B (a box inside the slab) nearest Cur's face: the
  // shallowest candidate counterexample, so the strongest bound.
  auto NearestPoint = [&](const Box &B) {
    Point P = B.center();
    P[D] = Upper ? B.dim(D).Lo : B.dim(D).Hi;
    return P;
  };
  auto Refute = [&](Point P) {
    Refuted = std::min(Refuted, StepsTo(P[D]));
    Ctx.Memo.addInvalidPoint(std::move(P));
  };

  auto SlabValid = [&](int64_t Steps) {
    if (Steps >= Refuted)
      return false;
    Interval OpenD = Upper ? Interval{CurD.Hi + Proved + 1, CurD.Hi + Steps}
                           : Interval{CurD.Lo - Steps, CurD.Lo - Proved - 1};
    Box Open = Cur.withDim(D, OpenD);
    if (Ctx.Memo.knownValid(Open)) {
      Proved = Steps;
      return true;
    }
    if (const Point *P = Ctx.Memo.knownInvalidPoint(Open)) {
      Refuted = std::min(Refuted, StepsTo((*P)[D]));
      return false;
    }
    // A box said to hold no valid point refutes the slab it meets, but
    // only through a point that evalPoint itself rejects.
    std::optional<Point> Met;
    for (const Box &X : Ctx.NoValidPoint) {
      if (!Open.intersects(X))
        continue;
      Point P = NearestPoint(Open.intersect(X));
      if ((!Met || StepsTo(P[D]) < StepsTo((*Met)[D])) &&
          !Ctx.Valid.evalPoint(P))
        Met = std::move(P);
    }
    if (Met) {
      Refute(std::move(*Met));
      return false;
    }
    ForallResult R = checkForall(Ctx.Valid, Open, Ctx.Budget);
    if (R.Exhausted) {
      Ctx.Exhausted = true;
      return false;
    }
    if (R.Holds) {
      Proved = Steps;
      return true;
    }
    if (R.Falsifier) {
      Point Near = NearestPoint(*R.Falsifier);
      if (!Ctx.Valid.evalPoint(Near)) {
        Refute(std::move(Near));
        return false;
      }
    }
    if (!Ctx.Valid.evalPoint(*R.CounterExample))
      Refute(std::move(*R.CounterExample));
    return false;
  };

  // Exponential probe: find the largest power-of-two-ish step that works.
  int64_t Good = 0;
  int64_t Probe = 1;
  while (Probe <= Room && !Ctx.Exhausted && SlabValid(Probe)) {
    Good = Probe;
    if (Probe == Room)
      break;
    Probe = doubledUpTo(Probe, Room);
  }
  if (Good == 0)
    return CurD;
  // Binary refinement in (Good, min(2*Good, Room)].
  int64_t Lo = Good, Hi = doubledUpTo(Good, Room);
  while (Lo < Hi && !Ctx.Exhausted) {
    int64_t Mid = Lo + (Hi - Lo + 1) / 2;
    if (SlabValid(Mid))
      Lo = Mid;
    else
      Hi = Mid - 1;
  }
  return Upper ? Interval{CurD.Lo, CurD.Hi + Lo}
               : Interval{CurD.Lo - Lo, CurD.Hi};
}

/// Grows one maximal box from \p SeedPoint. \p Capped selects the balanced
/// schedule (per-round extension capped at the current width) versus full
/// greedy per-dimension extension.
Box growFrom(GrowContext &Ctx, const Point &SeedPoint, const Box &Bounds,
             bool Capped) {
  Box Cur = Box::point(SeedPoint);
  size_t N = Cur.arity();
  bool Changed = true;
  while (Changed && !Ctx.Exhausted) {
    Changed = false;
    for (size_t D = 0; D != N && !Ctx.Exhausted; ++D) {
      int64_t MaxStep = 0;
      if (Capped) {
        // Cap the per-round growth at the current width so all dimensions
        // advance together (§5.3's preference for square-ish boxes).
        MaxStep = satWidth(Cur.dim(D));
      }
      for (bool Upper : {true, false}) {
        Interval NewD = extendSide(Ctx, Cur, D, Upper, Bounds.dim(D), MaxStep);
        if (NewD != Cur.dim(D)) {
          Cur = Cur.withDim(D, NewD);
          Changed = true;
        }
      }
    }
  }
  return Cur;
}

/// True when A's width vector dominates B's (>= everywhere, > somewhere).
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

/// Smallest dimension width of \p B.
int64_t minWidth(const Box &B) {
  int64_t Min = INT64_MAX;
  for (size_t D = 0, N = B.arity(); D != N; ++D)
    Min = std::min(Min, satWidth(B.dim(D)));
  return Min;
}

} // namespace

GrowResult anosy::growMaximalBox(const Predicate &Valid, const Predicate &Seed,
                                 const Box &Bounds,
                                 const GrowerConfig &Config,
                                 SolverBudget &Budget) {
  GrowResult Result;
  if (Bounds.isEmpty())
    return Result;

  unsigned Restarts = std::max(1u, Config.Restarts);
  bool Capped = Config.Objective != GrowObjective::Volume;

  std::vector<Box> Candidates;
  std::vector<Point> Seeds;
  GrowContext Ctx{Valid, Config.NoValidPoint, Budget, {}};
  for (unsigned R = 0; R != Restarts; ++R) {
    // Fault-injection site: an abandoned restart reports as an exhausted
    // search, so the degradation machinery upstream (retry, then the
    // always-sound ⊥/⊤ fallback) handles it like any spent budget.
    if (faults::armed() && faults::shouldFail(FaultSite::GrowerRestart)) {
      Result.Exhausted = true;
      break;
    }
    ExistsResult W = findWitnessDiverse(Seed, Bounds, Config.Seed + R, Budget);
    if (W.Exhausted) {
      Result.Exhausted = true;
      break;
    }
    if (!W.Witness)
      break; // The seed region is empty; later restarts won't differ.
    // A seed an earlier restart grew from grows the same box again: every
    // answer it would get is exact.
    if (std::find(Seeds.begin(), Seeds.end(), *W.Witness) != Seeds.end())
      continue;
    Seeds.push_back(*W.Witness);
    Box Grown = growFrom(Ctx, *W.Witness, Bounds, Capped);
    if (Ctx.Exhausted) {
      Result.Exhausted = true;
      break;
    }
    // Every slab the box grew by was proved valid. The seed point was
    // only searched with Seed, which need not imply Valid.
    if (Valid.evalPoint(*W.Witness))
      Ctx.Memo.addValidBox(Grown);
    // Skip duplicates of earlier restarts.
    if (std::find(Candidates.begin(), Candidates.end(), Grown) ==
        Candidates.end())
      Candidates.push_back(std::move(Grown));
  }
  if (Candidates.empty())
    return Result;

  // Width-vector Pareto front across candidates.
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

BoundResult anosy::tightBoundingBox(const Predicate &P, const Box &Bounds,
                                    SolverBudget &Budget) {
  BoundResult Result;
  Result.Bounding = Box::bottom(Bounds.isEmpty() ? 1 : Bounds.arity());
  if (Bounds.isEmpty())
    return Result;

  ExistsResult First = findWitness(P, Bounds, Budget);
  if (First.Exhausted) {
    Result.Exhausted = true;
    return Result;
  }
  if (!First.Witness)
    return Result; // Empty satisfying set: bounding box is bottom.
  const Point &W = *First.Witness;

  size_t N = Bounds.arity();
  std::vector<Interval> Tight(N, Interval::empty());
  for (size_t D = 0; D != N; ++D) {
    const Interval &Full = Bounds.dim(D);

    // Smallest c such that a satisfying point exists with x_D <= c; the
    // witness guarantees feasibility at c = W[D]. "∃ point with x_D <= c"
    // is monotone in c, so binary search applies.
    int64_t Lo = Full.Lo, Hi = W[D];
    while (Lo < Hi) {
      int64_t Mid = Lo + (Hi - Lo) / 2;
      ExistsResult E =
          findWitness(P, Bounds.withDim(D, {Full.Lo, Mid}), Budget);
      if (E.Exhausted) {
        Result.Exhausted = true;
        return Result;
      }
      if (E.Witness)
        Hi = (*E.Witness)[D]; // In [Lo, Mid]: nothing satisfies below Lo.
      else
        Lo = Mid + 1;
    }
    int64_t MinCoord = Lo;

    // Largest c such that a satisfying point exists with x_D >= c.
    Lo = W[D];
    Hi = Full.Hi;
    while (Lo < Hi) {
      int64_t Mid = Lo + (Hi - Lo + 1) / 2;
      ExistsResult E =
          findWitness(P, Bounds.withDim(D, {Mid, Full.Hi}), Budget);
      if (E.Exhausted) {
        Result.Exhausted = true;
        return Result;
      }
      if (E.Witness)
        Lo = (*E.Witness)[D]; // In [Mid, Hi]: nothing satisfies above Hi.
      else
        Hi = Mid - 1;
    }
    Tight[D] = {MinCoord, Lo};
  }
  Result.Bounding = Box(Tight);
  return Result;
}
