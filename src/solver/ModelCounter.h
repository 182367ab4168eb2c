//===- solver/ModelCounter.h - Exact model counting -------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact counting of |{x ∈ B : P(x)}| by branch and bound: boxes proved
/// all-True contribute their full volume, all-False boxes nothing, and
/// Unknown boxes split. This computes the paper's Table 1 ("size of the
/// precise ind. sets") even for the Pizza benchmark's ~2.8e13-point domain,
/// because the uniform bulk of the space resolves at coarse granularity
/// and only the decision boundary is refined.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SOLVER_MODELCOUNTER_H
#define ANOSY_SOLVER_MODELCOUNTER_H

#include "solver/Decide.h"
#include "support/Count.h"

namespace anosy {

/// Outcome of a counting run.
struct CountResult {
  BigCount Count;
  bool Exhausted = false; ///< Budget ran out; Count is a partial lower bound.
};

/// Counts the points of \p B satisfying \p P exactly.
CountResult countSat(const Predicate &P, const Box &B, SolverBudget &Budget);

/// Convenience: counts with a fresh default budget; asserts completion.
BigCount countSatExact(const Predicate &P, const Box &B);

} // namespace anosy

#endif // ANOSY_SOLVER_MODELCOUNTER_H
