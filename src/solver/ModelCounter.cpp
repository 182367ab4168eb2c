//===- solver/ModelCounter.cpp - Exact model counting ----------------------===//

#include "solver/ModelCounter.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace anosy;

CountResult anosy::countSat(const Predicate &P, const Box &B,
                            SolverBudget &Budget) {
  CountResult Result;
  if (B.isEmpty())
    return Result;

  const SplitHints &Hints = P.splitHints();

  // Per-thread and reused, like the deciders' stacks (solver/Decide.cpp).
  thread_local std::vector<Box> Stack;
  Stack.clear();
  Stack.push_back(B);
  while (!Stack.empty()) {
    if (!Budget.charge()) {
      Result.Exhausted = true;
      return Result;
    }
    Box Cur = std::move(Stack.back());
    Stack.pop_back();

    Tribool T = P.evalBox(Cur);
    if (T == Tribool::False)
      continue;
    if (T == Tribool::True) {
      Result.Count = Result.Count + Cur.volume();
      continue;
    }
    if (Cur.isUnit()) {
      if (P.evalPoint(Cur.center()))
        Result.Count = Result.Count + BigCount(1);
      continue;
    }
    auto [Left, Right] = splitWithHints(Cur, Hints);
    Stack.push_back(std::move(Left));
    Stack.push_back(std::move(Right));
  }
  return Result;
}

BigCount anosy::countSatExact(const Predicate &P, const Box &B) {
  SolverBudget Budget;
  CountResult R = countSat(P, B, Budget);
  if (R.Exhausted) {
    // A partial count is a *wrong* count; never return one silently.
    std::fprintf(stderr,
                 "countSatExact: budget exhausted counting %s over %s\n",
                 P.str().c_str(), B.str().c_str());
    std::abort();
  }
  return R.Count;
}
