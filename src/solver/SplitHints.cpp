//===- solver/SplitHints.cpp - Boundary-guided box splitting --------------===//

#include "solver/SplitHints.h"

#include <algorithm>
#include <iterator>
#include <optional>

using namespace anosy;

namespace {

/// An integer-sorted expression recognized as a*field + b (or a constant
/// when HasField is false). Arithmetic is checked; overflowing analyses
/// abandon the atom (losing only a hint, never soundness).
struct AffineForm {
  bool HasField = false;
  unsigned Field = 0;
  int64_t A = 0; ///< coefficient (meaningful when HasField)
  int64_t B = 0; ///< constant term
};

std::optional<int64_t> checkedAdd(int64_t X, int64_t Y) {
  __int128 R = static_cast<__int128>(X) + Y;
  if (R > INT64_MAX || R < INT64_MIN)
    return std::nullopt;
  return static_cast<int64_t>(R);
}

std::optional<int64_t> checkedMul(int64_t X, int64_t Y) {
  __int128 R = static_cast<__int128>(X) * Y;
  if (R > INT64_MAX || R < INT64_MIN)
    return std::nullopt;
  return static_cast<int64_t>(R);
}

/// Recognizes expressions affine in at most one field.
std::optional<AffineForm> affineForm(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::IntConst: {
    AffineForm F;
    F.B = E.intValue();
    return F;
  }
  case ExprKind::FieldRef: {
    AffineForm F;
    F.HasField = true;
    F.Field = E.fieldIndex();
    F.A = 1;
    return F;
  }
  case ExprKind::Neg: {
    auto F = affineForm(*E.operand(0));
    if (!F)
      return std::nullopt;
    auto NA = checkedMul(F->A, -1), NB = checkedMul(F->B, -1);
    if (!NA || !NB)
      return std::nullopt;
    F->A = *NA;
    F->B = *NB;
    return F;
  }
  case ExprKind::Add:
  case ExprKind::Sub: {
    auto L = affineForm(*E.operand(0));
    auto R = affineForm(*E.operand(1));
    if (!L || !R)
      return std::nullopt;
    int64_t Sign = E.kind() == ExprKind::Add ? 1 : -1;
    if (L->HasField && R->HasField && L->Field != R->Field)
      return std::nullopt; // two distinct fields: relational
    AffineForm F;
    F.HasField = L->HasField || R->HasField;
    F.Field = L->HasField ? L->Field : R->Field;
    auto RA = checkedMul(R->A, Sign);
    auto RB = checkedMul(R->B, Sign);
    if (!RA || !RB)
      return std::nullopt;
    auto A = checkedAdd(L->A, *RA);
    auto B = checkedAdd(L->B, *RB);
    if (!A || !B)
      return std::nullopt;
    F.A = *A;
    F.B = *B;
    if (F.HasField && F.A == 0)
      F.HasField = false; // the field cancelled out
    return F;
  }
  case ExprKind::Mul: {
    auto L = affineForm(*E.operand(0));
    auto R = affineForm(*E.operand(1));
    if (!L || !R)
      return std::nullopt;
    if (L->HasField && R->HasField)
      return std::nullopt;
    const AffineForm &Var = L->HasField ? *L : *R;
    const AffineForm &Const = L->HasField ? *R : *L;
    auto A = checkedMul(Var.A, Const.B);
    auto B = checkedMul(Var.B, Const.B);
    if (!A || !B)
      return std::nullopt;
    AffineForm F;
    F.HasField = Var.HasField && *A != 0;
    F.Field = Var.Field;
    F.A = *A;
    F.B = *B;
    return F;
  }
  default:
    return std::nullopt;
  }
}

/// Adds the integer split coordinates around the real root of a*x + b = 0
/// for field \p F: both floor and floor+1, so either comparison direction
/// gets an aligned cut.
void addRootHints(const AffineForm &Form, SplitHints &Hints) {
  if (!Form.HasField || Form.A == 0)
    return;
  if (Hints.size() <= Form.Field)
    Hints.resize(Form.Field + 1);
  // floor(-b / a) with sign-correct rounding.
  int64_t Num = -Form.B, Den = Form.A;
  int64_t Q = Num / Den, R = Num % Den;
  if (R != 0 && ((R < 0) != (Den < 0)))
    --Q;
  auto &Dim = Hints[Form.Field];
  Dim.push_back(Q);
  if (auto Q1 = checkedAdd(Q, 1))
    Dim.push_back(*Q1);
}

/// Walks the expression, contributing hints at comparison atoms and at
/// piecewise kinks (abs / min / max / ite arms).
void collectRec(const Expr &E, SplitHints &Hints) {
  switch (E.kind()) {
  case ExprKind::Cmp: {
    // The atom's truth flips where L - R crosses zero.
    auto L = affineForm(*E.operand(0));
    auto R = affineForm(*E.operand(1));
    if (L && R) {
      // Combine into (L - R); reuse the Add/Sub logic via manual merge.
      if (!(L->HasField && R->HasField && L->Field != R->Field)) {
        AffineForm D;
        D.HasField = L->HasField || R->HasField;
        D.Field = L->HasField ? L->Field : R->Field;
        auto A = checkedAdd(L->A, R->HasField ? -R->A : 0);
        auto B = checkedAdd(L->B, -R->B);
        if (A && B) {
          D.A = *A;
          D.B = *B;
          if (D.HasField && D.A != 0)
            addRootHints(D, Hints);
        }
      }
    }
    break;
  }
  case ExprKind::Abs:
  case ExprKind::Min:
  case ExprKind::Max: {
    // Kinks: abs(e) at e = 0; min/max(e1, e2) where e1 - e2 = 0.
    if (E.kind() == ExprKind::Abs) {
      if (auto F = affineForm(*E.operand(0)))
        addRootHints(*F, Hints);
    } else {
      auto L = affineForm(*E.operand(0));
      auto R = affineForm(*E.operand(1));
      if (L && R && !(L->HasField && R->HasField && L->Field != R->Field)) {
        AffineForm D;
        D.HasField = L->HasField || R->HasField;
        D.Field = L->HasField ? L->Field : R->Field;
        auto A = checkedAdd(L->A, R->HasField ? -R->A : 0);
        auto B = checkedAdd(L->B, -R->B);
        if (A && B) {
          D.A = *A;
          D.B = *B;
          addRootHints(D, Hints);
        }
      }
    }
    break;
  }
  default:
    break;
  }
  for (const ExprRef &Op : E.operands())
    collectRec(*Op, Hints);
}

} // namespace

void anosy::collectExprSplitHints(const Expr &E, SplitHints &Hints) {
  collectRec(E, Hints);
}

void anosy::collectBoxSplitHints(const Box &B, SplitHints &Hints) {
  if (B.isEmpty())
    return;
  if (Hints.size() < B.arity())
    Hints.resize(B.arity());
  for (size_t D = 0, N = B.arity(); D != N; ++D) {
    Hints[D].push_back(B.dim(D).Lo);
    if (auto H = checkedAdd(B.dim(D).Hi, 1))
      Hints[D].push_back(*H);
  }
}

void anosy::normalizeSplitHints(SplitHints &Hints) {
  for (auto &Dim : Hints) {
    std::sort(Dim.begin(), Dim.end());
    Dim.erase(std::unique(Dim.begin(), Dim.end()), Dim.end());
  }
}

SplitHints anosy::mergeSplitHints(const SplitHints &A, const SplitHints &B) {
  static const std::vector<int64_t> None;
  SplitHints Out(std::max(A.size(), B.size()));
  for (size_t D = 0, N = Out.size(); D != N; ++D) {
    const auto &X = D < A.size() ? A[D] : None;
    const auto &Y = D < B.size() ? B[D] : None;
    Out[D].reserve(X.size() + Y.size());
    std::set_union(X.begin(), X.end(), Y.begin(), Y.end(),
                   std::back_inserter(Out[D]));
  }
  return Out;
}

std::pair<Box, Box> anosy::splitWithHints(const Box &B,
                                          const SplitHints &Hints) {
  assert(!B.isEmpty() && !B.isUnit() && "nothing to split");
  // Pick the (dimension, hint) pair with the most balanced partition.
  size_t BestDim = 0;
  int64_t BestHint = 0;
  // Scores are interval widths, which reach 2^63 on near-full-range
  // dimensions: computed and compared in uint64 (0 = no candidate found).
  uint64_t BestScore = 0;
  for (size_t D = 0, N = B.arity(); D != N && D < Hints.size(); ++D) {
    const Interval &I = B.dim(D);
    if (I.Lo >= I.Hi)
      continue;
    const auto &Dim = Hints[D];
    // Hints h with Lo < h <= Hi; among them the one closest to the middle.
    auto Begin = std::upper_bound(Dim.begin(), Dim.end(), I.Lo);
    auto End = std::upper_bound(Dim.begin(), Dim.end(), I.Hi);
    if (Begin == End)
      continue;
    // Overflow-safe ceil-midpoint: Lo < Hi here, so midpoint() < Hi and
    // the +1 cannot wrap (the naive Lo + (Hi - Lo) / 2 + 1 is UB on
    // near-full-range dimensions).
    int64_t Mid = I.midpoint() + 1;
    auto It = std::lower_bound(Begin, End, Mid);
    for (auto Cand : {It, It == Begin ? End : It - 1}) {
      if (Cand == End)
        continue;
      int64_t H = *Cand;
      // Lo < H <= Hi: both distances are in [1, 2^64), exact in uint64.
      uint64_t Score =
          std::min(static_cast<uint64_t>(H) - static_cast<uint64_t>(I.Lo),
                   static_cast<uint64_t>(I.Hi) - static_cast<uint64_t>(H) + 1);
      if (Score > BestScore) {
        BestScore = Score;
        BestDim = D;
        BestHint = H;
      }
    }
  }
  if (BestScore > 0)
    return {B.withDim(BestDim, {B.dim(BestDim).Lo, BestHint - 1}),
            B.withDim(BestDim, {BestHint, B.dim(BestDim).Hi})};
  return B.splitAt(B.widestDim());
}
