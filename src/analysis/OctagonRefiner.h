//===- analysis/OctagonRefiner.h - Relational branch refiner ----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relational escalation tier of the static analyzer (DESIGN.md §7):
/// an octagon-domain refiner that extends the interval refiner's HC4
/// narrowing with relational transfer functions for `abs`, `+`, `-` and
/// comparison atoms. Where the interval refiner can only keep the bounding
/// box of `|x-a| + |y-b| <= r`, this refiner keeps the Manhattan ball
/// itself — the four ±x±y half-planes are exactly the atoms of the
/// octagon domain.
///
/// Per comparison atom the refiner normalizes both sides into
///     Σ aᵢ·|linᵢ| + Σ b_f·x_f + c  ⋈  0
/// and expands the absolute values by sign: a *positive*-coefficient
/// |t| on the ≤-side expands conjunctively over both signs of t (|x-a| +
/// |y-b| ≤ r becomes exactly its four half-planes), a *negative* one
/// disjunctively (refine per sign and join). Expanded half-planes whose
/// per-field coefficients are in {−1, 0, +1} with at most two non-zero
/// fields become octagon constraints; anything else is soundly skipped,
/// so the refiner degrades to a no-op — never below the box information
/// it starts from.
///
/// Soundness invariant (same single contract as the interval refiner):
/// every x in the input octagon with ⟦E⟧(x) = true is in refine(E, ·).
///
/// `relationalBranchPosteriors` is the reduced-product entry point the
/// leakage analyzer escalates to: box ⊓ octagon, each narrowing the
/// other, plus a per-branch integer cardinality upper bound.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_ANALYSIS_OCTAGONREFINER_H
#define ANOSY_ANALYSIS_OCTAGONREFINER_H

#include "analysis/IntervalRefiner.h"
#include "domains/Octagon.h"
#include "expr/Expr.h"

#include <map>
#include <memory>
#include <utility>

namespace anosy {

/// Sound branch-posterior refinement over NNF queries, octagon domain.
/// A refiner normalizes each comparison atom into octagon constraints the
/// first time it meets it and keeps them, keyed by the atom's address, so
/// the fixpoint rounds only apply constraints. Every expression a refiner
/// refines must therefore outlive the refiner.
class OctagonRefiner {
public:
  explicit OctagonRefiner(unsigned MaxRounds = 6);
  ~OctagonRefiner();

  /// Over-approximation of {x ∈ Prior | ⟦E⟧(x) = true} for NNF \p E.
  /// The result is closed; empty proves the branch unsatisfiable.
  Octagon refine(const Expr &E, const Octagon &Prior) const;

private:
  struct LinearAtom;

  Octagon refineOnce(const Expr &E, Octagon O) const;
  /// Refines by the comparison \p Cmp, or by its negation when \p Negated.
  Octagon refineCmp(const Expr &Cmp, bool Negated, Octagon O) const;
  const LinearAtom &linearAtom(const Expr &Cmp, bool Negated,
                               size_t Arity) const;

  unsigned MaxRounds;
  mutable std::map<std::pair<const Expr *, bool>, std::unique_ptr<LinearAtom>>
      Atoms;
};

/// One branch of the reduced product box ⊓ octagon.
struct RelationalBranch {
  Box BoxPosterior;     ///< Product-reduced box (⊆ the box-only result).
  Octagon OctPosterior; ///< Closed octagon over-approximation.
  BigCount CardBound;   ///< Upper bound on the branch's secret count.
};

/// Both branch posteriors of one query under the reduced product.
struct RelationalPosteriors {
  RelationalBranch True;
  RelationalBranch False;
};

/// Escalation-tier entry point: normalizes \p Query like branchPosteriors
/// (simplify, then NNF per branch), runs the interval refiner, seeds the
/// octagon from its box, refines relationally, and reduces box and
/// octagon against each other. Every secret satisfying (resp. falsifying)
/// the query stays inside the corresponding branch's box AND octagon.
RelationalPosteriors relationalBranchPosteriors(const ExprRef &Query,
                                                const Box &Prior,
                                                unsigned MaxRounds = 6);

/// The same escalation for a query the box tier has already handled: \p Q
/// is normalizeQuery of the query and \p BoxTier is branchPosteriors(Q,
/// Prior, MaxRounds). Equal to the entry point above, without redoing
/// the normalization or the interval refinement.
RelationalPosteriors relationalBranchPosteriors(const NormalizedQuery &Q,
                                                const BranchPosteriors &BoxTier,
                                                unsigned MaxRounds = 6);

} // namespace anosy

#endif // ANOSY_ANALYSIS_OCTAGONREFINER_H
