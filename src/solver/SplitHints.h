//===- solver/SplitHints.h - Boundary-guided box splitting ------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Split-coordinate hints for the branch-and-bound procedures. Bisecting
/// Unknown boxes at dimension midpoints resolves a decision boundary only
/// at unit granularity, which costs O(surface) nodes — ruinous for the
/// Pizza benchmark's ~1e5-wide coordinate dimensions. Instead, predicates
/// publish the coordinates where their truth value can change:
///
///   * a comparison atom affine in a single field (a*x + b ⋚ 0)
///     contributes the integer threshold around x = -b/a;
///   * an abs/min/max kink affine in a single field contributes its
///     breakpoint;
///   * box-membership predicates contribute their face coordinates.
///
/// Splitting at a hint produces children that are uniform with respect to
/// that atom, so separable queries decompose into O(∏_d atoms_d) aligned
/// cells instead of O(surface) dyadic ones. Relational atoms publish no
/// hints and fall back to midpoint bisection, which matches the paper's
/// observation that relational queries (B2) are the expensive class.
///
/// Hints are a property of the predicate, not of the search: every
/// Predicate collects and normalizes its hints once, when it is built
/// (combinators merge their children's normalized lists), and the
/// deciders read them by reference. A branch-and-bound node never
/// re-walks the query.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SOLVER_SPLITHINTS_H
#define ANOSY_SOLVER_SPLITHINTS_H

#include "domains/Box.h"
#include "expr/Expr.h"

#include <cstdint>
#include <vector>

namespace anosy {

/// Per-dimension candidate split coordinates. A hint h for dimension d
/// proposes the partition [Lo, h-1] / [h, Hi] whenever Lo < h <= Hi.
using SplitHints = std::vector<std::vector<int64_t>>;

/// Appends the boundary hints of the boolean expression \p E (see file
/// comment); hint lists grow to cover the fields mentioned.
void collectExprSplitHints(const Expr &E, SplitHints &Hints);

/// Appends the face coordinates of \p B (Lo and Hi+1 per dimension).
void collectBoxSplitHints(const Box &B, SplitHints &Hints);

/// Chooses the split for \p B: the most balanced in-range hint if any
/// dimension has one, otherwise the midpoint of the widest dimension.
/// \p Hints must be sorted and deduplicated (see normalizeSplitHints).
std::pair<Box, Box> splitWithHints(const Box &B, const SplitHints &Hints);

/// Sorts and deduplicates hint lists (call once after collection).
void normalizeSplitHints(SplitHints &Hints);

/// The per-dimension union of two normalized hint sets; normalized, with
/// as many dimensions as the longer input. Equal to appending both and
/// normalizing.
SplitHints mergeSplitHints(const SplitHints &A, const SplitHints &B);

} // namespace anosy

#endif // ANOSY_SOLVER_SPLITHINTS_H
