//===- core/QueryInfo.h - Registered query information ----------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ counterpart of the paper's QInfo record (Fig. 2): the executable
/// query together with its synthesized approximation function. The paper's
/// `approx :: p:a -> (a<...>, a<...>)` closure is realized by storing the
/// synthesized ind. sets and intersecting with the prior on demand — the
/// same Fig. 4 definition `underapprox p = (dT ∩ p, dF ∩ p)`.
///
/// A QueryInfo keeps no compiled form of the query: a downgrade runs the
/// query on one concrete secret and intersects domains, and the box
/// evaluation that needs a tape happens only at registration.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_CORE_QUERYINFO_H
#define ANOSY_CORE_QUERYINFO_H

#include "domains/AbstractDomain.h"
#include "expr/Eval.h"
#include "synth/ClassifierSynth.h"
#include "synth/Synthesizer.h"

#include <string>
#include <utility>
#include <vector>

namespace anosy {

/// Everything bounded downgrade needs to run one registered query.
template <AbstractDomain D> struct QueryInfo {
  std::string Name;
  /// The executable query (Fig. 2's `query :: s -> Bool`).
  ExprRef QueryExpr;
  /// Synthesized ind. sets for the two responses.
  IndSets<D> Ind;
  /// Which approximation the ind. sets are (policy enforcement uses Under).
  ApproxKind Kind = ApproxKind::Under;

  /// Runs the query on a concrete secret.
  bool run(const Point &Secret) const { return evalBool(*QueryExpr, Secret); }

  /// The synthesized approximation function: posterior pair for \p Prior
  /// (Fig. 4's underapprox/overapprox — a pairwise intersection, free at
  /// runtime, which is ANOSY's amortization win over Prob, §6.1).
  std::pair<D, D> approx(const D &Prior) const {
    return {DomainTraits<D>::intersect(Prior, Ind.TrueSet),
            DomainTraits<D>::intersect(Prior, Ind.FalseSet)};
  }
};

/// Registered information for a multi-output classifier (§5.1 extension):
/// the executable body plus one synthesized ind. set per feasible output.
template <AbstractDomain D> struct ClassifierInfo {
  std::string Name;
  /// The executable classifier (integer-sorted).
  ExprRef Body;
  /// Synthesized ind. sets, one per feasible output, increasing by value.
  std::vector<OutputIndSet<D>> Ind;
  ApproxKind Kind = ApproxKind::Under;

  /// Runs the classifier on a concrete secret.
  int64_t run(const Point &Secret) const { return evalInt(*Body, Secret); }

  /// Posterior per output for \p Prior (the generalization of Fig. 4's
  /// posterior pair: one intersection per possible response).
  std::vector<OutputIndSet<D>> approx(const D &Prior) const {
    std::vector<OutputIndSet<D>> Posts;
    Posts.reserve(Ind.size());
    for (const OutputIndSet<D> &O : Ind)
      Posts.push_back({O.Value, DomainTraits<D>::intersect(Prior, O.Set)});
    return Posts;
  }
};

} // namespace anosy

#endif // ANOSY_CORE_QUERYINFO_H
