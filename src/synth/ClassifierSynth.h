//===- synth/ClassifierSynth.h - Multi-output query synthesis ---*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthesis for the paper's §5.1 extension: "the query language can be
/// easily extended to support non-boolean queries with finitely many
/// outputs. This can be done by computing one ind. set per possible
/// output." A classifier is an integer-valued query over the secret; for
/// every feasible output v, the ind. set of {x | f(x) = v} is synthesized
/// by reducing to the boolean query f(x) == v and reusing SYNTH /
/// ITERSYNTH unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SYNTH_CLASSIFIERSYNTH_H
#define ANOSY_SYNTH_CLASSIFIERSYNTH_H

#include "synth/Synthesizer.h"

namespace anosy {

/// One output value's indistinguishability set.
template <typename D> struct OutputIndSet {
  int64_t Value; ///< The classifier output this set is for.
  D Set;         ///< Approximated {x | f(x) = Value}.
};

/// Synthesizer for integer-valued queries with small codomains.
class ClassifierSynthesizer {
public:
  /// Rejects non-integer bodies, queries outside the §5.1 fragment, and
  /// classifiers whose output range exceeds \p MaxOutputs (the "finitely
  /// many outputs" requirement made concrete).
  static Result<ClassifierSynthesizer> create(const Schema &S, ExprRef Body,
                                              SynthOptions Options = {},
                                              unsigned MaxOutputs = 64);

  const Schema &schema() const { return S; }
  const ExprRef &body() const { return Body; }

  /// The feasible outputs (values v with at least one secret mapping to
  /// v), in increasing order.
  const std::vector<int64_t> &outputs() const { return Outputs; }

  /// The boolean query "f(x) == v" the per-output synthesis reduces to.
  ExprRef outputQuery(int64_t Value) const;

  /// One interval-domain ind. set per feasible output.
  Result<std::vector<OutputIndSet<Box>>>
  synthesizeInterval(ApproxKind Kind, SynthStats *Stats = nullptr) const;

  /// One powerset-domain ind. set (up to \p K boxes) per feasible output.
  Result<std::vector<OutputIndSet<PowerBox>>>
  synthesizePowerset(ApproxKind Kind, unsigned K,
                     SynthStats *Stats = nullptr) const;

  /// Runs the classifier on a concrete secret.
  int64_t run(const Point &Secret) const;

private:
  ClassifierSynthesizer(const Schema &S, ExprRef Body, SynthOptions Options,
                        std::vector<int64_t> Outputs)
      : S(S), Body(std::move(Body)), Options(Options),
        Outputs(std::move(Outputs)) {}

  /// Runs \p Synth (one domain's synthesis entry point) on every output's
  /// query, in output order.
  template <typename D, typename SynthFn>
  Result<std::vector<OutputIndSet<D>>> synthesizeOutputs(SynthStats *Stats,
                                                         SynthFn Synth) const;

  Schema S;
  ExprRef Body;
  SynthOptions Options;
  std::vector<int64_t> Outputs;
};

} // namespace anosy

#endif // ANOSY_SYNTH_CLASSIFIERSYNTH_H
