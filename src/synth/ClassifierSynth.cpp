//===- synth/ClassifierSynth.cpp - Multi-output query synthesis -----------===//

#include "synth/ClassifierSynth.h"

#include "expr/Analysis.h"
#include "expr/Eval.h"
#include "solver/RangeEval.h"

#include <optional>

using namespace anosy;

Result<ClassifierSynthesizer>
ClassifierSynthesizer::create(const Schema &S, ExprRef Body,
                              SynthOptions Options, unsigned MaxOutputs) {
  if (!Body)
    return Error(ErrorCode::UnsupportedQuery, "null classifier body");
  if (!Body->isIntSorted())
    return Error(ErrorCode::UnsupportedQuery,
                 "classifiers must be integer-valued queries");
  // The fragment check is shared with boolean queries (§5.1); the body is
  // checked through a trivial comparison wrapper so linearity and field
  // bounds are validated identically.
  if (auto R = admitQuery(*eq(Body, intConst(0)), S.arity()); !R)
    return R.error();

  Box Top = Box::top(S);
  Interval Range = evalRange(*Body, Top);
  BigCount Width = Range.width();
  if (Width.isZero())
    return Error(ErrorCode::UnsupportedQuery, "classifier has no outputs");
  if (!(Width <= static_cast<int64_t>(MaxOutputs)))
    return Error(ErrorCode::UnsupportedQuery,
                 "classifier may take up to " + Width.str() +
                     " outputs; only finitely many (<= " +
                     std::to_string(MaxOutputs) +
                     ") are supported (§5.1)");

  // Keep the feasible outputs: values some secret actually produces.
  size_t NumVals = static_cast<size_t>(Range.Hi - Range.Lo + 1);
  SolverBudget Budget(Options.MaxSolverNodes);
  Budget.Parent = Options.SessionBudget;
  if (Options.DeadlineMs != 0)
    Budget.setDeadlineAfterMs(Options.DeadlineMs);
  std::vector<int64_t> Outputs;
  bool Exhausted = false;
  for (size_t I = 0; I != NumVals; ++I) {
    int64_t Value = Range.Lo + static_cast<int64_t>(I);
    ExistsResult Found =
        findWitness(*exprPredicate(eq(Body, intConst(Value))), Top, Budget);
    Exhausted |= Found.Exhausted;
    if (Found.Witness)
      Outputs.push_back(Value);
  }
  if (Exhausted)
    return Error(ErrorCode::BudgetExhausted,
                 "solver budget exhausted enumerating classifier outputs");
  assert(!Outputs.empty() && "range was non-empty");
  return ClassifierSynthesizer(S, std::move(Body), Options,
                               std::move(Outputs));
}

ExprRef ClassifierSynthesizer::outputQuery(int64_t Value) const {
  return eq(Body, intConst(Value));
}

int64_t ClassifierSynthesizer::run(const Point &Secret) const {
  return evalInt(*Body, Secret);
}

template <typename D, typename SynthFn>
Result<std::vector<OutputIndSet<D>>>
ClassifierSynthesizer::synthesizeOutputs(SynthStats *Stats,
                                         SynthFn Synth) const {
  // Every output is synthesized (and charged to the session budget)
  // before the first failure in output order is reported; Stats sums the
  // outputs before that failure.
  std::optional<Error> FirstError;
  std::vector<OutputIndSet<D>> Sets;
  for (int64_t Value : Outputs) {
    SynthStats Local;
    auto Sy = Synthesizer::create(S, outputQuery(Value), Options);
    Result<IndSets<D>> Ind = Sy ? Synth(*Sy, Stats ? &Local : nullptr)
                                : Result<IndSets<D>>(Sy.error());
    if (FirstError)
      continue;
    if (!Ind) {
      FirstError = Ind.error();
      continue;
    }
    if (Stats) {
      Stats->SolverNodes += Local.SolverNodes;
      Stats->BoxesSynthesized += Local.BoxesSynthesized;
      Stats->Seconds += Local.Seconds;
      Stats->Exhausted |= Local.Exhausted;
    }
    // Only the True half matters: the False set of "f == v" is the union
    // of the other outputs' sets, which are synthesized in their own
    // right.
    Sets.push_back({Value, Ind->TrueSet});
  }
  if (FirstError)
    return *FirstError;
  return Sets;
}

Result<std::vector<OutputIndSet<Box>>>
ClassifierSynthesizer::synthesizeInterval(ApproxKind Kind,
                                          SynthStats *Stats) const {
  return synthesizeOutputs<Box>(
      Stats, [Kind](const Synthesizer &Sy, SynthStats *Local) {
        return Sy.synthesizeInterval(Kind, Local);
      });
}

Result<std::vector<OutputIndSet<PowerBox>>>
ClassifierSynthesizer::synthesizePowerset(ApproxKind Kind, unsigned K,
                                          SynthStats *Stats) const {
  return synthesizeOutputs<PowerBox>(
      Stats, [Kind, K](const Synthesizer &Sy, SynthStats *Local) {
        return Sy.synthesizePowerset(Kind, K, Local);
      });
}
