//===- solver/Predicate.cpp - Box-abstractable predicates -----------------===//

#include "solver/Predicate.h"

#include "compile/Tape.h"
#include "domains/BoxAlgebra.h"
#include "expr/Eval.h"
#include "obs/Instrument.h"
#include "solver/RangeEval.h"

#include <chrono>

using namespace anosy;

namespace {

/// Per-thread tape scratch, shared by every compiled predicate on the
/// thread (the scratch is sized per run, so sharing is safe). Each daemon
/// worker gets its own.
TapeScratch &tapeScratch() {
  thread_local TapeScratch S;
  return S;
}

class ExprPred final : public Predicate {
public:
  ExprPred(ExprRef E, TapeRef T) : E(std::move(E)), T(std::move(T)) {
    assert(this->E && this->E->isBoolSorted() &&
           "query predicates wrap boolean expressions");
    collectExprSplitHints(*this->E, Hints);
    normalizeSplitHints(Hints);
  }

  Tribool evalBox(const Box &B) const override {
    if (T)
      return T->run(B, tapeScratch());
    // Only an expression deeper than the tape's register file gets here;
    // the parser's depth cap keeps parsed modules well below that.
    return evalTribool(*E, B);
  }
  // Concrete evaluation stays on the AST: evalBool uses plain wrapping
  // int64 arithmetic while the tape saturates, and points must keep the
  // tree walk's exact concrete semantics.
  bool evalPoint(const Point &P) const override { return evalBool(*E, P); }
  std::string str() const override { return E->str(); }

private:
  ExprRef E;
  TapeRef T; ///< Null only when Tape::compile refused the expression.
};

class ConstPred final : public Predicate {
public:
  explicit ConstPred(bool Value) : Value(Value) {}

  Tribool evalBox(const Box &) const override { return triboolOf(Value); }
  bool evalPoint(const Point &) const override { return Value; }
  std::string str() const override { return Value ? "true" : "false"; }

private:
  bool Value;
};

class NotPred final : public Predicate {
public:
  explicit NotPred(PredicateRef A) : A(std::move(A)) {
    Hints = this->A->splitHints();
  }

  Tribool evalBox(const Box &B) const override {
    return triNot(A->evalBox(B));
  }
  bool evalPoint(const Point &P) const override { return !A->evalPoint(P); }
  std::string str() const override { return "!(" + A->str() + ")"; }

private:
  PredicateRef A;
};

class AndPred final : public Predicate {
public:
  AndPred(PredicateRef A, PredicateRef B) : A(std::move(A)), B(std::move(B)) {
    Hints = mergeSplitHints(this->A->splitHints(), this->B->splitHints());
  }

  Tribool evalBox(const Box &Bx) const override {
    Tribool TA = A->evalBox(Bx);
    if (TA == Tribool::False)
      return Tribool::False;
    return triAnd(TA, B->evalBox(Bx));
  }
  bool evalPoint(const Point &P) const override {
    return A->evalPoint(P) && B->evalPoint(P);
  }
  std::string str() const override {
    return "(" + A->str() + ") && (" + B->str() + ")";
  }

private:
  PredicateRef A, B;
};

class OrPred final : public Predicate {
public:
  OrPred(PredicateRef A, PredicateRef B) : A(std::move(A)), B(std::move(B)) {
    Hints = mergeSplitHints(this->A->splitHints(), this->B->splitHints());
  }

  Tribool evalBox(const Box &Bx) const override {
    Tribool TA = A->evalBox(Bx);
    if (TA == Tribool::True)
      return Tribool::True;
    return triOr(TA, B->evalBox(Bx));
  }
  bool evalPoint(const Point &P) const override {
    return A->evalPoint(P) || B->evalPoint(P);
  }
  std::string str() const override {
    return "(" + A->str() + ") || (" + B->str() + ")";
  }

private:
  PredicateRef A, B;
};

class InBoxPred final : public Predicate {
public:
  explicit InBoxPred(Box Target) : Target(std::move(Target)) {
    collectBoxSplitHints(this->Target, Hints);
    normalizeSplitHints(Hints);
  }

  Tribool evalBox(const Box &B) const override {
    if (Target.isEmpty())
      return Tribool::False;
    if (B.subsetOf(Target))
      return Tribool::True;
    if (!B.intersects(Target))
      return Tribool::False;
    return Tribool::Unknown;
  }
  bool evalPoint(const Point &P) const override { return Target.contains(P); }
  std::string str() const override { return "in " + Target.str(); }

private:
  Box Target;
};

class InUnionPred final : public Predicate {
public:
  explicit InUnionPred(std::vector<Box> InBoxes)
      : Boxes(pruneSubsumed(std::move(InBoxes))) {
    for (const Box &T : Boxes)
      collectBoxSplitHints(T, Hints);
    normalizeSplitHints(Hints);
  }

  Tribool evalBox(const Box &B) const override {
    bool AnyOverlap = false;
    for (const Box &T : Boxes) {
      if (B.subsetOf(T))
        return Tribool::True;
      if (B.intersects(T))
        AnyOverlap = true;
    }
    if (!AnyOverlap)
      return Tribool::False;
    // Several boxes may jointly cover B even though none does alone.
    if (unionCovers(Boxes, B))
      return Tribool::True;
    return Tribool::Unknown;
  }
  bool evalPoint(const Point &P) const override {
    for (const Box &T : Boxes)
      if (T.contains(P))
        return true;
    return false;
  }
  std::string str() const override {
    std::string Out = "in union{";
    for (size_t I = 0, E = Boxes.size(); I != E; ++I) {
      if (I != 0)
        Out += ", ";
      Out += Boxes[I].str();
    }
    return Out + "}";
  }

private:
  std::vector<Box> Boxes;
};

} // namespace

PredicateRef anosy::exprPredicate(ExprRef E) {
  const auto Start = std::chrono::steady_clock::now();
  ANOSY_OBS_SPAN(Span, "anosy.tape.compile");
  TapeRef T = Tape::compile(*E);
  if (T) {
    const double Us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
    ANOSY_OBS_SPAN_ARG(Span, "tape_len", static_cast<int64_t>(T->length()));
    ANOSY_OBS_SPAN_ARG(Span, "compile_us", Us);
    ANOSY_OBS_COUNT("anosy_tape_compiles_total",
                    "Queries compiled to interval-eval tapes", 1);
    ANOSY_OBS_OBSERVE_SECONDS("anosy_tape_compile_seconds",
                              "Wall time compiling queries to tapes",
                              Us / 1e6);
  }
  return std::make_shared<ExprPred>(std::move(E), std::move(T));
}

PredicateRef anosy::constPredicate(bool Value) {
  return std::make_shared<ConstPred>(Value);
}

PredicateRef anosy::notPredicate(PredicateRef A) {
  return std::make_shared<NotPred>(std::move(A));
}

PredicateRef anosy::andPredicate(PredicateRef A, PredicateRef B) {
  return std::make_shared<AndPred>(std::move(A), std::move(B));
}

PredicateRef anosy::orPredicate(PredicateRef A, PredicateRef B) {
  return std::make_shared<OrPred>(std::move(A), std::move(B));
}

PredicateRef anosy::inBoxPredicate(Box B) {
  return std::make_shared<InBoxPred>(std::move(B));
}

PredicateRef anosy::inUnionPredicate(std::vector<Box> Boxes) {
  return std::make_shared<InUnionPred>(std::move(Boxes));
}

PredicateRef anosy::inPowerBoxPredicate(const PowerBox &P) {
  PredicateRef In = inUnionPredicate(P.includes());
  if (P.excludes().empty())
    return In;
  PredicateRef Out = inUnionPredicate(P.excludes());
  return andPredicate(std::move(In), notPredicate(std::move(Out)));
}
