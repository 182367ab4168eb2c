//===- expr/Expr.h - Query-language abstract syntax -------------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax of ANOSY queries. Queries are boolean functions over
/// one secret (§5.1): linear integer arithmetic (with abs/min/max/ite, which
/// are piecewise linear and appear in the paper's own `nearby` example),
/// comparisons, and boolean connectives. Nodes are immutable and shared
/// (`ExprRef`), so elaborated queries form DAGs.
///
/// Construction goes through the factory functions at the bottom of this
/// header; they perform light normalization (constant folding of trivial
/// cases) and assert well-formedness (operand sorts, arities).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_EXPR_EXPR_H
#define ANOSY_EXPR_EXPR_H

#include "expr/Schema.h"
#include "support/Result.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace anosy {

/// Node discriminator. Integer-sorted nodes first, boolean-sorted after.
enum class ExprKind {
  // Integer-sorted.
  IntConst, ///< Literal integer.
  FieldRef, ///< Reference to a secret field by index.
  Neg,      ///< Unary minus.
  Add,      ///< Binary addition.
  Sub,      ///< Binary subtraction.
  Mul,      ///< Binary multiplication (linear only when one side is const).
  Abs,      ///< Absolute value.
  Min,      ///< Binary minimum.
  Max,      ///< Binary maximum.
  IntIte,   ///< Integer-valued if-then-else (cond is boolean).
  // Boolean-sorted.
  BoolConst, ///< Literal true/false.
  Cmp,       ///< Integer comparison.
  Not,       ///< Logical negation.
  And,       ///< Logical conjunction.
  Or,        ///< Logical disjunction.
  Implies,   ///< Logical implication.
};

/// Comparison operators for Cmp nodes.
enum class CmpOp { EQ, NE, LT, LE, GT, GE };

/// Textual operator for \p Op ("==", "<=", ...).
const char *cmpOpSpelling(CmpOp Op);

/// The comparison with swapped truth table (for pushing negations).
CmpOp cmpOpNegation(CmpOp Op);

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

/// An immutable query-language AST node.
class Expr {
public:
  ExprKind kind() const { return Kind; }

  /// True for integer-sorted nodes, false for boolean-sorted ones.
  bool isIntSorted() const { return Kind < ExprKind::BoolConst; }
  bool isBoolSorted() const { return !isIntSorted(); }

  /// Payload accessors; each asserts the matching kind.
  int64_t intValue() const {
    assert(Kind == ExprKind::IntConst && "not an IntConst");
    return IntValue;
  }
  bool boolValue() const {
    assert(Kind == ExprKind::BoolConst && "not a BoolConst");
    return IntValue != 0;
  }
  unsigned fieldIndex() const {
    assert(Kind == ExprKind::FieldRef && "not a FieldRef");
    return static_cast<unsigned>(IntValue);
  }
  CmpOp cmpOp() const {
    assert(Kind == ExprKind::Cmp && "not a Cmp");
    return Op;
  }

  size_t numOperands() const { return Operands.size(); }
  const ExprRef &operand(size_t I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  const std::vector<ExprRef> &operands() const { return Operands; }

  /// Number of AST nodes reachable from this one, counting a shared node
  /// once per occurrence (saturating at SIZE_MAX). Computed at
  /// construction, so O(1); the parser caps it (expr/Parser.h).
  size_t treeSize() const { return Size; }

  /// Nodes on the longest root-to-leaf path (a leaf has depth 1). O(1).
  size_t depth() const { return Depth; }

  /// Renders the expression using schema-free field names `$0`, `$1`, ...
  std::string str() const;

  /// Renders the expression with field names taken from \p S.
  std::string str(const Schema &S) const;

  /// Structural equality (deep).
  static bool structurallyEqual(const Expr &A, const Expr &B);

  /// Structural hash compatible with structurallyEqual.
  static size_t structuralHash(const Expr &E);

private:
  friend class ExprFactory;
  Expr(ExprKind Kind, int64_t IntValue, CmpOp Op, std::vector<ExprRef> Ops);

  ExprKind Kind;
  int64_t IntValue; ///< IntConst value, BoolConst truth, or FieldRef index.
  CmpOp Op;         ///< Only meaningful for Cmp.
  std::vector<ExprRef> Operands;
  size_t Size;  ///< treeSize()
  size_t Depth; ///< depth()
};

/// Factory namespace-class for Expr construction (friend of Expr).
class ExprFactory {
public:
  static ExprRef make(ExprKind Kind, int64_t IntValue, CmpOp Op,
                      std::vector<ExprRef> Ops);
};

// Factory functions. Integer-sorted builders assert their operands are
// integer-sorted, boolean builders likewise; trivial constant cases fold.
ExprRef intConst(int64_t V);
ExprRef fieldRef(unsigned Index);
ExprRef neg(ExprRef A);
ExprRef add(ExprRef A, ExprRef B);
ExprRef sub(ExprRef A, ExprRef B);
ExprRef mul(ExprRef A, ExprRef B);
ExprRef absOf(ExprRef A);
ExprRef minOf(ExprRef A, ExprRef B);
ExprRef maxOf(ExprRef A, ExprRef B);
ExprRef intIte(ExprRef Cond, ExprRef Then, ExprRef Else);
ExprRef boolConst(bool V);
ExprRef cmp(CmpOp Op, ExprRef A, ExprRef B);
ExprRef notOf(ExprRef A);
ExprRef andOf(ExprRef A, ExprRef B);
ExprRef orOf(ExprRef A, ExprRef B);
ExprRef implies(ExprRef A, ExprRef B);

// Convenience comparison spellings.
inline ExprRef eq(ExprRef A, ExprRef B) {
  return cmp(CmpOp::EQ, std::move(A), std::move(B));
}
inline ExprRef ne(ExprRef A, ExprRef B) {
  return cmp(CmpOp::NE, std::move(A), std::move(B));
}
inline ExprRef lt(ExprRef A, ExprRef B) {
  return cmp(CmpOp::LT, std::move(A), std::move(B));
}
inline ExprRef le(ExprRef A, ExprRef B) {
  return cmp(CmpOp::LE, std::move(A), std::move(B));
}
inline ExprRef gt(ExprRef A, ExprRef B) {
  return cmp(CmpOp::GT, std::move(A), std::move(B));
}
inline ExprRef ge(ExprRef A, ExprRef B) {
  return cmp(CmpOp::GE, std::move(A), std::move(B));
}

/// Conjunction of a list; true for the empty list.
ExprRef andAll(const std::vector<ExprRef> &Conjuncts);

/// Disjunction of a list; false for the empty list.
ExprRef orAll(const std::vector<ExprRef> &Disjuncts);

} // namespace anosy

#endif // ANOSY_EXPR_EXPR_H
