//===- domains/Box.h - The interval abstract domain A_I ---------*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's interval abstract domain A_I (§4.3): an n-dimensional product
/// of integer intervals abstracting a secret with n fields. A Box is empty
/// iff any dimension is empty (empties canonicalize so that equality is
/// structural). The paper's ⊤_I / ⊥_I constructors correspond to
/// Box::top(Schema) and Box::bottom(Arity).
///
/// The Liquid Haskell `pos`/`neg` proof terms attached to A_I in the paper
/// have no typing counterpart here; the obligations they discharge are
/// checked by anosy/verify instead (see DESIGN.md §1).
///
/// Storage: a box of arity <= InlineArity (4, the largest arity of the
/// benchmarks, the ads module, the corpus and the generator families)
/// keeps its intervals inline, so copying, withDim, intersect and splitAt
/// never allocate; the solver makes several of these per branch-and-bound
/// node. Larger arities fall back to one heap array.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_DOMAINS_BOX_H
#define ANOSY_DOMAINS_BOX_H

#include "domains/Interval.h"
#include "expr/Schema.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace anosy {

/// An n-dimensional box of secrets (product of integer intervals).
class Box {
public:
  Box() = default;

  /// Box with the given per-dimension intervals; canonicalizes empties.
  explicit Box(const std::vector<Interval> &Dims);

  Box(const Box &O) : N(O.N), Empty(O.Empty) {
    std::copy_n(O.data(), N, allocate());
  }
  Box(Box &&O) noexcept { takeFrom(O); }
  Box &operator=(const Box &O) {
    if (this != &O) {
      if (N != O.N) {
        release();
        N = O.N;
        allocate();
      }
      std::copy_n(O.data(), N, data());
      Empty = O.Empty;
    }
    return *this;
  }
  Box &operator=(Box &&O) noexcept {
    if (this != &O) {
      release();
      takeFrom(O);
    }
    return *this;
  }
  ~Box() { release(); }

  /// The full domain of \p S (the paper's ⊤_I for that secret type).
  static Box top(const Schema &S);

  /// The empty domain with \p Arity dimensions (the paper's ⊥_I).
  static Box bottom(size_t Arity);

  /// Smallest box containing the single point \p P.
  static Box point(const Point &P);

  size_t arity() const { return N; }
  bool isEmpty() const { return Empty; }

  const Interval &dim(size_t I) const {
    assert(I < N && "dimension out of range");
    return data()[I];
  }

  /// Returns a copy with dimension \p I replaced by \p NewDim.
  Box withDim(size_t I, Interval NewDim) const;

  bool contains(const Point &P) const;
  bool subsetOf(const Box &O) const;
  Box intersect(const Box &O) const;

  /// Convex hull (smallest box containing both).
  Box hull(const Box &O) const;

  /// True when the boxes share at least one point.
  bool intersects(const Box &O) const;

  /// Number of secrets in the box (its volume); 0 for empty boxes.
  BigCount volume() const;

  /// True when the box contains exactly one point.
  bool isUnit() const;

  /// The center point (any representative); box must be non-empty.
  Point center() const;

  /// Index of the widest dimension; box must be non-empty.
  size_t widestDim() const;

  /// Splits the box in half along \p Dim into two non-empty halves;
  /// requires that dimension to have width >= 2.
  std::pair<Box, Box> splitAt(size_t Dim) const;

  bool operator==(const Box &O) const;
  bool operator!=(const Box &O) const { return !(*this == O); }

  /// Renders "[a,b] x [c,d]" or "<empty/n>".
  std::string str() const;

private:
  static constexpr size_t InlineArity = 4;

  /// A box of \p Arity dimensions whose intervals the caller fills in
  /// (then calls canonicalize()).
  explicit Box(size_t Arity) : N(static_cast<uint32_t>(Arity)) { allocate(); }

  bool isInline() const { return N <= InlineArity; }
  Interval *data() { return isInline() ? Inline : Heap; }
  const Interval *data() const { return isInline() ? Inline : Heap; }
  /// Points the storage at N intervals (a fresh heap array above
  /// InlineArity) and returns it.
  Interval *allocate() {
    if (!isInline())
      Heap = new Interval[N];
    return data();
  }
  void release() {
    if (!isInline())
      delete[] Heap;
  }
  /// Moves \p O's intervals here (storage released); a heap-backed \p O
  /// is left as a default-constructed box.
  void takeFrom(Box &O) {
    N = O.N;
    Empty = O.Empty;
    if (isInline()) {
      std::copy_n(O.Inline, N, Inline);
      return;
    }
    Heap = O.Heap;
    O.N = 0;
    O.Empty = true;
  }
  /// Sets Empty from the intervals and makes every interval of an empty
  /// box the canonical empty one.
  void canonicalize();

  union {
    Interval Inline[InlineArity];
    Interval *Heap;
  };
  uint32_t N = 0;
  bool Empty = true; ///< Default-constructed boxes are 0-ary and empty.
};

} // namespace anosy

#endif // ANOSY_DOMAINS_BOX_H
