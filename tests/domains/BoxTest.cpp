//===- tests/domains/BoxTest.cpp - Box unit tests --------------------------===//

#include "domains/Box.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

Box box(int64_t XL, int64_t XH, int64_t YL, int64_t YH) {
  return Box({{XL, XH}, {YL, YH}});
}

} // namespace

TEST(Box, TopCoversSchema) {
  Box T = Box::top(userLoc());
  EXPECT_FALSE(T.isEmpty());
  EXPECT_EQ(T.arity(), 2u);
  EXPECT_EQ(T.volume().toInt64(), 401 * 401);
  EXPECT_TRUE(T.contains({0, 0}));
  EXPECT_TRUE(T.contains({400, 400}));
  EXPECT_FALSE(T.contains({401, 0}));
}

TEST(Box, BottomIsEmpty) {
  Box B = Box::bottom(2);
  EXPECT_TRUE(B.isEmpty());
  EXPECT_TRUE(B.volume().isZero());
  EXPECT_FALSE(B.contains({0, 0}));
}

TEST(Box, EmptyDimensionPropagates) {
  Box B({{0, 10}, Interval::empty()});
  EXPECT_TRUE(B.isEmpty());
  // Canonicalization makes all empty boxes of one arity equal.
  EXPECT_EQ(B, Box::bottom(2));
}

TEST(Box, PointBox) {
  Box P = Box::point({300, 200});
  EXPECT_TRUE(P.isUnit());
  EXPECT_EQ(P.volume().toInt64(), 1);
  EXPECT_EQ(P.center(), (Point{300, 200}));
}

TEST(Box, ContainsIsPerDimension) {
  Box B = box(121, 279, 179, 221); // the paper's §3 post1 region
  EXPECT_TRUE(B.contains({200, 200}));
  EXPECT_TRUE(B.contains({121, 179}));
  EXPECT_FALSE(B.contains({120, 200}));
  EXPECT_FALSE(B.contains({200, 222}));
}

TEST(Box, PaperPost1Volume) {
  // §3: post1 = {121..279, 179..221}, |post1| = 6837.
  EXPECT_EQ(box(121, 279, 179, 221).volume().toInt64(), 6837);
  // §3: post2 = {221..279, 179..221}, |post2| = 2537.
  EXPECT_EQ(box(221, 279, 179, 221).volume().toInt64(), 2537);
}

TEST(Box, SubsetOf) {
  EXPECT_TRUE(box(2, 3, 2, 3).subsetOf(box(0, 5, 0, 5)));
  EXPECT_FALSE(box(0, 5, 0, 5).subsetOf(box(2, 3, 2, 3)));
  EXPECT_TRUE(Box::bottom(2).subsetOf(box(2, 3, 2, 3)));
  EXPECT_FALSE(box(2, 3, 2, 3).subsetOf(Box::bottom(2)));
  EXPECT_TRUE(box(0, 5, 2, 3).subsetOf(box(0, 5, 2, 3)));
}

TEST(Box, IntersectMatchesSetSemantics) {
  Box A = box(0, 10, 0, 10), B = box(5, 15, 5, 15);
  Box I = A.intersect(B);
  EXPECT_EQ(I, box(5, 10, 5, 10));
  EXPECT_TRUE(A.intersect(box(11, 12, 0, 10)).isEmpty());
  EXPECT_TRUE(A.intersect(Box::bottom(2)).isEmpty());
}

TEST(Box, Hull) {
  EXPECT_EQ(box(0, 1, 0, 1).hull(box(5, 6, 5, 6)), box(0, 6, 0, 6));
  EXPECT_EQ(Box::bottom(2).hull(box(5, 6, 5, 6)), box(5, 6, 5, 6));
}

TEST(Box, WithDim) {
  Box B = box(0, 10, 0, 10).withDim(1, {3, 4});
  EXPECT_EQ(B, box(0, 10, 3, 4));
}

TEST(Box, WidestDim) {
  EXPECT_EQ(box(0, 10, 0, 3).widestDim(), 0u);
  EXPECT_EQ(box(0, 2, 0, 30).widestDim(), 1u);
}

TEST(Box, SplitCoversAndPartitions) {
  Box B = box(0, 10, 0, 4);
  auto [L, R] = B.splitAt(0);
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
  EXPECT_TRUE(L.intersect(R).isEmpty());
  EXPECT_TRUE(L.subsetOf(B));
  EXPECT_TRUE(R.subsetOf(B));
}

TEST(Box, SplitOddWidth) {
  Box B = Box({{0, 2}});
  auto [L, R] = B.splitAt(0);
  EXPECT_EQ(L.volume() + R.volume(), B.volume());
  EXPECT_FALSE(L.isEmpty());
  EXPECT_FALSE(R.isEmpty());
}

TEST(Box, Str) {
  EXPECT_EQ(box(1, 2, 3, 4).str(), "[1, 2] x [3, 4]");
  EXPECT_EQ(Box::bottom(2).str(), "<empty/2>");
}

// Regression (ISSUE 5): splitAt and center went through the naive signed
// midpoint, which overflows (UB) on full- and near-full-range dimensions;
// the old wraparound split produced the degenerate [MIN, MIN] / rest pair.
TEST(Box, SplitAtFullRange) {
  Box Full({{INT64_MIN, INT64_MAX}});
  auto [L, R] = Full.splitAt(0);
  EXPECT_EQ(L.dim(0), (Interval{INT64_MIN, -1}));
  EXPECT_EQ(R.dim(0), (Interval{0, INT64_MAX}));
  EXPECT_EQ((L.volume() + R.volume()).str(), Full.volume().str());
  EXPECT_TRUE(L.intersect(R).isEmpty());
}

TEST(Box, SplitAtNearFullRange) {
  Box B({{INT64_MIN + 1, INT64_MAX}});
  auto [L, R] = B.splitAt(0);
  EXPECT_EQ(L.dim(0), (Interval{INT64_MIN + 1, 0}));
  EXPECT_EQ(R.dim(0), (Interval{1, INT64_MAX}));
  EXPECT_EQ((L.volume() + R.volume()).str(), B.volume().str());
}

TEST(Box, CenterFullRange) {
  Box Full({{INT64_MIN, INT64_MAX}, {0, INT64_MAX}});
  Point C = Full.center();
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0], -1);
  EXPECT_EQ(C[1], INT64_MAX / 2);
  EXPECT_TRUE(Full.contains(C));
}

// Storage: boxes up to arity 4 keep their intervals inline and larger ones
// on the heap. Every operation must agree with a plain per-dimension
// model on both sides of that boundary.
namespace {

/// The reference model: intervals in a vector, empty iff any is empty.
struct ModelBox {
  std::vector<Interval> Dims;

  bool empty() const {
    for (const Interval &I : Dims)
      if (I.isEmpty())
        return true;
    return Dims.empty();
  }
  bool equals(const ModelBox &O) const {
    if (empty() || O.empty())
      return empty() && O.empty();
    for (size_t D = 0; D != Dims.size(); ++D)
      if (Dims[D].Lo != O.Dims[D].Lo || Dims[D].Hi != O.Dims[D].Hi)
        return false;
    return true;
  }
  bool intersects(const ModelBox &O) const {
    if (empty() || O.empty())
      return false;
    for (size_t D = 0; D != Dims.size(); ++D)
      if (Dims[D].intersect(O.Dims[D]).isEmpty())
        return false;
    return true;
  }
};

ModelBox randomModel(Rng &R, size_t N) {
  ModelBox M;
  for (size_t D = 0; D != N; ++D) {
    int64_t Lo = R.range(-20, 20);
    // One dimension in eight is empty.
    M.Dims.push_back({Lo, Lo + R.range(-3, 20)});
  }
  return M;
}

/// Checks \p B against \p M: arity, emptiness, every interval (canonical
/// empty when the model is empty).
void expectMatches(const Box &B, const ModelBox &M) {
  ASSERT_EQ(B.arity(), M.Dims.size());
  EXPECT_EQ(B.isEmpty(), M.empty());
  for (size_t D = 0; D != M.Dims.size(); ++D) {
    Interval Want = M.empty() ? Interval::empty() : M.Dims[D];
    EXPECT_EQ(B.dim(D).Lo, Want.Lo) << B.str();
    EXPECT_EQ(B.dim(D).Hi, Want.Hi) << B.str();
  }
}

} // namespace

TEST(Box, StorageAcrossTheInlineBoundary) {
  Rng R(1234);
  for (size_t N = 1; N <= 6; ++N) {
    for (int Trial = 0; Trial != 200; ++Trial) {
      ModelBox MA = randomModel(R, N), MB = randomModel(R, N);
      Box A(MA.Dims), B(MB.Dims);
      expectMatches(A, MA);

      // Copy construction and assignment, including across arities.
      Box C(A);
      expectMatches(C, MA);
      Box D = Box::bottom(N == 6 ? 1 : N + 1);
      D = A;
      expectMatches(D, MA);
      const Box &Alias = D;
      D = Alias; // self-assignment is a no-op
      expectMatches(D, MA);

      // Move construction and assignment.
      Box M1(std::move(C));
      expectMatches(M1, MA);
      Box M2 = Box::bottom(1);
      M2 = std::move(M1);
      expectMatches(M2, MA);

      // == and intersects against the model (intersects used to be
      // !intersect(O).isEmpty()).
      EXPECT_EQ(A == B, MA.equals(MB));
      EXPECT_EQ(A.intersects(B), MA.intersects(MB)) << A.str() << B.str();
      EXPECT_EQ(A.intersects(B), !A.intersect(B).isEmpty());
      EXPECT_TRUE(A == Box(MA.Dims));
      EXPECT_TRUE(A == A.withDim(0, A.dim(0)));

      // withDim matches replacing one interval of the box's canonical
      // intervals, so an empty box stays empty.
      size_t K = static_cast<size_t>(R.range(0, static_cast<int64_t>(N) - 1));
      Interval New{R.range(-20, 20), R.range(-20, 20)};
      ModelBox MW;
      for (size_t I = 0; I != N; ++I)
        MW.Dims.push_back(I == K ? New : A.dim(I));
      expectMatches(A.withDim(K, New), MW);
    }
  }
}

TEST(Box, WithDimOnEmptyBoxStaysCanonicalEmpty) {
  for (size_t N = 2; N <= 6; ++N) {
    Box E = Box::bottom(N);
    Box W = E.withDim(0, {3, 7});
    EXPECT_TRUE(W.isEmpty());
    EXPECT_EQ(W, Box::bottom(N));
    EXPECT_EQ(W.dim(0), Interval::empty());
    EXPECT_EQ(W.dim(0).Lo, Interval::empty().Lo);
  }
  // With one dimension, replacing it is the whole box.
  EXPECT_EQ(Box::bottom(1).withDim(0, {3, 7}), Box({{3, 7}}));
}

TEST(Box, WidestDimMatchesWidthOrder) {
  // Spans compared in uint64 order like Interval::width(), full range
  // included; ties go to the lowest index.
  EXPECT_EQ(Box({{INT64_MIN, INT64_MAX}, {0, 10}}).widestDim(), 0u);
  EXPECT_EQ(Box({{0, 10}, {INT64_MIN, INT64_MAX}}).widestDim(), 1u);
  EXPECT_EQ(Box({{INT64_MIN, -1}, {0, INT64_MAX}}).widestDim(), 0u);
  EXPECT_EQ(Box({{0, INT64_MAX - 1}, {INT64_MIN, -1}}).widestDim(), 1u);
  EXPECT_EQ(Box({{5, 5}, {7, 7}, {0, 0}}).widestDim(), 0u);
  EXPECT_EQ(Box({{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 2}}).widestDim(), 4u);
}
