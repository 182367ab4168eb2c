//===- tests/domains/BoxAlgebraTest.cpp - Region algebra tests ------------===//

#include "domains/BoxAlgebra.h"
#include "domains/PowerBox.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Box box(int64_t XL, int64_t XH, int64_t YL, int64_t YH) {
  return Box({{XL, XH}, {YL, YH}});
}

/// Brute-force |∪A \ ∪B| over a small grid.
int64_t bruteDifference(const std::vector<Box> &A, const std::vector<Box> &B,
                        int64_t Lo, int64_t Hi) {
  int64_t Count = 0;
  for (int64_t X = Lo; X <= Hi; ++X)
    for (int64_t Y = Lo; Y <= Hi; ++Y) {
      Point P{X, Y};
      bool InA = false, InB = false;
      for (const Box &Bx : A)
        InA = InA || Bx.contains(P);
      for (const Box &Bx : B)
        InB = InB || Bx.contains(P);
      if (InA && !InB)
        ++Count;
    }
  return Count;
}

} // namespace

TEST(BoxAlgebra, UnionOfDisjointBoxesAdds) {
  std::vector<Box> Bs{box(0, 1, 0, 1), box(5, 6, 5, 6)};
  EXPECT_EQ(unionVolume(Bs, 2).toInt64(), 8);
}

TEST(BoxAlgebra, UnionCountsOverlapOnce) {
  std::vector<Box> Bs{box(0, 3, 0, 3), box(2, 5, 2, 5)};
  // 16 + 16 - 4 = 28.
  EXPECT_EQ(unionVolume(Bs, 2).toInt64(), 28);
}

TEST(BoxAlgebra, UnionIgnoresEmptyBoxes) {
  std::vector<Box> Bs{box(0, 1, 0, 1), Box::bottom(2)};
  EXPECT_EQ(unionVolume(Bs, 2).toInt64(), 4);
  EXPECT_TRUE(unionVolume({}, 2).isZero());
}

TEST(BoxAlgebra, DifferenceCarvesHole) {
  std::vector<Box> A{box(0, 9, 0, 9)};
  std::vector<Box> B{box(3, 6, 3, 6)};
  EXPECT_EQ(differenceVolume(A, B, 2).toInt64(), 100 - 16);
}

TEST(BoxAlgebra, DifferenceWithNoOverlapIsUnion) {
  std::vector<Box> A{box(0, 1, 0, 1)};
  std::vector<Box> B{box(10, 11, 10, 11)};
  EXPECT_EQ(differenceVolume(A, B, 2).toInt64(), 4);
}

TEST(BoxAlgebra, DifferenceFullyCoveredIsZero) {
  std::vector<Box> A{box(3, 4, 3, 4)};
  std::vector<Box> B{box(0, 9, 0, 9)};
  EXPECT_TRUE(differenceVolume(A, B, 2).isZero());
}

TEST(BoxAlgebra, UnionCovers) {
  std::vector<Box> Cover{box(0, 5, 0, 9), box(6, 9, 0, 9)};
  EXPECT_TRUE(unionCovers(Cover, box(0, 9, 0, 9)));  // jointly, not singly
  EXPECT_FALSE(unionCovers({box(0, 5, 0, 9)}, box(0, 9, 0, 9)));
  EXPECT_TRUE(unionCovers({}, Box::bottom(2)));
  EXPECT_FALSE(unionCovers({}, box(0, 0, 0, 0)));
}

TEST(BoxAlgebra, PruneSubsumedDropsContainedAndEmpty) {
  std::vector<Box> Bs{box(0, 9, 0, 9), box(2, 3, 2, 3), Box::bottom(2),
                      box(20, 30, 20, 30)};
  std::vector<Box> Kept = pruneSubsumed(Bs);
  ASSERT_EQ(Kept.size(), 2u);
  EXPECT_EQ(unionVolume(Kept, 2), unionVolume(Bs, 2));
}

TEST(BoxAlgebra, PruneSubsumedKeepsOneDuplicate) {
  std::vector<Box> Bs{box(0, 4, 0, 4), box(0, 4, 0, 4)};
  EXPECT_EQ(pruneSubsumed(Bs).size(), 1u);
}

TEST(BoxAlgebra, HighDimensionalVolume) {
  Box B4({{0, 9}, {0, 9}, {0, 9}, {0, 9}});
  Box Inner({{2, 7}, {2, 7}, {2, 7}, {2, 7}});
  EXPECT_EQ(differenceVolume({B4}, {Inner}, 4).toInt64(),
            10000 - 6 * 6 * 6 * 6);
}

TEST(BoxAlgebra, HugeCoordinatesNoOverflow) {
  // Widths near 1e8 per dimension; the product exceeds int64 in 3D.
  Box Big({{0, 99999999}, {0, 99999999}, {0, 99999999}});
  BigCount V = unionVolume({Big}, 3);
  EXPECT_FALSE(V.isSaturated());
  EXPECT_EQ(V.sci(), "1.00e+24");
}

TEST(BoxAlgebra, RandomizedAgainstBruteForce) {
  Rng R(1234);
  for (int Trial = 0; Trial != 50; ++Trial) {
    auto RandBoxes = [&R](size_t N) {
      std::vector<Box> Bs;
      for (size_t I = 0; I != N; ++I) {
        int64_t XL = R.range(0, 15), XH = R.range(XL - 2, 15);
        int64_t YL = R.range(0, 15), YH = R.range(YL - 2, 15);
        Bs.push_back(Box({{XL, XH}, {YL, YH}})); // may be empty
      }
      return Bs;
    };
    std::vector<Box> A = RandBoxes(4), B = RandBoxes(3);
    EXPECT_EQ(differenceVolume(A, B, 2).toInt64(),
              bruteDifference(A, B, 0, 15))
        << "trial " << Trial;
    EXPECT_EQ(unionVolume(A, 2).toInt64(), bruteDifference(A, {}, 0, 15))
        << "trial " << Trial;
  }
}

TEST(BoxAlgebra, ForEachCellEarlyStop) {
  std::vector<Box> A{box(0, 9, 0, 9)};
  int Cells = 0;
  forEachCell({&A}, 2, [&Cells](const BigCount &, const std::vector<bool> &) {
    ++Cells;
    return false; // stop immediately
  });
  EXPECT_EQ(Cells, 1);
}

// A field may end at INT64_MAX (the parser admits int[0, 9223372036854775807]).
// The cell sweep cut at Hi + 1, which overflowed there: unionVolume,
// differenceVolume and PowerBox::size answered 0 and unionCovers claimed
// a box it does not cover was covered.
TEST(BoxAlgebra, FieldBoundAtInt64Max) {
  Box A = box(6, INT64_MAX, 0, 1);
  // (INT64_MAX - 5) * 2 points.
  BigCount VolA = BigCount::ofInterval(6, INT64_MAX) * BigCount(2);
  EXPECT_EQ(unionVolume({A}, 2), VolA);
  EXPECT_EQ(unionVolume({A, box(0, 10, 0, 1)}, 2),
            VolA + BigCount(6 * 2));
  EXPECT_EQ(differenceVolume({A}, {box(6, 10, 0, 1)}, 2),
            VolA - BigCount(5 * 2));
  EXPECT_EQ(differenceVolume({A}, {A}, 2), BigCount());
  EXPECT_EQ(PowerBox(2, {A}, {}).size(), VolA);
  EXPECT_EQ(PowerBox(2, {A}, {box(6, 10, 0, 1)}).size(),
            VolA - BigCount(5 * 2));
  EXPECT_FALSE(unionCovers({box(6, 100, 0, 1)}, A));
  EXPECT_TRUE(unionCovers({box(0, 100, 0, 1), box(50, INT64_MAX, 0, 1)}, A));
  EXPECT_FALSE(
      unionCovers({box(0, 100, 0, 1), box(102, INT64_MAX, 0, 1)}, A));
  // The full int64 range in one dimension.
  Box Full({{INT64_MIN, INT64_MAX}});
  EXPECT_EQ(unionVolume({Full}, 1),
            BigCount::ofInterval(INT64_MIN, INT64_MAX));
  EXPECT_TRUE(
      unionCovers({Box({{INT64_MIN, 0}}), Box({{1, INT64_MAX}})}, Full));
}
