//===- tests/domains/ArityLawsTest.cpp - Laws at other arities ------------===//
//
// DomainLawsTest sweeps the Fig. 3 laws in 2D; secrets in the benchmark
// suite have up to 4 fields and the degenerate 1-field case also matters
// (B-style birthday widgets). This sweep repeats the core laws at arity
// 1 and 3 with exhaustive membership counting kept tractable.
//
//===----------------------------------------------------------------------===//

#include "domains/AbstractDomain.h"

#include "baselines/Exhaustive.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema schemaOfArity(size_t N, int64_t Hi) {
  std::vector<Field> Fields;
  for (size_t I = 0; I != N; ++I)
    Fields.push_back({"f" + std::to_string(I), 0, Hi});
  return Schema("S", std::move(Fields));
}

Box randomBox(Rng &R, size_t N, int64_t Hi) {
  if (R.range(0, 5) == 0)
    return Box::bottom(N);
  std::vector<Interval> Dims;
  for (size_t I = 0; I != N; ++I) {
    int64_t Lo = R.range(0, Hi);
    Dims.push_back({Lo, R.range(Lo, Hi)});
  }
  return Box(Dims);
}

template <AbstractDomain D>
void sweep(const Schema &S, int64_t Hi, uint64_t Seed) {
  Rng R(Seed);
  size_t N = S.arity();
  for (int Trial = 0; Trial != 25; ++Trial) {
    D D1, D2;
    if constexpr (std::is_same_v<D, Box>) {
      D1 = randomBox(R, N, Hi);
      D2 = randomBox(R, N, Hi);
    } else {
      std::vector<Box> I1{randomBox(R, N, Hi), randomBox(R, N, Hi)};
      std::vector<Box> I2{randomBox(R, N, Hi)};
      std::vector<Box> E1{randomBox(R, N, Hi)};
      D1 = PowerBox(N, I1, E1);
      D2 = PowerBox(N, I2, {});
    }
    EXPECT_TRUE(checkSizeLaw(D1, D2));
    EXPECT_TRUE(checkIntersectLaw(D1, D2));
    // size == exhaustive membership count.
    int64_t Brute = 0;
    forEachPoint(Box::top(S), [&](const Point &P) {
      if (DomainTraits<D>::member(D1, P))
        ++Brute;
      return true;
    });
    EXPECT_EQ(DomainTraits<D>::size(D1).toInt64(), Brute)
        << DomainTraits<D>::str(D1);
    // Intersection membership is pointwise conjunction.
    D I12 = DomainTraits<D>::intersect(D1, D2);
    for (int K = 0; K != 8; ++K) {
      Point P;
      for (size_t F = 0; F != N; ++F)
        P.push_back(R.range(0, Hi));
      EXPECT_EQ(DomainTraits<D>::member(I12, P),
                DomainTraits<D>::member(D1, P) &&
                    DomainTraits<D>::member(D2, P));
      EXPECT_TRUE(checkSubsetLaw(P, D1, D2));
    }
  }
}

} // namespace

TEST(ArityLaws, OneDimensionalBox) {
  sweep<Box>(schemaOfArity(1, 300), 300, 5);
}

TEST(ArityLaws, OneDimensionalPowerBox) {
  sweep<PowerBox>(schemaOfArity(1, 300), 300, 6);
}

TEST(ArityLaws, ThreeDimensionalBox) {
  sweep<Box>(schemaOfArity(3, 12), 12, 7);
}

TEST(ArityLaws, ThreeDimensionalPowerBox) {
  sweep<PowerBox>(schemaOfArity(3, 12), 12, 8);
}

TEST(ArityLaws, FourDimensionalVolumesOnly) {
  // 4D with exhaustive counting kept small.
  Schema S = schemaOfArity(4, 5);
  Rng R(9);
  for (int Trial = 0; Trial != 10; ++Trial) {
    PowerBox P(4, {randomBox(R, 4, 5), randomBox(R, 4, 5)},
               {randomBox(R, 4, 5)});
    int64_t Brute = 0;
    forEachPoint(Box::top(S), [&](const Point &Pt) {
      if (P.member(Pt))
        ++Brute;
      return true;
    });
    EXPECT_EQ(P.size().toInt64(), Brute) << P.str();
  }
}
