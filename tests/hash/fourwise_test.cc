#include "pbs/hash/fourwise.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pbs/common/rng.h"

namespace pbs {
namespace {

TEST(FourWiseHash, SignIsPlusMinusOne) {
  FourWiseHash h(1);
  for (uint64_t x = 0; x < 1000; ++x) {
    const int s = h.Sign(x);
    EXPECT_TRUE(s == 1 || s == -1);
  }
}

TEST(FourWiseHash, Deterministic) {
  FourWiseHash h1(9), h2(9);
  for (uint64_t x = 0; x < 100; ++x) EXPECT_EQ(h1.Sign(x), h2.Sign(x));
}

TEST(FourWiseHash, BalancedSigns) {
  FourWiseHash h(1234);
  int sum = 0;
  constexpr int kSamples = 100000;
  for (int x = 1; x <= kSamples; ++x) sum += h.Sign(x);
  // Mean 0, stddev sqrt(kSamples) ~ 316.
  EXPECT_LT(std::abs(sum), 5 * 316);
}

TEST(FourWiseHash, PairwiseProductsAverageToZero) {
  // E[f(x) f(y)] = 0 for x != y -- the property the ToW unbiasedness proof
  // needs. Average over many independent hash functions at fixed x, y.
  SplitMix64 seeds(5);
  int sum = 0;
  constexpr int kFunctions = 20000;
  for (int i = 0; i < kFunctions; ++i) {
    FourWiseHash h(seeds.Next());
    sum += h.Sign(123) * h.Sign(456);
  }
  EXPECT_LT(std::abs(sum), 5 * std::sqrt(kFunctions));
}

TEST(FourWiseHash, FourWiseProductsAverageToZero) {
  // E[f(x1) f(x2) f(x3) f(x4)] = 0 for distinct points -- the fourth-moment
  // property used in the variance proof (Appendix A).
  SplitMix64 seeds(17);
  int sum = 0;
  constexpr int kFunctions = 20000;
  for (int i = 0; i < kFunctions; ++i) {
    FourWiseHash h(seeds.Next());
    sum += h.Sign(1) * h.Sign(2) * h.Sign(3) * h.Sign(4);
  }
  EXPECT_LT(std::abs(sum), 5 * std::sqrt(kFunctions));
}

TEST(FourWiseHash, EvalStaysBelowPrime) {
  FourWiseHash h(77);
  for (uint64_t x = 0; x < 10000; ++x) {
    EXPECT_LT(h.Eval(x), FourWiseHash::kPrime);
  }
}

TEST(FourWiseHash, EvalMatchesWideReferenceAtEdgeKeys) {
  // Keys at and beyond p, where the Mersenne fold replaces x % p, against
  // a Horner evaluation with a 128-bit % after every step.
  constexpr uint64_t p = FourWiseHash::kPrime;
  SplitMix64 seeds(61);
  for (int trial = 0; trial < 50; ++trial) {
    const FourWiseHash h(seeds.Next());
    for (uint64_t x : {uint64_t{0}, p - 1, p, p + 1, 2 * p, ~uint64_t{0}}) {
      const __uint128_t xm = x % p;
      __uint128_t acc = h.coeff(3);
      for (int k = 2; k >= 0; --k) acc = (acc * xm + h.coeff(k)) % p;
      EXPECT_EQ(h.Eval(x), static_cast<uint64_t>(acc)) << "x=" << x;
    }
  }
}

}  // namespace
}  // namespace pbs
