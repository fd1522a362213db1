#include "pbs/markov/success_probability.h"

#include <gtest/gtest.h>

namespace pbs {
namespace {

TEST(BinomialPmf, SumsToOne) {
  double sum = 0;
  for (int x = 0; x <= 50; ++x) sum += BinomialPmf(50, 0.3, x);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(BinomialPmf, MatchesSmallCases) {
  EXPECT_NEAR(BinomialPmf(3, 0.5, 0), 0.125, 1e-12);
  EXPECT_NEAR(BinomialPmf(3, 0.5, 1), 0.375, 1e-12);
  EXPECT_NEAR(BinomialPmf(2, 0.25, 2), 0.0625, 1e-12);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 0.5, 6), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 0.5, -1), 0.0);
}

TEST(BinomialPmf, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(10, 1.0, 10), 1.0);
}

TEST(SingleGroupSuccess, ZeroElementsAlwaysSucceed) {
  EXPECT_DOUBLE_EQ(SingleGroupSuccess(127, 13, 1, 0), 1.0);
}

TEST(SingleGroupSuccess, MoreRoundsNeverHurt) {
  for (int x : {2, 5, 10}) {
    double prev = 0;
    for (int r = 1; r <= 5; ++r) {
      const double p = SingleGroupSuccess(127, 13, r, x);
      EXPECT_GE(p, prev - 1e-12) << "x=" << x << " r=" << r;
      prev = p;
    }
  }
}

TEST(SingleGroupSuccess, OneRoundEqualsIdealCase) {
  // Pr[x ->1 0] is the probability all balls land in distinct bins.
  const double p = SingleGroupSuccess(255, 13, 1, 5);
  EXPECT_NEAR(p, 0.9613, 0.001);  // Section 1.3.1's 0.96.
}

TEST(SingleGroupSuccess, BeyondCapacityIsZeroInTruncatedModel) {
  EXPECT_DOUBLE_EQ(SingleGroupSuccess(127, 13, 3, 14), 0.0);
}

TEST(SplitModel, BeyondCapacityRecoversViaSplits) {
  // The Section 3.2 path: x > t still usually succeeds in r = 3 rounds.
  const double p = SingleGroupSuccessWithSplits(127, 13, 3, 14);
  EXPECT_GT(p, 0.99);
  EXPECT_LT(p, 1.0);
}

TEST(SplitModel, NoRoundsLeftMeansFailure) {
  EXPECT_DOUBLE_EQ(SingleGroupSuccessWithSplits(127, 13, 0, 3), 0.0);
  // x > t with r = 1: the failed round exhausts the budget.
  EXPECT_DOUBLE_EQ(SingleGroupSuccessWithSplits(127, 13, 1, 14), 0.0);
}

TEST(Alpha, BoundedAboveByOne) {
  EXPECT_LE(Alpha(127, 13, 3, 1000, 200), 1.0);
  EXPECT_LE(AlphaWithSplits(127, 13, 3, 1000, 200), 1.0);
}

TEST(Alpha, SplitAwareDominatesTruncated) {
  const double truncated = Alpha(127, 13, 3, 1000, 200);
  const double split = AlphaWithSplits(127, 13, 3, 1000, 200);
  EXPECT_GE(split, truncated);
}

TEST(OverallBound, MonotoneInAlpha) {
  EXPECT_GT(OverallSuccessLowerBound(0.9999, 200),
            OverallSuccessLowerBound(0.999, 200));
}

TEST(OverallBound, PaperBchFailureProbability) {
  // Section 3.2: d=1000, delta=5, t=13 -> Pr[delta_i > t] ~ 6.7e-4.
  double tail = 0;
  for (int x = 14; x <= 1000; ++x) tail += BinomialPmf(1000, 1.0 / 200, x);
  EXPECT_NEAR(tail, 6.7e-4, 1e-4);
}

TEST(OverallBound, PaperSubGroupSplitProbability) {
  // Section 3.2: conditioned on delta_i = 14 (just above t = 13), the
  // probability that some third of a 3-way split still exceeds t is tiny.
  // Multinomial bound: P[max > 13] <= 3 * P[Binom(14, 1/3) > 13].
  double tail = 0;
  for (int x = 14; x <= 14; ++x) tail += BinomialPmf(14, 1.0 / 3, x);
  EXPECT_LT(3 * tail, 1e-5);
}

// Values recorded from the recursive, memoized split model the bottom-up
// tables replaced. Compared exactly: the optimizer's plans ride on these
// doubles, so one ULP of drift is a regression.
TEST(SuccessProbability, BoundsMatchRecordedValues) {
  // Single group: split path, r = 0, x far above t.
  EXPECT_EQ(SingleGroupSuccessWithSplits(127, 13, 3, 14),
            0x1.feeec842a2203p-1);
  EXPECT_EQ(SingleGroupSuccessWithSplits(127, 13, 0, 3), 0.0);
  EXPECT_EQ(SingleGroupSuccessWithSplits(255, 8, 3, 40),
            0x1.15aa661d8b6b8p-1);
  EXPECT_EQ(SingleGroupSuccessWithSplits(63, 10, 2, 12),
            0x1.666e0d4cc2fdep-1);
  EXPECT_EQ(SingleGroupSuccessWithSplits(2047, 16, 4, 30),
            0x1.fffff6f6c9c2p-1);
  // Alpha: the paper's cell, d < t with g = 1, r = 0, the Binomial tail
  // cut off at t + 200 with most of its mass beyond.
  EXPECT_EQ(AlphaWithSplits(127, 13, 3, 1000, 200), 0x1.fffedb416fb1ap-1);
  EXPECT_EQ(AlphaWithSplits(63, 8, 2, 6, 2), 0x1.ff7ebe297705p-1);
  EXPECT_EQ(AlphaWithSplits(127, 13, 3, 5, 1), 0x1.ffff546551688p-1);
  EXPECT_EQ(AlphaWithSplits(127, 12, 0, 23, 5), 0x1.82db34012b252p-8);
  EXPECT_EQ(AlphaWithSplits(2047, 17, 4, 100, 1), 0x1.fc911042b61efp-1);
  EXPECT_EQ(AlphaWithSplits(63, 8, 3, 1000, 4), 0x1.4fc54de67e658p-184);
  EXPECT_EQ(SuccessLowerBoundWithSplits(255, 12, 3, 1000, 200),
            0x1.ffa62a139d83ep-1);
  // Calibrated: the paper's cell, d = 0 with g = 1, an infeasible r = 1
  // cell, a large-d cell.
  EXPECT_EQ(AlphaCalibrated(255, 10, 3, 400, 20), 0x1.a602be0c3e665p-1);
  EXPECT_EQ(AlphaCalibrated(127, 13, 3, 1000, 120), 0x1.ff79439c235fp-1);
  EXPECT_EQ(SuccessLowerBoundCalibrated(127, 13, 3, 1000, 200),
            0x1.fb0008f5ee67ap-1);
  EXPECT_EQ(SuccessLowerBoundCalibrated(63, 8, 3, 0, 1), 1.0);
  EXPECT_EQ(SuccessLowerBoundCalibrated(511, 11, 1, 89, 18),
            -0x1.c175e0197f92p-2);
  EXPECT_EQ(SuccessLowerBoundCalibrated(1023, 17, 4, 5653, 1131),
            0x1.fffffe5f3d5eap-1);
}

TEST(SuccessProbability, ContextMatchesOneShotFunctions) {
  // One context serving many cells (in a scrambled order, with t above
  // its t_max hint) gives each cell the one-shot value.
  SplitModelContext context(3, 1000, 200, 12);
  for (int n : {255, 63, 127}) {
    for (int t : {17, 8, 13, 12}) {
      EXPECT_EQ(context.AlphaCalibrated(n, t, 1.5, 9.0),
                AlphaCalibrated(n, t, 3, 1000, 200))
          << n << " " << t;
      EXPECT_EQ(context.AlphaWithSplits(n, t),
                AlphaWithSplits(n, t, 3, 1000, 200))
          << n << " " << t;
      EXPECT_EQ(context.SingleGroupSuccess(n, t, t + 9),
                SingleGroupSuccessWithSplits(n, t, 3, t + 9))
          << n << " " << t;
    }
  }
}

// --- Table 1 reproduction (the calibrated model) ---
struct Table1Cell {
  int n;
  int t;
  double paper_value;  // Percent.
};

class Table1Test : public ::testing::TestWithParam<Table1Cell> {};

TEST_P(Table1Test, MatchesPaperWithinTolerance) {
  const auto& cell = GetParam();
  const double computed =
      100.0 * SuccessLowerBoundCalibrated(cell.n, cell.t, 3, 1000, 200);
  // Reading precision + model residual: generous but meaningful tolerance.
  EXPECT_NEAR(computed, cell.paper_value, 6.0)
      << "n=" << cell.n << " t=" << cell.t;
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, Table1Test,
    ::testing::Values(Table1Cell{63, 10, 75.1}, Table1Cell{63, 11, 85.9},
                      Table1Cell{63, 12, 91.3}, Table1Cell{63, 13, 93.9},
                      Table1Cell{63, 14, 95.1}, Table1Cell{63, 15, 95.6},
                      Table1Cell{63, 16, 95.7}, Table1Cell{63, 17, 95.8},
                      Table1Cell{127, 11, 96.9}, Table1Cell{127, 12, 98.5},
                      Table1Cell{127, 13, 99.1}, Table1Cell{127, 14, 99.4},
                      Table1Cell{127, 17, 99.6}, Table1Cell{255, 12, 99.7},
                      Table1Cell{255, 13, 99.8}, Table1Cell{511, 11, 99.5},
                      Table1Cell{1023, 11, 99.6}, Table1Cell{2047, 11, 99.6}));

TEST(Table1, OptimalCellIsFeasible) {
  // The paper's chosen cell (n=127, t=13) must clear p0 = 99%.
  EXPECT_GE(SuccessLowerBoundCalibrated(127, 13, 3, 1000, 200), 0.99);
}

TEST(Table1, CheaperNeighborsAreInfeasible) {
  // (63, t) cells are all below 99% -- the reason the paper moves to n=127.
  for (int t = 8; t <= 17; ++t) {
    EXPECT_LT(SuccessLowerBoundCalibrated(63, t, 3, 1000, 200), 0.99);
  }
}

}  // namespace
}  // namespace pbs
