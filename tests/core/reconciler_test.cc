// PBS through SetReconciler::Reconcile (the in-process pump over the
// scheme's engines), with d known exactly (gamma = 1) unless noted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;
using test::ReconcilePbs;

TEST(Reconciler, IdenticalSetsFinishImmediately) {
  SetPair pair = GenerateSetPair(5000, 0, 32, 1);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 7, 0);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.difference.empty());
  EXPECT_EQ(result.rounds, 1);
}

TEST(Reconciler, SingleDifference) {
  SetPair pair = GenerateSetPair(5000, 1, 32, 2);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 8, 1);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
}

// Main correctness sweep over d with known d.
class ReconcilerSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReconcilerSweep, RecoversExactDifference) {
  const int d = GetParam();
  int successes = 0;
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair = GenerateSetPair(std::max(4 * d, 2000), d, 32,
                                   1000 + trial * 31 + d);
    PbsConfig config;
    auto result =
        ReconcilePbs(pair.a, pair.b, config, 50 + trial, d);
    if (result.success) {
      EXPECT_TRUE(Matches(result.difference, pair.truth_diff))
          << "claimed success but difference wrong, d=" << d;
      ++successes;
    }
  }
  // p0 = 0.99; with 8 trials allow at most one failure.
  EXPECT_GE(successes, kTrials - 1) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Ds, ReconcilerSweep,
                         ::testing::Values(2, 5, 17, 64, 200, 1000));

TEST(Reconciler, TwoSidedDifferences) {
  // Elements on both sides (not the paper's B-subset-of-A setup).
  SetPair pair = GenerateTwoSidedPair(3000, 40, 25, 32, 9);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 3, 65);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
}

TEST(Reconciler, WithRealEstimatorExchange) {
  // The served estimate: the session layer's ToW exchange sizes PBS.
  SetPair pair = GenerateSetPair(3000, 50, 32, 11);
  SessionConfig config;
  config.seed = 5;
  const SessionResult session = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(session.ok) << session.error;
  const ReconcileOutcome& result = session.outcome;
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
  // Request: 64-bit |A| + 128 counters of ceil(log2(6001)) = 13 bits;
  // reply: the 64-bit d-hat.
  EXPECT_EQ(result.estimator_bytes, 8u + 128 * 13 / 8 + 8);
}

TEST(Reconciler, UnderestimatedDStillCorrectWhenItSucceeds) {
  // Plan for 10 but the real difference is 60: BCH failures and splits
  // must either finish correctly or report failure -- never lie.
  SetPair pair = GenerateSetPair(4000, 60, 32, 13);
  PbsConfig config;
  config.max_rounds = 6;
  auto result = ReconcilePbs(pair.a, pair.b, config, 17, 10);
  if (result.success) {
    EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
  }
}

TEST(Reconciler, GrossOverestimateStillWorks) {
  SetPair pair = GenerateSetPair(3000, 10, 32, 15);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 19, 500);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
}

TEST(Reconciler, RoundCapReportsFailureHonestly) {
  // One round with an underestimate is typically not enough; the result
  // must then be marked unsuccessful.
  int failures = 0;
  for (int trial = 0; trial < 5; ++trial) {
    SetPair pair = GenerateSetPair(4000, 100, 32, 21 + trial);
    PbsConfig config;
    config.max_rounds = 1;
    auto result = ReconcilePbs(pair.a, pair.b, config, trial, 20);
    if (!result.success) ++failures;
  }
  EXPECT_GE(failures, 4);
}

TEST(Reconciler, CommunicationNearTwiceMinimum) {
  // Headline claim: roughly 2x the theoretical minimum d log|U|.
  const int d = 500;
  SetPair pair = GenerateSetPair(50000, d, 32, 31);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 37, d);
  ASSERT_TRUE(result.success);
  const double minimum = d * 4.0;  // d * 32 bits.
  const double ratio = static_cast<double>(result.data_bytes) / minimum;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.2);  // Paper reports 2.13 - 2.87.
}

TEST(Reconciler, DifferenceElementsNeverContainZero) {
  SetPair pair = GenerateSetPair(2000, 25, 32, 41);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 43, 25);
  for (uint64_t e : result.difference) EXPECT_NE(e, 0u);
}

TEST(Reconciler, PlanExposedInResult) {
  SetPair pair = GenerateSetPair(2000, 100, 32, 47);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 53, 100);
  int g = 0, n = 0, t = 0, d_used = 0;
  ASSERT_EQ(std::sscanf(result.params_summary.c_str(),
                        "g=%d n=%d t=%d d_used=%d", &g, &n, &t, &d_used),
            4)
      << result.params_summary;
  EXPECT_EQ(g, 20);
  EXPECT_GE(n, 63);
  EXPECT_EQ(d_used, 100);
}

}  // namespace
}  // namespace pbs
