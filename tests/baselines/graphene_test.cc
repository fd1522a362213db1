// Graphene through the registry's in-process Reconcile(); the d argument
// of ReconcileAt() is the scheme's sizing parameter, exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;

ReconcileOutcome ReconcileAt(const SetPair& pair, int d, uint64_t seed) {
  return test::ReconcileKnownD("graphene", pair.a, pair.b, d, seed);
}

TEST(Graphene, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileAt(pair, 1, 1);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class GrapheneSweep : public ::testing::TestWithParam<int> {};

TEST_P(GrapheneSweep, RecoversSubsetDifference) {
  const int d = GetParam();
  int ok = 0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair =
        GenerateSetPair(std::max(5000, 4 * d), d, 32, 7 * d + trial);
    auto out = ReconcileAt(pair, d, trial);
    if (out.success && Matches(out.difference, pair.truth_diff)) ++ok;
  }
  EXPECT_GE(ok, 9) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Ds, GrapheneSweep,
                         ::testing::Values(10, 100, 500));

TEST(Graphene, SmallDUsesBloomFilterAndBeatsDDigestSizing) {
  // With |B| huge relative to d... actually with small d relative to |B|
  // the BF is NOT worth it (its size is O(|B|)); Graphene should go
  // IBF-only and cost about what D.Digest costs.
  const int d = 20;
  SetPair pair = GenerateSetPair(50000, d, 32, 3);
  auto out = ReconcileAt(pair, d, 3);
  ASSERT_TRUE(out.success);
  // IBF-only: ~ cells * 12 bytes with cells ~ 1.7d + slack.
  EXPECT_LT(out.data_bytes, 3000u);
}

TEST(Graphene, LargeDRelativeToSetUsesBloomFilter) {
  // When d is a sizable fraction of |A|, the BF pays for itself: total
  // bytes should drop well below the IBF-only cost of ~ 1.7 * d * 12.
  const int d = 5000;
  SetPair pair = GenerateSetPair(20000, d, 32, 5);
  auto out = ReconcileAt(pair, d, 5);
  ASSERT_TRUE(out.success);
  const double ibf_only_estimate = 1.7 * d * 12.0;
  EXPECT_LT(static_cast<double>(out.data_bytes), ibf_only_estimate);
}

TEST(Graphene, SuccessRateMeetsHighTarget) {
  // Section 8.2 target: 239/240. Check a batch comfortably exceeds ~0.99.
  int ok = 0;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair = GenerateSetPair(8000, 100, 32, 900 + trial);
    auto out = ReconcileAt(pair, 100, trial * 13);
    if (out.success && Matches(out.difference, pair.truth_diff)) ++ok;
  }
  EXPECT_GE(ok, kTrials - 1);
}

}  // namespace
}  // namespace pbs
