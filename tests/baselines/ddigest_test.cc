// D.Digest through the registry's in-process Reconcile(); the d argument
// of ReconcileAt() is the scheme's sizing parameter, exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;

ReconcileOutcome ReconcileAt(const SetPair& pair, int d, uint64_t seed) {
  return test::ReconcileKnownD("ddigest", pair.a, pair.b, d, seed);
}

TEST(DDigest, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileAt(pair, 1, 1);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class DDigestSweep : public ::testing::TestWithParam<int> {};

TEST_P(DDigestSweep, UsuallyRecoversAtPaperSizing) {
  const int d = GetParam();
  int ok = 0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair =
        GenerateSetPair(std::max(2000, 3 * d), d, 32, 100 * d + trial);
    auto out = ReconcileAt(pair, d, trial);
    if (out.success && Matches(out.difference, pair.truth_diff)) ++ok;
  }
  EXPECT_GE(ok, 8) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Ds, DDigestSweep,
                         ::testing::Values(10, 50, 300, 1000));

TEST(DDigest, WireSizeRoughlySixTimesMinimum) {
  const int d = 100;
  SetPair pair = GenerateSetPair(2000, d, 32, 3);
  auto out = ReconcileAt(pair, d, 3);
  const double ratio = static_cast<double>(out.data_bytes) / (d * 4.0);
  EXPECT_NEAR(ratio, 6.0, 0.3);
}

TEST(DDigest, UndersizedFilterFailsHonestly) {
  SetPair pair = GenerateSetPair(3000, 200, 32, 5);
  auto out = ReconcileAt(pair, 20, 5);
  EXPECT_FALSE(out.success);
}

TEST(DDigest, TwoSidedDifference) {
  SetPair pair = GenerateTwoSidedPair(2000, 15, 10, 32, 7);
  auto out = ReconcileAt(pair, 25, 7);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

}  // namespace
}  // namespace pbs
