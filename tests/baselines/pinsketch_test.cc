// PinSketch through the registry's in-process Reconcile(); the d argument
// of ReconcileAt() is the scheme's sizing parameter, exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;

ReconcileOutcome ReconcileAt(const SetPair& pair, int d, uint64_t seed) {
  return test::ReconcileKnownD("pinsketch", pair.a, pair.b, d, seed);
}

TEST(PinSketch, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileAt(pair, 5, 1);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class PinSketchSweep : public ::testing::TestWithParam<int> {};

TEST_P(PinSketchSweep, ExactRecoveryWithinCapacity) {
  const int d = GetParam();
  SetPair pair = GenerateSetPair(std::max(2000, 3 * d), d, 32, 10 + d);
  const int t = static_cast<int>(std::ceil(1.38 * d));
  auto out = ReconcileAt(pair, t, d);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

INSTANTIATE_TEST_SUITE_P(Ds, PinSketchSweep,
                         ::testing::Values(1, 3, 10, 50, 200));

TEST(PinSketch, WireSizeIsTLogU) {
  SetPair pair = GenerateSetPair(1000, 10, 32, 3);
  auto out = ReconcileAt(pair, 14, 3);
  EXPECT_EQ(out.data_bytes, 14u * 32 / 8);
}

TEST(PinSketch, OverCapacityDetected) {
  SetPair pair = GenerateSetPair(2000, 40, 32, 5);
  auto out = ReconcileAt(pair, 10, 5);
  EXPECT_FALSE(out.success);
}

TEST(PinSketch, CommunicationNearOptimal) {
  // 1.38x the minimum: the paper's Figure 1b observation.
  const int d = 100;
  SetPair pair = GenerateSetPair(5000, d, 32, 7);
  const int t = static_cast<int>(std::ceil(1.38 * d));
  auto out = ReconcileAt(pair, t, 7);
  ASSERT_TRUE(out.success);
  const double ratio = static_cast<double>(out.data_bytes) / (d * 4.0);
  EXPECT_NEAR(ratio, 1.38, 0.02);
}

TEST(PinSketch, TwoSidedDifference) {
  SetPair pair = GenerateTwoSidedPair(1500, 12, 9, 32, 9);
  auto out = ReconcileAt(pair, 30, 9);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

}  // namespace
}  // namespace pbs
