// Broad randomized sweeps: protocol invariants that must hold for every
// seed, workload shape, and parameterization. These are the repository's
// main property-based defense against rare-path regressions (split
// cascades, estimator undershoot, fake-element unwinding).

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "pbs/markov/success_probability.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;
using test::ReconcilePbs;

// Invariant 1: a reported success is always exactly correct -- across a
// grid of (seed, d, estimate-skew) combinations.
class SuccessIsTruth : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SuccessIsTruth, AcrossWorkloads) {
  const uint64_t seed = GetParam();
  for (int variant = 0; variant < 4; ++variant) {
    const size_t d = 1 + (seed * 13 + variant * 29) % 250;
    const int skew = static_cast<int>((seed + variant) % 5) - 2;
    const int d_used =
        std::max(1, static_cast<int>(d) + skew * static_cast<int>(d) / 4);
    SetPair pair = GenerateSetPair(1000 + d * 4, d, 32, seed * 31 + variant);
    PbsConfig config;
    config.max_rounds = 3 + variant;
    auto result =
        ReconcilePbs(pair.a, pair.b, config, seed, d_used);
    if (result.success) {
      EXPECT_TRUE(Matches(result.difference, pair.truth_diff))
          << "seed=" << seed << " variant=" << variant;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuccessIsTruth,
                         ::testing::Range(uint64_t{1}, uint64_t{26}));

// Invariant 2: the difference set never contains an element of A n B.
class NoCommonElements : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NoCommonElements, DiffDisjointFromIntersection) {
  const uint64_t seed = GetParam();
  SetPair pair = GenerateTwoSidedPair(1200, 20 + seed % 40, 15 + seed % 25,
                                      32, seed);
  PbsConfig config;
  config.max_rounds = 6;
  auto result = ReconcilePbs(pair.a, pair.b, config, seed ^ 0xF00, 120);
  if (!result.success) return;
  std::unordered_set<uint64_t> in_a(pair.a.begin(), pair.a.end());
  std::unordered_set<uint64_t> in_b(pair.b.begin(), pair.b.end());
  for (uint64_t e : result.difference) {
    EXPECT_FALSE(in_a.count(e) && in_b.count(e)) << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoCommonElements,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// Invariant 3: byte counts are deterministic in the seed and monotone-ish
// in d (more differences can never make round one cheaper at fixed plan).
TEST(SeedSweep, BytesGrowWithD) {
  PbsConfig config;
  double prev = 0;
  for (size_t d : {10, 50, 250, 1250}) {
    SetPair pair = GenerateSetPair(6000, d, 32, 99 + d);
    auto result = ReconcilePbs(pair.a, pair.b, config, 3,
                               static_cast<int>(1.4 * d));
    ASSERT_TRUE(result.success) << d;
    EXPECT_GT(static_cast<double>(result.data_bytes), prev) << d;
    prev = static_cast<double>(result.data_bytes);
  }
}

// Invariant 4: empirical per-group first-round success tracks the Markov
// chain's prediction (model validation at protocol level).
TEST(SeedSweep, EmpiricalRoundOneMatchesMarkovModel) {
  // One group (d small): Pr[settle in round 1] = Pr[x ->1 0] with x = d.
  const int d = 4;
  const int n = 63;
  int settled = 0;
  constexpr int kTrials = 600;
  PbsConfig config;
  config.max_rounds = 1;
  config.optimizer.min_m = 6;
  config.optimizer.max_m = 6;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair = GenerateSetPair(400, d, 32, 5000 + trial);
    auto result = ReconcilePbs(pair.a, pair.b, config, trial, d);
    if (result.success) ++settled;
  }
  const double empirical = static_cast<double>(settled) / kTrials;
  const double model = SingleGroupSuccess(n, 8, 1, d);
  EXPECT_NEAR(empirical, model, 0.05);
}

// Invariant 5: rounds never exceed max_rounds, and a success at round cap
// r also holds when re-run with a larger cap (monotonicity of settling).
class RoundMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundMonotonicity, LargerCapNeverLosesSuccess) {
  const uint64_t seed = GetParam();
  SetPair pair = GenerateSetPair(3000, 120, 32, seed);
  PbsConfig tight;
  tight.max_rounds = 2;
  PbsConfig loose;
  loose.max_rounds = 6;
  auto r_tight = ReconcilePbs(pair.a, pair.b, tight, seed, 166);
  auto r_loose = ReconcilePbs(pair.a, pair.b, loose, seed, 166);
  EXPECT_LE(r_tight.rounds, 2);
  EXPECT_LE(r_loose.rounds, 6);
  if (r_tight.success) {
    EXPECT_TRUE(r_loose.success);
    EXPECT_EQ(r_tight.data_bytes, r_loose.data_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundMonotonicity,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace pbs
