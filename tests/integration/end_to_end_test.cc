// Cross-module integration tests: every scheme against every workload
// shape, exception-path forcing, and protocol-correctness invariants
// (Theorem 1 / Appendix C).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;
using test::ReconcileKnownD;
using test::ReconcilePbs;

// --- Workload shapes beyond the paper's B-subset-of-A setup ---

struct Shape {
  const char* name;
  size_t common;
  size_t a_only;
  size_t b_only;
};

// Without this, gtest prints a Shape as raw bytes, including the address
// of `name`, which would make the listed test names differ on every run.
void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

class ShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeTest, PbsHandlesAllShapes) {
  const Shape& s = GetParam();
  SetPair pair =
      GenerateTwoSidedPair(s.common, s.a_only, s.b_only, 32, 77);
  PbsConfig config;
  config.max_rounds = 5;
  auto result = ReconcilePbs(
      pair.a, pair.b, config, 7,
      static_cast<int>(1.4 * (s.a_only + s.b_only)) + 1);
  ASSERT_TRUE(result.success) << s.name;
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff)) << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeTest,
    ::testing::Values(Shape{"subset_b_in_a", 2000, 80, 0},
                      Shape{"superset_a_in_b", 2000, 0, 80},
                      Shape{"two_sided", 2000, 40, 40},
                      Shape{"disjoint_small", 0, 30, 30},
                      Shape{"empty_b", 0, 50, 0},
                      Shape{"empty_a", 0, 0, 50}),
    [](const auto& info) { return info.param.name; });

// --- Exception forcing ---

TEST(Exceptions, BchFailurePathViaGrossUnderestimate) {
  // d_used = 5 (one group, t ~ 13) against a true d of 60 forces the BCH
  // decoding exception and the three-way split machinery.
  SetPair pair = GenerateSetPair(2000, 60, 32, 5);
  PbsConfig config;
  config.max_rounds = 8;
  auto result = ReconcilePbs(pair.a, pair.b, config, 11, 5);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
  EXPECT_GE(result.rounds, 2);  // Splits cost at least one extra round.
}

TEST(Exceptions, TinyBitmapForcesTypeExceptionsAcrossRounds) {
  // Cram 60 distinct elements into one group with n = 63 bins: many bins
  // get >= 2 distinct elements (type I/II exceptions), requiring the
  // multi-round machinery of Section 2.4.
  SetPair pair = GenerateSetPair(1000, 60, 32, 9);
  PbsConfig config;
  config.max_rounds = 10;
  config.optimizer.min_m = 6;
  config.optimizer.max_m = 6;  // Pin the bitmap at n = 63.
  config.optimizer.t_high = 13.0;  // Allow t up to 65 so BCH decode works.
  auto result = ReconcilePbs(pair.a, pair.b, config, 13, 60);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
  EXPECT_GE(result.rounds, 2);
}

TEST(Exceptions, MaxRoundsOneWithCollisionsFailsHonestly) {
  // With n = 63 and 40 elements in one group, round 1 cannot reconcile
  // everything; capping at one round must yield success == false.
  SetPair pair = GenerateSetPair(1000, 40, 32, 15);
  PbsConfig config;
  config.max_rounds = 1;
  config.optimizer.min_m = 6;
  config.optimizer.max_m = 6;
  config.optimizer.t_high = 9.0;
  auto result = ReconcilePbs(pair.a, pair.b, config, 17, 40);
  EXPECT_FALSE(result.success);
}

// --- Theorem 1: whenever the protocol reports success, the reconciled
// difference is exactly A triangle B (checksum gatekeeping) ---

TEST(Correctness, ReportedSuccessIsAlwaysCorrect) {
  for (int trial = 0; trial < 30; ++trial) {
    const size_t d = 1 + (trial * 7) % 120;
    SetPair pair = GenerateSetPair(2000 + 100 * trial, d, 32, 400 + trial);
    PbsConfig config;
    config.max_rounds = 2 + trial % 3;
    // Deliberately noisy estimates, under and over.
    const int d_used = std::max<int>(1, static_cast<int>(d) - 10 + trial % 21);
    auto result =
        ReconcilePbs(pair.a, pair.b, config, trial, d_used);
    if (result.success) {
      EXPECT_TRUE(Matches(result.difference, pair.truth_diff))
          << "trial " << trial;
    }
  }
}

// --- Cross-scheme agreement on the same instance ---

TEST(CrossScheme, AllSchemesAgreeOnTheSameInstance) {
  SetPair pair = GenerateSetPair(4000, 75, 32, 21);
  PbsConfig config;

  auto pbs = ReconcilePbs(pair.a, pair.b, config, 3, 104);
  auto pin = ReconcileKnownD("pinsketch", pair.a, pair.b, 104, 3);
  auto dd = ReconcileKnownD("ddigest", pair.a, pair.b, 75, 3);
  auto gr = ReconcileKnownD("graphene", pair.a, pair.b, 104, 3);
  auto wp = ReconcileKnownD("pinsketch-wp", pair.a, pair.b, 104, 3);

  ASSERT_TRUE(pbs.success);
  ASSERT_TRUE(pin.success);
  ASSERT_TRUE(dd.success);
  ASSERT_TRUE(gr.success);
  ASSERT_TRUE(wp.success);
  EXPECT_TRUE(Matches(pbs.difference, pair.truth_diff));
  EXPECT_TRUE(Matches(pin.difference, pair.truth_diff));
  EXPECT_TRUE(Matches(dd.difference, pair.truth_diff));
  EXPECT_TRUE(Matches(gr.difference, pair.truth_diff));
  EXPECT_TRUE(Matches(wp.difference, pair.truth_diff));
}

// --- Communication-overhead ordering on one instance (Figure 1b/2b) ---

TEST(CrossScheme, ByteOrderingPinsketchPbsDdigest) {
  SetPair pair = GenerateSetPair(6000, 150, 32, 23);
  PbsConfig config;
  auto pbs = ReconcilePbs(pair.a, pair.b, config, 5, 207);
  auto pin = ReconcileKnownD("pinsketch", pair.a, pair.b, 207, 5);
  auto dd = ReconcileKnownD("ddigest", pair.a, pair.b, 150, 5);
  ASSERT_TRUE(pbs.success && pin.success && dd.success);
  EXPECT_LT(pin.data_bytes, pbs.data_bytes);
  EXPECT_LT(pbs.data_bytes, dd.data_bytes);
}

// --- Determinism: same seeds, same everything ---

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  SetPair pair = GenerateSetPair(3000, 64, 32, 29);
  PbsConfig config;
  auto r1 = ReconcilePbs(pair.a, pair.b, config, 31, 89);
  auto r2 = ReconcilePbs(pair.a, pair.b, config, 31, 89);
  EXPECT_EQ(r1.success, r2.success);
  EXPECT_EQ(r1.data_bytes, r2.data_bytes);
  EXPECT_EQ(r1.rounds, r2.rounds);
  auto d1 = r1.difference, d2 = r2.difference;
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());
  EXPECT_EQ(d1, d2);
}

// --- Large-scale single instance (closer to paper scale) ---

TEST(Scale, HundredThousandElementsThousandDifferences) {
  SetPair pair = GenerateSetPair(100000, 1000, 32, 37);
  PbsConfig config;
  auto result = ReconcilePbs(pair.a, pair.b, config, 41, 1380);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(Matches(result.difference, pair.truth_diff));
  // ~2-3x minimum even at scale.
  EXPECT_LT(result.data_bytes, 3.2 * 1000 * 4);
}

}  // namespace
}  // namespace pbs
