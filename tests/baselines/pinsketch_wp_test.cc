// PinSketch/WP through the registry's in-process Reconcile().

#include <gtest/gtest.h>

#include <algorithm>

#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Matches;

// PinSketch/WP sized for exactly `d_used` (t comes from the PBS plan, as
// in Section 8.3), capped at `max_rounds`, optionally accounting
// signature-width fields at `report_sig_bits` (Appendix J.3).
ReconcileOutcome ReconcileAt(const SetPair& pair, int d_used, uint64_t seed,
                     int max_rounds, int report_sig_bits = 0) {
  SchemeOptions options;
  options.pbs.max_rounds = max_rounds;
  options.report_sig_bits = report_sig_bits;
  return test::ReconcileKnownD("pinsketch-wp", pair.a, pair.b, d_used, seed,
                               options);
}

TEST(PinSketchWp, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileAt(pair, 0, 1, 3);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class PinSketchWpSweep : public ::testing::TestWithParam<int> {};

TEST_P(PinSketchWpSweep, RecoversDifference) {
  const int d = GetParam();
  int ok = 0;
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair =
        GenerateSetPair(std::max(2000, 4 * d), d, 32, 13 * d + trial);
    auto out = ReconcileAt(pair, d, trial, 3);
    if (out.success) {
      EXPECT_TRUE(Matches(out.difference, pair.truth_diff)) << "d=" << d;
      ++ok;
    }
  }
  EXPECT_GE(ok, kTrials - 1) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Ds, PinSketchWpSweep,
                         ::testing::Values(5, 25, 100, 500));

TEST(PinSketchWp, CommunicationExceedsPbsMarginRatio) {
  // Per-group overhead: sketch t*32 bits vs PBS's t*log n. With t=13 and
  // g = d/5 groups, PinSketch/WP costs >= g * t * 32 bits.
  const int d = 250;
  SetPair pair = GenerateSetPair(5000, d, 32, 3);
  auto out = ReconcileAt(pair, d, 3, 3);
  ASSERT_TRUE(out.success);
  EXPECT_GE(out.data_bytes, static_cast<size_t>(d / 5) * 13 * 32 / 8);
}

TEST(PinSketchWp, ReportSigBitsScalesAccounting) {
  const int d = 100;
  SetPair pair = GenerateSetPair(3000, d, 32, 5);
  auto out32 = ReconcileAt(pair, d, 5, 3, 0);
  auto out256 = ReconcileAt(pair, d, 5, 3, 256);
  ASSERT_TRUE(out32.success);
  ASSERT_TRUE(out256.success);
  // Appendix J.3: at 256-bit signatures everything scales by ~8x.
  EXPECT_NEAR(static_cast<double>(out256.data_bytes) / out32.data_bytes, 8.0,
              0.5);
}

TEST(PinSketchWp, SplitsHandleOverloadedGroups) {
  // Underestimate d so several groups exceed t; splits must still converge
  // given enough rounds.
  SetPair pair = GenerateSetPair(4000, 120, 32, 7);
  auto out = ReconcileAt(pair, 30, 7, 8);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

// data_bytes counts the sketches and replies, not the 8-byte (g, t)
// sizing header: both sides derive (g, t) from the d-hat they share, just
// as PBS leaves out its d_used word. Pinned on a fixed one-round instance
// (default gamma: d-hat 10 -> d_used 14, g = 3, t = 8): 3 sketches of
// 8 x 32 bits = 96 B out; back, per group a status bit, a 4-bit count and
// a 32-bit checksum, plus the 10 recovered elements: 431 bits = 54 B.
// The in-process pump and a wire session report the same count.
TEST(PinSketchWp, DataBytesExcludeSizingHeader) {
  const SetPair pair = GenerateSetPair(10000, 10, 32, 1);
  const ReconcileOutcome direct =
      SchemeRegistry::Instance()
          .Create("pinsketch-wp", SchemeOptions{})
          ->Reconcile(pair.a, pair.b, 10.0, 1);
  SessionConfig config;
  config.scheme_name = "pinsketch-wp";
  config.seed = 1;
  config.exact_d = 10.0;
  const SessionResult session = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(session.ok) << session.error;
  for (const ReconcileOutcome* out : {&direct, &session.outcome}) {
    ASSERT_TRUE(out->success);
    ASSERT_EQ(out->rounds, 1);
    EXPECT_EQ(out->params_summary, "g=3 t=8 delta=5 d_used=14");
    EXPECT_TRUE(Matches(out->difference, pair.truth_diff));
    EXPECT_EQ(out->data_bytes, 150u);
  }
}

// Sketch building and decoding are timed on both sides: a wire session
// reports the initiator's share, the in-process pump both parties', so
// the figures' encode/decode columns are non-zero like every scheme's.
TEST(PinSketchWp, EncodeAndDecodeAreTimed) {
  const SetPair pair = GenerateSetPair(10000, 10, 32, 1);
  const ReconcileOutcome direct = ReconcileAt(pair, 10, 1, 3);
  SessionConfig config;
  config.scheme_name = "pinsketch-wp";
  config.seed = 1;
  config.exact_d = 10.0;
  const SessionResult session = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(session.ok) << session.error;
  for (const ReconcileOutcome* out : {&direct, &session.outcome}) {
    ASSERT_TRUE(out->success);
    EXPECT_GT(out->encode_seconds, 0.0);
    EXPECT_GT(out->decode_seconds, 0.0);
  }
}

}  // namespace
}  // namespace pbs
