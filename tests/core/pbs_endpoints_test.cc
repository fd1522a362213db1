#include "pbs/core/pbs_endpoints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"

namespace pbs {
namespace {

TEST(Endpoints, ManualMessageLoop) {
  SetPair pair = GenerateSetPair(2000, 20, 32, 1);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 99);
  PbsBob bob(pair.b, config, 99);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);

  bool finished = false;
  int rounds = 0;
  while (!finished && rounds < config.max_rounds) {
    auto request = alice.MakeRoundRequest();
    auto reply = bob.HandleRoundRequest(request);
    finished = alice.HandleRoundReply(reply);
    ++rounds;
  }
  ASSERT_TRUE(finished);
  EXPECT_TRUE(alice.finished());
  auto diff = alice.Difference();
  std::sort(diff.begin(), diff.end());
  std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
  EXPECT_EQ(diff, pair.truth_diff);
}

TEST(Endpoints, EstimateExchangeAgreesOnPlan) {
  // The served estimate: the session layer's ToW phase hands both PBS
  // endpoints one d-hat, so they plan the same (g, n, t) and settle.
  SetPair pair = GenerateSetPair(3000, 64, 32, 2);
  SessionConfig config;
  config.seed = 7;
  const SessionResult session = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(session.ok) << session.error;
  EXPECT_TRUE(session.outcome.success);
  const int d_used = InflateEstimate(session.d_hat, PbsConfig{}.gamma);
  EXPECT_NE(session.outcome.params_summary.find(
                "d_used=" + std::to_string(d_used)),
            std::string::npos)
      << session.outcome.params_summary;
  // gamma-inflated estimate should (usually) cover the true d.
  EXPECT_GE(d_used, 40);
}

TEST(Endpoints, RoundRequestSizeMatchesPlan) {
  SetPair pair = GenerateSetPair(2000, 100, 32, 3);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 11);
  alice.SetDifferenceEstimate(100);
  const auto& p = alice.plan().params;
  auto request = alice.MakeRoundRequest();
  // Round 1: g sketches of t*m bits, no flag bits.
  const size_t expected_bits =
      static_cast<size_t>(p.g) * p.t * p.m;
  EXPECT_EQ(request.size(), (expected_bits + 7) / 8);
}

TEST(Endpoints, FinishedFalseBeforeAnyRound) {
  PbsConfig config;
  PbsAlice alice({1, 2, 3}, config, 1);
  alice.SetDifferenceEstimate(1);
  EXPECT_FALSE(alice.finished());
}

TEST(Endpoints, TimersAccumulate) {
  SetPair pair = GenerateSetPair(20000, 200, 32, 4);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 13);
  PbsBob bob(pair.b, config, 13);
  alice.SetDifferenceEstimate(200);
  bob.SetDifferenceEstimate(200);
  auto request = alice.MakeRoundRequest();
  auto reply = bob.HandleRoundRequest(request);
  alice.HandleRoundReply(reply);
  EXPECT_GT(alice.timers().encode_seconds, 0.0);
  EXPECT_GT(bob.timers().encode_seconds, 0.0);
  EXPECT_GT(bob.timers().decode_seconds, 0.0);
}

TEST(Endpoints, MismatchedSeedsFailGracefully) {
  // Different seeds -> different hash partitions -> protocol cannot settle
  // (but must not produce a false positive).
  SetPair pair = GenerateSetPair(1000, 10, 32, 5);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 100);
  PbsBob bob(pair.b, config, 200);
  alice.SetDifferenceEstimate(10);
  bob.SetDifferenceEstimate(10);
  bool finished = false;
  for (int r = 0; r < config.max_rounds && !finished; ++r) {
    auto reply = bob.HandleRoundRequest(alice.MakeRoundRequest());
    finished = alice.HandleRoundReply(reply);
  }
  EXPECT_FALSE(finished);
}

}  // namespace
}  // namespace pbs
