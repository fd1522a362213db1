// The pbs scheme's initiator (Alice) and responder (Bob) engines, driven
// exchange by exchange.

#include "pbs/core/pbs_reconciler.h"

#include <gtest/gtest.h>

#include <string>

#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::MakePbsEngines;
using test::Matches;

TEST(Endpoints, ManualMessageLoop) {
  SetPair pair = GenerateSetPair(2000, 20, 32, 1);
  PbsConfig config;
  test::PbsEngines e = MakePbsEngines(pair.a, pair.b, config, 99, 20);

  int rounds = 0;
  while (!e.alice->done() && rounds < config.max_rounds) {
    ASSERT_TRUE(test::Exchange(e));
    ++rounds;
  }
  ASSERT_TRUE(e.alice->done());
  const ReconcileOutcome outcome = e.alice->TakeOutcome();
  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(Matches(outcome.difference, pair.truth_diff));
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
  test::PbsEngines e = MakePbsEngines(pair.a, pair.b, config, 11, 100);
  const PbsPlanParams p = PlanFor(config, 100).params;
  std::vector<uint8_t> request;
  e.alice->NextRequest(&request);
  // Round 1: the kind byte and 32-bit d_used, then g sketches of t*m bits
  // and no flag bits.
  const size_t expected_bits = static_cast<size_t>(p.g) * p.t * p.m;
  EXPECT_EQ(request.size(), 1 + 4 + (expected_bits + 7) / 8);
}

TEST(Endpoints, FinishedFalseBeforeAnyRound) {
  PbsConfig config;
  test::PbsEngines e = MakePbsEngines({1, 2, 3}, {1, 2, 3}, config, 1, 1);
  EXPECT_FALSE(e.alice->done());
}

TEST(Endpoints, TimersAccumulate) {
  SetPair pair = GenerateSetPair(20000, 200, 32, 4);
  PbsConfig config;
  config.max_rounds = 1;  // One exchange, then the outcome is ready.
  test::PbsEngines e = MakePbsEngines(pair.a, pair.b, config, 13, 200);
  ASSERT_TRUE(test::Exchange(e));
  ASSERT_TRUE(e.alice->done());
  EXPECT_GT(e.alice->TakeOutcome().encode_seconds, 0.0);
  EXPECT_GT(e.bob->timers().encode_seconds, 0.0);
  EXPECT_GT(e.bob->timers().decode_seconds, 0.0);
}

TEST(Endpoints, MismatchedSeedsFailGracefully) {
  // Different seeds -> different hash partitions -> protocol cannot settle
  // (but must not produce a false positive).
  SetPair pair = GenerateSetPair(1000, 10, 32, 5);
  SchemeOptions options;
  options.pbs.gamma = 1.0;
  const auto pbs = SchemeRegistry::Instance().Create("pbs", options);
  test::PbsEngines e{pbs->CreateInitiator(pair.a, 10, 100),
                     pbs->CreateResponder(pair.b, 10, 200)};
  if (test::RunExchanges(e)) {
    EXPECT_FALSE(e.alice->TakeOutcome().success);
  }
}

}  // namespace
}  // namespace pbs
