#include "pbs/markov/optimizer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pbs/core/params.h"

namespace pbs {
namespace {

TEST(Optimizer, ReproducesPaperOptimum) {
  // d=1000, delta=5, r=3, p0=0.99 -> (n=127, t=13), 318 bits per group
  // (Appendix H / Section 5.2).
  OptimizerOptions options;
  options.d = 1000;
  auto plan = OptimizeParams(options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->n, 127);
  EXPECT_EQ(plan->t, 13);
  EXPECT_EQ(plan->g, 200);
  EXPECT_NEAR(plan->bits_per_group, 318.0, 0.5);
  EXPECT_GE(plan->lower_bound, 0.99);
}

TEST(Optimizer, ObjectiveFormulaMatchesPaper) {
  // (t + delta) log n + (delta + 1) log|U| with n=127, t=13:
  // 18*7 + 6*32 = 126 + 192 = 318.
  OptimizerOptions options;
  options.d = 1000;
  auto plan = OptimizeParams(options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->bits_per_group,
                   (plan->t + 5.0) * plan->m + 6.0 * 32);
}

TEST(Optimizer, GridContainsAllCombinations) {
  OptimizerOptions options;
  options.d = 1000;
  const auto grid = EvaluateGrid(options);
  // m in 6..11 (6 values), t in 8..17 (10 values).
  EXPECT_EQ(grid.size(), 60u);
}

TEST(Optimizer, HigherP0NeedsMoreBits) {
  OptimizerOptions lenient;
  lenient.d = 1000;
  lenient.p0 = 0.95;
  OptimizerOptions strict = lenient;
  strict.p0 = 239.0 / 240.0;
  auto cheap = OptimizeParams(lenient);
  auto costly = OptimizeParams(strict);
  ASSERT_TRUE(cheap.has_value());
  ASSERT_TRUE(costly.has_value());
  EXPECT_LE(cheap->bits_per_group, costly->bits_per_group);
}

TEST(Optimizer, FewerRoundsNeedMoreBits) {
  // Section 5.2: optimal comm overhead decreases with r.
  double prev = 1e18;
  for (int r = 2; r <= 4; ++r) {
    OptimizerOptions options;
    options.d = 1000;
    options.r = r;
    options.max_m = 13;
    auto plan = OptimizeParams(options);
    ASSERT_TRUE(plan.has_value()) << "r=" << r;
    EXPECT_LE(plan->bits_per_group, prev) << "r=" << r;
    prev = plan->bits_per_group;
  }
}

TEST(Optimizer, RoundTradeoffNearPaperValues) {
  // Paper Section 5.2: 402 / 318 / 288 bits for r = 2 / 3 / 4.
  const double expected[] = {402, 318, 288};
  for (int r = 2; r <= 4; ++r) {
    OptimizerOptions options;
    options.d = 1000;
    options.r = r;
    options.max_m = 13;
    auto plan = OptimizeParams(options);
    ASSERT_TRUE(plan.has_value());
    EXPECT_NEAR(plan->bits_per_group, expected[r - 2], 20.0) << "r=" << r;
  }
}

TEST(Optimizer, InfeasibleRangeReturnsNullopt) {
  OptimizerOptions options;
  options.d = 1000;
  options.r = 1;  // One round with small n cannot hit 99%.
  options.max_m = 11;
  EXPECT_FALSE(OptimizeParams(options).has_value());
}

TEST(Optimizer, SmallDUsesOneGroupPerDeltaElements) {
  OptimizerOptions options;
  options.d = 10;
  auto plan = OptimizeParams(options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->g, 2);
}

TEST(Optimizer, ZeroDStillPlans) {
  OptimizerOptions options;
  options.d = 0;
  auto plan = OptimizeParams(options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->g, 1);
}

TEST(Optimizer, FeasibleCellsRespectBound) {
  OptimizerOptions options;
  options.d = 1000;
  for (const auto& cell : EvaluateGrid(options)) {
    EXPECT_EQ(cell.feasible, cell.lower_bound >= options.p0);
  }
}

// The pre-scan rule: the cheapest feasible cell of the full grid; equal
// bits go to the strictly higher bound, then to the earlier (m, t).
// Feasibility is re-derived at `p0`: the bounds do not depend on it, so
// one grid serves every p0.
std::optional<OptimizerCell> FullGridArgmin(
    const std::vector<OptimizerCell>& grid, double p0) {
  std::optional<OptimizerCell> best;
  for (const auto& cell : grid) {
    if (!(cell.lower_bound >= p0)) continue;
    if (!best || cell.variable_bits < best->variable_bits ||
        (cell.variable_bits == best->variable_bits &&
         cell.lower_bound > best->lower_bound)) {
      best = cell;
    }
  }
  return best;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Checks OptimizeParams against the full grid at each p0.
void ExpectScanMatchesGrid(OptimizerOptions options,
                           const std::vector<double>& p0s) {
  const std::vector<OptimizerCell> grid = EvaluateGrid(options);
  for (double p0 : p0s) {
    options.p0 = p0;
    const auto want = FullGridArgmin(grid, p0);
    const auto got = OptimizeParams(options);
    const std::string where = "d=" + std::to_string(options.d) +
                              " r=" + std::to_string(options.r) +
                              " delta=" + std::to_string(options.delta) +
                              " p0=" + std::to_string(p0);
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (!want) continue;
    EXPECT_EQ(got->n, want->n) << where;
    EXPECT_EQ(got->t, want->t) << where;
    EXPECT_EQ(got->g, GroupCount(options.d, options.delta)) << where;
    EXPECT_TRUE(SameBits(got->lower_bound, want->lower_bound)) << where;
    EXPECT_EQ(got->bits_per_group, want->total_bits) << where;
  }
}

TEST(Optimizer, CostOrderedScanMatchesFullGridArgmin) {
  const std::vector<double> p0s = {0.95, 0.99, 0.999};
  std::vector<int> ds;
  for (int d = 0; d <= 64; ++d) ds.push_back(d);
  for (double d = 90; d <= 60000; d *= 2.3) ds.push_back(static_cast<int>(d));
  ds.push_back(60000);
  int config = 0;
  for (int r = 1; r <= 4; ++r) {
    for (int delta : {3, 5, 10}) {
      // Every config sees the geometric tail; the dense 0..64 head is
      // dealt out across configs, a different seventh to each.
      for (size_t i = 0; i < ds.size(); ++i) {
        if (ds[i] <= 64 && (i + config) % 7 != 0) continue;
        OptimizerOptions options;
        options.d = ds[i];
        options.r = r;
        options.delta = delta;
        ExpectScanMatchesGrid(options, p0s);
      }
      ++config;
    }
  }
  // Section 5.2's widened one-round range.
  for (int d : {1, 10, 100, 1000, 5000}) {
    OptimizerOptions options;
    options.d = d;
    options.r = 1;
    options.max_m = 22;
    options.t_high = 5.0;
    ExpectScanMatchesGrid(options, {0.99});
  }
  // No feasible cell at all: every cell is evaluated, and nothing wins.
  OptimizerOptions hopeless;
  hopeless.d = 1000;
  hopeless.r = 1;
  ASSERT_FALSE(FullGridArgmin(EvaluateGrid(hopeless), 0.99).has_value());
  ExpectScanMatchesGrid(hopeless, {0.99});
}

// Recorded from the full-grid optimizer over the recursive split model;
// the lower bound is compared bit for bit.
TEST(Optimizer, PlansMatchRecordedValues) {
  struct Recorded {
    int d;
    int g;
    int n;
    int t;
    double lower_bound;
  };
  const Recorded recorded[] = {
      {0, 1, 63, 8, 0x1p+0},
      {1, 1, 63, 8, 0x1p+0},
      {6, 2, 63, 8, 0x1.fff3a2ef195f8p-1},
      {23, 5, 63, 8, 0x1.fae1f913b3c26p-1},
      {89, 18, 63, 12, 0x1.fc7596105b6d8p-1},
      {354, 71, 127, 12, 0x1.fcf34912aedccp-1},
      {1000, 200, 127, 13, 0x1.fb0008f5ee67ap-1},
      {1414, 283, 127, 14, 0x1.fb60aec3ec1aap-1},
      {5653, 1131, 1023, 10, 0x1.fc4b201222a98p-1},
      {22610, 4522, 511, 13, 0x1.fb9372683fe54p-1},
  };
  for (const Recorded& want : recorded) {
    OptimizerOptions options;
    options.d = want.d;
    const auto plan = OptimizeParams(options);
    ASSERT_TRUE(plan.has_value()) << "d=" << want.d;
    EXPECT_EQ(plan->g, want.g) << "d=" << want.d;
    EXPECT_EQ(plan->n, want.n) << "d=" << want.d;
    EXPECT_EQ(plan->t, want.t) << "d=" << want.d;
    EXPECT_EQ(plan->lower_bound, want.lower_bound) << "d=" << want.d;
  }
}

TEST(Optimizer, ConcurrentPlansAgree) {
  // Shard threads plan at the same time; each call owns its tables.
  const int ds[] = {6, 89, 354, 1414, 5653};
  const PbsConfig config;
  std::vector<PbsPlan> serial;
  for (int d : ds) serial.push_back(PlanFor(config, d));
  constexpr int kThreads = 4;
  std::vector<std::vector<PbsPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        for (int d : ds) plans[i].push_back(PlanFor(config, d));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& got : plans) {
    ASSERT_EQ(got.size(), 3 * serial.size());
    for (size_t k = 0; k < got.size(); ++k) {
      const PbsPlan& want = serial[k % serial.size()];
      EXPECT_EQ(got[k].params.g, want.params.g);
      EXPECT_EQ(got[k].params.n, want.params.n);
      EXPECT_EQ(got[k].params.t, want.params.t);
      EXPECT_TRUE(SameBits(got[k].params.lower_bound, want.params.lower_bound));
    }
  }
}

}  // namespace
}  // namespace pbs
