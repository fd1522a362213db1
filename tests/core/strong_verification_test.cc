// The Section-2.2.3 strong-verification epilogue and the Section-1.1
// bidirectional completion.

#include <gtest/gtest.h>

#include <unordered_set>

#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

TEST(StrongVerification, PassesOnCorrectReconciliation) {
  SetPair pair = GenerateSetPair(3000, 40, 32, 1);
  PbsConfig plain;
  PbsConfig config;
  config.strong_verification = true;
  auto result = test::ReconcilePbs(pair.a, pair.b, config, 7, 40);
  auto baseline = test::ReconcilePbs(pair.a, pair.b, plain, 7, 40);
  ASSERT_TRUE(result.success);
  ASSERT_TRUE(baseline.success);
  EXPECT_TRUE(test::Matches(result.difference, pair.truth_diff));
  EXPECT_EQ(result.rounds, baseline.rounds);
  // The epilogue costs exactly one 24-byte digest message.
  EXPECT_EQ(result.data_bytes, baseline.data_bytes + 24);
}

// The digest request is the kind byte alone.
bool IsDigestRequest(const std::vector<uint8_t>& request) {
  return request == std::vector<uint8_t>{2};
}

// Runs until every unit settles, whatever the round count.
PbsConfig Unbounded() {
  PbsConfig config;
  config.max_rounds = 64;
  return config;
}

test::PbsEngines StrongEngines(const SetPair& pair, uint64_t seed, int d) {
  PbsConfig config = Unbounded();
  config.strong_verification = true;
  return test::MakePbsEngines(pair.a, pair.b, config, seed, d);
}

TEST(StrongVerification, DigestVerifiesManually) {
  SetPair pair = GenerateSetPair(2000, 25, 32, 2);
  test::PbsEngines e = StrongEngines(pair, 9, 25);
  bool digest_seen = false;
  ASSERT_TRUE(test::RunExchanges(
      e, [&](const std::vector<uint8_t>& request, std::vector<uint8_t>*) {
        digest_seen = digest_seen || IsDigestRequest(request);
      }));
  EXPECT_TRUE(digest_seen);
  EXPECT_TRUE(e.alice->TakeOutcome().success);
}

TEST(StrongVerification, RejectsTamperedDigest) {
  SetPair pair = GenerateSetPair(2000, 25, 32, 3);
  test::PbsEngines e = StrongEngines(pair, 11, 25);
  ASSERT_TRUE(test::RunExchanges(
      e, [](const std::vector<uint8_t>& request, std::vector<uint8_t>* reply) {
        if (IsDigestRequest(request)) (*reply)[5] ^= 0x40;
      }));
  EXPECT_FALSE(e.alice->TakeOutcome().success);
}

TEST(StrongVerification, RejectsTruncatedDigest) {
  SetPair pair = GenerateSetPair(1000, 5, 32, 4);
  test::PbsEngines e = StrongEngines(pair, 13, 5);
  bool truncated = false;
  EXPECT_FALSE(test::RunExchanges(
      e, [&](const std::vector<uint8_t>& request, std::vector<uint8_t>* reply) {
        if (!IsDigestRequest(request)) return;
        reply->resize(10);
        truncated = true;
      }));
  EXPECT_TRUE(truncated);
}

// A_only = the recovered difference's elements Alice holds (A \ B), which
// she ships to Bob so he can form A u B as well.
std::vector<uint64_t> ElementsOnlyInA(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& diff) {
  const std::unordered_set<uint64_t> in_a(a.begin(), a.end());
  std::vector<uint64_t> only_in_a;
  for (uint64_t e : diff) {
    if (in_a.count(e)) only_in_a.push_back(e);
  }
  return only_in_a;
}

TEST(Bidirectional, ElementsOnlyInASubsetOfDifference) {
  SetPair pair = GenerateTwoSidedPair(2500, 30, 20, 32, 5);
  const ReconcileOutcome outcome =
      test::ReconcilePbs(pair.a, pair.b, Unbounded(), 17, 70);
  ASSERT_TRUE(outcome.success);
  auto a_only = ElementsOnlyInA(pair.a, outcome.difference);
  EXPECT_EQ(a_only.size(), 30u);
  std::unordered_set<uint64_t> in_a(pair.a.begin(), pair.a.end());
  std::unordered_set<uint64_t> in_b(pair.b.begin(), pair.b.end());
  for (uint64_t e : a_only) {
    EXPECT_TRUE(in_a.count(e));
    EXPECT_FALSE(in_b.count(e));
  }
}

TEST(Bidirectional, BobFormsUnionFromShippedElements) {
  // The full Section-1.1 flow: Alice learns A triangle B, ships A \ B to
  // Bob; both now hold A u B.
  SetPair pair = GenerateTwoSidedPair(1500, 25, 15, 32, 6);
  const ReconcileOutcome outcome =
      test::ReconcilePbs(pair.a, pair.b, Unbounded(), 19, 56);
  ASSERT_TRUE(outcome.success);

  std::unordered_set<uint64_t> alice_union(pair.a.begin(), pair.a.end());
  std::unordered_set<uint64_t> in_a(pair.a.begin(), pair.a.end());
  for (uint64_t e : outcome.difference) {
    if (!in_a.count(e)) alice_union.insert(e);  // B-only elements.
  }
  std::unordered_set<uint64_t> bob_union(pair.b.begin(), pair.b.end());
  for (uint64_t e : ElementsOnlyInA(pair.a, outcome.difference)) {
    bob_union.insert(e);
  }

  std::unordered_set<uint64_t> expected(pair.a.begin(), pair.a.end());
  for (uint64_t e : pair.b) expected.insert(e);
  EXPECT_EQ(alice_union, expected);
  EXPECT_EQ(bob_union, expected);
}

}  // namespace
}  // namespace pbs
