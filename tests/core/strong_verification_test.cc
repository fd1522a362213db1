// The Section-2.2.3 strong-verification epilogue and the Section-1.1
// bidirectional completion.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "pbs/core/pbs_endpoints.h"
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

TEST(StrongVerification, DigestVerifiesManually) {
  SetPair pair = GenerateSetPair(2000, 25, 32, 2);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 9);
  PbsBob bob(pair.b, config, 9);
  alice.SetDifferenceEstimate(25);
  bob.SetDifferenceEstimate(25);
  bool finished = false;
  while (!finished) {
    finished = alice.HandleRoundReply(
        bob.HandleRoundRequest(alice.MakeRoundRequest()));
  }
  EXPECT_TRUE(alice.VerifyStrongDigest(bob.MakeStrongDigest()));
}

TEST(StrongVerification, RejectsTamperedDigest) {
  SetPair pair = GenerateSetPair(2000, 25, 32, 3);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 11);
  PbsBob bob(pair.b, config, 11);
  alice.SetDifferenceEstimate(25);
  bob.SetDifferenceEstimate(25);
  bool finished = false;
  while (!finished) {
    finished = alice.HandleRoundReply(
        bob.HandleRoundRequest(alice.MakeRoundRequest()));
  }
  auto digest = bob.MakeStrongDigest();
  digest[5] ^= 0x40;
  EXPECT_FALSE(alice.VerifyStrongDigest(digest));
}

TEST(StrongVerification, RejectsTruncatedDigest) {
  SetPair pair = GenerateSetPair(1000, 5, 32, 4);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 13);
  PbsBob bob(pair.b, config, 13);
  alice.SetDifferenceEstimate(5);
  bob.SetDifferenceEstimate(5);
  alice.HandleRoundReply(bob.HandleRoundRequest(alice.MakeRoundRequest()));
  auto digest = bob.MakeStrongDigest();
  digest.resize(10);
  EXPECT_FALSE(alice.VerifyStrongDigest(digest));
}

TEST(Bidirectional, ElementsOnlyInASubsetOfDifference) {
  SetPair pair = GenerateTwoSidedPair(2500, 30, 20, 32, 5);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 17);
  PbsBob bob(pair.b, config, 17);
  alice.SetDifferenceEstimate(70);
  bob.SetDifferenceEstimate(70);
  bool finished = false;
  while (!finished) {
    finished = alice.HandleRoundReply(
        bob.HandleRoundRequest(alice.MakeRoundRequest()));
  }
  auto a_only = alice.ElementsOnlyInA();
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
  PbsConfig config;
  PbsAlice alice(pair.a, config, 19);
  PbsBob bob(pair.b, config, 19);
  alice.SetDifferenceEstimate(56);
  bob.SetDifferenceEstimate(56);
  bool finished = false;
  while (!finished) {
    finished = alice.HandleRoundReply(
        bob.HandleRoundRequest(alice.MakeRoundRequest()));
  }

  std::unordered_set<uint64_t> alice_union(pair.a.begin(), pair.a.end());
  std::unordered_set<uint64_t> in_a(pair.a.begin(), pair.a.end());
  for (uint64_t e : alice.Difference()) {
    if (!in_a.count(e)) alice_union.insert(e);  // B-only elements.
  }
  std::unordered_set<uint64_t> bob_union(pair.b.begin(), pair.b.end());
  for (uint64_t e : alice.ElementsOnlyInA()) bob_union.insert(e);

  std::unordered_set<uint64_t> expected(pair.a.begin(), pair.a.end());
  for (uint64_t e : pair.b) expected.insert(e);
  EXPECT_EQ(alice_union, expected);
  EXPECT_EQ(bob_union, expected);
}

}  // namespace
}  // namespace pbs
