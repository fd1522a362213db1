#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "pbs/core/set_reconciler.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

std::unique_ptr<SetReconciler> Pbs(int sig_bits) {
  SchemeOptions options;
  options.sig_bits = sig_bits;
  return SchemeRegistry::Instance().Create("pbs", options);
}

TEST(Validation, ZeroElementRejected) {
  const auto pbs = Pbs(32);
  EXPECT_THROW(pbs->CreateInitiator({1, 0, 3}, 1, 1), std::invalid_argument);
  EXPECT_THROW(pbs->CreateResponder({0}, 1, 1), std::invalid_argument);
}

TEST(Validation, OverWidthElementRejected) {
  EXPECT_THROW(Pbs(32)->CreateInitiator({uint64_t{1} << 33}, 1, 1),
               std::invalid_argument);
}

TEST(Validation, ExactWidthElementAccepted) {
  EXPECT_NO_THROW(Pbs(32)->CreateInitiator({0xFFFFFFFFull}, 1, 1));
}

TEST(Validation, WideSignaturesAccepted) {
  EXPECT_NO_THROW(
      Pbs(63)->CreateResponder({(uint64_t{1} << 63) - 1}, 1, 1));
}

TEST(Validation, SubuniverseCheckTogglePreservesCorrectness) {
  // With the Procedure-3 check disabled the protocol still converges
  // (fakes are caught by the checksum loop), possibly using extra rounds.
  PbsConfig on;
  PbsConfig off = on;
  off.subuniverse_check = false;
  off.max_rounds = 8;
  std::vector<uint64_t> a, b;
  for (uint64_t i = 1; i <= 3000; ++i) a.push_back(i * 2654435761u % 0xFFFFFFFF + 1);
  b.assign(a.begin() + 50, a.end());
  const ReconcileOutcome outcome = test::ReconcilePbs(a, b, off, 3, 50);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.difference.size(), 50u);
}

// The partitioned schemes take sets, not multisets: an element listed twice
// on either side must end in a rejection or success = false, never in a
// wrong difference reported as success.
bool FailsClosed(const std::string& scheme, const std::vector<uint64_t>& a,
                 const std::vector<uint64_t>& b, uint64_t seed) {
  try {
    return !test::ReconcileKnownD(scheme, a, b, 11, seed).success;
  } catch (const std::invalid_argument&) {
    return true;
  }
}

TEST(Validation, DuplicateElementsFailClosed) {
  for (const char* scheme : {"pbs", "pinsketch-wp"}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      // a = 2000 common keys, then 10 keys only in A.
      const SetPair pair = GenerateTwoSidedPair(2000, 10, 0, 32, seed);
      const uint64_t common = pair.b[seed % pair.b.size()];
      const uint64_t a_only = pair.a[2000 + seed % 10];
      std::vector<uint64_t> a_dup_common = pair.a;
      a_dup_common.push_back(common);
      std::vector<uint64_t> a_dup_only = pair.a;
      a_dup_only.insert(a_dup_only.begin(), a_only);
      std::vector<uint64_t> b_dup_common = pair.b;
      b_dup_common.push_back(common);
      EXPECT_TRUE(FailsClosed(scheme, a_dup_common, pair.b, seed))
          << scheme << " seed " << seed << ": common key twice in A";
      EXPECT_TRUE(FailsClosed(scheme, a_dup_only, pair.b, seed))
          << scheme << " seed " << seed << ": A-only key twice in A";
      EXPECT_TRUE(FailsClosed(scheme, pair.a, b_dup_common, seed))
          << scheme << " seed " << seed << ": common key twice in B";
    }
  }
}

}  // namespace
}  // namespace pbs
