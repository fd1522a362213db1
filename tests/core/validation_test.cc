#include <gtest/gtest.h>

#include <stdexcept>

#include "pbs/core/set_reconciler.h"
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

}  // namespace
}  // namespace pbs
