// Conformance suite for the SetReconciler interface and SchemeRegistry:
// every registered scheme, iterated by name, must recover the exact
// difference over the sim/workload shapes with sane byte/round accounting.
// Edge shapes are checked against std::set_symmetric_difference by
// tests/core/scheme_oracle_test.cc.

#include "pbs/core/set_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Sorted;

TEST(SchemeRegistry, AllBuiltinsRegistered) {
  const auto names = SchemeRegistry::Instance().Names();
  for (const char* expected :
       {"pbs", "pinsketch", "pinsketch-wp", "ddigest", "graphene"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_TRUE(SchemeRegistry::Instance().Contains(expected));
  }
}

TEST(SchemeRegistry, UnknownNameYieldsNull) {
  EXPECT_EQ(SchemeRegistry::Instance().Create("nope", SchemeOptions{}),
            nullptr);
  EXPECT_FALSE(SchemeRegistry::Instance().Contains("nope"));
  EXPECT_EQ(SchemeRegistry::Instance().DisplayName("nope"), "");
}

TEST(SchemeRegistry, DuplicateRegistrationRejected) {
  auto& registry = SchemeRegistry::Instance();
  EXPECT_FALSE(registry.Register("pbs", "Imposter", nullptr));
  EXPECT_EQ(registry.DisplayName("pbs"), "PBS");
}

TEST(SchemeRegistry, SelfDescription) {
  const SchemeOptions options;
  auto& registry = SchemeRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    const auto scheme = registry.Create(name, options);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_EQ(scheme->name(), name);
    EXPECT_EQ(scheme->display_name(), registry.DisplayName(name)) << name;
    EXPECT_TRUE(scheme->needs_estimate()) << name;
  }
  EXPECT_TRUE(registry.Create("pbs", options)->supports_rounds());
  EXPECT_TRUE(registry.Create("pinsketch-wp", options)->supports_rounds());
  EXPECT_FALSE(registry.Create("pinsketch", options)->supports_rounds());
}

// Every registered scheme must exactly recover the difference on the
// workload generator's shapes (subset divergence and two-sided divergence)
// when handed the exact d, and must report non-zero communication.
class SchemeConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SchemeConformance, ExactRecoveryOnWorkloadShapes) {
  const std::string name = GetParam();
  const auto scheme =
      SchemeRegistry::Instance().Create(name, SchemeOptions{});
  ASSERT_NE(scheme, nullptr);

  const SetPair shapes[] = {
      GenerateSetPair(2000, 25, 32, 0xC0F1),
      GenerateTwoSidedPair(1500, 15, 12, 32, 0xC0F2),
  };
  int shape = 0;
  for (const SetPair& pair : shapes) {
    SCOPED_TRACE(name + " shape " + std::to_string(shape++));
    const double d_hat = static_cast<double>(pair.truth_diff.size());
    const ReconcileOutcome r =
        scheme->Reconcile(pair.a, pair.b, d_hat, 0x5EED);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(Sorted(r.difference), Sorted(pair.truth_diff));
    EXPECT_GT(r.data_bytes, 0u);
    EXPECT_GE(r.rounds, 1);
    EXPECT_GE(r.encode_seconds, 0.0);
    EXPECT_GE(r.decode_seconds, 0.0);
    EXPECT_FALSE(r.params_summary.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeConformance,
    ::testing::ValuesIn(SchemeRegistry::Instance().Names()),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// PbsConfig::decode_threads is a local performance knob: for any thread
// count the recovered difference, byte accounting, and round trajectory
// must be identical to the serial run (the per-group parallel decode
// stages results per unit and serializes them in canonical order). This
// is the single- vs multi-threaded outcome-parity pin of the per-group
// pool -- and, run under TSan (CI), its race detector.
TEST(SchemeAdapterParity, PbsDecodeThreadsDoesNotChangeOutcome) {
  // Two shapes: subset difference and two-sided difference (the general
  // recovery path with elements on both sides).
  const SetPair shapes[] = {GenerateSetPair(3000, 40, 32, 0x7EAD),
                            GenerateTwoSidedPair(2000, 25, 35, 32, 0x51DE)};
  auto& registry = SchemeRegistry::Instance();
  for (const SetPair& pair : shapes) {
    const double d_hat = static_cast<double>(pair.truth_diff.size()) + 1.3;
    const uint64_t seed = 0xDEC0DE;
    SchemeOptions serial;
    serial.pbs.decode_threads = 1;
    const ReconcileOutcome reference =
        registry.Create("pbs", serial)->Reconcile(pair.a, pair.b, d_hat,
                                                  seed);
    ASSERT_TRUE(reference.success);
    EXPECT_EQ(Sorted(reference.difference), Sorted(pair.truth_diff));
    for (int threads : {2, 4, 0}) {  // 0 = one worker per hardware thread.
      SchemeOptions mt = serial;
      mt.pbs.decode_threads = threads;
      const ReconcileOutcome parallel =
          registry.Create("pbs", mt)->Reconcile(pair.a, pair.b, d_hat, seed);
      EXPECT_EQ(parallel.success, reference.success) << threads;
      EXPECT_EQ(parallel.data_bytes, reference.data_bytes) << threads;
      EXPECT_EQ(parallel.rounds, reference.rounds) << threads;
      EXPECT_EQ(Sorted(parallel.difference), Sorted(reference.difference))
          << threads;
    }
  }
}

// Appendix J.3 accounting through the interface: wide-signature reporting
// must add (report_sig_bits - sig_bits)/8 bytes per signature-width field
// to PBS, exactly as the runner used to.
TEST(SchemeAdapterParity, WideSignatureAccounting) {
  const SetPair pair = GenerateSetPair(2000, 30, 32, 0xF00D);
  const double d_hat = static_cast<double>(pair.truth_diff.size());
  const uint64_t seed = 0xBEEF;

  SchemeOptions narrow;
  SchemeOptions wide = narrow;
  wide.report_sig_bits = 256;
  auto& registry = SchemeRegistry::Instance();

  const auto narrow_out =
      registry.Create("pbs", narrow)->Reconcile(pair.a, pair.b, d_hat, seed);
  const auto wide_out =
      registry.Create("pbs", wide)->Reconcile(pair.a, pair.b, d_hat, seed);
  ASSERT_TRUE(narrow_out.success);
  ASSERT_TRUE(wide_out.success);
  // Same protocol run, strictly more accounted bytes.
  EXPECT_EQ(Sorted(wide_out.difference), Sorted(narrow_out.difference));
  EXPECT_GT(wide_out.data_bytes, narrow_out.data_bytes);
  const size_t extra = wide_out.data_bytes - narrow_out.data_bytes;
  // At least the difference's XOR sums must have been widened.
  EXPECT_GE(extra, (256 - 32) / 8 * narrow_out.difference.size());
}

}  // namespace
}  // namespace pbs
