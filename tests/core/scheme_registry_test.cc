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

#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/bitio.h"
#include "pbs/core/messages.h"
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

// One pbs run driven by hand, with every payload kept in exchange order
// (request, reply, request, ...).
struct RecordedRun {
  ReconcileOutcome outcome;
  std::vector<std::vector<uint8_t>> payloads;
};

RecordedRun RunRecorded(const SchemeOptions& options, const SetPair& pair,
                        double d_hat, uint64_t seed) {
  const auto pbs = SchemeRegistry::Instance().Create("pbs", options);
  const auto alice = pbs->CreateInitiator(pair.a, d_hat, seed);
  const auto bob = pbs->CreateResponder(pair.b, d_hat, seed);
  RecordedRun run;
  std::vector<uint8_t> request, reply;
  while (!alice->done()) {
    alice->NextRequest(&request);
    if (!bob->HandleRequest(request, &reply) || !alice->HandleReply(reply)) {
      ADD_FAILURE() << "payload rejected";
      break;
    }
    run.payloads.push_back(request);
    run.payloads.push_back(reply);
  }
  run.outcome = alice->TakeOutcome();
  return run;
}

// Units of round 1 that failed to decode, and units active in round 2,
// read off the round-1 reply and the round-2 request: failed units split
// three ways, decoded ones ship a settled flag.
struct RoundTwoShape {
  int failed = 0;
  int units = 0;
};

RoundTwoShape ReadRoundTwoShape(const RecordedRun& run, const PbsPlan& plan,
                                int sig_bits) {
  const PbsPlanParams& p = plan.params;
  RoundTwoShape shape;
  BitReader reply(run.payloads[1]);
  int decoded = 0;
  for (int u = 0; u < p.g; ++u) {
    if (reply.ReadBit()) {
      ++shape.failed;
      continue;
    }
    ++decoded;
    const int count = static_cast<int>(reply.ReadBits(wire::CountBits(p.t)));
    for (int i = 0; i < count; ++i) reply.ReadBits(p.m + sig_bits);
    reply.ReadBits(sig_bits);  // Checksum.
  }
  EXPECT_FALSE(reply.overflowed());
  BitReader request(run.payloads[2]);
  request.ReadBits(8);  // Kind byte.
  int unsettled = 0;
  for (int u = 0; u < decoded; ++u) unsettled += request.ReadBit() ? 0 : 1;
  shape.units = 3 * shape.failed + unsettled;
  return shape;
}

// PbsConfig::decode_threads is a local performance knob: for any thread
// count every request and reply payload, and so the recovered difference,
// byte accounting, and round trajectory, must be identical to the serial
// run (the responder decodes blocks of kDecodeBatch units into per-unit
// slots and serializes them in canonical order). This is the single- vs
// multi-threaded parity pin of the per-group pool -- and, run under TSan
// (CI), its race detector.
TEST(SchemeAdapterParity, PbsDecodeThreadsDoesNotChangeOutcome) {
  struct Shape {
    SetPair pair;
    double d_hat;
    int max_rounds;
  };
  // Subset difference, two-sided difference (the general recovery path
  // with elements on both sides), and an under-estimate (d-hat ~ d/4):
  // round-1 decodes fail, the units split, and the later rounds decode a
  // unit count that is not a multiple of kDecodeBatch through the pool.
  const Shape shapes[] = {
      {GenerateSetPair(3000, 40, 32, 0x7EAD), 40 + 1.3, 3},
      {GenerateTwoSidedPair(2000, 25, 35, 32, 0x51DE), 60 + 1.3, 3},
      {GenerateSetPair(4000, 200, 32, 0x0DD5), 50, 8},
  };
  for (const Shape& shape : shapes) {
    const uint64_t seed = 0xDEC0DE;
    SchemeOptions serial;
    serial.pbs.decode_threads = 1;
    serial.pbs.max_rounds = shape.max_rounds;
    const RecordedRun reference =
        RunRecorded(serial, shape.pair, shape.d_hat, seed);
    ASSERT_TRUE(reference.outcome.success);
    EXPECT_EQ(Sorted(reference.outcome.difference),
              Sorted(shape.pair.truth_diff));
    if (shape.max_rounds > 3) {
      const PbsPlan plan = PlanFor(
          serial.pbs, InflateEstimate(shape.d_hat, serial.pbs.gamma));
      ASSERT_GE(reference.payloads.size(), 4u);  // At least two rounds.
      const RoundTwoShape round_two =
          ReadRoundTwoShape(reference, plan, serial.sig_bits);
      EXPECT_GT(round_two.failed, 0);
      EXPECT_NE(round_two.units % PowerSumSketch::kDecodeBatch, 0)
          << round_two.units;
    }
    for (int threads : {2, 4, 0}) {  // 0 = one worker per hardware thread.
      SchemeOptions mt = serial;
      mt.pbs.decode_threads = threads;
      const RecordedRun parallel =
          RunRecorded(mt, shape.pair, shape.d_hat, seed);
      EXPECT_EQ(parallel.payloads, reference.payloads) << threads;
      EXPECT_EQ(parallel.outcome.success, reference.outcome.success)
          << threads;
      EXPECT_EQ(parallel.outcome.data_bytes, reference.outcome.data_bytes)
          << threads;
      EXPECT_EQ(parallel.outcome.rounds, reference.outcome.rounds) << threads;
      EXPECT_EQ(Sorted(parallel.outcome.difference),
                Sorted(reference.outcome.difference))
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
