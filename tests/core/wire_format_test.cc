// Golden wire-format tests: the protocol's serialized layouts, pinned.
//
// These tests freeze observable wire properties -- message sizes computed
// from the plan, field layouts, varint framing -- so that accidental
// format changes (which would break cross-version interop) fail loudly.

#include <gtest/gtest.h>

#include "pbs/core/messages.h"
#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

TEST(WireFormat, CountBitsWidths) {
  EXPECT_EQ(wire::BitWidthFor(1), 1);
  EXPECT_EQ(wire::BitWidthFor(2), 2);
  EXPECT_EQ(wire::BitWidthFor(13), 4);
  EXPECT_EQ(wire::BitWidthFor(17), 5);
  EXPECT_EQ(wire::CountBits(13), 4);
  EXPECT_EQ(wire::CountBits(16), 5);
}

// The pbs round-request header: the kind byte, plus the 32-bit d_used on
// round 1 (docs/WIRE_FORMAT.md, "pbs payloads").
constexpr size_t kRoundOneHeaderBytes = 1 + 4;

TEST(WireFormat, RoundOneRequestIsExactlyGSketches) {
  SetPair pair = GenerateSetPair(2000, 100, 32, 1);
  PbsConfig config;
  test::PbsEngines e = test::MakePbsEngines(pair.a, pair.b, config, 7, 100);
  const PbsPlanParams p = PlanFor(config, 100).params;
  std::vector<uint8_t> request;
  e.alice->NextRequest(&request);
  EXPECT_EQ(request.size(),
            kRoundOneHeaderBytes +
                (static_cast<size_t>(p.g) * p.t * p.m + 7) / 8);
}

TEST(WireFormat, RoundOneReplyLayout) {
  // Reply = per unit: 1 fail bit + count + positions + xors + checksum.
  SetPair pair = GenerateSetPair(2000, 0, 32, 2);  // No differences.
  PbsConfig config;
  test::PbsEngines e = test::MakePbsEngines(pair.a, pair.b, config, 9, 0);
  const PbsPlanParams p = PlanFor(config, 0).params;
  std::vector<uint8_t> request, reply;
  e.alice->NextRequest(&request);
  ASSERT_TRUE(e.bob->HandleRequest(request, &reply));
  // d=0 -> g=1 unit, zero decoded positions:
  // 1 + count_bits + 0 + 32 bits.
  const size_t expected_bits = 1 + wire::CountBits(p.t) + 32;
  EXPECT_EQ(reply.size(), (expected_bits + 7) / 8);
}

TEST(WireFormat, EstimateRequestSizeMatchesFormula) {
  // The session layer's estimate phase (docs/WIRE_FORMAT.md): ESTIMATE_REQ
  // carries the 64-bit |A| and 128 ToW counters of ceil(log2(2|A|+1))
  // bits; ESTIMATE_REPLY carries the 64-bit d-hat. estimator_bytes is
  // the sum of both payloads.
  SetPair pair = GenerateSetPair(1000, 10, 32, 3);
  SessionConfig config;
  config.seed = 11;
  const SessionResult session = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(session.ok) << session.error;
  const size_t request_bits = 64 + 128 * 11;  // |A| = 1000: 11-bit counters.
  EXPECT_EQ(session.outcome.estimator_bytes, (request_bits + 7) / 8 + 8);
}

TEST(WireFormat, StrongDigestIsTwentyFourBytes) {
  test::PbsEngines e =
      test::MakePbsEngines({1, 2, 3}, {1, 2, 3}, PbsConfig{}, 15, 0);
  const std::vector<uint8_t> digest_request = {2};  // Kind byte only.
  std::vector<uint8_t> digest;
  ASSERT_TRUE(e.bob->HandleRequest(digest_request, &digest));
  EXPECT_EQ(digest.size(), 24u);
}

TEST(WireFormat, PaperFormulaOneFirstRoundBytes) {
  // Formula (1): per group, t log n + delta_i log n + delta_i log|U| +
  // log|U| bits (+ 1 status bit and a count field in this implementation).
  // Verify against a d = 0 instance where delta_i = 0 for the single group
  // and an exact-d instance at the paper's parameters.
  SetPair pair = GenerateSetPair(20000, 1000, 32, 5);
  PbsConfig config;
  test::PbsEngines e =
      test::MakePbsEngines(pair.a, pair.b, config, 17, 1000);
  const PbsPlanParams p = PlanFor(config, 1000).params;
  ASSERT_EQ(p.n, 127);
  ASSERT_EQ(p.t, 13);
  std::vector<uint8_t> request, reply;
  e.alice->NextRequest(&request);
  ASSERT_TRUE(e.bob->HandleRequest(request, &reply));
  const double total_bits =
      8.0 * (request.size() - kRoundOneHeaderBytes + reply.size());
  // Paper formula totalled over g groups with sum(delta_i) = d:
  // g*(t*7 + 32) + d*(7 + 32) bits = 200*123 + 1000*39 = 63.6 kbit.
  const double formula_bits = p.g * (p.t * 7.0 + 32.0) + 1000.0 * (7 + 32);
  // Implementation overhead (fail bits, count fields) is < 5%.
  EXPECT_NEAR(total_bits, formula_bits, 0.05 * formula_bits);
}

}  // namespace
}  // namespace pbs
