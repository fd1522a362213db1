// Adversarial-input robustness: the engines must survive corrupted,
// truncated, or garbage protocol messages without crashing, reject the
// malformed ones, and never turn such input into a false "success".

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "pbs/common/bitio.h"
#include "pbs/common/rng.h"
#include "pbs/core/messages.h"
#include "pbs/core/session_engine.h"
#include "pbs/sim/workload.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

std::vector<uint8_t> Corrupt(std::vector<uint8_t> bytes, Xoshiro256* rng) {
  if (bytes.empty()) return bytes;
  const int flips = 1 + static_cast<int>(rng->NextBounded(8));
  for (int i = 0; i < flips; ++i) {
    bytes[rng->NextBounded(bytes.size())] ^=
        static_cast<uint8_t>(1u << rng->NextBounded(8));
  }
  return bytes;
}

class MessageCorruption : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageCorruption, CorruptedRoundReplyNeverFalselySucceeds) {
  Xoshiro256 rng(GetParam());
  SetPair pair = GenerateSetPair(1500, 20, 32, GetParam());
  PbsConfig config;
  config.max_rounds = 4;
  test::PbsEngines e = test::MakePbsEngines(pair.a, pair.b, config, 5, 20);
  const bool accepted = test::RunExchanges(
      e, [&](const std::vector<uint8_t>&, std::vector<uint8_t>* reply) {
        *reply = Corrupt(std::move(*reply), &rng);
      });
  if (!accepted) return;  // Rejecting a corrupted reply fails closed.
  const ReconcileOutcome outcome = e.alice->TakeOutcome();
  if (outcome.success) {
    // Success claims survive corruption only if the recovered difference is
    // still checksum-consistent; it must then actually be correct.
    EXPECT_TRUE(test::Matches(outcome.difference, pair.truth_diff));
  }
}

TEST_P(MessageCorruption, CorruptedRequestDoesNotCrashBob) {
  Xoshiro256 rng(GetParam() ^ 0xB0B);
  SetPair pair = GenerateSetPair(1500, 20, 32, GetParam());
  PbsConfig config;
  test::PbsEngines e = test::MakePbsEngines(pair.a, pair.b, config, 7, 20);
  std::vector<uint8_t> request, reply;
  e.alice->NextRequest(&request);
  request = Corrupt(std::move(request), &rng);
  e.bob->HandleRequest(request, &reply);  // Must not crash.
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageCorruption,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// A fresh d = 20 session and its round-1 request.
struct RoundOne {
  test::PbsEngines engines;
  std::vector<uint8_t> request;
};

RoundOne MakeRoundOne() {
  SetPair pair = GenerateSetPair(1500, 20, 32, 77);
  RoundOne r{test::MakePbsEngines(pair.a, pair.b, PbsConfig{}, 9, 20), {}};
  r.engines.alice->NextRequest(&r.request);
  return r;
}

TEST(Robustness, TruncatedReplyHandled) {
  RoundOne r = MakeRoundOne();
  std::vector<uint8_t> reply;
  ASSERT_TRUE(r.engines.bob->HandleRequest(r.request, &reply));
  reply.resize(reply.size() / 2);
  EXPECT_FALSE(r.engines.alice->HandleReply(reply));
}

TEST(Robustness, TrailingReplyByteRejected) {
  RoundOne r = MakeRoundOne();
  std::vector<uint8_t> reply;
  ASSERT_TRUE(r.engines.bob->HandleRequest(r.request, &reply));
  reply.push_back(0);
  EXPECT_FALSE(r.engines.alice->HandleReply(reply));
}

TEST(Robustness, RoundRequestLengthIsExact) {
  // The body is exactly the settled flags plus t*m bits per unit, padded
  // to a byte: one byte less or more is malformed.
  for (int delta : {-1, +1}) {
    SCOPED_TRACE(delta);
    RoundOne r = MakeRoundOne();
    r.request.resize(r.request.size() + delta);
    std::vector<uint8_t> reply;
    EXPECT_FALSE(r.engines.bob->HandleRequest(r.request, &reply));
  }
}

TEST(Robustness, ReplyCountAboveCapacityRejected) {
  // d_used = 0 plans a single unit; its reply claims t + 1 decoded
  // positions, one more than a t-capacity sketch can yield.
  PbsConfig config;
  test::PbsEngines e = test::MakePbsEngines({1, 2, 3}, {1, 2, 3}, config,
                                            21, 0);
  const PbsPlanParams p = PlanFor(config, 0).params;
  ASSERT_EQ(p.g, 1);
  const int count_bits = wire::CountBits(p.t);
  ASSERT_LT(p.t, (1 << count_bits) - 1);
  std::vector<uint8_t> request;
  e.alice->NextRequest(&request);
  BitWriter w;
  w.WriteBit(false);
  w.WriteBits(static_cast<uint64_t>(p.t + 1), count_bits);
  for (int i = 0; i <= p.t; ++i) w.WriteBits(1, p.m);
  for (int i = 0; i <= p.t; ++i) w.WriteBits(0, config.sig_bits);
  w.WriteBits(0, config.sig_bits);
  EXPECT_FALSE(e.alice->HandleReply(w.bytes()));
}

TEST(Robustness, EmptyMessagesHandled) {
  SetPair pair = GenerateSetPair(500, 5, 32, 78);
  PbsConfig config;
  test::PbsEngines e = test::MakePbsEngines(pair.a, pair.b, config, 11, 5);
  std::vector<uint8_t> request, reply;
  e.alice->NextRequest(&request);
  EXPECT_FALSE(e.alice->HandleReply({}));           // Empty reply.
  EXPECT_FALSE(e.bob->HandleRequest({}, &reply));   // Empty request.
}

// Runs one estimate session whose ESTIMATE_REQ payload passes through
// `mutate` on its way to the responder, which must fail closed instead of
// estimating from it.
void ExpectEstimateRequestRejected(
    const std::function<void(std::vector<uint8_t>*)>& mutate) {
  SetPair pair = GenerateSetPair(500, 5, 32, 79);
  SessionConfig config;
  config.seed = 13;
  SessionEngine initiator = SessionEngine::Initiator(config, pair.a);
  SessionEngine responder = SessionEngine::Responder(pair.b);
  bool replaced = false;
  std::vector<uint8_t> chunk(1 << 16);
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<uint8_t> outbound;
    while (initiator.Status() == SessionStatus::kWantWrite) {
      const size_t n = initiator.Poll(chunk.data(), chunk.size());
      outbound.insert(outbound.end(), chunk.begin(), chunk.begin() + n);
    }
    for (size_t pos = 0; pos < outbound.size();) {
      wire::WireFrame frame;
      size_t consumed = 0;
      ASSERT_EQ(wire::DecodeFrame(outbound.data() + pos,
                                  outbound.size() - pos, &frame, &consumed),
                wire::FrameStatus::kOk);
      pos += consumed;
      if (frame.type == wire::FrameType::kEstimateRequest) {
        mutate(&frame.payload);
        replaced = true;
      }
      const std::vector<uint8_t> bytes = wire::EncodeFrame(frame);
      responder.Feed(bytes.data(), bytes.size());  // Must not crash.
    }
    while (responder.Status() == SessionStatus::kWantWrite) {
      const size_t n = responder.Poll(chunk.data(), chunk.size());
      initiator.Feed(chunk.data(), n);
    }
  }
  ASSERT_TRUE(replaced);
  EXPECT_EQ(responder.Status(), SessionStatus::kError);
  EXPECT_EQ(responder.result().error, "malformed estimate request");
  EXPECT_EQ(initiator.Status(), SessionStatus::kError);
}

TEST(Robustness, GarbageEstimateRequestHandled) {
  Xoshiro256 rng(80);
  ExpectEstimateRequestRejected([&](std::vector<uint8_t>* payload) {
    for (auto& b : *payload) b = static_cast<uint8_t>(rng.Next());
  });
}

TEST(Robustness, TrailingBytesAfterEstimateCountersRejected) {
  // A well-formed size and counter block followed by extra bytes: one
  // stray byte, and a whole extra 64-bit word.
  for (size_t extra : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(extra);
    ExpectEstimateRequestRejected([&](std::vector<uint8_t>* payload) {
      payload->insert(payload->end(), extra, 0);
    });
  }
}

TEST(Robustness, ZeroLengthSetsReconcile) {
  const ReconcileOutcome outcome =
      test::ReconcilePbs({}, {}, PbsConfig{}, 15, 0);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.rounds, 1);
  EXPECT_TRUE(outcome.difference.empty());
}

TEST(Robustness, OneSidedEmptySet) {
  SetPair pair = GenerateSetPair(60, 60, 32, 81);  // B is empty.
  ASSERT_TRUE(pair.b.empty());
  PbsConfig config;
  config.max_rounds = 5;
  const ReconcileOutcome outcome =
      test::ReconcilePbs(pair.a, pair.b, config, 17, 60);
  ASSERT_TRUE(outcome.success);
  EXPECT_TRUE(test::Matches(outcome.difference, pair.truth_diff));
}

}  // namespace
}  // namespace pbs
