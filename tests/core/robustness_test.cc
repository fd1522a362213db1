// Adversarial-input robustness: the endpoints must survive corrupted,
// truncated, or garbage protocol messages without crashing, and must never
// turn such input into a false "success".

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "pbs/common/rng.h"
#include "pbs/core/messages.h"
#include "pbs/core/pbs_endpoints.h"
#include "pbs/core/session_engine.h"
#include "pbs/sim/workload.h"

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
  PbsAlice alice(pair.a, config, 5);
  PbsBob bob(pair.b, config, 5);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);

  bool finished = false;
  for (int round = 0; round < config.max_rounds && !finished; ++round) {
    auto reply = bob.HandleRoundRequest(alice.MakeRoundRequest());
    finished = alice.HandleRoundReply(Corrupt(std::move(reply), &rng));
  }
  if (finished) {
    // Success claims survive corruption only if the recovered difference is
    // still checksum-consistent; it must then actually be correct.
    auto diff = alice.Difference();
    std::sort(diff.begin(), diff.end());
    std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
    EXPECT_EQ(diff, pair.truth_diff);
  }
}

TEST_P(MessageCorruption, CorruptedRequestDoesNotCrashBob) {
  Xoshiro256 rng(GetParam() ^ 0xB0B);
  SetPair pair = GenerateSetPair(1500, 20, 32, GetParam());
  PbsConfig config;
  PbsAlice alice(pair.a, config, 7);
  PbsBob bob(pair.b, config, 7);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);
  auto request = Corrupt(alice.MakeRoundRequest(), &rng);
  auto reply = bob.HandleRoundRequest(request);  // Must not crash.
  (void)reply;
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageCorruption,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Robustness, TruncatedReplyHandled) {
  SetPair pair = GenerateSetPair(1500, 20, 32, 77);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 9);
  PbsBob bob(pair.b, config, 9);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);
  auto reply = bob.HandleRoundRequest(alice.MakeRoundRequest());
  reply.resize(reply.size() / 2);
  alice.HandleRoundReply(reply);  // Must not crash.
  SUCCEED();
}

TEST(Robustness, EmptyMessagesHandled) {
  SetPair pair = GenerateSetPair(500, 5, 32, 78);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 11);
  PbsBob bob(pair.b, config, 11);
  alice.SetDifferenceEstimate(5);
  bob.SetDifferenceEstimate(5);
  alice.MakeRoundRequest();
  alice.HandleRoundReply({});           // Empty reply.
  bob.HandleRoundRequest({});           // Empty request.
  SUCCEED();
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
  PbsConfig config;
  PbsAlice alice({}, config, 15);
  PbsBob bob({}, config, 15);
  alice.SetDifferenceEstimate(0);
  bob.SetDifferenceEstimate(0);
  const bool finished =
      alice.HandleRoundReply(bob.HandleRoundRequest(alice.MakeRoundRequest()));
  EXPECT_TRUE(finished);
  EXPECT_TRUE(alice.Difference().empty());
}

TEST(Robustness, OneSidedEmptySet) {
  SetPair pair = GenerateSetPair(60, 60, 32, 81);  // B is empty.
  ASSERT_TRUE(pair.b.empty());
  PbsConfig config;
  config.max_rounds = 5;
  PbsAlice alice(pair.a, config, 17);
  PbsBob bob(pair.b, config, 17);
  alice.SetDifferenceEstimate(60);
  bob.SetDifferenceEstimate(60);
  bool finished = false;
  for (int r = 0; r < config.max_rounds && !finished; ++r) {
    finished = alice.HandleRoundReply(
        bob.HandleRoundRequest(alice.MakeRoundRequest()));
  }
  ASSERT_TRUE(finished);
  auto diff = alice.Difference();
  std::sort(diff.begin(), diff.end());
  std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
  EXPECT_EQ(diff, pair.truth_diff);
}

}  // namespace
}  // namespace pbs
