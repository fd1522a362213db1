// Wire pins for the two partitioned schemes: every request and reply of a
// pbs and a pinsketch-wp exchange, plus the outcome, folded into one
// 64-bit FNV-1a digest per shape. The constants were recorded from the
// engines as they stood before their unit tables moved into
// core/group_state; any change to a payload byte, the unit order, a split
// or a settled flag moves them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pbs/core/set_reconciler.h"
#include "pbs/sim/workload.h"

namespace pbs {
namespace {

class Fnv1a {
 public:
  void Bytes(const std::vector<uint8_t>& bytes) {
    Word(bytes.size());
    for (uint8_t b : bytes) Byte(b);
  }
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(w >> (8 * i)));
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) { h_ = (h_ ^ b) * 0x100000001B3ull; }
  uint64_t h_ = 0xCBF29CE484222325ull;
};

struct PinCase {
  const char* name;
  size_t common, a_only, b_only;
  int d_hat;
  PbsConfig config;
  uint64_t pbs_digest;
  uint64_t wp_digest;
};

PbsConfig Config(int max_rounds, int max_split_depth, bool subuniverse_check,
                 bool strong_verification, int sig_bits) {
  PbsConfig config;
  config.gamma = 1.0;
  config.max_rounds = max_rounds;
  config.max_split_depth = max_split_depth;
  config.subuniverse_check = subuniverse_check;
  config.strong_verification = strong_verification;
  config.sig_bits = sig_bits;
  return config;
}

// Exchanges until the initiator is done, digesting every payload and then
// the outcome (success, rounds, sorted difference).
uint64_t DigestExchange(const std::string& scheme, const PinCase& c,
                        int decode_threads) {
  SchemeOptions options;
  options.pbs = c.config;
  options.pbs.decode_threads = decode_threads;
  options.sig_bits = c.config.sig_bits;
  const auto reconciler = SchemeRegistry::Instance().Create(scheme, options);
  const SetPair pair = GenerateTwoSidedPair(
      c.common, c.a_only, c.b_only, c.config.sig_bits, 0x9E37 + c.d_hat);
  const uint64_t seed = 0x51ED + c.common + c.a_only;
  auto alice = reconciler->CreateInitiator(pair.a, c.d_hat, seed);
  auto bob = reconciler->CreateResponder(pair.b, c.d_hat, seed);
  Fnv1a h;
  std::vector<uint8_t> request, reply;
  while (!alice->done()) {
    alice->NextRequest(&request);
    h.Bytes(request);
    EXPECT_TRUE(bob->HandleRequest(request, &reply));
    h.Bytes(reply);
    EXPECT_TRUE(alice->HandleReply(reply));
  }
  ReconcileOutcome outcome = alice->TakeOutcome();
  std::sort(outcome.difference.begin(), outcome.difference.end());
  h.Word(outcome.success);
  h.Word(static_cast<uint64_t>(outcome.rounds));
  for (uint64_t e : outcome.difference) h.Word(e);
  return h.value();
}

const PinCase kCases[] = {
    // d-hat = d: one or two rounds, no splits expected.
    {"exact", 3000, 30, 30, 60, Config(3, 16, true, false, 32),
     0xF544BC5E0C3028C1ull, 0x4ECDDE298B065DB8ull},
    // d-hat = d/10: round-1 units fail and split; the depth cap of 2 is
    // reached and capped units retry as-is (a cap of 16 moves the pbs pin).
    {"under_capped", 3000, 150, 150, 30, Config(8, 2, true, false, 32),
     0x04AC956AB891DFF8ull, 0x5E1DD50357923C3Eull},
    // d-hat = d/2 without Procedure 3's sub-universe check: fake distinct
    // elements are toggled and undone (the check changes this shape's
    // payloads).
    {"half_nosub", 3000, 60, 60, 60, Config(8, 16, false, false, 32),
     0x4048A2AC6D61544Cull, 0xD8D18BE0285236FFull},
    // The strong-verification digest exchange after the checksum loop.
    {"strong", 3000, 30, 30, 60, Config(3, 16, true, true, 32),
     0x6F3E6B640A95142Full, 0x4ECDDE298B065DB8ull},
    // 63-bit signatures: the widest PinSketch field, GF(2^63).
    {"sig63", 2000, 20, 20, 40, Config(3, 16, true, false, 63),
     0xB7E07215E8DF8A30ull, 0x9C8E5721C6A3D247ull},
    // 64-bit signatures: checksums wrap at 2^64. pbs only: GF2m stops at
    // m = 63, so PinSketch/WP has no field for them.
    {"sig64", 2000, 20, 20, 40, Config(3, 16, true, false, 64),
     0xD9B484F0C383F691ull, 0},
    // Equal sets.
    {"equal", 2000, 0, 0, 1, Config(3, 16, true, false, 32),
     0xF84C3CF0D3F854A1ull, 0x652A8AB39027F2B8ull},
};

TEST(PayloadPin, PbsIsByteIdentical) {
  for (const PinCase& c : kCases) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(DigestExchange("pbs", c, threads), c.pbs_digest)
          << c.name << " decode_threads=" << threads;
    }
  }
}

TEST(PayloadPin, PinSketchWpIsByteIdentical) {
  for (const PinCase& c : kCases) {
    if (c.config.sig_bits > 63) continue;
    for (int threads : {1, 4}) {
      EXPECT_EQ(DigestExchange("pinsketch-wp", c, threads), c.wp_digest)
          << c.name << " decode_threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace pbs
