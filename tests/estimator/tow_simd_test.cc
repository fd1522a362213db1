// Differential tests for the lane-batched Tug-of-War kernel: every
// FourWiseBank body (AVX-512, AVX2, portable) must produce exactly the sign
// sums of the per-element FourWiseHash::Sign loop. Function counts leave
// every lane tail (ell mod 8, ell mod 4), key counts straddle the block
// boundary, and the keys include the values around the field prime and
// 2^64 - 1, where the Mersenne fold and the final canonical step matter.
// Bodies the CPU cannot run are skipped per body, not per test.

#include <gtest/gtest.h>

#include <vector>

#include "pbs/common/rng.h"
#include "pbs/estimator/tow.h"
#include "pbs/hash/fourwise.h"

namespace pbs {
namespace {

constexpr uint64_t kP = FourWiseHash::kPrime;
constexpr size_t kBlock = FourWiseBank::kBlock;

// The first `n` keys: the edge keys, then random full-width keys.
std::vector<uint64_t> Keys(size_t n, uint64_t seed) {
  std::vector<uint64_t> keys = {0,     kP - 1,     kP,          kP + 1,
                                2 * kP, 2 * kP + 1, ~uint64_t{0}, 1};
  Xoshiro256 rng(seed);
  while (keys.size() < n) keys.push_back(rng.Next());
  keys.resize(n);
  return keys;
}

// sums[j] = sum of FourWiseHash(s_j).Sign(x), s_j the bank's seed draws.
std::vector<int64_t> ReferenceSums(size_t ell, uint64_t seed,
                                   const std::vector<uint64_t>& keys) {
  SplitMix64 seeds(seed);
  std::vector<int64_t> sums(ell, 0);
  for (auto& sum : sums) {
    const FourWiseHash h(seeds.Next());
    for (uint64_t x : keys) sum += h.Sign(x);
  }
  return sums;
}

const char* Name(FourWiseKernel kernel) {
  switch (kernel) {
    case FourWiseKernel::kPortable:
      return "portable";
    case FourWiseKernel::kAvx2:
      return "avx2";
    case FourWiseKernel::kAvx512:
      return "avx512";
  }
  return "?";
}

constexpr FourWiseKernel kKernels[] = {
    FourWiseKernel::kPortable, FourWiseKernel::kAvx2, FourWiseKernel::kAvx512};

TEST(TowSimdDiff, EveryBodyMatchesPerElementSignLoop) {
  uint64_t seed = 0x70575D1F;
  for (size_t ell : {1, 7, 8, 9, 128, 130}) {
    for (size_t n : {size_t{0}, size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                     size_t{10000}}) {
      ++seed;
      const std::vector<uint64_t> keys = Keys(n, seed);
      const std::vector<int64_t> want = ReferenceSums(ell, seed, keys);
      const FourWiseBank bank(ell, seed);
      for (FourWiseKernel kernel : kKernels) {
        std::vector<int64_t> got(ell, 0);
        if (!bank.AddSignsWith(kernel, keys, got.data())) {
          ASSERT_FALSE(FourWiseBank::Available(kernel));
          ASSERT_NE(kernel, FourWiseKernel::kPortable);
          continue;
        }
        ASSERT_EQ(got, want) << Name(kernel) << " ell=" << ell << " n=" << n;
      }
      std::vector<int64_t> dispatched(ell, 0);
      bank.AddSigns(keys, dispatched.data());
      ASSERT_EQ(dispatched, want) << "dispatched ell=" << ell << " n=" << n;
    }
  }
}

TEST(TowSimdDiff, SumsAccumulateAcrossCalls) {
  // AddSigns adds to the caller's sums: two halves equal one whole pass,
  // whatever block boundary the split falls on.
  const std::vector<uint64_t> keys = Keys(3 * kBlock + 5, 11);
  const FourWiseBank bank(130, 12);
  for (FourWiseKernel kernel : kKernels) {
    if (!FourWiseBank::Available(kernel)) continue;
    std::vector<int64_t> whole(130, 7), halves(130, 7);
    ASSERT_TRUE(bank.AddSignsWith(kernel, keys, whole.data()));
    const Span<const uint64_t> all(keys);
    ASSERT_TRUE(bank.AddSignsWith(kernel, all.first(kBlock + 3),
                                  halves.data()));
    ASSERT_TRUE(bank.AddSignsWith(
        kernel,
        Span<const uint64_t>(keys.data() + kBlock + 3,
                             keys.size() - kBlock - 3),
        halves.data()));
    EXPECT_EQ(whole, halves) << Name(kernel);
  }
}

TEST(TowSimdDiff, SketchCountersMatchRecordedValues) {
  // Counters recorded from the per-counter FourWiseHash loop the sketch ran
  // before the lane-batched kernel: the estimate's wire bytes depend on
  // them, so they may never move.
  TowSketch sketch(8, 2024);
  sketch.AddAll(Keys(1000, 3));
  const std::vector<int64_t> want = {18, -28, 4, -42, -56, -8, 2, 4};
  EXPECT_EQ(sketch.counters(), want);
}

}  // namespace
}  // namespace pbs
