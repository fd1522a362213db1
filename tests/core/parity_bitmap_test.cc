#include "pbs/core/parity_bitmap.h"

#include <gtest/gtest.h>

#include <set>

#include "pbs/common/rng.h"

namespace pbs {
namespace {

TEST(ParityBitmap, EmptyGroupAllZero) {
  SaltedHash h(1);
  auto pb = ParityBitmap::Build(std::vector<uint64_t>{}, h, 63);
  for (int i = 1; i <= 63; ++i) {
    EXPECT_EQ(pb.parity[i], 0);
    EXPECT_EQ(pb.xor_sum[i], 0u);
  }
}

TEST(ParityBitmap, BinIndicesInRange) {
  SaltedHash h(7);
  Xoshiro256 rng(2);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t bin = BinIndex(rng.Next(), h, 127);
    EXPECT_GE(bin, 1u);
    EXPECT_LE(bin, 127u);
  }
}

TEST(ParityBitmap, XorSumAndParityConsistent) {
  SaltedHash h(3);
  Xoshiro256 rng(4);
  std::vector<uint64_t> elements;
  for (int i = 0; i < 500; ++i) elements.push_back(rng.Next() | 1);
  auto pb = ParityBitmap::Build(elements, h, 127);

  // Recompute independently.
  std::vector<uint64_t> xor_sum(128, 0);
  std::vector<int> count(128, 0);
  for (uint64_t e : elements) {
    const uint64_t b = BinIndex(e, h, 127);
    xor_sum[b] ^= e;
    ++count[b];
  }
  for (int i = 1; i <= 127; ++i) {
    EXPECT_EQ(pb.xor_sum[i], xor_sum[i]);
    EXPECT_EQ(pb.parity[i], count[i] % 2);
  }
}

TEST(ParityBitmap, SketchOfDifferenceDecodesToDifferingBins) {
  // The heart of Procedure 2: sketch(A-bitmap) merged with sketch(B-bitmap)
  // decodes to exactly the bins whose parities differ.
  const int n = 127;
  GF2m field(7);
  SaltedHash h(11);
  Xoshiro256 rng(6);

  std::vector<uint64_t> common, a_extra;
  for (int i = 0; i < 300; ++i) common.push_back(rng.Next() | 1);
  for (int i = 0; i < 4; ++i) a_extra.push_back(rng.Next() | 1);

  std::vector<uint64_t> a = common;
  a.insert(a.end(), a_extra.begin(), a_extra.end());
  auto pa = ParityBitmap::Build(a, h, n);
  auto pb = ParityBitmap::Build(common, h, n);

  std::set<uint64_t> differing;
  for (int i = 1; i <= n; ++i) {
    if (pa.parity[i] != pb.parity[i]) differing.insert(i);
  }

  PowerSumSketch sa = pa.ToSketch(field, 13);
  sa.Merge(pb.ToSketch(field, 13));
  auto decoded = sa.Decode();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::set<uint64_t>(decoded->begin(), decoded->end()), differing);
}

TEST(ParityBitmap, DoubleInsertCancelsParity) {
  SaltedHash h(13);
  std::vector<uint64_t> elements = {42, 42};
  auto pb = ParityBitmap::Build(elements, h, 63);
  for (int i = 1; i <= 63; ++i) {
    EXPECT_EQ(pb.parity[i], 0);
    EXPECT_EQ(pb.xor_sum[i], 0u);
  }
}

}  // namespace
}  // namespace pbs
