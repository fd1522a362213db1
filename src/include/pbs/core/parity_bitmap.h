// Hash-partitioning of a group into n bins and its parity-bitmap encoding
// (Section 2.2.1).
//
// Bin indices run 1..n so that, with n = 2^m - 1, every index is a nonzero
// element of GF(2^m) and the parity bitmap's BCH sketch (power_sum_sketch.h)
// can treat odd-parity bins directly as field elements.
//
// The build path hashes elements through the lane-batched xxHash64 kernel
// (hash/xxhash64.h) in kXxHashBatch-sized blocks, and the bitmap-wide
// operations (odd-bin scan, XOR fold, equality) have 32-byte-wide AVX2
// forms in core/parity_bitmap.cc under the common/cpu_features dispatch
// pattern. Every vectorized form is bit-identical to its *Scalar reference,
// pinned by tests/core/parity_bitmap_simd_test.cc.

#ifndef PBS_CORE_PARITY_BITMAP_H_
#define PBS_CORE_PARITY_BITMAP_H_

#include <cstdint>
#include <vector>

#include "pbs/bch/power_sum_sketch.h"
#include "pbs/hash/hash_family.h"

namespace pbs {

/// Bin index of `x` under hash `h`: a value in [1, n].
inline uint64_t BinIndex(uint64_t x, const SaltedHash& h, int n) {
  return h.Bucket(x, static_cast<uint64_t>(n)) + 1;
}

/// Batch form of BinIndex: `out[i] = BinIndex(xs[i], h, n)` for `count`
/// elements through the lane-batched hash kernel (out may alias xs).
inline void BinIndexMany(const uint64_t* xs, size_t count, const SaltedHash& h,
                         int n, uint64_t* out) {
  // Fused hash + bucket reduce + 1-bias, all in vector registers.
  XxHash64BucketBatch(xs, count, h.salt(), static_cast<uint64_t>(n),
                      /*bias=*/1, out);
}

/// Per-element-salt batch form: `out[i] = BinIndex(xs[i], SaltedHash(
/// salts[i]), n)`. Used where consecutive elements land in different groups
/// (element_store layout rebuild), so each lane hashes under its own
/// group's bin salt.
inline void BinIndexManySalted(const uint64_t* xs, const uint64_t* salts,
                               size_t count, int n, uint64_t* out) {
  XxHash64Batch(xs, salts, count, out);
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<uint64_t>((static_cast<__uint128_t>(out[i]) *
                                    static_cast<uint64_t>(n)) >>
                                   64) +
             1;
  }
}

/// One group's elements scattered into n bins: per-bin XOR sums (the
/// Procedure-1 "XOR sum" s_B of each subset) and per-bin parities (the
/// parity bitmap A[1..n]).
struct ParityBitmap {
  int n = 0;
  std::vector<uint64_t> xor_sum;  ///< Index 0 unused; 1..n valid.
  std::vector<uint8_t> parity;    ///< Cardinality parity per bin.

  /// Stack-block size for BuildInto's hash batches: large enough to
  /// amortize the batched kernel's per-call setup (constant broadcasts,
  /// dispatch) to noise, small enough to live on the stack (at most 2 KiB
  /// of scratch). Measured flat from 128 upward on AVX-512 hardware.
  static constexpr size_t kBuildBlock = 128;

  /// Bins `count` contiguous elements into `*pb`, reusing its capacity:
  /// hashes straight from `elements` in kBuildBlock-sized chunks (no
  /// staging copy), bins into the stack scratch, scatters. Bit-identical
  /// to BuildIntoScalar.
  static void BuildInto(const uint64_t* elements, size_t count,
                        const SaltedHash& h, int n, ParityBitmap* pb) {
    pb->n = n;
    pb->xor_sum.assign(n + 1, 0);
    pb->parity.assign(n + 1, 0);
    uint64_t bins[kBuildBlock];
    for (size_t base = 0; base < count; base += kBuildBlock) {
      const size_t blk =
          count - base < kBuildBlock ? count - base : kBuildBlock;
      BinIndexMany(elements + base, blk, h, n, bins);
      Scatter(pb, elements + base, bins, blk);
    }
  }

  static void BuildInto(const std::vector<uint64_t>& elements,
                        const SaltedHash& h, int n, ParityBitmap* pb) {
    BuildInto(elements.data(), elements.size(), h, n, pb);
  }

  /// Element-at-a-time reference for BuildInto (scalar hash per element);
  /// the differential tests pin the batched build against this.
  template <typename Container>
  static void BuildIntoScalar(const Container& elements, const SaltedHash& h,
                              int n, ParityBitmap* pb) {
    pb->n = n;
    pb->xor_sum.assign(n + 1, 0);
    pb->parity.assign(n + 1, 0);
    for (uint64_t e : elements) {
      const uint64_t bin = BinIndex(e, h, n);
      pb->xor_sum[bin] ^= e;
      pb->parity[bin] ^= 1;
    }
  }

  /// Bins `elements` under `h` into a fresh bitmap.
  static ParityBitmap Build(const std::vector<uint64_t>& elements,
                            const SaltedHash& h, int n) {
    ParityBitmap pb;
    BuildInto(elements, h, n, &pb);
    return pb;
  }

  /// BCH sketch of the odd-parity bin set (the codeword xi of Procedure 2),
  /// written into `*sketch` (which must already have the target field and
  /// t; its previous contents are discarded). The odd-bin scan runs 32
  /// parity bytes per step under AVX2; bit-identical to ToSketchIntoScalar.
  void ToSketchInto(PowerSumSketch* sketch) const;

  /// Byte-at-a-time reference for ToSketchInto's odd-bin scan.
  void ToSketchIntoScalar(PowerSumSketch* sketch) const {
    sketch->Reset();
    for (int i = 1; i <= n; ++i) {
      if (parity[i]) sketch->Toggle(static_cast<uint64_t>(i));
    }
  }

  /// BCH sketch of the odd-parity bin set, freshly allocated.
  PowerSumSketch ToSketch(const GF2m& field, int t) const {
    PowerSumSketch sketch(field, t);
    ToSketchInto(&sketch);
    return sketch;
  }

  /// XOR-folds `other` into this bitmap (same n required): the result is
  /// the bitmap of the symmetric difference of the two underlying
  /// multisets -- parity and XOR sums are both linear. 32 bytes per step
  /// under AVX2; bit-identical to FoldXorScalar.
  void FoldXor(const ParityBitmap& other);

  /// Word-at-a-time reference for FoldXor.
  void FoldXorScalar(const ParityBitmap& other);

  /// True iff `other` has the same n, XOR sums, and parities. 32-byte-wide
  /// compare under AVX2; bit-identical to EqualsScalar.
  bool Equals(const ParityBitmap& other) const;

  /// Word-at-a-time reference for Equals.
  bool EqualsScalar(const ParityBitmap& other) const;

 private:
  // Binned-scatter policy: once the XOR-sum table outgrows L1, a
  // random-order scatter touches a fresh cache line for almost every
  // element. Bucketing each block's (element, bin) pairs by the bin's
  // top bits first -- a 16-way counting sort over at most kBuildBlock
  // pairs -- turns the scatter into 16 sweeps over compact, disjoint
  // regions of the table. XOR's commutativity makes any within-block
  // reorder bit-identical to the direct scatter (pinned against
  // BuildIntoScalar by tests/core/parity_bitmap_simd_test.cc).
  static constexpr int kScatterBuckets = 16;
  static constexpr int kScatterMinBins = 1 << 12;

  // The restrict-qualified locals matter: parity is uint8_t (which aliases
  // everything under C++ rules), so without them every parity store forces
  // the compiler to reload and re-order around the next xor_sum access,
  // serializing the scatter.
  static void ScatterDirect(ParityBitmap* pb,
                            const uint64_t* __restrict elements,
                            const uint64_t* __restrict bins, size_t count) {
    uint64_t* __restrict xs = pb->xor_sum.data();
    uint8_t* __restrict par = pb->parity.data();
    for (size_t i = 0; i < count; ++i) {
      xs[bins[i]] ^= elements[i];
      par[bins[i]] ^= 1;
    }
  }

  // `count` never exceeds kBuildBlock (every caller feeds block-sized
  // slices), so the permutation scratch lives on the stack.
  static void ScatterBinned(ParityBitmap* pb,
                            const uint64_t* __restrict elements,
                            const uint64_t* __restrict bins, size_t count) {
    int shift = 0;
    while ((static_cast<uint64_t>(pb->n) >> shift) >=
           static_cast<uint64_t>(kScatterBuckets)) {
      ++shift;
    }
    uint32_t offsets[kScatterBuckets] = {0};
    for (size_t i = 0; i < count; ++i) {
      ++offsets[bins[i] >> shift];
    }
    uint32_t run = 0;
    for (int b = 0; b < kScatterBuckets; ++b) {
      const uint32_t c = offsets[b];
      offsets[b] = run;
      run += c;
    }
    uint64_t elems_by_bucket[kBuildBlock];
    uint64_t bins_by_bucket[kBuildBlock];
    for (size_t i = 0; i < count; ++i) {
      const uint32_t slot = offsets[bins[i] >> shift]++;
      elems_by_bucket[slot] = elements[i];
      bins_by_bucket[slot] = bins[i];
    }
    ScatterDirect(pb, elems_by_bucket, bins_by_bucket, count);
  }

  static void Scatter(ParityBitmap* pb, const uint64_t* elements,
                      const uint64_t* bins, size_t count) {
    if (pb->n >= kScatterMinBins &&
        count > static_cast<size_t>(kScatterBuckets)) {
      ScatterBinned(pb, elements, bins, count);
    } else {
      ScatterDirect(pb, elements, bins, count);
    }
  }
};

}  // namespace pbs

#endif  // PBS_CORE_PARITY_BITMAP_H_
