#include "pbs/hash/xxhash64.h"

#include <cstring>

#include "pbs/common/cpu_features.h"

// The batched-u64 AVX2 kernel is compiled with a per-function target
// attribute (no global -mavx2 needed) and only called after cpu::HasAvx2()
// confirmed the instructions exist. PBS_DISABLE_SIMD (CMake:
// -DPBS_DISABLE_SIMD=ON) compiles it out, leaving the portable multi-chain
// path as the only one -- the CI leg that keeps the fallback honest.
// AArch64 has no 64-bit lane multiply, so NEON uses the same multi-chain
// scalar path (four independent dependency chains feed the OOO core).
#if !defined(PBS_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define PBS_HAVE_AVX2_HASH_KERNEL 1
// The 512-bit kernel additionally wants AVX-512DQ's vpmullq (a true
// 64-bit lane multiply -- the operation the AVX2 path has to emulate with
// three 32x32 products) and F's vprolq lane rotate. Same source file,
// per-function target attributes; engaged only after cpu::HasAvx512().
#define PBS_HAVE_AVX512_HASH_KERNEL 1
#endif

namespace pbs {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Read64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // Little-endian hosts only; asserted in tests.
}

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl64(acc, 31);
  acc *= kPrime1;
  return acc;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  val = Round(0, val);
  acc ^= val;
  acc = acc * kPrime1 + kPrime4;
  return acc;
}

inline uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* end = p + len;
  uint64_t h;

  if (len >= 32) {
    const uint8_t* limit = end - 32;
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= limit);

    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<uint64_t>(len);

  while (p + 8 <= end) {
    uint64_t k1 = Round(0, Read64(p));
    h ^= k1;
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= (*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }

  return Avalanche(h);
}

namespace {

// The full 8-byte-input pipeline of XxHash64 above, specialized so the
// batch kernels (and the u64 convenience overload) skip the generic
// length dispatch: h starts at seed + kPrime5 + len, absorbs the single
// 8-byte lane, and avalanches. Bit-identical to XxHash64(&v, 8, seed).
inline uint64_t HashU64(uint64_t value, uint64_t seed) {
  uint64_t h = seed + kPrime5 + 8;
  h ^= Round(0, value);
  h = Rotl64(h, 27) * kPrime1 + kPrime4;
  return Avalanche(h);
}

}  // namespace

uint64_t XxHash64(uint64_t value, uint64_t seed) { return HashU64(value, seed); }

void XxHash64BatchPortable(const uint64_t* values, size_t count, uint64_t seed,
                           uint64_t* out) {
  // Four independent chains per iteration: one u64 hash is a serial string
  // of five multiplies, so interleaving lets the OOO core overlap their
  // latencies even without SIMD.
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const uint64_t h0 = HashU64(values[i], seed);
    const uint64_t h1 = HashU64(values[i + 1], seed);
    const uint64_t h2 = HashU64(values[i + 2], seed);
    const uint64_t h3 = HashU64(values[i + 3], seed);
    out[i] = h0;
    out[i + 1] = h1;
    out[i + 2] = h2;
    out[i + 3] = h3;
  }
  for (; i < count; ++i) out[i] = HashU64(values[i], seed);
}

void XxHash64BucketBatchPortable(const uint64_t* values, size_t count,
                                 uint64_t seed, uint64_t buckets,
                                 uint64_t bias, uint64_t* out) {
  XxHash64BatchPortable(values, count, seed, out);
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<uint64_t>(
                 (static_cast<__uint128_t>(out[i]) * buckets) >> 64) +
             bias;
  }
}

void XxHash64BatchPortable(const uint64_t* values, const uint64_t* seeds,
                           size_t count, uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const uint64_t h0 = HashU64(values[i], seeds[i]);
    const uint64_t h1 = HashU64(values[i + 1], seeds[i + 1]);
    const uint64_t h2 = HashU64(values[i + 2], seeds[i + 2]);
    const uint64_t h3 = HashU64(values[i + 3], seeds[i + 3]);
    out[i] = h0;
    out[i + 1] = h1;
    out[i + 2] = h2;
    out[i + 3] = h3;
  }
  for (; i < count; ++i) out[i] = HashU64(values[i], seeds[i]);
}

#if defined(PBS_HAVE_AVX2_HASH_KERNEL)

namespace {

// 64x64 -> low-64 lane multiply (AVX2 has no vpmullq): three 32x32->64
// partial products per lane. The cross terms may wrap mod 2^64 before the
// shift; only their low 32 bits survive it, so the sum is still exact.
__attribute__((target("avx2"))) inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i Rotl64V(__m256i x, int r) {
  return _mm256_or_si256(_mm256_slli_epi64(x, r), _mm256_srli_epi64(x, 64 - r));
}

// Four u64 hashes in lanes, given the per-lane seeds: the exact HashU64
// pipeline, lane-parallel.
__attribute__((target("avx2"))) inline __m256i HashU64X4(__m256i v,
                                                         __m256i seed) {
  const __m256i p1 = _mm256_set1_epi64x(static_cast<long long>(kPrime1));
  const __m256i p2 = _mm256_set1_epi64x(static_cast<long long>(kPrime2));
  const __m256i p3 = _mm256_set1_epi64x(static_cast<long long>(kPrime3));
  const __m256i p4 = _mm256_set1_epi64x(static_cast<long long>(kPrime4));
  const __m256i p5_len =
      _mm256_set1_epi64x(static_cast<long long>(kPrime5 + 8));
  __m256i h = _mm256_add_epi64(seed, p5_len);
  const __m256i k1 = MulLo64(Rotl64V(MulLo64(v, p2), 31), p1);
  h = _mm256_xor_si256(h, k1);
  h = _mm256_add_epi64(MulLo64(Rotl64V(h, 27), p1), p4);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
  h = MulLo64(h, p2);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
  h = MulLo64(h, p3);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
  return h;
}

__attribute__((target("avx2"))) void BatchAvx2(const uint64_t* values,
                                               size_t count, uint64_t seed,
                                               uint64_t* out) {
  const __m256i seedv = _mm256_set1_epi64x(static_cast<long long>(seed));
  size_t i = 0;
  // Two vectors in flight per iteration: eight hashes whose multiply
  // chains interleave, hiding the 3-instruction MulLo64 latency.
  for (; i + 8 <= count; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 4));
    const __m256i ha = HashU64X4(va, seedv);
    const __m256i hb = HashU64X4(vb, seedv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), ha);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), hb);
  }
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        HashU64X4(v, seedv));
  }
  for (; i < count; ++i) out[i] = HashU64(values[i], seed);
}

// Fixed-point bucket reduce on hashed lanes: ((h * n) >> 64) + bias for
// n < 2^32. With n_hi = 0 the 128-bit product's high word collapses to
// (h_hi*n + (h_lo*n >> 32)) >> 32 -- two 32x32 lane multiplies, no
// overflow (h_hi*n <= (2^32-1)^2 leaves room for the carry term).
__attribute__((target("avx2"))) inline __m256i BucketReduce(__m256i h,
                                                            __m256i nv,
                                                            __m256i biasv) {
  const __m256i t1 = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), nv);
  const __m256i t0 = _mm256_mul_epu32(h, nv);
  const __m256i s = _mm256_add_epi64(t1, _mm256_srli_epi64(t0, 32));
  return _mm256_add_epi64(_mm256_srli_epi64(s, 32), biasv);
}

__attribute__((target("avx2"))) void BucketBatchAvx2(const uint64_t* values,
                                                     size_t count,
                                                     uint64_t seed,
                                                     uint64_t buckets,
                                                     uint64_t bias,
                                                     uint64_t* out) {
  const __m256i seedv = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i nv = _mm256_set1_epi64x(static_cast<long long>(buckets));
  const __m256i biasv = _mm256_set1_epi64x(static_cast<long long>(bias));
  size_t i = 0;
  // Four vectors (sixteen hashes) in flight: each lane's five-multiply
  // dependency chain is long, so deep interleave is what actually buys
  // throughput over the scalar four-chain fallback.
  for (; i + 16 <= count; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 4));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 8));
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 12));
    const __m256i ha = HashU64X4(va, seedv);
    const __m256i hb = HashU64X4(vb, seedv);
    const __m256i hc = HashU64X4(vc, seedv);
    const __m256i hd = HashU64X4(vd, seedv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        BucketReduce(ha, nv, biasv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        BucketReduce(hb, nv, biasv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8),
                        BucketReduce(hc, nv, biasv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 12),
                        BucketReduce(hd, nv, biasv));
  }
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        BucketReduce(HashU64X4(v, seedv), nv, biasv));
  }
  for (; i < count; ++i) {
    out[i] = static_cast<uint64_t>((static_cast<__uint128_t>(HashU64(
                                        values[i], seed)) *
                                    buckets) >>
                                   64) +
             bias;
  }
}

__attribute__((target("avx2"))) void BatchAvx2Seeds(const uint64_t* values,
                                                    const uint64_t* seeds,
                                                    size_t count,
                                                    uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seeds + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), HashU64X4(v, s));
  }
  for (; i < count; ++i) out[i] = HashU64(values[i], seeds[i]);
}

#if defined(PBS_HAVE_AVX512_HASH_KERNEL)

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_epi32() as the unused
// merge source, and its self-initialisation (`__m512i __Y = __Y;`) is
// reported as an uninitialised read at every inlined call site (the same
// false positive hash/fourwise.cc silences).
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// Eight u64 hashes in zmm lanes: the exact HashU64 pipeline. vpmullq and
// vprolq make each hash five 1-op multiplies plus two 1-op rotates --
// the serial-multiply chain that caps the AVX2 kernel at roughly scalar
// speed runs at full lane width here.
__attribute__((target("avx512f,avx512dq"))) inline __m512i HashU64X8(
    __m512i v, __m512i seed) {
  const __m512i p1 = _mm512_set1_epi64(static_cast<long long>(kPrime1));
  const __m512i p2 = _mm512_set1_epi64(static_cast<long long>(kPrime2));
  const __m512i p3 = _mm512_set1_epi64(static_cast<long long>(kPrime3));
  const __m512i p4 = _mm512_set1_epi64(static_cast<long long>(kPrime4));
  const __m512i p5_len =
      _mm512_set1_epi64(static_cast<long long>(kPrime5 + 8));
  __m512i h = _mm512_add_epi64(seed, p5_len);
  const __m512i k1 = _mm512_mullo_epi64(
      _mm512_rol_epi64(_mm512_mullo_epi64(v, p2), 31), p1);
  h = _mm512_xor_si512(h, k1);
  h = _mm512_add_epi64(_mm512_mullo_epi64(_mm512_rol_epi64(h, 27), p1), p4);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
  h = _mm512_mullo_epi64(h, p2);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 29));
  h = _mm512_mullo_epi64(h, p3);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 32));
  return h;
}

// ((h * n) >> 64) + bias for n < 2^32, in zmm lanes (see BucketReduce).
__attribute__((target("avx512f,avx512dq"))) inline __m512i BucketReduce512(
    __m512i h, __m512i nv, __m512i biasv) {
  const __m512i t1 = _mm512_mul_epu32(_mm512_srli_epi64(h, 32), nv);
  const __m512i t0 = _mm512_mul_epu32(h, nv);
  const __m512i s = _mm512_add_epi64(t1, _mm512_srli_epi64(t0, 32));
  return _mm512_add_epi64(_mm512_srli_epi64(s, 32), biasv);
}

__attribute__((target("avx512f,avx512dq"))) void BatchAvx512(
    const uint64_t* values, size_t count, uint64_t seed, uint64_t* out) {
  const __m512i seedv = _mm512_set1_epi64(static_cast<long long>(seed));
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i va = _mm512_loadu_si512(values + i);
    const __m512i vb = _mm512_loadu_si512(values + i + 8);
    const __m512i ha = HashU64X8(va, seedv);
    const __m512i hb = HashU64X8(vb, seedv);
    _mm512_storeu_si512(out + i, ha);
    _mm512_storeu_si512(out + i + 8, hb);
  }
  for (; i + 8 <= count; i += 8) {
    _mm512_storeu_si512(out + i,
                        HashU64X8(_mm512_loadu_si512(values + i), seedv));
  }
  for (; i < count; ++i) out[i] = HashU64(values[i], seed);
}

__attribute__((target("avx512f,avx512dq"))) void BucketBatchAvx512(
    const uint64_t* values, size_t count, uint64_t seed, uint64_t buckets,
    uint64_t bias, uint64_t* out) {
  const __m512i seedv = _mm512_set1_epi64(static_cast<long long>(seed));
  const __m512i nv = _mm512_set1_epi64(static_cast<long long>(buckets));
  const __m512i biasv = _mm512_set1_epi64(static_cast<long long>(bias));
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i va = _mm512_loadu_si512(values + i);
    const __m512i vb = _mm512_loadu_si512(values + i + 8);
    const __m512i ha = HashU64X8(va, seedv);
    const __m512i hb = HashU64X8(vb, seedv);
    _mm512_storeu_si512(out + i, BucketReduce512(ha, nv, biasv));
    _mm512_storeu_si512(out + i + 8, BucketReduce512(hb, nv, biasv));
  }
  for (; i + 8 <= count; i += 8) {
    const __m512i h = HashU64X8(_mm512_loadu_si512(values + i), seedv);
    _mm512_storeu_si512(out + i, BucketReduce512(h, nv, biasv));
  }
  for (; i < count; ++i) {
    out[i] = static_cast<uint64_t>((static_cast<__uint128_t>(HashU64(
                                        values[i], seed)) *
                                    buckets) >>
                                   64) +
             bias;
  }
}

__attribute__((target("avx512f,avx512dq"))) void BatchAvx512Seeds(
    const uint64_t* values, const uint64_t* seeds, size_t count,
    uint64_t* out) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512i v = _mm512_loadu_si512(values + i);
    const __m512i s = _mm512_loadu_si512(seeds + i);
    _mm512_storeu_si512(out + i, HashU64X8(v, s));
  }
  for (; i < count; ++i) out[i] = HashU64(values[i], seeds[i]);
}

#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PBS_HAVE_AVX512_HASH_KERNEL

}  // namespace

#endif  // PBS_HAVE_AVX2_HASH_KERNEL

void XxHash64Batch(const uint64_t* values, size_t count, uint64_t seed,
                   uint64_t* out) {
#if defined(PBS_HAVE_AVX512_HASH_KERNEL)
  static const bool use_512 = cpu::HasAvx512();
  if (use_512) {
    BatchAvx512(values, count, seed, out);
    return;
  }
#endif
#if defined(PBS_HAVE_AVX2_HASH_KERNEL)
  static const bool use_hw = cpu::HasAvx2();
  if (use_hw) {
    BatchAvx2(values, count, seed, out);
    return;
  }
#endif
  XxHash64BatchPortable(values, count, seed, out);
}

void XxHash64BucketBatch(const uint64_t* values, size_t count, uint64_t seed,
                         uint64_t buckets, uint64_t bias, uint64_t* out) {
  const bool small_buckets = buckets - 1 < 0xFFFFFFFFull;  // 0 < b < 2^32.
#if defined(PBS_HAVE_AVX512_HASH_KERNEL)
  static const bool use_512 = cpu::HasAvx512();
  if (use_512 && small_buckets) {
    BucketBatchAvx512(values, count, seed, buckets, bias, out);
    return;
  }
#endif
#if defined(PBS_HAVE_AVX2_HASH_KERNEL)
  static const bool use_hw = cpu::HasAvx2();
  if (use_hw && small_buckets) {
    BucketBatchAvx2(values, count, seed, buckets, bias, out);
    return;
  }
#endif
  (void)small_buckets;
  XxHash64BucketBatchPortable(values, count, seed, buckets, bias, out);
}

void XxHash64Batch(const uint64_t* values, const uint64_t* seeds, size_t count,
                   uint64_t* out) {
#if defined(PBS_HAVE_AVX512_HASH_KERNEL)
  static const bool use_512 = cpu::HasAvx512();
  if (use_512) {
    BatchAvx512Seeds(values, seeds, count, out);
    return;
  }
#endif
#if defined(PBS_HAVE_AVX2_HASH_KERNEL)
  static const bool use_hw = cpu::HasAvx2();
  if (use_hw) {
    BatchAvx2Seeds(values, seeds, count, out);
    return;
  }
#endif
  XxHash64BatchPortable(values, seeds, count, out);
}

}  // namespace pbs
