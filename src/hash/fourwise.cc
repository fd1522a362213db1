#include "pbs/hash/fourwise.h"

#include <algorithm>

#include "pbs/common/cpu_features.h"
#include "pbs/common/rng.h"

// The AVX2 and AVX-512 bodies are compiled with per-function target
// attributes and only called after cpu::HasAvx2() / cpu::HasAvx512()
// confirmed the instructions exist. PBS_DISABLE_SIMD compiles them out,
// leaving the portable body as the only one.
#if !defined(PBS_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define PBS_HAVE_FOURWISE_SIMD 1
#endif

namespace pbs {

namespace {

constexpr uint64_t kP = FourWiseHash::kPrime;
constexpr size_t kBlock = FourWiseBank::kBlock;

// One block's key powers y_k = x^k mod p (k = 1, 2, 3), computed once and
// read by every function. The lane bodies multiply 32-bit halves, so each
// power is also kept split as y = hi * 2^31 + lo (lo < 2^31, hi < 2^30).
struct PowerBlock {
  uint64_t full[3][kBlock];
  uint64_t lo[3][kBlock];
  uint64_t hi[3][kBlock];
};

void FillPowers(const uint64_t* xs, size_t m, PowerBlock* pw) {
  for (size_t i = 0; i < m; ++i) {
    const uint64_t x1 = FourWiseHash::Reduce(xs[i]);
    const uint64_t x2 = FourWiseHash::MulMod(x1, x1);
    const uint64_t x3 = FourWiseHash::MulMod(x2, x1);
    const uint64_t y[3] = {x1, x2, x3};
    for (int k = 0; k < 3; ++k) {
      pw->full[k][i] = y[k];
      pw->lo[k][i] = y[k] & ((uint64_t{1} << 31) - 1);
      pw->hi[k][i] = y[k] >> 31;
    }
  }
}

// A group body: ones[l] = number of the block's first m keys on which
// function l of the group (coefficients c[k][l]) evaluates to an odd value.
using GroupBody = void (*)(const uint64_t* const c[4], const PowerBlock& pw,
                           size_t m, uint64_t* ones);

// One function per call. The three products are summed unreduced in 128
// bits (< 3 * 2^122 + 2^61 < 2^124) and folded once: u < 2^61 + 2^63, then
// t < 2^61 + 5 < 2p, so the canonical value is t, or t - p when t >= p.
void OddCountPortable(const uint64_t* const c[4], const PowerBlock& pw,
                      size_t m, uint64_t* ones) {
  const uint64_t a0 = c[0][0], a1 = c[1][0], a2 = c[2][0], a3 = c[3][0];
  uint64_t odd = 0;
  for (size_t i = 0; i < m; ++i) {
    const __uint128_t s = static_cast<__uint128_t>(a1) * pw.full[0][i] +
                          static_cast<__uint128_t>(a2) * pw.full[1][i] +
                          static_cast<__uint128_t>(a3) * pw.full[2][i] + a0;
    const uint64_t u = (static_cast<uint64_t>(s) & kP) +
                       static_cast<uint64_t>(s >> 61);
    const uint64_t t = (u & kP) + (u >> 61);
    // (t + 1) >> 61 is 1 exactly when t >= p; subtracting odd p flips bit 0.
    odd += (t ^ ((t + 1) >> 61)) & 1;
  }
  ones[0] = odd;
}

#if defined(PBS_HAVE_FOURWISE_SIMD)

// The lane bodies. Each lane holds one function; the key's split powers
// are broadcast. With coefficient c = ch * 2^31 + cl split like the powers,
//   c * y = ch*yh * 2^62 + (ch*yl + cl*yh) * 2^31 + cl*yl,
// four _mm*_mul_epu32 partials, and 2^62 = 2, 2^61 = 1 (mod p). Summed
// over the three powers, no lane sum can reach 2^64:
//   HH  = sum ch*yh            < 3 * 2^60   (each < 2^60)
//   MID = sum ch*yl + cl*yh    < 6 * 2^61   (six terms < 2^61)
//   LO  = sum cl*yl            < 3 * 2^62   (each < 2^62)
//   S   = 2*HH + (MID >> 30) + ((MID & (2^30-1)) << 31)
//         + (LO & p) + (LO >> 61) + a0
//       < 3*2^61 + 2^34 + 2^61 + 2^61 + 6 + 2^61 < 2^64,
// S = c1*y1 + c2*y2 + c3*y3 + a0 (mod p), then t = (S & p) + (S >> 61)
// < 2^61 + 7 < 2p is folded to canonical as in the portable body.

__attribute__((target("avx2"))) void OddCountsAvx2(const uint64_t* const c[4],
                                                   const PowerBlock& pw,
                                                   size_t m, uint64_t* ones) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kP));
  const __m256i m30 = _mm256_set1_epi64x((1ll << 30) - 1);
  const __m256i m31 = _mm256_set1_epi64x((1ll << 31) - 1);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i a0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c[0]));
  __m256i cl[3], ch[3];
  for (int k = 0; k < 3; ++k) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c[k + 1]));
    cl[k] = _mm256_and_si256(a, m31);
    ch[k] = _mm256_srli_epi64(a, 31);
  }
  __m256i odd = _mm256_setzero_si256();
  for (size_t i = 0; i < m; ++i) {
    __m256i hh = _mm256_setzero_si256();
    __m256i mid = _mm256_setzero_si256();
    __m256i lo = _mm256_setzero_si256();
    for (int k = 0; k < 3; ++k) {
      const __m256i yl =
          _mm256_set1_epi64x(static_cast<long long>(pw.lo[k][i]));
      const __m256i yh =
          _mm256_set1_epi64x(static_cast<long long>(pw.hi[k][i]));
      hh = _mm256_add_epi64(hh, _mm256_mul_epu32(ch[k], yh));
      mid = _mm256_add_epi64(mid, _mm256_mul_epu32(ch[k], yl));
      mid = _mm256_add_epi64(mid, _mm256_mul_epu32(cl[k], yh));
      lo = _mm256_add_epi64(lo, _mm256_mul_epu32(cl[k], yl));
    }
    __m256i s = _mm256_add_epi64(_mm256_add_epi64(hh, hh), a0);
    s = _mm256_add_epi64(s, _mm256_srli_epi64(mid, 30));
    s = _mm256_add_epi64(
        s, _mm256_slli_epi64(_mm256_and_si256(mid, m30), 31));
    s = _mm256_add_epi64(s, _mm256_and_si256(lo, p));
    s = _mm256_add_epi64(s, _mm256_srli_epi64(lo, 61));
    const __m256i t =
        _mm256_add_epi64(_mm256_and_si256(s, p), _mm256_srli_epi64(s, 61));
    const __m256i ge_p = _mm256_srli_epi64(_mm256_add_epi64(t, one), 61);
    odd = _mm256_add_epi64(
        odd, _mm256_and_si256(_mm256_xor_si256(t, ge_p), one));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(ones), odd);
}

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_epi32() as the unused
// merge source, and its self-initialisation (`__m512i __Y = __Y;`) is
// reported as an uninitialised read at every inlined call site.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
__attribute__((target("avx512f"))) void OddCountsAvx512(
    const uint64_t* const c[4], const PowerBlock& pw, size_t m,
    uint64_t* ones) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(kP));
  const __m512i m30 = _mm512_set1_epi64((1ll << 30) - 1);
  const __m512i m31 = _mm512_set1_epi64((1ll << 31) - 1);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i a0 = _mm512_loadu_si512(c[0]);
  __m512i cl[3], ch[3];
  for (int k = 0; k < 3; ++k) {
    const __m512i a = _mm512_loadu_si512(c[k + 1]);
    cl[k] = _mm512_and_si512(a, m31);
    ch[k] = _mm512_srli_epi64(a, 31);
  }
  __m512i odd = _mm512_setzero_si512();
  for (size_t i = 0; i < m; ++i) {
    __m512i hh = _mm512_setzero_si512();
    __m512i mid = _mm512_setzero_si512();
    __m512i lo = _mm512_setzero_si512();
    for (int k = 0; k < 3; ++k) {
      const __m512i yl = _mm512_set1_epi64(static_cast<long long>(pw.lo[k][i]));
      const __m512i yh = _mm512_set1_epi64(static_cast<long long>(pw.hi[k][i]));
      hh = _mm512_add_epi64(hh, _mm512_mul_epu32(ch[k], yh));
      mid = _mm512_add_epi64(mid, _mm512_mul_epu32(ch[k], yl));
      mid = _mm512_add_epi64(mid, _mm512_mul_epu32(cl[k], yh));
      lo = _mm512_add_epi64(lo, _mm512_mul_epu32(cl[k], yl));
    }
    __m512i s = _mm512_add_epi64(_mm512_add_epi64(hh, hh), a0);
    s = _mm512_add_epi64(s, _mm512_srli_epi64(mid, 30));
    s = _mm512_add_epi64(
        s, _mm512_slli_epi64(_mm512_and_si512(mid, m30), 31));
    s = _mm512_add_epi64(s, _mm512_and_si512(lo, p));
    s = _mm512_add_epi64(s, _mm512_srli_epi64(lo, 61));
    const __m512i t =
        _mm512_add_epi64(_mm512_and_si512(s, p), _mm512_srli_epi64(s, 61));
    const __m512i ge_p = _mm512_srli_epi64(_mm512_add_epi64(t, one), 61);
    odd = _mm512_add_epi64(
        odd, _mm512_and_si512(_mm512_xor_si512(t, ge_p), one));
  }
  _mm512_storeu_si512(ones, odd);
}
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PBS_HAVE_FOURWISE_SIMD

}  // namespace

FourWiseHash::FourWiseHash(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& a : a_) {
    // Rejection-sample a uniform value in [0, p).
    uint64_t v;
    do {
      v = sm.Next() & ((uint64_t{1} << 61) - 1);
    } while (v >= kPrime);
    a = v;
  }
}

FourWiseBank::FourWiseBank(size_t count, uint64_t seed)
    : coeffs_(4 * count) {
  SplitMix64 seeds(seed);
  for (size_t j = 0; j < count; ++j) {
    const FourWiseHash h(seeds.Next());
    for (int k = 0; k < 4; ++k) coeffs_[k * count + j] = h.coeff(k);
  }
}

bool FourWiseBank::Available(FourWiseKernel kernel) {
  switch (kernel) {
    case FourWiseKernel::kPortable:
      return true;
#if defined(PBS_HAVE_FOURWISE_SIMD)
    case FourWiseKernel::kAvx2:
      return cpu::HasAvx2();
    case FourWiseKernel::kAvx512:
      return cpu::HasAvx512();
#endif
    default:
      return false;
  }
}

void FourWiseBank::AddSigns(Span<const uint64_t> xs, int64_t* sums) const {
  const FourWiseKernel best =
      Available(FourWiseKernel::kAvx512) ? FourWiseKernel::kAvx512
      : Available(FourWiseKernel::kAvx2) ? FourWiseKernel::kAvx2
                                         : FourWiseKernel::kPortable;
  AddSignsWith(best, xs, sums);
}

bool FourWiseBank::AddSignsWith(FourWiseKernel kernel, Span<const uint64_t> xs,
                                int64_t* sums) const {
  if (!Available(kernel)) return false;
  GroupBody body = OddCountPortable;
  size_t lanes = 1;
#if defined(PBS_HAVE_FOURWISE_SIMD)
  if (kernel == FourWiseKernel::kAvx512) {
    body = OddCountsAvx512;
    lanes = 8;
  } else if (kernel == FourWiseKernel::kAvx2) {
    body = OddCountsAvx2;
    lanes = 4;
  }
#endif
  const size_t ell = size();
  PowerBlock pw;
  uint64_t ones[8];
  for (size_t base = 0; base < xs.size(); base += kBlock) {
    const size_t m = std::min(kBlock, xs.size() - base);
    FillPowers(xs.data() + base, m, &pw);
    // Whole lane groups, then the ell mod lanes tail one function at a time.
    for (size_t j = 0; j < ell;) {
      const size_t width = j + lanes <= ell ? lanes : 1;
      const uint64_t* const c[4] = {&coeffs_[j], &coeffs_[ell + j],
                                    &coeffs_[2 * ell + j],
                                    &coeffs_[3 * ell + j]};
      (width == lanes ? body : OddCountPortable)(c, pw, m, ones);
      // Sign sum over the block = (+1) * ones + (-1) * (m - ones).
      for (size_t l = 0; l < width; ++l) {
        sums[j + l] += 2 * static_cast<int64_t>(ones[l]) -
                       static_cast<int64_t>(m);
      }
      j += width;
    }
  }
  return true;
}

}  // namespace pbs
