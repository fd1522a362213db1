// Four-wise independent hashing onto {+1, -1} for the Tug-of-War estimator.
//
// Section 6.1 requires a family F of four-wise independent hash functions
// mapping U to {+1, -1} with equal probability (Fact 1 in Appendix A). The
// classic construction is a uniformly random degree-3 polynomial over a
// prime field: h(x) = a3 x^3 + a2 x^2 + a1 x + a0 mod p with p = 2^61 - 1,
// mapped to +/-1 by a balanced predicate on the result.
//
// FourWiseHash evaluates one function at one key (the scalar reference).
// FourWiseBank holds many functions and sums their signs over a key set in
// one element-blocked pass: each key's x, x^2, x^3 mod p are computed once
// and shared by every function, and the AVX2 / AVX-512 bodies evaluate 4 or
// 8 functions per vector (docs/ARCHITECTURE.md §5.4). Every body is exact
// mod p, so all of them agree with FourWiseHash::Sign bit for bit.

#ifndef PBS_HASH_FOURWISE_H_
#define PBS_HASH_FOURWISE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pbs/common/workspace.h"

namespace pbs {

/// Degree-3 polynomial hash over GF(p), p = 2^61 - 1 (Mersenne), giving a
/// 4-wise independent family. Sign() maps the field value to +/-1.
class FourWiseHash {
 public:
  static constexpr uint64_t kPrime = (uint64_t{1} << 61) - 1;

  /// Coefficients are derived deterministically from `seed`; drawing seeds
  /// independently yields independent family members.
  explicit FourWiseHash(uint64_t seed);

  /// The polynomial value in [0, p), by Horner's rule.
  uint64_t Eval(uint64_t x) const {
    const uint64_t xm = Reduce(x);
    uint64_t acc = a_[3];
    acc = AddMod(MulMod(acc, xm), a_[2]);
    acc = AddMod(MulMod(acc, xm), a_[1]);
    acc = AddMod(MulMod(acc, xm), a_[0]);
    return acc;
  }

  /// Balanced +/-1 map: parity of the low bit of Eval. Because the field
  /// size is odd, the bias is < 2^-60 and irrelevant in practice.
  int Sign(uint64_t x) const { return (Eval(x) & 1) ? 1 : -1; }

  /// Coefficient a_k (k in [0, 4)) of x^k, in [0, p).
  uint64_t coeff(int k) const { return a_[k]; }

  /// x mod p by Mersenne folding (2^61 = 1 mod p), no division.
  static uint64_t Reduce(uint64_t x) {
    const uint64_t s = (x & kPrime) + (x >> 61);  // < 2^61 + 8 < 2p.
    return s >= kPrime ? s - kPrime : s;
  }

  /// (a * b) mod p for a, b in [0, p).
  static uint64_t MulMod(uint64_t a, uint64_t b) {
    const __uint128_t prod = static_cast<__uint128_t>(a) * b;
    // Both halves are <= p, and both equal to p would need p | a*b: s < 2p.
    const uint64_t s = (static_cast<uint64_t>(prod) & kPrime) +
                       static_cast<uint64_t>(prod >> 61);
    return s >= kPrime ? s - kPrime : s;
  }

  /// (a + b) mod p for a, b in [0, p).
  static uint64_t AddMod(uint64_t a, uint64_t b) {
    const uint64_t s = a + b;
    return s >= kPrime ? s - kPrime : s;
  }

 private:
  uint64_t a_[4];  // a_[k] multiplies x^k.
};

/// The bodies FourWiseBank::AddSignsWith can run.
enum class FourWiseKernel { kPortable, kAvx2, kAvx512 };

/// `size()` FourWiseHash functions with their coefficients stored by
/// power (structure of arrays), so one key's powers meet consecutive
/// functions' coefficients in adjacent lanes.
class FourWiseBank {
 public:
  /// Keys per block: the block's powers (x, x^2, x^3 and their split
  /// halves) live on the stack and stay in L1 while every function
  /// reads them.
  static constexpr size_t kBlock = 256;

  /// Function j is FourWiseHash(s_j), s_j the j-th SplitMix64(seed) draw.
  FourWiseBank(size_t count, uint64_t seed);

  size_t size() const { return coeffs_.size() / 4; }

  /// sums[j] += sum over x in `xs` of FourWiseHash(s_j).Sign(x), for every
  /// j < size(). Dispatches AVX-512 -> AVX2 -> portable once per process
  /// (PBS_DISABLE_SIMD leaves only the portable body). Allocation-free.
  void AddSigns(Span<const uint64_t> xs, int64_t* sums) const;

  /// AddSigns on a chosen body. Returns false, leaving `sums` untouched,
  /// when that body is not compiled in or the CPU cannot run it.
  bool AddSignsWith(FourWiseKernel kernel, Span<const uint64_t> xs,
                    int64_t* sums) const;

  /// Whether AddSignsWith(kernel, ...) runs on this build and CPU.
  static bool Available(FourWiseKernel kernel);

 private:
  std::vector<uint64_t> coeffs_;  // [k * size() + j]: x^k's in hash j.
};

}  // namespace pbs

#endif  // PBS_HASH_FOURWISE_H_
