// Tug-of-War (ToW) set-difference cardinality estimator (Section 6).
//
// One ToW sketch of a set S under a 4-wise independent +/-1 hash f is
// Y_f(S) = sum_{s in S} f(s). For two sets, (Y_f(A) - Y_f(B))^2 is an
// unbiased estimator of d = |A /\triangle B| with variance 2d^2 - 2d
// (Appendix A); averaging ell independent sketches divides the variance by
// ell. PBS uses ell = 128 and conservatively inflates the estimate by
// gamma = 1.38, the smallest factor for which Pr[d <= gamma * d-hat] >= 99%.
//
// Wire size: each counter lies in [-|S|, |S|], so ell sketches cost
// ell * ceil(log2(2|S|+1)) bits -- 336 bytes for ell = 128, |S| = 10^6.

#ifndef PBS_ESTIMATOR_TOW_H_
#define PBS_ESTIMATOR_TOW_H_

#include <cstdint>
#include <vector>

#include "pbs/common/bitio.h"
#include "pbs/common/workspace.h"
#include "pbs/hash/fourwise.h"

namespace pbs {

/// A bank of ell ToW counters for one set.
class TowSketch {
 public:
  /// Builds ell sketches whose hash functions are derived from `seed`
  /// (both parties must use the same seed).
  TowSketch(int ell, uint64_t seed);

  /// Accumulates one element into every counter.
  void Add(uint64_t element) { AddAll(Span<const uint64_t>(&element, 1)); }

  /// Accumulates every element into every counter in one element-blocked
  /// pass of the lane-batched FourWiseBank kernel. Allocation-free.
  void AddAll(Span<const uint64_t> elements);

  int ell() const { return static_cast<int>(counters_.size()); }
  const std::vector<int64_t>& counters() const { return counters_; }

  /// The ToW estimate d-hat = (1/ell) * sum_i (Y_i(A) - Y_i(B))^2.
  /// Both sketches must share ell and seed.
  static double Estimate(const TowSketch& a, const TowSketch& b);

  /// Serializes counters at fixed width ceil(log2(2*set_size+1)) bits each
  /// (the space accounting of Section 6.1).
  void Serialize(BitWriter* writer, uint64_t set_size) const;
  static TowSketch Deserialize(BitReader* reader, int ell, uint64_t seed,
                               uint64_t set_size);

  /// Wire size in bits for a set of `set_size` elements.
  static int BitSize(int ell, uint64_t set_size);

 private:
  std::vector<int64_t> counters_;
  FourWiseBank hashes_;  // Counter i's hash function is hashes_ entry i.
};

/// One full estimate exchange between two in-memory sets: both sides
/// build ell sketches under the shared `seed`, and d-hat is computed from
/// the counter differences. `bytes` is the one-direction wire cost of
/// shipping the responder's sketches (the Section-6.1 accounting callers
/// such as pbs_cli and the examples report next to the protocol bytes).
struct TowExchange {
  double d_hat = 0.0;
  size_t bytes = 0;
};
TowExchange TowEstimateExchange(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b, int ell,
                                uint64_t seed);

/// Computes the ToW estimate directly from the symmetric difference.
/// Because common elements cancel in Y_i(A) - Y_i(B), the returned value is
/// distributed *identically* to Estimate(sketch(A), sketch(B)) -- the
/// experiment runner uses this O(ell * d) shortcut instead of the
/// O(ell * (|A|+|B|)) full pass when it already knows the ground-truth
/// difference, without changing any measured statistic.
double TowEstimateFromDifference(const std::vector<uint64_t>& sym_diff,
                                 int ell, uint64_t seed);

/// Inflation factor gamma such that Pr[d <= gamma * d-hat] >= 0.99 at
/// ell = 128 (determined by the paper via Monte-Carlo; re-validated in
/// bench_estimator_tow).
inline constexpr double kTowGamma = 1.38;
inline constexpr int kTowDefaultSketches = 128;

}  // namespace pbs

#endif  // PBS_ESTIMATOR_TOW_H_
