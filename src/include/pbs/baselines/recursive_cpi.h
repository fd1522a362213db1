// Recursive-partition reconciliation (Minsky & Trachtenberg [27]),
// the partition-based O(d) ECC scheme the paper contrasts with PBS in
// Section 7.
//
// The universe is recursively bisected by hash-prefix. Each active
// partition pair is reconciled by a fixed-capacity "BASIC-RECON" exact
// reconciler (here: a power-sum BCH sketch of capacity t-bar, the paper's
// stated analogue of PBS-for-small-d); when decoding fails the partition
// splits two ways and both halves retry in the next round. Starting from a
// single partition, a difference of d elements needs ~log2(d / t-bar)
// split generations, so the scheme completes in O(log d) rounds of
// message exchange -- "generally much larger than that in PBS", which is
// the claim bench_related_rounds quantifies.

#ifndef PBS_BASELINES_RECURSIVE_CPI_H_
#define PBS_BASELINES_RECURSIVE_CPI_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbs {

/// Outcome of one RecursiveCpiReconcile run.
struct BaselineOutcome {
  bool success = false;
  std::vector<uint64_t> difference;
  size_t data_bytes = 0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  int rounds = 1;
};

/// Reconciles a and b by recursive bisection with per-partition capacity
/// `t_bar` (the paper's small constant; 5 matches PBS's delta).
/// `max_rounds` caps the recursion depth in rounds.
BaselineOutcome RecursiveCpiReconcile(const std::vector<uint64_t>& a,
                                      const std::vector<uint64_t>& b,
                                      int t_bar, int sig_bits, int max_rounds,
                                      uint64_t seed);

}  // namespace pbs

#endif  // PBS_BASELINES_RECURSIVE_CPI_H_
