// Shared helpers for tests that run registered schemes in-process through
// SetReconciler::Reconcile.

#ifndef PBS_TESTS_SCHEME_TEST_UTIL_H_
#define PBS_TESTS_SCHEME_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pbs/core/set_reconciler.h"

namespace pbs::test {

inline std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

inline bool Matches(std::vector<uint64_t> got, std::vector<uint64_t> want) {
  return Sorted(std::move(got)) == Sorted(std::move(want));
}

/// Runs `scheme` over (a, b) sized for exactly `d`: gamma = 1 turns the
/// scheme's inflation policy into the identity on an integer d-hat, so
/// `d` is PBS's d_used, PinSketch's t, D.Digest's and Graphene's d_est,
/// and PinSketch/WP's d_used.
inline ReconcileOutcome ReconcileKnownD(const std::string& scheme,
                                        const std::vector<uint64_t>& a,
                                        const std::vector<uint64_t>& b,
                                        int d, uint64_t seed,
                                        SchemeOptions options = {}) {
  options.pbs.gamma = 1.0;
  return SchemeRegistry::Instance()
      .Create(scheme, options)
      ->Reconcile(a, b, static_cast<double>(d), seed);
}

/// PBS with the given config, sized for exactly `d_used`.
inline ReconcileOutcome ReconcilePbs(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b,
                                     const PbsConfig& config, uint64_t seed,
                                     int d_used) {
  SchemeOptions options;
  options.pbs = config;
  return ReconcileKnownD("pbs", a, b, d_used, seed, options);
}

}  // namespace pbs::test

#endif  // PBS_TESTS_SCHEME_TEST_UTIL_H_
