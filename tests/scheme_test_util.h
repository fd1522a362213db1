// Shared helpers for tests that run registered schemes in-process through
// SetReconciler::Reconcile, or drive the PBS engines by hand.

#ifndef PBS_TESTS_SCHEME_TEST_UTIL_H_
#define PBS_TESTS_SCHEME_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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

/// The pbs scheme's two engines sized for exactly `d_used` (gamma = 1,
/// sig_bits taken from `config`), for tests that drive -- or tamper with --
/// the exchange by hand.
struct PbsEngines {
  std::unique_ptr<ReconcileInitiator> alice;
  std::unique_ptr<ReconcileResponder> bob;
};

inline PbsEngines MakePbsEngines(std::vector<uint64_t> a,
                                 std::vector<uint64_t> b,
                                 const PbsConfig& config, uint64_t seed,
                                 int d_used) {
  SchemeOptions options;
  options.pbs = config;
  options.pbs.gamma = 1.0;
  options.sig_bits = config.sig_bits;
  const auto pbs = SchemeRegistry::Instance().Create("pbs", options);
  const double d_hat = static_cast<double>(d_used);
  return {pbs->CreateInitiator(std::move(a), d_hat, seed),
          pbs->CreateResponder(std::move(b), d_hat, seed)};
}

/// Rewrites Bob's reply to `request` before Alice sees it.
using ReplyTamper = std::function<void(const std::vector<uint8_t>& request,
                                       std::vector<uint8_t>* reply)>;

/// One request -> reply -> HandleReply exchange. False if either side
/// rejected its payload.
inline bool Exchange(PbsEngines& e, const ReplyTamper& tamper = nullptr) {
  std::vector<uint8_t> request, reply;
  e.alice->NextRequest(&request);
  if (!e.bob->HandleRequest(request, &reply)) return false;
  if (tamper) tamper(request, &reply);
  return e.alice->HandleReply(reply);
}

/// Exchanges until Alice is done. False as soon as a payload is rejected.
inline bool RunExchanges(PbsEngines& e, const ReplyTamper& tamper = nullptr) {
  while (!e.alice->done()) {
    if (!Exchange(e, tamper)) return false;
  }
  return true;
}

}  // namespace pbs::test

#endif  // PBS_TESTS_SCHEME_TEST_UTIL_H_
