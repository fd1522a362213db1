// SetReconciler for PBS itself: wraps the PbsAlice/PbsBob endpoint pair
// as the scheme's initiator/responder engines, applying the
// gamma-conservative estimate inflation of Section 6.2 and the Appendix
// J.3 wide-signature wire accounting.

#ifndef PBS_CORE_PBS_RECONCILER_H_
#define PBS_CORE_PBS_RECONCILER_H_

#include "pbs/core/set_reconciler.h"

namespace pbs {

class PbsReconciler : public SetReconciler {
 public:
  explicit PbsReconciler(const SchemeOptions& options);

  const char* name() const override { return "pbs"; }
  const char* display_name() const override { return "PBS"; }
  bool supports_rounds() const override { return true; }

  /// Engines wrapping PbsAlice / PbsBob (docs/WIRE_FORMAT.md, "pbs
  /// payloads"). The responder reports PbsBob's timers, so Reconcile()
  /// counts both endpoints' encode/decode time.
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;

  /// Snapshot fast path (core/element_store.h): shares the snapshot's
  /// element vector and hands PbsBob the pre-built layout; Bob adopts it
  /// when the session's (seed, sig_bits, plan shape) match and silently
  /// rebuilds otherwise. Returns nullptr only when the snapshot carries no
  /// layout at all (the engine then uses the plain CreateResponder path,
  /// which re-validates elements).
  std::unique_ptr<ReconcileResponder> CreateSnapshotResponder(
      std::shared_ptr<const StoreSnapshot> snapshot, double d_hat,
      uint64_t seed) const override;

 private:
  PbsConfig config_;       // options.pbs with sig_bits folded in.
  int report_sig_bits_ = 0;
};

}  // namespace pbs

#endif  // PBS_CORE_PBS_RECONCILER_H_
