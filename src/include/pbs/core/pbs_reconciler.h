// SetReconciler for PBS itself. Its initiator engine is the paper's Alice
// (learns the difference; applies the gamma-conservative estimate
// inflation of Section 6.2 and the Appendix J.3 wide-signature wire
// accounting), its responder engine is Bob. Both live in
// core/pbs_reconciler.cc; wire sessions and the in-process Reconcile()
// drive the same pair.

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

  /// Alice's and Bob's engines (docs/WIRE_FORMAT.md, "pbs payloads").
  /// Both validate `elements` (nonzero, sig_bits wide; std::invalid_argument
  /// otherwise). The responder reports its timers, so Reconcile() counts
  /// both sides' encode/decode time.
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;

  /// Snapshot fast path (core/element_store.h): shares the snapshot's
  /// element vector and hands Bob the pre-built layout; Bob adopts it
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
