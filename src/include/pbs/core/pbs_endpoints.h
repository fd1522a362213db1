// The two PBS protocol endpoints.
//
// Alice initiates and ultimately learns A /\triangle B; Bob answers. The
// endpoints exchange opaque byte buffers; core/pbs_reconciler wraps them
// as the "pbs" scheme's initiator/responder engines, which both the wire
// sessions and the in-process SetReconciler::Reconcile drive. Both sides
// are sized by SetDifferenceEstimate (the session layer's ToW estimate
// exchange, or a known d in the Sections 2-5 setting); then, per
// Sections 2-3:
//
//   Alice                       Bob
//   MakeRoundRequest     ---->  HandleRoundRequest      \  repeated until
//   HandleRoundReply     <----                          /  all units settle

#ifndef PBS_CORE_PBS_ENDPOINTS_H_
#define PBS_CORE_PBS_ENDPOINTS_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "pbs/common/checksum.h"
#include "pbs/core/group_state.h"
#include "pbs/core/params.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/gf/gf2m.h"
#include "pbs/hash/hash_family.h"

namespace pbs {

struct PbsStoreLayout;

/// The initiating endpoint; learns the set difference.
class PbsAlice {
 public:
  /// `elements` is Alice's set A (nonzero sig_bits-wide signatures).
  /// Both endpoints must be constructed with the same config and seed.
  PbsAlice(std::vector<uint64_t> elements, const PbsConfig& config,
           uint64_t seed);
  ~PbsAlice();

  /// Sizes the plan for `d_used` expected differences.
  void SetDifferenceEstimate(int d_used);

  /// Builds the round-k request (advances the round counter).
  std::vector<uint8_t> MakeRoundRequest();

  /// Buffer-reusing form: writes the request into `*out` (cleared first).
  /// With a caller-reused `out`, steady-state round encoding performs no
  /// heap allocation (tests/core/hotpath_alloc_test.cc).
  void MakeRoundRequest(std::vector<uint8_t>* out);

  /// Consumes Bob's reply; returns true when every unit has settled.
  bool HandleRoundReply(const std::vector<uint8_t>& reply);

  /// True once all units verified their checksums.
  bool finished() const;

  /// Rounds executed so far.
  int round() const;

  /// The reconciled difference D-hat_1 /\triangle ... /\triangle D-hat_r
  /// (valid answer once finished()).
  std::vector<uint64_t> Difference() const;

  /// Strong-verification epilogue (config.strong_verification): checks
  /// Bob's multiset-hash digest against H(A /\triangle D-hat).
  bool VerifyStrongDigest(const std::vector<uint8_t>& digest_msg) const;

  /// Bidirectional completion (Section 1.1): the elements of the
  /// difference that Alice holds (A \ B), which she ships to Bob so he can
  /// form A u B as well. Valid once finished().
  std::vector<uint64_t> ElementsOnlyInA() const;

  const PbsPlan& plan() const;
  /// Cumulative wall time of this endpoint. Encode is everything that
  /// *produces* sketches and wire bytes: Alice's whole round request (her
  /// per-group bin + sketch pipeline -- parallel when
  /// PbsConfig::decode_threads > 1 -- plus serialization) and Bob's wire
  /// staging/serialization. Decode is Bob's per-group bin + sketch +
  /// BCH-decode pipeline, timed as one phase (it runs fused and, with
  /// decode_threads > 1, concurrently across groups, where per-unit CPU
  /// attribution would be meaningless). Both are wall-clock: with a pool,
  /// a phase's entry is its elapsed time, not the summed worker CPU.
  const PbsTimers& timers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The responding endpoint.
class PbsBob {
 public:
  PbsBob(std::vector<uint64_t> elements, const PbsConfig& config,
         uint64_t seed);

  /// Snapshot form (core/element_store.h): shares the element vector
  /// instead of copying it and, when the session's (seed, sig_bits, plan)
  /// match the layout's, adopts the store's pre-built round-1 bitmaps /
  /// syndromes / checksums -- turning session setup from O(|B|) into O(g),
  /// with the O(|B|) group partitioning deferred until a second round is
  /// actually needed. On any mismatch it falls back to the from-scratch
  /// build, so adoption never changes the wire bytes (pinned by
  /// ElementStore differential tests). `elements` must come from a
  /// MutableElementStore, whose insert path enforces the nonzero /
  /// sig_bits-wide element invariants this constructor therefore does not
  /// re-validate. `layout` may be null (pure shared-vector mode).
  PbsBob(std::shared_ptr<const std::vector<uint64_t>> elements,
         std::shared_ptr<const PbsStoreLayout> layout, const PbsConfig& config,
         uint64_t seed);
  ~PbsBob();

  void SetDifferenceEstimate(int d_used);

  std::vector<uint8_t> HandleRoundRequest(const std::vector<uint8_t>& request);

  /// Buffer-reusing form: writes the reply into `*reply` (cleared first);
  /// see PbsAlice::MakeRoundRequest(std::vector<uint8_t>*).
  void HandleRoundRequest(const std::vector<uint8_t>& request,
                          std::vector<uint8_t>* reply);

  /// Strong-verification epilogue: the 192-bit multiset hash of B.
  std::vector<uint8_t> MakeStrongDigest() const;

  const PbsPlan& plan() const;
  const PbsTimers& timers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbs

#endif  // PBS_CORE_PBS_ENDPOINTS_H_
