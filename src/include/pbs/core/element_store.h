// Epoch-versioned mutable element store with incremental PBS sketch
// maintenance.
//
// The paper's protocol reconciles a frozen set per session, but a serving
// deployment mutates the set under traffic. Both PBS summary structures are
// linear per element -- inserting or deleting x flips exactly one bin of one
// group's parity bitmap (xor_sum[bin] ^= x, parity[bin] ^= 1), which in turn
// toggles that bin in the group's power-sum sketch (t GF(2^m) multiplies),
// and moves the group checksum by +-x mod 2^sig_bits -- so a store can keep
// the full first-round responder state current in amortized O(t) per
// mutation instead of rebuilding it in O(|set|) at session setup.
//
// Concurrency model (see docs/ARCHITECTURE.md, "Mutable served sets"):
// writers serialize on an internal mutex and publish immutable
// StoreSnapshots via an atomic shared_ptr swap (RCU style). Shard threads
// acquire the current snapshot once at session admit and never look at the
// store again, so an in-flight session observes one consistent epoch no
// matter how fast the set churns; old epochs stay valid until the last
// session holding them drops its shared_ptr.

#ifndef PBS_CORE_ELEMENT_STORE_H_
#define PBS_CORE_ELEMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pbs/core/params.h"
#include "pbs/core/parity_bitmap.h"

namespace pbs {

/// One batch of mutations, applied atomically (one published epoch).
struct UpdateBatch {
  std::vector<uint64_t> inserts;
  std::vector<uint64_t> deletes;
};

/// Outcome of applying one UpdateBatch.
struct ApplyResult {
  uint64_t epoch = 0;           ///< Epoch after the batch (post-publish).
  uint32_t inserted = 0;        ///< Inserts applied.
  uint32_t deleted = 0;         ///< Deletes applied.
  uint32_t rejected_inserts = 0;  ///< Duplicates or out-of-universe values.
  uint32_t rejected_deletes = 0;  ///< Elements that were not present.
};

/// Immutable pre-built first-round responder state of one snapshot: per
/// root group the parity bitmap, the t odd syndromes of its odd-parity bin
/// set, and the Section 2.2.2 set checksum. Valid only for sessions whose
/// (seed, config, d_used) match -- the pbs responder adopts it when they
/// do and falls back to a from-scratch build otherwise, so adoption is
/// purely a setup optimization, never a correctness dependency.
struct PbsStoreLayout {
  uint64_t seed = 0;     ///< Session hash seed the bitmaps were built under.
  PbsConfig config;      ///< Plan-affecting knobs (sig_bits folded in).
  PbsPlan plan;          ///< PlanFor(config, d_used).
  std::vector<ParityBitmap> bitmaps;  ///< One per group (g entries).
  /// Flat odd syndromes, group-major: g blocks of plan.params.t entries.
  std::vector<uint64_t> syndromes;
  std::vector<uint64_t> checksums;    ///< Per-group SetChecksum values.
};

/// Incrementally-maintained per-shard multiset digests of one snapshot:
/// the Merkle pre-filter leaves of a sharded session
/// (sync/shard_planner.h). Valid only for sessions whose negotiated
/// (shard_count, seed) match -- the responder mux adopts them when they
/// do and streams the digests from the element list otherwise, so
/// adoption is purely a setup optimization, never a correctness
/// dependency.
struct ShardChecksums {
  int shard_count = 0;
  uint64_t seed = 0;             ///< Session seed the plan derives from.
  std::vector<uint64_t> leaves;  ///< MsetHash::Fold64 per shard.
};

/// One published epoch: an immutable view of the element set plus (when a
/// layout is configured) its pre-built responder state.
struct StoreSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<const std::vector<uint64_t>> elements;
  std::shared_ptr<const PbsStoreLayout> layout;  ///< Null when unconfigured.
  /// Null until ConfigureShardChecksums ran.
  std::shared_ptr<const ShardChecksums> shard_checksums;
};

/// Epoch-versioned element set with incremental sketch maintenance.
///
/// Thread safety: Apply/Publish/ApplyInsert/ApplyDelete serialize on an
/// internal mutex; snapshot() is lock-free for readers (atomic shared_ptr
/// load) and safe against concurrent writers. The steady-state single-
/// element paths (ApplyInsert/ApplyDelete on a warm store) perform no heap
/// allocation (tests/core/hotpath_alloc_test.cc pins this); Publish() is
/// the only allocating step, deep-copying the set and layout into a fresh
/// immutable snapshot.
class MutableElementStore {
 public:
  /// Seeds the store. Zero and duplicate values are dropped (the PBS
  /// signature universe of Section 2.1 excludes 0).
  explicit MutableElementStore(std::vector<uint64_t> initial = {});
  ~MutableElementStore();

  MutableElementStore(const MutableElementStore&) = delete;
  MutableElementStore& operator=(const MutableElementStore&) = delete;

  /// Configures the maintained responder layout for sessions keyed by
  /// (seed, config, d_used): builds the per-group bitmaps/sketches from the
  /// current set and keeps them current across every subsequent mutation.
  /// Replaces any previous layout. Returns false (with *error set) if any
  /// stored element exceeds config.sig_bits. Publishes a new epoch.
  bool ConfigureLayout(const PbsConfig& config, uint64_t seed, int d_used,
                       std::string* error = nullptr);

  /// Configures incremental per-shard multiset checksums for sharded
  /// sessions keyed by (shard_count, seed): folds the current set into
  /// shard_count MsetHash digests and keeps them current across every
  /// subsequent mutation (amortized O(1) per mutation), so a session's
  /// Merkle pre-filter leaves come straight off the snapshot instead of
  /// an O(|set|) stream. Replaces any previous shard configuration.
  /// Returns false (with *error set) when shard_count is outside the
  /// negotiation bounds. Publishes a new epoch.
  bool ConfigureShardChecksums(int shard_count, uint64_t seed,
                               std::string* error = nullptr);

  /// Single-element insert. Returns false on rejection (zero, duplicate,
  /// or wider than the configured layout's sig_bits). Does NOT publish;
  /// zero-alloc on a warm store.
  bool ApplyInsert(uint64_t element);

  /// Single-element delete. Returns false if absent. Does NOT publish;
  /// zero-alloc.
  bool ApplyDelete(uint64_t element);

  /// Applies a whole batch (deletes after inserts, element by element) and
  /// publishes one new epoch covering all of it.
  ApplyResult Apply(const UpdateBatch& batch);

  /// Publishes the current state as a new immutable snapshot; returns its
  /// epoch. Readers switching via snapshot() see either the old or the new
  /// epoch, never a torn mix.
  uint64_t Publish();

  /// Current snapshot (lock-free reader side of the RCU swap).
  std::shared_ptr<const StoreSnapshot> snapshot() const;

  /// Epoch of the latest published snapshot.
  uint64_t epoch() const;

  /// Live element count (writer-side; reflects unpublished mutations).
  size_t size() const;

  /// Rebuilds the configured layout from scratch off the current set --
  /// the differential oracle the incremental maintenance is tested
  /// against, and the cost baseline for bench_mutable_churn. Elements are
  /// group/bin-partitioned in hash-kernel-sized blocks through the batched
  /// lanes (group_state.h GroupOfMany + parity_bitmap.h BinIndexManySalted).
  /// Returns null when no layout is configured.
  std::shared_ptr<const PbsStoreLayout> RebuildLayout() const;

  /// Drift self-check: rebuilds the layout from the element list and
  /// compares it against the incrementally maintained one (32-byte-wide
  /// ParityBitmap::Equals plus syndrome/checksum compares). Always true
  /// unless incremental maintenance has a bug; cheap enough to run
  /// periodically on a live store. True when no layout is configured.
  bool VerifyLayout() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbs

#endif  // PBS_CORE_ELEMENT_STORE_H_
