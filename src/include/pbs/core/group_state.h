// The unit table shared by the four partitioned engines: the pbs and
// pinsketch-wp initiators and responders.
//
// A "unit" is one independently reconciled pair: initially one of the g
// group pairs of Section 3; after a BCH decoding exception it is one of the
// three sub-group pairs of Section 3.2 (recursively). PinSketch/WP applies
// the same partition to PinSketch (Section 8.3). Both sides of a session
// must evolve identical unit tables from the same observable events (the
// responder's decode failures, the initiator's settled flags), so the
// lineage-dependent derivations -- child keys, split salts, sub-universe
// membership -- and the table operations themselves -- root partition,
// three-way split, toggle -- live here. Per-engine round state (which
// units failed or decoded last round) and PBS's split-depth cap stay in the
// engines.

#ifndef PBS_CORE_GROUP_STATE_H_
#define PBS_CORE_GROUP_STATE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pbs/hash/hash_family.h"

namespace pbs {

/// Identity and lineage of one reconciliation unit.
struct UnitCore {
  uint64_t key = 0;    ///< Deterministic lineage key (salts derive from it).
  uint32_t group = 0;  ///< Root group index.
  uint8_t depth = 0;   ///< Number of three-way splits above this unit.
  /// (split salt, child index) per ancestor split, root-first. Used both to
  /// partition elements and to verify recovered elements' sub-universe
  /// membership (Procedure 3 extended to split lineage).
  std::vector<std::pair<uint64_t, uint8_t>> split_path;

  /// Root unit for group `g` of a session keyed by `family`.
  static UnitCore Root(const HashFamily& family, uint32_t g);

  /// The salt partitioning this unit three ways when it splits.
  uint64_t SplitSalt(const HashFamily& family) const;

  /// The `index`-th child (0..2) produced by a split.
  UnitCore Child(const HashFamily& family, uint8_t index) const;

  /// Which child (0..2) element `x` belongs to under this unit's split.
  static uint8_t ChildIndexOf(uint64_t x, uint64_t split_salt) {
    return static_cast<uint8_t>(SaltedHash(split_salt).Bucket(x, 3));
  }

  /// True iff `x` hashes into this unit: correct root group under the
  /// session's group-partition hash and the correct child at every split.
  bool InSubUniverse(const HashFamily& family, uint64_t x,
                     uint32_t num_groups) const;

  /// Bin-partition salt for this unit in round `round`.
  uint64_t BinSalt(const HashFamily& family, int round) const {
    return family.Salt(HashFamily::kBinPartition, static_cast<uint64_t>(round),
                       key);
  }
};

/// Group index of `x` for a session with `num_groups` groups.
inline uint32_t GroupOf(const HashFamily& family, uint64_t x,
                        uint32_t num_groups) {
  return static_cast<uint32_t>(
      family.Get(HashFamily::kGroupPartition).Bucket(x, num_groups));
}

/// Batch form of GroupOf: `out[i] = GroupOf(family, xs[i], num_groups)` for
/// `count` elements, hashed through the lane-batched xxHash64 kernel (out
/// may alias xs). Used by the endpoint/store partition loops, which walk
/// their element lists in kXxHashBatch-sized blocks.
inline void GroupOfMany(const HashFamily& family, const uint64_t* xs,
                        size_t count, uint32_t num_groups, uint64_t* out) {
  family.Get(HashFamily::kGroupPartition).BucketMany(xs, count, num_groups,
                                                     out);
}

/// One reconciliation unit: its lineage, this side's elements in it, and
/// their Section 2.2.3 set checksum. On the initiator `elements` is
/// A_unit /\triangle D-hat so far (Toggle keeps it so); on the responder it
/// is B_unit, never toggled. Element order carries no meaning: bitmaps,
/// sketches and checksums are all order-independent.
struct Unit {
  UnitCore core;
  std::vector<uint64_t> elements;
  uint64_t checksum = 0;  ///< SetChecksum(sig_bits) value of `elements`.
};

/// Replaces `*units` with the g = `num_groups` root units of a session,
/// in group order, and scatters `elements` into them (input order within
/// each unit) through the batched GroupOfMany, checksummed at `sig_bits`.
void PartitionIntoRoots(const HashFamily& family,
                        const std::vector<uint64_t>& elements,
                        uint32_t num_groups, int sig_bits,
                        std::vector<Unit>* units);

/// Appends the three children of `parent` (Section 3.2) to `*out`: each
/// holds the parent's elements of its sub-universe and their checksum.
void SplitInto(const HashFamily& family, const Unit& parent, int sig_bits,
               std::vector<Unit>* out);

/// Toggles `x`'s membership in `unit` (a linear find, then swap-remove or
/// push_back) and moves the checksum with it.
void Toggle(Unit* unit, uint64_t x, int sig_bits);

/// True iff some unit lists a nonzero element twice (a repeated 0 moves
/// nothing and goes unseen). Every partitioned engine assumes distinct
/// elements: a listed-twice element cancels in parity bitmaps and sketches
/// but counts twice in the checksum. Checks each unit against a unit-sized
/// open-addressing table, so it needs no |A|-sized set.
bool HasDuplicateElement(const std::vector<Unit>& units);

}  // namespace pbs

#endif  // PBS_CORE_GROUP_STATE_H_
