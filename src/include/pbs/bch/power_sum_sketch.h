// The BCH "sketch": odd power sums of a set of nonzero field elements.
//
// This is the codeword xi_A of Sections 1.3.1 / 2.5. A set P of nonzero
// elements of GF(2^m) is summarized by its t odd power sums
//     S_k = sum_{p in P} p^k,   k = 1, 3, 5, ..., 2t-1,
// which is exactly a syndrome vector of a binary BCH code with designed
// distance 2t+1 (even-indexed syndromes are implied: S_2k = S_k^2 in
// characteristic 2). Two crucial properties:
//
//  * Linearity: the XOR of two sketches is the sketch of the symmetric
//    difference of the two sets. Bob XORs Alice's sketch of her parity
//    bitmap with his own to get the sketch of the *difference* bitmap.
//  * Decodability: if the difference has at most t elements, they are
//    recovered by Berlekamp-Massey + root finding; if it has more, the
//    decoder detects failure with high probability (Section 3.2's
//    "BCH decoding exception").
//
// Wire size is exactly t*m bits -- the paper's "t log n" term (PBS, with
// m = log2(n+1)) or "t log |U|" (PinSketch).

#ifndef PBS_BCH_POWER_SUM_SKETCH_H_
#define PBS_BCH_POWER_SUM_SKETCH_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "pbs/common/bitio.h"
#include "pbs/common/workspace.h"
#include "pbs/gf/gf2m.h"

namespace pbs {

/// BCH power-sum sketch with capacity t over GF(2^m).
class PowerSumSketch {
 public:
  PowerSumSketch(const GF2m& field, int t);

  /// Toggles membership of `element` (must be in [1, 2^m - 1]). Adding an
  /// element twice removes it -- the sketch is a symmetric-difference
  /// accumulator, mirroring parity-bitmap semantics.
  void Toggle(uint64_t element);

  /// XORs `other` into this sketch (same field and t required): the result
  /// sketches the symmetric difference of the two underlying sets.
  void Merge(const PowerSumSketch& other);

  /// Resets to the empty set (all syndromes zero), keeping the storage.
  void Reset();

  /// Attempts to recover the sketched set. Succeeds iff the set has at most
  /// t elements and the decode is structurally consistent; otherwise
  /// returns nullopt (decode failure). Recovered elements are unsorted.
  /// If `verify` is set, the decoded set's power sums are recomputed and
  /// compared against the syndromes, catching silent miscorrections.
  /// `seed` randomizes trace-based root finding in large fields.
  std::optional<std::vector<uint64_t>> Decode(
      bool verify = true, uint64_t seed = 0x9E3779B97F4A7C15ull) const;

  /// Workspace variant of Decode: clears `*out` and appends the recovered
  /// elements. Returns false on decode failure. Once `ws` and `out` have
  /// reached their steady-state capacities this performs no heap
  /// allocation for Chien-searchable fields (every PBS parity-bitmap
  /// field); large PinSketch fields fall back to allocating root finding.
  bool DecodeInto(std::vector<uint64_t>* out, Workspace& ws,
                  bool verify = true,
                  uint64_t seed = 0x9E3779B97F4A7C15ull) const;

  /// Preferred number of sketches per DecodeBatchInto call: two quads of
  /// Chien lanes (gf/roots.h kChienBatchLanes) in flight.
  static constexpr int kDecodeBatch = 8;

  /// Cross-group batched decode: for each i,
  /// `ok[i] = sketches[i]->DecodeInto(outs[i], ws, verify, seed)`
  /// bit-for-bit (same recovered elements in the same order), but the
  /// per-sketch Berlekamp-Massey locators are root-searched together
  /// through ChienSearchBatch, so groups advance through the Chien scan in
  /// SIMD lanes instead of serially. All sketches must share one field and
  /// t. Chien-sized fields (every PBS parity-bitmap field) are zero-alloc
  /// at steady state; large fields degrade to per-sketch DecodeInto.
  static void DecodeBatchInto(Span<const PowerSumSketch* const> sketches,
                              Span<std::vector<uint64_t>* const> outs,
                              Span<uint8_t> ok, Workspace& ws,
                              bool verify = true,
                              uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Serializes as t fields of m bits each.
  void Serialize(BitWriter* writer) const;

  /// Reads a sketch serialized by Serialize.
  static PowerSumSketch Deserialize(BitReader* reader, const GF2m& field,
                                    int t);

  /// Overwrites this sketch from the wire, reusing its storage (same field
  /// and t as at serialization time required).
  void ReadFrom(BitReader* reader);

  /// Wire size in bits: t * m.
  int bit_size() const { return t_ * field_.m(); }

  int t() const { return t_; }
  const GF2m& field() const { return field_; }
  /// Odd syndromes (S_1, S_3, ..., S_{2t-1}).
  const std::vector<uint64_t>& odd_syndromes() const { return odd_; }

  /// True if every syndrome is zero (empty symmetric difference, or -- with
  /// negligible probability -- an undetectable error pattern).
  bool IsZero() const;

  /// XORs a raw odd-syndrome block (t entries of another sketch over the
  /// same field, e.g. a wire-read slice of a peer's sketch) into this one:
  /// Merge() without materializing a second PowerSumSketch. Used by the
  /// pbs responder's per-group decode, which stages every peer sketch in
  /// one flat buffer (core/pbs_reconciler.cc).
  void MergeOdd(Span<const uint64_t> odd_syndromes);

 private:
  /// XORs the odd power sums x^1, x^3, ..., x^(2t-1) of `element` into
  /// `odd` (t = odd.size()).
  static void ToggleInto(const GF2m& field, uint64_t element,
                         Span<uint64_t> odd);

  GF2m field_;
  int t_;
  std::vector<uint64_t> odd_;
};

}  // namespace pbs

#endif  // PBS_BCH_POWER_SUM_SKETCH_H_
