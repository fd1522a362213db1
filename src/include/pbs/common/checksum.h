// The "plain-vanilla summation" set checksum of Section 2.2.3.
//
// c(S) = (sum of all elements of S, viewed as integers) mod 2^w, where
// w = log|U| is the signature width. The paper chooses this checksum because
// (a) '+' is a very different operation from the XOR used by reconciliation,
// making false verification nearly uncorrelated with reconciliation errors,
// and (b) it is incrementally computable: adding/removing one element is a
// single modular add/subtract.

#ifndef PBS_COMMON_CHECKSUM_H_
#define PBS_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace pbs {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes.
/// Used by the framed wire format (core/messages.h) to reject corrupted
/// frames; `seed` chains incremental computations (pass a previous result
/// to continue where it left off).
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

/// Incremental modular-sum checksum over a multiset of fixed-width
/// signatures. Width `bits` must be in [1, 64].
class SetChecksum {
 public:
  explicit SetChecksum(int bits = 32) : mask_(MaskFor(bits)) {}

  /// Resumes from a previously taken value() of the same width.
  SetChecksum(int bits, uint64_t value) : mask_(MaskFor(bits)), sum_(value) {}

  /// Adds one element.
  void Add(uint64_t element) { sum_ = (sum_ + element) & mask_; }

  /// Removes one previously added element.
  void Remove(uint64_t element) { sum_ = (sum_ - element) & mask_; }

  /// Toggles membership for symmetric-difference updates: elements of
  /// A triangle D that were in A are removed, the rest are added. The caller
  /// decides which; Toggle(add=...) makes call sites explicit.
  void Toggle(uint64_t element, bool add) { add ? Add(element) : Remove(element); }

  /// Current checksum value.
  uint64_t value() const { return sum_; }

  /// Resets to the empty set.
  void Reset() { sum_ = 0; }

  static uint64_t MaskFor(int bits) {
    return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  }

 private:
  uint64_t mask_;
  uint64_t sum_ = 0;
};

}  // namespace pbs

#endif  // PBS_COMMON_CHECKSUM_H_
