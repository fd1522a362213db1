// Bit-level serialization used for all PBS wire messages.
//
// The PBS protocol (and its baselines) transmit quantities whose natural
// width is not byte-aligned: BCH syndromes are m bits each (m = log2(n+1)),
// bin indices are m bits, signatures are log|U| bits. To measure the
// communication overhead the paper reports (e.g., formula (1) in Section 3.1)
// the implementation packs every message tightly with BitWriter and unpacks
// it with BitReader; the byte counts recorded in a Transcript are the sizes
// of these packed buffers.

#ifndef PBS_COMMON_BITIO_H_
#define PBS_COMMON_BITIO_H_

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace pbs {

/// Append-only bit stream writer. Bits are packed LSB-first within bytes.
class BitWriter {
 public:
  BitWriter() = default;

  /// Writes into `buffer`'s storage: its contents are discarded, its
  /// capacity kept. Paired with TakeBytes() this fills a caller-owned
  /// buffer in place, allocation-free once it has seen its peak size:
  /// `BitWriter w(std::move(*out)); ...; *out = w.TakeBytes();`
  explicit BitWriter(std::vector<uint8_t> buffer) : bytes_(std::move(buffer)) {
    bytes_.clear();
  }

  /// Appends the `bits` low-order bits of `value` (0 <= bits <= 64).
  void WriteBits(uint64_t value, int bits);

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends an unsigned integer with Elias-gamma-style varint coding
  /// (7 bits + continuation per group). Used for small counts whose width
  /// is not fixed by the protocol.
  void WriteVarint(uint64_t value);

  /// Zero-pads to the next byte boundary (no-op when already aligned).
  /// The framed wire format aligns before embedding opaque sub-messages so
  /// they can be copied out without shifting.
  void AlignToByte();

  /// Appends `size` raw bytes. The stream must be byte-aligned (call
  /// AlignToByte() first); enforced with an assert in debug builds.
  void WriteBytes(const uint8_t* data, size_t size);

  /// Number of bits written so far.
  size_t bit_size() const { return bit_size_; }

  /// Number of bytes the packed stream occupies (ceil(bit_size / 8)).
  size_t byte_size() const { return (bit_size_ + 7) / 8; }

  /// Returns the packed bytes. The final partial byte (if any) is
  /// zero-padded in its unused high bits.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// Moves the packed bytes out; the writer is left empty.
  std::vector<uint8_t> TakeBytes();

  /// Empties the stream but keeps the byte buffer's capacity, so a writer
  /// reused across protocol rounds stops allocating once it has seen its
  /// peak message size.
  void Clear() {
    bytes_.clear();
    bit_size_ = 0;
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_size_ = 0;
};

/// Sequential reader over a bit stream produced by BitWriter.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// Reads `bits` bits (0 <= bits <= 64). Returns 0 and sets overflow on
  /// reads past the end.
  uint64_t ReadBits(int bits);

  /// Reads a single bit.
  bool ReadBit() { return ReadBits(1) != 0; }

  /// Reads a varint written by BitWriter::WriteVarint.
  uint64_t ReadVarint();

  /// Skips to the next byte boundary (no-op when already aligned).
  void AlignToByte();

  /// Reads `size` raw bytes into `out`. The stream must be byte-aligned;
  /// returns false (and sets overflow) if fewer than `size` bytes remain.
  bool ReadBytes(uint8_t* out, size_t size);

  /// True if a read has run past the end of the stream.
  bool overflowed() const { return overflowed_; }

  /// Bits remaining.
  size_t remaining_bits() const { return size_bits_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
  bool overflowed_ = false;
};

}  // namespace pbs

#endif  // PBS_COMMON_BITIO_H_
