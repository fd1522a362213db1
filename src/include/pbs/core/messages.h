// Wire-format helpers for PBS protocol messages.
//
// Message layouts (all bit-packed; see bitio.h):
//
//  EstimateRequest  (Alice -> Bob):
//    varint |A| ; ell counters of ceil(log2(2|A|+1)) bits (zig-zag).
//  EstimateReply    (Bob -> Alice):
//    32-bit d_used = ceil(gamma * d-hat).
//  RoundRequest     (Alice -> Bob), round k, after the pbs payload header
//  (u8 kind, plus u32 d_used in round 1; docs/WIRE_FORMAT.md §3.1):
//    k >= 2: one settled bit per unit that decoded OK in round k-1;
//    then, per active unit in canonical order: BCH sketch (t*m bits).
//  RoundReply       (Bob -> Alice), per active unit:
//    1 bit decode-failed;
//    on success: count (ceil(log2(t+1)) bits), count * position (m bits),
//    count * XOR sum (sig_bits), checksum (sig_bits).
//
// The canonical unit order evolves deterministically on both sides:
// settled units are dropped, failed units are replaced in place by their
// three children, survivors stay put (Section 3.2 / 3.3).

#ifndef PBS_CORE_MESSAGES_H_
#define PBS_CORE_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pbs::wire {

/// Smallest width holding values 0..max_value.
constexpr int BitWidthFor(uint64_t max_value) {
  int bits = 1;
  while ((uint64_t{1} << bits) <= max_value) ++bits;
  return bits;
}

/// Width of the per-unit "number of decoded positions" field; the count is
/// at most t by construction.
constexpr int CountBits(int t) { return BitWidthFor(static_cast<uint64_t>(t)); }

// ---------------------------------------------------------------------------
// Framed session layer (docs/WIRE_FORMAT.md).
//
// Everything above describes the *contents* of protocol messages; this part
// describes the envelope that carries them over a byte stream. A frame is a
// fixed 20-byte header followed by an opaque payload:
//
//   offset  size  field
//        0     4  magic "PBSW" (bytes 50 42 53 57)
//        4     1  version (kWireVersion)
//        5     1  frame type (FrameType)
//        6     1  scheme id (SchemeWireId; 0 = named in the HELLO payload)
//        7     1  flags (reserved, must be 0 in version 1)
//        8     4  round number, little-endian
//       12     4  payload length, little-endian
//       16     4  CRC-32 of header bytes [0, 16) then the payload
//       20     -  payload
// ---------------------------------------------------------------------------

/// Wire protocol version carried in every frame header. Bumped on any
/// incompatible layout change; a responder rejects frames whose version it
/// does not speak (see docs/WIRE_FORMAT.md for the compatibility rules).
inline constexpr uint8_t kWireVersion = 1;

/// Frame header size in bytes.
inline constexpr size_t kFrameHeaderSize = 20;

/// Hard cap on a single frame's payload (64 MiB): a length field beyond
/// this is treated as corruption. Stream readers allocate the payload
/// buffer from this length *before* the checksum can be verified, so the
/// cap is sized to the largest legitimate frame (a few MiB at the
/// schemes' capacity limits) with ~10x headroom, not to what the field
/// could express.
inline constexpr uint32_t kMaxFramePayload = 1u << 26;

/// Frame types of wire version 1. The session is a strict ping-pong driven
/// by the initiator; see core/wire_session.h for the state machine.
enum class FrameType : uint8_t {
  kHello = 1,           ///< Initiator's handshake (scheme name + options).
  kHelloAck = 2,        ///< Responder accepts the handshake.
  kEstimateRequest = 3, ///< Initiator's ToW sketch of its set.
  kEstimateReply = 4,   ///< Responder's d-hat computed from both sketches.
  kSchemeRequest = 5,   ///< Scheme-specific round payload, initiator side.
  kSchemeReply = 6,     ///< Scheme-specific round payload, responder side.
  kDone = 7,            ///< Initiator's outcome summary; responder echoes.
  kError = 8,           ///< Either side aborts; payload is a UTF-8 message.
  kUpdate = 9,          ///< Writer's insert/delete batch for a mutable
                        ///< served set (core/element_store.h). Round is the
                        ///< 1-based batch index. Rejected with kError by
                        ///< read-only servers.
  kUpdateAck = 10,      ///< Server's per-batch result: the published epoch
                        ///< and apply/reject counts.
  // Sharded huge-set reconciliation (docs/WIRE_FORMAT.md section 2.5;
  // sync/sharded_session.h). A sharded session replaces the kHello
  // handshake with kShardPlan (which embeds the HELLO payload) and then
  // multiplexes per-shard sub-sessions over one connection.
  kShardPlan = 11,      ///< Initiator's shard proposal: shard count, its
                        ///< shard-digest Merkle root, and the embedded
                        ///< HELLO payload.
  kShardPlanAck = 12,   ///< Responder's accepted shard count (possibly
                        ///< clamped) and its own Merkle root. Equal roots
                        ///< end the session in O(1) bytes.
  kDigestTree = 13,     ///< Initiator's per-shard digest leaves (one u64
                        ///< per shard), sent only when the roots differ.
  kDigestReply = 14,    ///< Responder's differing-shard bitmap (bit k set
                        ///< = shard k's digests disagree).
  kSubSession = 15,     ///< One sub-session frame: shard id, an inner
                        ///< frame type (estimate/scheme/done), and the
                        ///< inner payload. Up to `shard_pipeline` shards
                        ///< are in flight concurrently.
  // Session resilience (docs/WIRE_FORMAT.md section 2.6). A reconnecting
  // sharded initiator re-attaches to an interrupted session instead of
  // restarting it from scratch.
  kResume = 16,         ///< Initiator's resume token: the responder Merkle
                        ///< root it saw before the disconnect, the list of
                        ///< unsettled shards with their attempt counters,
                        ///< and the embedded HELLO payload. Rejected with
                        ///< kError ("stale resume ...") when the root no
                        ///< longer matches the responder's current set.
  kResumeAck = 17,      ///< Responder accepts the resume; echoes its
                        ///< current Merkle root.
};

/// Stable one-byte ids for the built-in schemes, carried in the header so
/// sniffers/loggers can classify frames without parsing the HELLO payload.
/// Out-of-tree schemes use 0 and are identified by name in the HELLO.
uint8_t SchemeWireId(const std::string& name);

/// Inverse of SchemeWireId for the built-in ids; empty string for 0 or an
/// unknown id. Used by graceful degradation, where a sub-session's
/// alternate scheme travels as its one-byte id.
std::string SchemeNameFromWireId(uint8_t id);

/// A decoded frame: header fields plus the payload bytes.
struct WireFrame {
  uint8_t version = kWireVersion;  ///< Protocol version (kWireVersion).
  FrameType type = FrameType::kHello;  ///< Frame type.
  uint8_t scheme = 0;              ///< SchemeWireId of the session's scheme.
  uint32_t round = 0;              ///< Scheme round (0 during handshake).
  std::vector<uint8_t> payload;    ///< Opaque payload bytes.
};

/// Result of decoding a frame from a byte buffer.
enum class FrameStatus {
  kOk,           ///< Frame decoded; *consumed bytes were used.
  kTruncated,    ///< Buffer ends mid-header or mid-payload; read more.
  kBadMagic,     ///< First four bytes are not "PBSW".
  kBadVersion,   ///< Unsupported version byte.
  kBadLength,    ///< Payload length exceeds kMaxFramePayload.
  kBadChecksum,  ///< CRC-32 mismatch (header or payload corrupted).
};

/// Serializes `frame` (header + payload) into a contiguous buffer. The
/// checksum and length fields are computed here; frame.version is
/// respected so tests can emit alien versions.
std::vector<uint8_t> EncodeFrame(const WireFrame& frame);

/// Streaming peer of EncodeFrame: appends one encoded kWireVersion frame
/// (header + payload) to `*out` without disturbing its existing contents,
/// and returns the encoded size. Outbound buffers reused across rounds
/// warm to their peak capacity and stop allocating — the sans-I/O session
/// engine's steady state depends on this.
size_t AppendFrame(FrameType type, uint8_t scheme, uint32_t round,
                   const uint8_t* payload, size_t payload_size,
                   std::vector<uint8_t>* out);

/// Decodes one frame from the front of [data, data+size). On kOk, `*frame`
/// holds the frame and `*consumed` the total bytes used. On any other
/// status, outputs are untouched (kTruncated callers should retry with more
/// bytes; everything else is fatal for the stream).
FrameStatus DecodeFrame(const uint8_t* data, size_t size, WireFrame* frame,
                        size_t* consumed);

/// Validates a complete header (kFrameHeaderSize bytes) and extracts the
/// payload length, so stream readers know how many more bytes to pull
/// before calling DecodeFrame on the assembled buffer. Returns kOk,
/// kBadMagic, kBadVersion, or kBadLength (the checksum spans the payload
/// and is only checked by DecodeFrame).
FrameStatus InspectFrameHeader(const uint8_t* header, size_t* payload_length);

}  // namespace pbs::wire

#endif  // PBS_CORE_MESSAGES_H_
