#include "pbs/core/session_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "pbs/common/bitio.h"
#include "pbs/estimator/tow.h"
#include "pbs/sync/merkle_prefilter.h"
#include "pbs/sync/sharded_session.h"

namespace pbs {

namespace {

using wire::FrameStatus;
using wire::FrameType;
using wire::WireFrame;

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

const char* StatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kTruncated: return "truncated frame";
    case FrameStatus::kBadMagic: return "bad magic";
    case FrameStatus::kBadVersion: return "unsupported wire version";
    case FrameStatus::kBadLength: return "oversized frame";
    case FrameStatus::kBadChecksum: return "frame checksum mismatch";
  }
  return "unknown";
}

// ------------------------------------------------------------ handshake --

constexpr uint8_t kHelloHasExactD = 1u << 0;
constexpr uint8_t kHelloStrongVerification = 1u << 1;
constexpr uint8_t kHelloSubuniverseCheck = 1u << 2;

// Wire-carried difference estimates feed InflateEstimate's double->int
// conversion and size per-scheme allocations. The responder-side engines
// reject inflated capacities above 2^20 (kMaxWireDifference), so the
// initiator bounds the raw estimate to 2^19 — leaving 2x headroom for any
// sane inflation factor — and fails with a capacity error up front rather
// than letting the peer report "malformed request" later. Non-finite
// values are rejected outright.
constexpr double kMaxWireEstimate = static_cast<double>(1 << 19);

bool ValidEstimate(double d) {
  return std::isfinite(d) && d >= 0.0 && d <= kMaxWireEstimate;
}

// The HELLO encodes these fields at fixed widths; sending silently
// truncated values would make the responder plan with a different
// configuration than the initiator, so out-of-range configs fail the
// session up front with a diagnostic instead.
bool ValidateSessionConfig(const SessionConfig& config, std::string* error) {
  const PbsConfig& pbs = config.options.pbs;
  auto fail = [error](const char* what) {
    *error = std::string("config field out of wire range: ") + what;
    return false;
  };
  if (config.scheme_name.empty() || config.scheme_name.size() > 64) {
    return fail("scheme name (1-64 chars)");
  }
  if (config.options.sig_bits < 1 || config.options.sig_bits > 63) {
    return fail("sig_bits (1-63)");
  }
  if (config.options.report_sig_bits < 0 ||
      config.options.report_sig_bits > 255) {
    return fail("report_sig_bits (0-255)");
  }
  if (pbs.delta < 1 || pbs.delta > 255) return fail("delta (1-255)");
  if (pbs.target_rounds < 1 || pbs.target_rounds > 255) {
    return fail("target_rounds (1-255)");
  }
  if (pbs.max_rounds < 1 || pbs.max_rounds > 255) {
    return fail("max_rounds (1-255)");
  }
  if (pbs.max_split_depth < 0 || pbs.max_split_depth > 255) {
    return fail("max_split_depth (0-255)");
  }
  if (pbs.ell < 1 || pbs.ell > 65535) return fail("ell (1-65535)");
  if (config.exact_d >= 0.0 && !ValidEstimate(config.exact_d)) {
    return fail("exact_d (finite, <= 1e9)");
  }
  // 0 and 1 both mean "monolithic"; a sharded session's count must fit
  // the u16 SHARD_PLAN field and the negotiation bounds.
  if (config.keyspace_shards < 0 ||
      config.keyspace_shards > sync::kMaxKeyspaceShards) {
    return fail("keyspace_shards (0-4096)");
  }
  if (config.shard_pipeline < 1 || config.shard_pipeline > 65535) {
    return fail("shard_pipeline (1-65535)");
  }
  if (config.phase_deadline_ms < 0) {
    return fail("phase_deadline_ms (>= 0)");
  }
  return true;
}

std::vector<uint8_t> EncodeHello(const SessionConfig& config) {
  BitWriter w;
  w.WriteBits(config.scheme_name.size(), 8);
  for (char c : config.scheme_name) {
    w.WriteBits(static_cast<uint8_t>(c), 8);
  }
  const PbsConfig& pbs = config.options.pbs;
  uint8_t flags = 0;
  if (config.exact_d >= 0.0) flags |= kHelloHasExactD;
  if (pbs.strong_verification) flags |= kHelloStrongVerification;
  if (pbs.subuniverse_check) flags |= kHelloSubuniverseCheck;
  w.WriteBits(flags, 8);
  w.WriteBits(static_cast<uint8_t>(config.options.sig_bits), 8);
  w.WriteBits(static_cast<uint8_t>(config.options.report_sig_bits), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.delta), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.target_rounds), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.max_rounds), 8);
  w.WriteBits(static_cast<uint8_t>(pbs.max_split_depth), 8);
  w.WriteBits(static_cast<uint16_t>(pbs.ell), 16);
  w.WriteBits(DoubleBits(pbs.p0), 64);
  w.WriteBits(DoubleBits(pbs.gamma), 64);
  w.WriteBits(config.seed, 64);
  w.WriteBits(config.estimate_seed, 64);
  if (config.exact_d >= 0.0) w.WriteBits(DoubleBits(config.exact_d), 64);
  return w.TakeBytes();
}

bool DecodeHello(const std::vector<uint8_t>& payload, SessionConfig* config) {
  BitReader r(payload);
  const uint64_t name_len = r.ReadBits(8);
  if (name_len == 0 || name_len > 64) return false;
  std::string name;
  for (uint64_t i = 0; i < name_len; ++i) {
    name.push_back(static_cast<char>(r.ReadBits(8)));
  }
  const uint8_t flags = static_cast<uint8_t>(r.ReadBits(8));
  config->scheme_name = std::move(name);
  config->options.sig_bits = static_cast<int>(r.ReadBits(8));
  config->options.report_sig_bits = static_cast<int>(r.ReadBits(8));
  PbsConfig& pbs = config->options.pbs;
  pbs.delta = static_cast<int>(r.ReadBits(8));
  pbs.target_rounds = static_cast<int>(r.ReadBits(8));
  pbs.max_rounds = static_cast<int>(r.ReadBits(8));
  pbs.max_split_depth = static_cast<int>(r.ReadBits(8));
  pbs.ell = static_cast<int>(r.ReadBits(16));
  pbs.p0 = BitsToDouble(r.ReadBits(64));
  pbs.gamma = BitsToDouble(r.ReadBits(64));
  pbs.sig_bits = config->options.sig_bits;
  pbs.strong_verification = (flags & kHelloStrongVerification) != 0;
  pbs.subuniverse_check = (flags & kHelloSubuniverseCheck) != 0;
  config->seed = r.ReadBits(64);
  config->estimate_seed = r.ReadBits(64);
  config->exact_d = (flags & kHelloHasExactD) != 0
                        ? BitsToDouble(r.ReadBits(64))
                        : -1.0;
  if (r.overflowed()) return false;
  if ((flags & kHelloHasExactD) != 0 && !ValidEstimate(config->exact_d)) {
    return false;
  }
  if (pbs.delta < 1 || pbs.max_rounds < 1 || pbs.ell < 1) return false;
  if (config->options.sig_bits < 1 || config->options.sig_bits > 63) {
    return false;
  }
  return true;
}

// DONE summary: success flag, rounds, recovered-difference cardinality.
std::vector<uint8_t> EncodeDone(const ReconcileOutcome& outcome) {
  BitWriter w;
  w.WriteBits(outcome.success ? 1 : 0, 8);
  w.WriteBits(static_cast<uint32_t>(outcome.rounds), 32);
  w.WriteBits(outcome.difference.size(), 64);
  return w.TakeBytes();
}

bool DecodeDone(const std::vector<uint8_t>& payload, bool* success,
                int* rounds, uint64_t* diff_size) {
  BitReader r(payload);
  *success = r.ReadBits(8) != 0;
  *rounds = static_cast<int>(r.ReadBits(32));
  *diff_size = r.ReadBits(64);
  return !r.overflowed();
}

std::string ErrorText(const WireFrame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

// ---------------------------------------------------------------- sharded --

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v & 0xFF));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int b = 0; b < 8; ++b) {
    out->push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
  return v;
}

// SHARD_PLAN payload: u16 proposed shard count (LE), u64 Merkle root of
// the initiator's per-shard digests (LE), then the HELLO payload
// verbatim (docs/WIRE_FORMAT.md section 2.5).
std::vector<uint8_t> EncodeShardPlan(int shards, uint64_t root,
                                     const std::vector<uint8_t>& hello) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + hello.size());
  PutU16(static_cast<uint16_t>(shards), &payload);
  PutU64(root, &payload);
  payload.insert(payload.end(), hello.begin(), hello.end());
  return payload;
}

bool DecodeShardPlanHeader(const std::vector<uint8_t>& payload, int* shards,
                           uint64_t* root, std::vector<uint8_t>* hello) {
  if (payload.size() < 10) return false;
  *shards = GetU16(payload.data());
  *root = GetU64(payload.data() + 2);
  hello->assign(payload.begin() + 10, payload.end());
  return true;
}

// SHARD_PLAN_ACK payload: u16 accepted shard count, u64 responder root.
std::vector<uint8_t> EncodeShardPlanAck(int accepted, uint64_t root) {
  std::vector<uint8_t> payload;
  payload.reserve(10);
  PutU16(static_cast<uint16_t>(accepted), &payload);
  PutU64(root, &payload);
  return payload;
}

// RESUME payload: u16 negotiated shard count, u64 responder root the
// initiator saw before the disconnect, u16 pending count, pending count
// x (u16 shard, u8 last attempt) ascending, then the HELLO payload
// verbatim (docs/WIRE_FORMAT.md section 2.6). Only the ladder positions
// travel; settled differences stay banked on the client.
std::vector<uint8_t> EncodeResume(const sync::ShardResumeState& token,
                                  const std::vector<uint8_t>& hello) {
  std::vector<uint8_t> payload;
  payload.reserve(12 + token.pending.size() * 3 + hello.size());
  PutU16(static_cast<uint16_t>(token.shard_count), &payload);
  PutU64(token.remote_root, &payload);
  PutU16(static_cast<uint16_t>(token.pending.size()), &payload);
  for (const auto& p : token.pending) {
    PutU16(static_cast<uint16_t>(p.shard), &payload);
    payload.push_back(p.attempt);
  }
  payload.insert(payload.end(), hello.begin(), hello.end());
  return payload;
}

bool DecodeResumeHeader(const std::vector<uint8_t>& payload, int* shards,
                        uint64_t* root,
                        std::vector<std::pair<uint32_t, uint8_t>>* entries,
                        std::vector<uint8_t>* hello) {
  if (payload.size() < 12) return false;
  *shards = GetU16(payload.data());
  *root = GetU64(payload.data() + 2);
  const size_t count = GetU16(payload.data() + 10);
  if (payload.size() < 12 + count * 3) return false;
  entries->clear();
  entries->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* p = payload.data() + 12 + i * 3;
    entries->emplace_back(GetU16(p), p[2]);
  }
  hello->assign(payload.begin() + 12 + count * 3, payload.end());
  return true;
}

// Resume tokens come from a prior session of this same binary, but the
// driver may hold them across reconnects; reject anything that could not
// have been produced by a sane coordinator before trusting it with a
// wire frame. Attempt counters beyond this bound cannot advance without
// overflowing the 7-bit attempt field (the top bit flags a scheme
// override).
constexpr int kMaxResumeAttempt = 120;

bool ValidResumeToken(const sync::ShardResumeState& token) {
  if (token.shard_count < sync::kMinKeyspaceShards ||
      token.shard_count > sync::kMaxKeyspaceShards) {
    return false;
  }
  if (token.pending.size() > static_cast<size_t>(token.shard_count)) {
    return false;
  }
  uint32_t prev = 0;
  bool first = true;
  for (const auto& p : token.pending) {
    if (p.shard >= static_cast<uint32_t>(token.shard_count)) return false;
    if (p.attempt > kMaxResumeAttempt) return false;
    if (!first && p.shard <= prev) return false;
    prev = p.shard;
    first = false;
  }
  return true;
}

// ---------------------------------------------------------------- update --

// Per-direction cap on one UPDATE batch, mirroring the d_used cap: the
// counts size the responder's decode buffers before validation finishes.
constexpr uint64_t kMaxUpdateBatch = 1u << 20;

// UPDATE payload: varint insert count, varint delete count, then each
// element as 64 bits (inserts first). The whole payload must parse and the
// counts must match the payload size exactly before anything is applied —
// a truncated or padded frame is rejected with no store mutation at all.
void EncodeUpdate(const UpdateBatch& batch, BitWriter* w) {
  w->Clear();
  w->WriteVarint(batch.inserts.size());
  w->WriteVarint(batch.deletes.size());
  for (uint64_t e : batch.inserts) w->WriteBits(e, 64);
  for (uint64_t e : batch.deletes) w->WriteBits(e, 64);
}

bool DecodeUpdate(const std::vector<uint8_t>& payload, UpdateBatch* batch) {
  BitReader r(payload);
  const uint64_t n_inserts = r.ReadVarint();
  const uint64_t n_deletes = r.ReadVarint();
  if (r.overflowed() || n_inserts > kMaxUpdateBatch ||
      n_deletes > kMaxUpdateBatch ||
      (n_inserts + n_deletes) * 64 > r.remaining_bits()) {
    return false;
  }
  batch->inserts.clear();
  batch->deletes.clear();
  batch->inserts.reserve(n_inserts);
  batch->deletes.reserve(n_deletes);
  for (uint64_t i = 0; i < n_inserts; ++i) {
    batch->inserts.push_back(r.ReadBits(64));
  }
  for (uint64_t i = 0; i < n_deletes; ++i) {
    batch->deletes.push_back(r.ReadBits(64));
  }
  // Anything beyond byte-rounding slack is a length/content mismatch.
  return !r.overflowed() && r.remaining_bits() < 8;
}

// UPDATE_ACK payload: published epoch, then applied/rejected counts.
constexpr size_t kUpdateAckBits = 64 + 4 * 32;

}  // namespace

// ------------------------------------------------------------ lifecycle --

SessionEngine SessionEngine::Initiator(const SessionConfig& config,
                                       std::vector<uint64_t> elements,
                                       const SchemeRegistry* registry) {
  return Initiator(config,
                   std::make_shared<const std::vector<uint64_t>>(
                       std::move(elements)),
                   registry);
}

SessionEngine SessionEngine::Initiator(const SessionConfig& config,
                                       SharedElements elements,
                                       const SchemeRegistry* registry) {
  return SessionEngine(/*is_initiator=*/true, config, std::move(elements),
                       registry);
}

SessionEngine SessionEngine::Responder(std::vector<uint64_t> elements,
                                       const SchemeRegistry* registry) {
  return Responder(std::make_shared<const std::vector<uint64_t>>(
                       std::move(elements)),
                   registry);
}

SessionEngine SessionEngine::Responder(SharedElements elements,
                                       const SchemeRegistry* registry) {
  return Responder(SessionConfig(), std::move(elements), registry);
}

SessionEngine SessionEngine::Responder(const SessionConfig& local_config,
                                       SharedElements elements,
                                       const SchemeRegistry* registry) {
  // The HELLO decode overwrites every wire-carried field of config_;
  // side-local knobs (decode_threads) are simply never written by it, so
  // seeding config_ here is all that "honoring local defaults" takes.
  return SessionEngine(/*is_initiator=*/false, local_config,
                       std::move(elements), registry);
}

SessionEngine SessionEngine::Responder(
    const SessionConfig& local_config,
    std::shared_ptr<const StoreSnapshot> snapshot,
    std::shared_ptr<MutableElementStore> store,
    const SchemeRegistry* registry) {
  SessionEngine engine(/*is_initiator=*/false, local_config,
                       snapshot != nullptr ? snapshot->elements : nullptr,
                       registry);
  engine.snapshot_ = std::move(snapshot);
  engine.store_ = std::move(store);
  return engine;
}

SessionEngine SessionEngine::Updater(std::vector<UpdateBatch> batches,
                                     const SchemeRegistry* registry) {
  // Built through the responder-shaped ctor (no HELLO, no reconciler),
  // then flipped to the initiating role: the updater speaks only
  // kUpdate/kUpdateAck/kDone and needs neither a scheme nor elements.
  SessionEngine engine(/*is_initiator=*/false, SessionConfig(), nullptr,
                       registry);
  engine.is_initiator_ = true;
  engine.is_updater_ = true;
  engine.result_.scheme = "update";
  engine.batches_ = std::move(batches);
  if (engine.batches_.empty()) {
    engine.FinishUpdater();  // Nothing to send: go straight to DONE.
  } else {
    engine.EmitNextUpdate();
  }
  return engine;
}

SessionEngine::SessionEngine(bool is_initiator, const SessionConfig& config,
                             SharedElements elements,
                             const SchemeRegistry* registry)
    : is_initiator_(is_initiator),
      state_(is_initiator ? State::kAwaitHelloAck : State::kAwaitHello),
      config_(config),
      elements_(std::move(elements)),
      registry_(registry) {
  phase_start_ = std::chrono::steady_clock::now();
  if (!is_initiator_) return;

  result_.scheme = config_.scheme_name;
  scheme_id_ = wire::SchemeWireId(config_.scheme_name);
  std::string config_error;
  if (!ValidateSessionConfig(config_, &config_error)) {
    Fail(std::move(config_error));
    return;
  }
  reconciler_ = this->registry().Create(config_.scheme_name, config_.options);
  if (!reconciler_) {
    Fail("unknown scheme '" + config_.scheme_name + "'");
    return;
  }
  if (config_.resume != nullptr) {
    StartResumedInitiator();
    return;
  }
  if (config_.keyspace_shards >= sync::kMinKeyspaceShards) {
    StartShardedInitiator();
    return;
  }
  const std::vector<uint8_t> hello = EncodeHello(config_);
  AppendOutbound(FrameType::kHello, 0, hello.data(), hello.size(),
                 "sending HELLO");
}

SessionEngine::~SessionEngine() = default;
SessionEngine::SessionEngine(SessionEngine&&) noexcept = default;
SessionEngine& SessionEngine::operator=(SessionEngine&&) noexcept = default;

const SchemeRegistry& SessionEngine::registry() const {
  return registry_ != nullptr ? *registry_ : SchemeRegistry::Instance();
}

// ---------------------------------------------------------------- status --

SessionStatus SessionEngine::Status() const {
  // Outbound bytes drain first even when the session already settled or
  // failed: a queued ERROR/DONE frame should still reach the peer.
  if (out_pos_ < outbound_.size()) return SessionStatus::kWantWrite;
  if (state_ == State::kSettled) return SessionStatus::kDone;
  if (state_ == State::kFailed) return SessionStatus::kError;
  return SessionStatus::kWantRead;
}

const char* SessionEngine::phase_name() const {
  switch (state_) {
    case State::kAwaitHelloAck: return "awaiting HELLO_ACK";
    case State::kAwaitEstimateReply: return "awaiting estimate reply";
    case State::kAwaitSchemeReply: return "awaiting scheme reply";
    case State::kAwaitUpdateAck: return "awaiting UPDATE_ACK";
    case State::kAwaitShardPlanAck: return "awaiting SHARD_PLAN_ACK";
    case State::kAwaitResumeAck: return "awaiting RESUME_ACK";
    case State::kAwaitDigestReply: return "awaiting digest reply";
    case State::kShardMux: return "running sub-sessions";
    case State::kAwaitDoneAck: return "awaiting DONE ack";
    case State::kAwaitHello: return "awaiting HELLO";
    case State::kServing: return "serving";
    case State::kSettled: return "settled";
    case State::kFailed: return "failed";
  }
  return "unknown";
}

int64_t SessionEngine::DeadlineRemainingMs() const {
  if (config_.phase_deadline_ms <= 0) return -1;
  if (state_ == State::kSettled || state_ == State::kFailed) return -1;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - phase_start_)
                           .count();
  const int64_t remaining = config_.phase_deadline_ms - elapsed;
  return remaining > 0 ? remaining : 0;
}

bool SessionEngine::CheckDeadline() {
  if (DeadlineRemainingMs() != 0) return false;
  const std::string message =
      std::string("phase deadline exceeded while ") + phase_name();
  // The responder tells the stalled peer why it is being dropped; the
  // initiator's driver reads the error from the result.
  if (!is_initiator_) AppendError(message);
  Fail(message);
  return true;
}

size_t SessionEngine::NeededBytes() const {
  if (Status() != SessionStatus::kWantRead) return 0;
  const size_t buffered = BufferedBytes();
  if (buffered < wire::kFrameHeaderSize) {
    return wire::kFrameHeaderSize - buffered;
  }
  // ProcessInbound consumed every complete frame and validated the
  // buffered header, so what remains is a partial frame with a sane
  // length field.
  size_t payload_length = 0;
  if (wire::InspectFrameHeader(inbound_.data() + in_pos_, &payload_length) !=
      FrameStatus::kOk) {
    return 1;  // Unreachable; defensive so a caller can still make progress.
  }
  return wire::kFrameHeaderSize + payload_length - buffered;
}

// ------------------------------------------------------------- outbound --

void SessionEngine::AppendOutbound(FrameType type, uint32_t round,
                                   const uint8_t* payload, size_t size,
                                   const char* label) {
  // Compact a fully-drained buffer before growing it again (keeps the
  // buffer at its frame-peak size instead of creeping per session round).
  if (out_pos_ == outbound_.size()) {
    outbound_.clear();
    out_pos_ = 0;
  }
  wire_bytes_ += wire::AppendFrame(type, scheme_id_, round, payload, size,
                                   &outbound_);
  wire_frames_ += 1;
  write_label_ = label;
  result_.outcome.wire_bytes = wire_bytes_;
  result_.outcome.wire_frames = wire_frames_;
}

void SessionEngine::AppendError(const std::string& message) {
  AppendOutbound(FrameType::kError, 0,
                 reinterpret_cast<const uint8_t*>(message.data()),
                 message.size(), "sending error");
}

size_t SessionEngine::Poll(uint8_t* out, size_t max) {
  const size_t n = std::min(max, outbound_size());
  if (n > 0) {
    std::memcpy(out, outbound_data(), n);
    ConsumeOutbound(n);
  }
  return n;
}

void SessionEngine::ConsumeOutbound(size_t n) {
  out_pos_ += n;
  if (out_pos_ >= outbound_.size()) {
    outbound_.clear();
    out_pos_ = 0;
  }
}

void SessionEngine::FailTransport() {
  if (state_ == State::kSettled || state_ == State::kFailed) {
    // Already settled: the undeliverable bytes were courtesy frames (DONE
    // ack, ERROR); drop them so Status() can report the terminal state.
    outbound_.clear();
    out_pos_ = 0;
    return;
  }
  outbound_.clear();
  out_pos_ = 0;
  Fail(std::string("transport failed ") + write_label_);
}

// -------------------------------------------------------------- inbound --

void SessionEngine::Feed(const uint8_t* data, size_t size) {
  if (state_ == State::kSettled || state_ == State::kFailed) return;
  inbound_.insert(inbound_.end(), data, data + size);
  ProcessInbound();
}

void SessionEngine::FeedEof() {
  if (state_ == State::kSettled || state_ == State::kFailed) return;
  Fail(BufferedBytes() < wire::kFrameHeaderSize
           ? "transport closed while reading frame header"
           : "transport closed while reading frame payload");
}

void SessionEngine::ProcessInbound() {
  while (state_ != State::kSettled && state_ != State::kFailed) {
    const size_t buffered = BufferedBytes();
    if (buffered < wire::kFrameHeaderSize) break;
    size_t payload_length = 0;
    FrameStatus status =
        wire::InspectFrameHeader(inbound_.data() + in_pos_, &payload_length);
    if (status == FrameStatus::kOk &&
        buffered < wire::kFrameHeaderSize + payload_length) {
      break;  // Partial frame: wait for more bytes.
    }
    size_t consumed = 0;
    if (status == FrameStatus::kOk) {
      status = wire::DecodeFrame(inbound_.data() + in_pos_, buffered, &frame_,
                                 &consumed);
    }
    if (status != FrameStatus::kOk) {
      // A malformed envelope is fatal for the stream. The responder tells
      // the peer why before giving up (e.g. an initiator speaking a newer
      // wire version learns "unsupported wire version" instead of
      // watching the connection drop); the initiator just reports it.
      if (!is_initiator_) AppendError(StatusName(status));
      Fail(StatusName(status));
      return;
    }
    in_pos_ += consumed;
    wire_bytes_ += consumed;
    wire_frames_ += 1;
    result_.outcome.wire_bytes = wire_bytes_;
    result_.outcome.wire_frames = wire_frames_;
    DispatchFrame();
    // The deadline is per *phase*, not per session: any complete frame
    // from the peer is progress and restarts the clock.
    if (config_.phase_deadline_ms > 0) {
      phase_start_ = std::chrono::steady_clock::now();
    }
  }
  // Sharded sessions batch inbound sub-frames per Feed; process the batch
  // now that the frame loop drained (sync/sharded_session.h batch model).
  if (shard_coordinator_ != nullptr || shard_mux_ != nullptr) {
    FlushShardFrames();
  }
  // Compact the consumed prefix. Memmove, not erase-with-realloc: the
  // buffer stays at peak capacity, so steady-state rounds never allocate.
  if (in_pos_ == inbound_.size()) {
    inbound_.clear();
    in_pos_ = 0;
  } else if (in_pos_ > 0) {
    const size_t remaining = inbound_.size() - in_pos_;
    std::memmove(inbound_.data(), inbound_.data() + in_pos_, remaining);
    inbound_.resize(remaining);
    in_pos_ = 0;
  }
}

void SessionEngine::DispatchFrame() {
  if (is_initiator_) {
    DispatchInitiator();
  } else {
    DispatchResponder();
  }
}

// ------------------------------------------------------------- initiator --

void SessionEngine::DispatchInitiator() {
  if (frame_.type == FrameType::kError) {
    Fail((state_ == State::kAwaitHelloAck ? "responder rejected: "
                                          : "responder error: ") +
         ErrorText(frame_));
    return;
  }
  switch (state_) {
    case State::kAwaitHelloAck: {
      if (frame_.type != FrameType::kHelloAck) {
        Fail("expected HELLO_ACK");
        return;
      }
      if (config_.exact_d >= 0.0) {
        result_.d_hat = d_hat_ = config_.exact_d;
        StartSchemePhase();
        return;
      }
      SendEstimateRequest();
      return;
    }
    case State::kAwaitEstimateReply: {
      if (frame_.type != FrameType::kEstimateReply) {
        Fail("expected ESTIMATE_REPLY");
        return;
      }
      BitReader r(frame_.payload);
      d_hat_ = BitsToDouble(r.ReadBits(64));
      estimator_payload_bytes_ += frame_.payload.size();
      if (r.overflowed() || !std::isfinite(d_hat_) || d_hat_ < 0.0) {
        Fail("malformed estimate reply");
        return;
      }
      if (d_hat_ > kMaxWireEstimate) {
        Fail("difference estimate exceeds wire session capacity "
             "(d-hat > 2^19)");
        return;
      }
      result_.d_hat = d_hat_;
      if (shard_coordinator_ != nullptr) {
        // Sharded path: apportion the global estimate across the
        // differing shards; FlushShardFrames (end of this ProcessInbound
        // pass) opens the first sub-sessions.
        shard_coordinator_->SetTotalEstimate(d_hat_);
        state_ = State::kShardMux;
        return;
      }
      StartSchemePhase();
      return;
    }
    case State::kAwaitSchemeReply: {
      if (frame_.type != FrameType::kSchemeReply) {
        Fail("expected SCHEME_REPLY");
        return;
      }
      if (!initiator_engine_->HandleReply(frame_.payload)) {
        AppendError("malformed scheme reply");
        Fail("malformed scheme reply");
        return;
      }
      if (!initiator_engine_->done()) {
        EmitNextRequest();
        return;
      }
      result_.outcome = initiator_engine_->TakeOutcome();
      result_.outcome.estimator_bytes += estimator_payload_bytes_;
      const std::vector<uint8_t> done = EncodeDone(result_.outcome);
      AppendOutbound(FrameType::kDone, exchange_, done.data(), done.size(),
                     "sending DONE");
      state_ = State::kAwaitDoneAck;
      return;
    }
    case State::kAwaitUpdateAck: {
      if (frame_.type != FrameType::kUpdateAck) {
        Fail("expected UPDATE_ACK");
        return;
      }
      BitReader r(frame_.payload);
      update_epoch_ = r.ReadBits(64);
      update_inserted_ += static_cast<uint32_t>(r.ReadBits(32));
      update_deleted_ += static_cast<uint32_t>(r.ReadBits(32));
      update_rejected_ += static_cast<uint32_t>(r.ReadBits(32));
      update_rejected_ += static_cast<uint32_t>(r.ReadBits(32));
      if (r.overflowed()) {
        Fail("malformed UPDATE_ACK");
        return;
      }
      ++batch_pos_;
      if (batch_pos_ < batches_.size()) {
        EmitNextUpdate();
      } else {
        FinishUpdater();
      }
      return;
    }
    case State::kAwaitShardPlanAck:
      HandleShardPlanAck();
      return;
    case State::kAwaitResumeAck:
      HandleResumeAck();
      return;
    case State::kAwaitDigestReply:
      HandleDigestReply();
      return;
    case State::kShardMux:
      HandleSubSession();
      return;
    case State::kAwaitDoneAck: {
      if (frame_.type != FrameType::kDone) {
        Fail("expected DONE ack");
        return;
      }
      result_.ok = true;
      Settle();
      return;
    }
    default:
      Fail("unexpected frame");
      return;
  }
}

// --------------------------------------------------------------- sharded --

void SessionEngine::StartShardedInitiator() {
  shard_coordinator_ = std::make_unique<sync::ShardedCoordinator>(
      config_, elements_, registry_);
  if (!shard_coordinator_->ok()) {
    Fail(shard_coordinator_->error());
    return;
  }
  const std::vector<uint8_t> hello = EncodeHello(config_);
  const std::vector<uint8_t> plan =
      EncodeShardPlan(config_.keyspace_shards, shard_coordinator_->root(),
                      hello);
  AppendOutbound(FrameType::kShardPlan, 0, plan.data(), plan.size(),
                 "sending SHARD_PLAN");
  state_ = State::kAwaitShardPlanAck;
}

void SessionEngine::HandleShardPlanAck() {
  if (frame_.type != FrameType::kShardPlanAck) {
    Fail("expected SHARD_PLAN_ACK");
    return;
  }
  if (frame_.payload.size() != 10) {
    Fail("malformed SHARD_PLAN_ACK");
    return;
  }
  const int accepted = GetU16(frame_.payload.data());
  const uint64_t remote_root = GetU64(frame_.payload.data() + 2);
  remote_root_ = remote_root;  // A later resume token must carry it.
  std::string error;
  if (!shard_coordinator_->AdoptShardCount(accepted, &error)) {
    Fail(std::move(error));
    return;
  }
  if (shard_coordinator_->root() == remote_root) {
    // Equal roots certify every shard identical: settle right here, four
    // frames total, without ever shipping the digest leaves.
    result_.outcome.success = true;
    result_.outcome.rounds = 0;
    char summary[64];
    std::snprintf(summary, sizeof(summary),
                  "shards=%d identical=%d differing=0", accepted, accepted);
    result_.outcome.params_summary = summary;
    result_.d_hat = d_hat_ = 0.0;
    const std::vector<uint8_t> done = EncodeDone(result_.outcome);
    AppendOutbound(FrameType::kDone, exchange_, done.data(), done.size(),
                   "sending DONE");
    state_ = State::kAwaitDoneAck;
    return;
  }
  shard_coordinator_->EncodeDigestTree(&payload_scratch_);
  AppendOutbound(FrameType::kDigestTree, 0, payload_scratch_.data(),
                 payload_scratch_.size(), "sending DIGEST_TREE");
  state_ = State::kAwaitDigestReply;
}

void SessionEngine::StartResumedInitiator() {
  const sync::ShardResumeState& token = *config_.resume;
  if (!ValidResumeToken(token)) {
    Fail("invalid resume token");
    return;
  }
  shard_coordinator_ = std::make_unique<sync::ShardedCoordinator>(
      config_, elements_, registry_, token);
  if (!shard_coordinator_->ok()) {
    Fail(shard_coordinator_->error());
    return;
  }
  remote_root_ = token.remote_root;
  const std::vector<uint8_t> hello = EncodeHello(config_);
  const std::vector<uint8_t> payload = EncodeResume(token, hello);
  AppendOutbound(FrameType::kResume, 0, payload.data(), payload.size(),
                 "sending RESUME");
  state_ = State::kAwaitResumeAck;
}

void SessionEngine::HandleResumeAck() {
  if (frame_.type != FrameType::kResumeAck) {
    Fail("expected RESUME_ACK");
    return;
  }
  if (frame_.payload.size() != 8) {
    Fail("malformed RESUME_ACK");
    return;
  }
  if (GetU64(frame_.payload.data()) != remote_root_) {
    // The responder accepted but reports a different root than the token
    // carries: its set changed under us. Same taxonomy as the responder's
    // own rejection so drivers can fall back to a fresh session.
    Fail("stale resume: responder set changed");
    return;
  }
  // FlushShardFrames (end of this ProcessInbound pass) reopens the
  // pending sub-sessions -- or settles directly when none were staged.
  state_ = State::kShardMux;
}

void SessionEngine::HandleDigestReply() {
  if (frame_.type != FrameType::kDigestReply) {
    Fail("expected DIGEST_REPLY");
    return;
  }
  std::string error;
  if (!shard_coordinator_->BeginSubSessions(frame_.payload, &error)) {
    Fail(std::move(error));
    return;
  }
  if (shard_coordinator_->NeedsEstimate()) {
    // Enough shards differ that one global sketch beats blind retry
    // ladders: run the same estimate exchange a monolithic session uses
    // and apportion the total. Sub-sessions stay parked until the reply.
    SendEstimateRequest();
    return;
  }
  // FlushShardFrames (end of this ProcessInbound pass) opens the first
  // `shard_pipeline` sub-sessions -- or settles directly when the bitmap
  // named no differing shard.
  state_ = State::kShardMux;
}

void SessionEngine::SendEstimateRequest() {
  TowSketch sketch(config_.options.pbs.ell, config_.estimate_seed);
  sketch.AddAll(*elements_);
  BitWriter w;
  w.WriteBits(elements_->size(), 64);
  sketch.Serialize(&w, elements_->size());
  estimator_payload_bytes_ += w.byte_size();
  const std::vector<uint8_t> payload = w.TakeBytes();
  AppendOutbound(FrameType::kEstimateRequest, 0, payload.data(),
                 payload.size(), "sending estimate");
  state_ = State::kAwaitEstimateReply;
}

void SessionEngine::HandleSubSession() {
  std::vector<sync::SubFrame> records;
  if (frame_.type != FrameType::kSubSession ||
      !sync::ParseSubRecords(frame_.payload, &records) || records.empty()) {
    if (!is_initiator_) AppendError("malformed SUB_SESSION");
    Fail("malformed SUB_SESSION");
    return;
  }
  std::string error;
  for (auto& sub : records) {
    const bool ok =
        is_initiator_
            ? shard_coordinator_->HandleSubFrame(std::move(sub), &error)
            : shard_mux_->HandleSubFrame(std::move(sub), &error);
    if (!ok) {
      if (!is_initiator_) AppendError(error);
      Fail(std::move(error));
      return;
    }
  }
}

void SessionEngine::FlushShardFrames() {
  if (state_ == State::kSettled || state_ == State::kFailed) return;
  // One outer frame carries every record the flush produced: the 23-byte
  // envelope amortizes across all shards with traffic this round.
  std::vector<uint8_t> batch;
  const auto emit = [&batch](uint32_t shard, uint8_t inner_type,
                             const uint8_t* data, size_t size) {
    sync::AppendSubRecord(shard, inner_type, data, size, &batch);
  };
  if (is_initiator_) {
    if (state_ != State::kShardMux) return;
    std::string error;
    if (!shard_coordinator_->Flush(emit, &error)) {
      Fail(std::move(error));
      return;
    }
    if (!batch.empty()) {
      ++exchange_;
      AppendOutbound(FrameType::kSubSession, exchange_, batch.data(),
                     batch.size(), "sending sub-session batch");
    }
    if (shard_coordinator_->done()) FinishShardedInitiator();
    return;
  }
  std::string error;
  if (!shard_mux_->Flush(emit, &error)) {
    AppendError(error);
    Fail(std::move(error));
    return;
  }
  if (!batch.empty()) {
    AppendOutbound(FrameType::kSubSession, frame_.round, batch.data(),
                   batch.size(), "sending sub-session batch");
  }
}

void SessionEngine::FinishShardedInitiator() {
  result_.outcome = shard_coordinator_->TakeOutcome();
  result_.outcome.estimator_bytes += estimator_payload_bytes_;
  result_.degraded_shards = shard_coordinator_->degraded_shards();
  result_.d_hat = d_hat_ = shard_coordinator_->total_d_hat();
  const std::vector<uint8_t> done = EncodeDone(result_.outcome);
  ++exchange_;
  AppendOutbound(FrameType::kDone, exchange_, done.data(), done.size(),
                 "sending DONE");
  state_ = State::kAwaitDoneAck;
}

void SessionEngine::StartSchemePhase() {
  initiator_engine_ =
      reconciler_->CreateInitiator(*elements_, d_hat_, config_.seed);
  if (!initiator_engine_) {
    AppendError("scheme has no wire protocol");
    Fail("scheme '" + config_.scheme_name +
         "' does not implement a wire protocol");
    return;
  }
  state_ = State::kAwaitSchemeReply;
  EmitNextRequest();
}

void SessionEngine::EmitNextRequest() {
  ++exchange_;
  initiator_engine_->NextRequest(&payload_scratch_);
  AppendOutbound(FrameType::kSchemeRequest, exchange_, payload_scratch_.data(),
                 payload_scratch_.size(), "sending round request");
}

// --------------------------------------------------------------- updater --

void SessionEngine::EmitNextUpdate() {
  ++exchange_;
  BitWriter w;
  EncodeUpdate(batches_[batch_pos_], &w);
  AppendOutbound(FrameType::kUpdate, exchange_, w.bytes().data(),
                 w.byte_size(), "sending update");
  state_ = State::kAwaitUpdateAck;
}

void SessionEngine::FinishUpdater() {
  result_.outcome.success = true;
  result_.outcome.rounds = static_cast<int>(batch_pos_);
  char summary[96];
  std::snprintf(summary, sizeof(summary),
                "epoch=%llu inserted=%u deleted=%u rejected=%u",
                static_cast<unsigned long long>(update_epoch_),
                update_inserted_, update_deleted_, update_rejected_);
  result_.outcome.params_summary = summary;
  const std::vector<uint8_t> done = EncodeDone(result_.outcome);
  AppendOutbound(FrameType::kDone, exchange_, done.data(), done.size(),
                 "sending DONE");
  state_ = State::kAwaitDoneAck;
}

// ------------------------------------------------------------- responder --

void SessionEngine::DispatchResponder() {
  if (frame_.type == FrameType::kError) {
    Fail("initiator error: " + ErrorText(frame_));
    return;
  }
  if (frame_.type == FrameType::kUpdate) {
    // UPDATE sessions skip the HELLO: the first kUpdate frame *is* the
    // handshake. Interception before HandleHello keeps the two session
    // kinds from interleaving (see HandleUpdate for the rejections).
    HandleUpdate();
    return;
  }
  if (frame_.type == FrameType::kShardPlan) {
    // Sharded sessions skip the plain HELLO: the SHARD_PLAN embeds it.
    // Interception mirrors kUpdate above (see HandleShardPlan's checks).
    HandleShardPlan();
    return;
  }
  if (frame_.type == FrameType::kResume) {
    // A resumed sharded session: the RESUME embeds the HELLO just like
    // SHARD_PLAN does, and replaces the digest exchange entirely.
    HandleResume();
    return;
  }
  if (state_ == State::kAwaitHello) {
    HandleHello();
    return;
  }
  if (update_session_ && frame_.type != FrameType::kDone) {
    // An update session carries only kUpdate frames and a final kDone.
    AppendError("unexpected frame");
    Fail("unexpected frame");
    return;
  }
  switch (frame_.type) {
    case FrameType::kEstimateRequest:
      HandleEstimateRequest();
      return;
    case FrameType::kSchemeRequest:
      HandleSchemeRequest();
      return;
    case FrameType::kDigestTree:
      HandleDigestTree();
      return;
    case FrameType::kSubSession:
      if (shard_mux_ == nullptr) {
        AppendError("unexpected frame");
        Fail("unexpected frame");
        return;
      }
      HandleSubSession();
      return;
    case FrameType::kDone: {
      bool success = false;
      int rounds = 0;
      uint64_t diff_size = 0;
      if (!DecodeDone(frame_.payload, &success, &rounds, &diff_size)) {
        Fail("malformed DONE");
        return;
      }
      AppendOutbound(FrameType::kDone, frame_.round, nullptr, 0,
                     "sending ack");
      result_.ok = true;
      result_.d_hat = d_hat_ < 0.0 ? 0.0 : d_hat_;
      result_.outcome.success = success;
      result_.outcome.rounds = rounds;
      if (shard_mux_ != nullptr) {
        result_.degraded_shards = shard_mux_->degraded_shards();
      }
      Settle();
      return;
    }
    default:
      AppendError("unexpected frame");
      Fail("unexpected frame");
      return;
  }
}

void SessionEngine::HandleHello() {
  if (frame_.type != FrameType::kHello) {
    AppendError("expected HELLO");
    Fail("expected HELLO");
    return;
  }
  if (!DecodeHello(frame_.payload, &config_)) {
    AppendError("malformed HELLO");
    Fail("malformed HELLO");
    return;
  }
  result_.scheme = config_.scheme_name;
  scheme_id_ = wire::SchemeWireId(config_.scheme_name);
  reconciler_ = registry().Create(config_.scheme_name, config_.options);
  if (!reconciler_) {
    const std::string message = "unknown scheme '" + config_.scheme_name + "'";
    AppendError(message);
    Fail(message);
    return;
  }
  d_hat_ = config_.exact_d;  // -1 until the estimate phase runs.
  AppendOutbound(FrameType::kHelloAck, 0, nullptr, 0, "sending ack");
  state_ = State::kServing;
}

void SessionEngine::HandleShardPlan() {
  if (state_ != State::kAwaitHello || update_session_) {
    AppendError("unexpected frame");
    Fail("unexpected frame");
    return;
  }
  if (elements_ == nullptr) {
    AppendError("server has no element set");
    Fail("SHARD_PLAN on a server with no element set");
    return;
  }
  int proposed = 0;
  uint64_t remote_root = 0;
  std::vector<uint8_t> hello;
  if (!DecodeShardPlanHeader(frame_.payload, &proposed, &remote_root,
                             &hello)) {
    AppendError("malformed SHARD_PLAN");
    Fail("malformed SHARD_PLAN");
    return;
  }
  if (proposed < sync::kMinKeyspaceShards ||
      proposed > sync::kMaxKeyspaceShards) {
    AppendError("shard count out of range");
    Fail("shard count out of range");
    return;
  }
  // DecodeHello overwrites every wire-carried field; side-local knobs
  // (decode_threads, keyspace_shards) survive in config_, which is what
  // lets a smaller locally-configured shard count clamp the proposal.
  if (!DecodeHello(hello, &config_)) {
    AppendError("malformed HELLO");
    Fail("malformed HELLO");
    return;
  }
  result_.scheme = config_.scheme_name;
  scheme_id_ = wire::SchemeWireId(config_.scheme_name);
  if (!registry().Contains(config_.scheme_name)) {
    const std::string message = "unknown scheme '" + config_.scheme_name + "'";
    AppendError(message);
    Fail(message);
    return;
  }
  int accepted = proposed;
  if (config_.keyspace_shards >= sync::kMinKeyspaceShards &&
      config_.keyspace_shards < proposed) {
    accepted = config_.keyspace_shards;
  }
  shard_mux_ = std::make_unique<sync::ShardedResponderMux>(
      config_, elements_, registry_, accepted, snapshot_);
  if (!shard_mux_->ok()) {
    const std::string message = shard_mux_->error();
    AppendError(message);
    Fail(message);
    return;
  }
  d_hat_ = config_.exact_d;
  const std::vector<uint8_t> ack =
      EncodeShardPlanAck(accepted, shard_mux_->root());
  AppendOutbound(FrameType::kShardPlanAck, 0, ack.data(), ack.size(),
                 "sending SHARD_PLAN_ACK");
  state_ = State::kServing;
}

void SessionEngine::HandleResume() {
  if (state_ != State::kAwaitHello || update_session_) {
    AppendError("unexpected frame");
    Fail("unexpected frame");
    return;
  }
  if (elements_ == nullptr) {
    AppendError("server has no element set");
    Fail("RESUME on a server with no element set");
    return;
  }
  int shards = 0;
  uint64_t remote_root = 0;
  std::vector<std::pair<uint32_t, uint8_t>> entries;
  std::vector<uint8_t> hello;
  if (!DecodeResumeHeader(frame_.payload, &shards, &remote_root, &entries,
                          &hello)) {
    AppendError("malformed RESUME");
    Fail("malformed RESUME");
    return;
  }
  if (shards < sync::kMinKeyspaceShards || shards > sync::kMaxKeyspaceShards) {
    AppendError("shard count out of range");
    Fail("shard count out of range");
    return;
  }
  if (!DecodeHello(hello, &config_)) {
    AppendError("malformed HELLO");
    Fail("malformed HELLO");
    return;
  }
  result_.scheme = config_.scheme_name;
  scheme_id_ = wire::SchemeWireId(config_.scheme_name);
  if (!registry().Contains(config_.scheme_name)) {
    const std::string message = "unknown scheme '" + config_.scheme_name + "'";
    AppendError(message);
    Fail(message);
    return;
  }
  // The resumed count was *negotiated* by the interrupted session, but
  // this server's local clamp still binds (the reconnect may have landed
  // on a differently-configured replica).
  if (config_.keyspace_shards >= sync::kMinKeyspaceShards &&
      config_.keyspace_shards < shards) {
    const std::string message = "resume shard count exceeds server limit";
    AppendError(message);
    Fail(message);
    return;
  }
  shard_mux_ = std::make_unique<sync::ShardedResponderMux>(
      config_, elements_, registry_, shards, snapshot_);
  if (!shard_mux_->ok()) {
    const std::string message = shard_mux_->error();
    AppendError(message);
    Fail(message);
    return;
  }
  if (shard_mux_->root() != remote_root) {
    // The served set changed between the interrupted session and this
    // resume, so the shard outcomes the client banked may be invalid.
    // Reject; the client falls back to a fresh session against the
    // current set.
    const std::string message = "stale resume: responder set changed";
    AppendError(message);
    Fail(message);
    return;
  }
  std::string error;
  if (!shard_mux_->BeginResume(entries, &error)) {
    AppendError(error);
    Fail(std::move(error));
    return;
  }
  d_hat_ = config_.exact_d;
  std::vector<uint8_t> ack;
  ack.reserve(8);
  PutU64(shard_mux_->root(), &ack);
  AppendOutbound(FrameType::kResumeAck, 0, ack.data(), ack.size(),
                 "sending RESUME_ACK");
  state_ = State::kServing;
}

void SessionEngine::HandleDigestTree() {
  if (shard_mux_ == nullptr) {
    AppendError("unexpected frame");
    Fail("unexpected frame");
    return;
  }
  std::string error;
  if (!shard_mux_->HandleDigestTree(frame_.payload, &payload_scratch_,
                                    &error)) {
    AppendError(error);
    Fail(std::move(error));
    return;
  }
  AppendOutbound(FrameType::kDigestReply, frame_.round,
                 payload_scratch_.data(), payload_scratch_.size(),
                 "sending DIGEST_REPLY");
}

void SessionEngine::HandleEstimateRequest() {
  BitReader r(frame_.payload);
  const uint64_t remote_size = r.ReadBits(64);
  const int ell = config_.options.pbs.ell;
  // remote_size sets the per-counter width ceil(log2(2n+1)); cap it so a
  // hostile value cannot push the width past 64 bits (UB in ReadBits) —
  // real sets are orders of magnitude below this.
  if (remote_size > (uint64_t{1} << 48)) {
    AppendError("malformed estimate request");
    Fail("malformed estimate request");
    return;
  }
  // Past the size, the payload holds exactly the ell counters: a short
  // read and trailing bytes are both malformed.
  const size_t counter_bytes =
      (static_cast<size_t>(TowSketch::BitSize(ell, remote_size)) + 7) / 8;
  if (frame_.payload.size() != 8 + counter_bytes) {
    AppendError("malformed estimate request");
    Fail("malformed estimate request");
    return;
  }
  TowSketch remote = TowSketch::Deserialize(&r, ell, config_.estimate_seed,
                                            remote_size);
  TowSketch local(ell, config_.estimate_seed);
  local.AddAll(*elements_);
  d_hat_ = TowSketch::Estimate(remote, local);
  BitWriter w;
  w.WriteBits(DoubleBits(d_hat_), 64);
  const std::vector<uint8_t> payload = w.TakeBytes();
  AppendOutbound(FrameType::kEstimateReply, 0, payload.data(), payload.size(),
                 "sending estimate");
}

void SessionEngine::HandleUpdate() {
  if (store_ == nullptr) {
    AppendError("server is read-only");
    Fail("update on read-only server");
    return;
  }
  if (state_ != State::kAwaitHello && !update_session_) {
    // kUpdate arriving mid-reconciliation: sessions are single-purpose.
    AppendError("unexpected frame");
    Fail("unexpected frame");
    return;
  }
  update_session_ = true;
  state_ = State::kServing;
  result_.scheme = "update";
  if (!DecodeUpdate(frame_.payload, &update_scratch_)) {
    // Nothing was applied: DecodeUpdate validates the entire payload
    // before HandleUpdate touches the store.
    AppendError("malformed UPDATE");
    Fail("malformed UPDATE");
    return;
  }
  const ApplyResult applied = store_->Apply(update_scratch_);
  update_epoch_ = applied.epoch;
  update_inserted_ += applied.inserted;
  update_deleted_ += applied.deleted;
  update_rejected_ += applied.rejected_inserts + applied.rejected_deletes;
  BitWriter w;
  w.WriteBits(applied.epoch, 64);
  w.WriteBits(applied.inserted, 32);
  w.WriteBits(applied.deleted, 32);
  w.WriteBits(applied.rejected_inserts, 32);
  w.WriteBits(applied.rejected_deletes, 32);
  static_assert(kUpdateAckBits == 64 + 4 * 32, "ack layout drifted");
  AppendOutbound(FrameType::kUpdateAck, frame_.round, w.bytes().data(),
                 w.byte_size(), "sending update ack");
}

void SessionEngine::HandleSchemeRequest() {
  if (!responder_engine_) {
    if (d_hat_ < 0.0) {
      AppendError("scheme round before estimate");
      Fail("scheme round before estimate");
      return;
    }
    if (snapshot_ != nullptr) {
      // Snapshot fast path: schemes that can adopt the store's pre-built
      // sketch state skip the per-session O(|B|) rebuild. nullptr means
      // "no fast path"; fall through to the classic copying responder.
      responder_engine_ =
          reconciler_->CreateSnapshotResponder(snapshot_, d_hat_, config_.seed);
    }
    if (!responder_engine_) {
      responder_engine_ =
          reconciler_->CreateResponder(*elements_, d_hat_, config_.seed);
    }
    if (!responder_engine_) {
      AppendError("scheme has no wire protocol");
      Fail("scheme '" + config_.scheme_name +
           "' does not implement a wire protocol");
      return;
    }
  }
  if (!responder_engine_->HandleRequest(frame_.payload, &payload_scratch_)) {
    AppendError("malformed scheme request");
    Fail("malformed scheme request");
    return;
  }
  AppendOutbound(FrameType::kSchemeReply, frame_.round, payload_scratch_.data(),
                 payload_scratch_.size(), "sending reply");
}

// --------------------------------------------------------------- terminal --

void SessionEngine::Fail(std::string error) {
  result_.ok = false;
  result_.error = std::move(error);
  result_.outcome.wire_bytes = wire_bytes_;
  result_.outcome.wire_frames = wire_frames_;
  // A failing sharded initiator leaves a resume token behind so a
  // reconnecting driver can finish only the unsettled shards.
  // MakeResumeState returns null when there is nothing worth resuming
  // (plan not agreed yet, or every shard settled).
  if (is_initiator_ && shard_coordinator_ != nullptr &&
      result_.resume_state == nullptr && state_ != State::kFailed) {
    result_.resume_state = shard_coordinator_->MakeResumeState(remote_root_);
  }
  state_ = State::kFailed;
}

void SessionEngine::Settle() {
  result_.outcome.wire_bytes = wire_bytes_;
  result_.outcome.wire_frames = wire_frames_;
  state_ = State::kSettled;
}

}  // namespace pbs
