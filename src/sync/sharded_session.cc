#include "pbs/sync/sharded_session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "pbs/common/bitio.h"
#include "pbs/sync/merkle_prefilter.h"

namespace pbs::sync {
namespace {

using wire::FrameType;

// Mirrors the outer session's estimate-bounds policy
// (core/session_engine.cc): an estimate above this is a protocol
// violation, not a big set.
constexpr double kMaxSubEstimate = static_cast<double>(1 << 19);
// A failed sub-session attempt retries with its difference bound
// escalated by this factor: the wasted bytes of the whole ladder stay
// within a constant factor of the final successful attempt.
constexpr double kSubRetryGrowth = 4.0;
constexpr int kMaxSubAttempts = 6;
// When the pre-filter names at most this many differing shards, the
// global estimate exchange is skipped: a few retry-ladder escalations
// from kSkipInitialD cost less than a full-set ToW sketch on the wire.
constexpr size_t kEstimateSkipShards = 4;
constexpr double kSkipInitialD = 4.0;

// Per-shard scheme-request prefix: u8 attempt + f64 difference bound.
// When the attempt byte's top bit is set (graceful degradation), one
// scheme-id byte follows the attempt before the bound — clean sessions
// keep the classic 9-byte prefix bit-for-bit.
constexpr size_t kSubRequestPrefix = 9;
constexpr uint8_t kSubSchemeOverride = 0x80;
// Attempt counters share the byte with the override bit, so they are
// capped well below 0x80 (the ladders never get near this in practice).
constexpr uint8_t kMaxAttemptCounter = 120;

// Degradation ladder: when a shard's retry ladder exhausts under the
// primary scheme, it falls back to the first usable alternate from this
// list, then the next. Ordered by robustness under a wrong bound.
constexpr const char* kFallbackSchemes[] = {"graphene", "ddigest",
                                            "pinsketch"};

// The `level`-th (1-based) usable fallback for `primary`: registered,
// different from the primary, and with a nonzero wire id (the id is how
// the choice travels). Empty when the ladder is out of options.
std::string FallbackSchemeAt(const std::string& primary, int level,
                             const SchemeRegistry& reg) {
  int found = 0;
  for (const char* name : kFallbackSchemes) {
    if (primary == name) continue;
    if (!reg.Contains(name)) continue;
    if (wire::SchemeWireId(name) == 0) continue;
    if (++found == level) return name;
  }
  return std::string();
}

// Builds `name` for one shard's engines. They run serial -- the shard
// loop owns the parallelism -- so decode_threads is pinned to 1.
std::unique_ptr<SetReconciler> CreateSerialScheme(const SchemeRegistry& reg,
                                                  const std::string& name,
                                                  SchemeOptions options) {
  options.pbs.decode_threads = 1;
  return reg.Create(name, options);
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string ShardError(const char* what, uint32_t shard) {
  return std::string(what) + " (shard " + std::to_string(shard) + ")";
}

}  // namespace

void AppendSubRecord(uint32_t shard, uint8_t inner_type, const uint8_t* data,
                     size_t size, std::vector<uint8_t>* out) {
  out->reserve(out->size() + 7 + size);
  out->push_back(static_cast<uint8_t>(shard & 0xFF));
  out->push_back(static_cast<uint8_t>((shard >> 8) & 0xFF));
  out->push_back(inner_type);
  const uint32_t len = static_cast<uint32_t>(size);
  for (int b = 0; b < 4; ++b) {
    out->push_back(static_cast<uint8_t>((len >> (8 * b)) & 0xFF));
  }
  out->insert(out->end(), data, data + size);
}

bool ParseSubRecords(const std::vector<uint8_t>& payload,
                     std::vector<SubFrame>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 7) return false;
    SubFrame frame;
    frame.shard = static_cast<uint32_t>(payload[pos]) |
                  (static_cast<uint32_t>(payload[pos + 1]) << 8);
    frame.inner_type = payload[pos + 2];
    uint32_t len = 0;
    for (int b = 0; b < 4; ++b) {
      len |= static_cast<uint32_t>(payload[pos + 3 + b]) << (8 * b);
    }
    pos += 7;
    if (payload.size() - pos < len) return false;
    frame.payload.assign(payload.begin() + pos, payload.begin() + pos + len);
    pos += len;
    out->push_back(std::move(frame));
  }
  return true;
}

// ---------------------------------------------------------------------------
// ShardedCoordinator (initiator side)
// ---------------------------------------------------------------------------

struct ShardedCoordinator::Sub {
  enum Phase : uint8_t {
    kUnopened,
    kAwaitScheme,
    kAwaitDoneAck,
    kComplete,
  };

  uint32_t shard = 0;
  // Retained across attempts (each attempt's engine gets a copy): a
  // failed decode restarts from the same shard slice.
  std::vector<uint64_t> elements;
  std::unique_ptr<ReconcileInitiator> engine;
  double d_attempt = 1.0;
  uint8_t attempt = 0;
  // First attempt of the current ladder: fresh shards start at 1; a
  // resumed or degraded shard restarts its retry budget here, so
  // (attempt - ladder_start + 1) attempts have run on this ladder.
  uint8_t ladder_start = 1;
  // Graceful degradation: 0 = primary scheme; >0 indexes the fallback
  // list. `alt` is the fallback reconciler, announced to the responder
  // via the override prefix (attempt | 0x80, then the scheme id).
  uint8_t degrade_level = 0;
  uint8_t scheme_wire_id = 0;
  std::string scheme_name;
  std::unique_ptr<SetReconciler> alt;
  uint8_t phase = kUnopened;
  bool queued = false;       // An inbound record for this shard is queued.
  uint8_t pending_type = 0;  // Inner type to emit after Process (0 = none).
  std::vector<uint8_t> scratch;  // Reused outbound inner payload.
  std::vector<uint8_t> raw;      // Engine request before prefixing.
  // Byte/time accounting accumulated across every attempt.
  uint64_t acc_data_bytes = 0;
  int acc_rounds = 0;
  double acc_encode = 0.0;
  double acc_decode = 0.0;
  ReconcileOutcome outcome;
  bool has_outcome = false;
  std::string error;

  void StageRequest() {
    scratch.clear();
    const bool degraded = scheme_wire_id != 0;
    scratch.reserve((degraded ? 10 : 9) + raw.size());
    scratch.push_back(degraded
                          ? static_cast<uint8_t>(attempt | kSubSchemeOverride)
                          : attempt);
    if (degraded) scratch.push_back(scheme_wire_id);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d_attempt), "double width");
    std::memcpy(&bits, &d_attempt, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      scratch.push_back(static_cast<uint8_t>((bits >> (8 * b)) & 0xFF));
    }
    scratch.insert(scratch.end(), raw.begin(), raw.end());
    pending_type = static_cast<uint8_t>(FrameType::kSchemeRequest);
  }
};

ShardedCoordinator::ShardedCoordinator(const SessionConfig& config,
                                       SessionEngine::SharedElements elements,
                                       const SchemeRegistry* registry)
    : config_(config), elements_(std::move(elements)), registry_(registry) {
  pipeline_ = config_.shard_pipeline < 1 ? 1 : config_.shard_pipeline;
  plan_ = ShardPlan::Derive(config_.keyspace_shards, config_.seed);
  const SchemeRegistry& reg =
      registry != nullptr ? *registry : SchemeRegistry::Instance();
  reconciler_ =
      CreateSerialScheme(reg, config_.scheme_name, config_.options);
  if (reconciler_ == nullptr) {
    error_ = "unknown scheme '" + config_.scheme_name + "'";
  }
}

ShardedCoordinator::ShardedCoordinator(const SessionConfig& config,
                                       SessionEngine::SharedElements elements,
                                       const SchemeRegistry* registry,
                                       const ShardResumeState& token)
    : ShardedCoordinator(config, std::move(elements), registry) {
  if (!error_.empty()) return;
  // The plan comes from the token, not the config: the interrupted
  // session may have been clamped by the responder.
  plan_ = ShardPlan::Derive(token.shard_count, config_.seed);
  leaves_valid_ = false;
  resumed_ = true;
  initial_d_ = std::min(std::max(token.initial_d, 1.0), kMaxSubEstimate);
  identical_ = token.identical_shards;
  degraded_.store(token.degraded, std::memory_order_relaxed);
  carried_retries_ = token.retries;
  carried_difference_ = token.settled_difference;
  carried_data_bytes_ = token.settled_data_bytes;
  carried_rounds_ = token.settled_rounds;
  carried_encode_ = token.settled_encode_seconds;
  carried_decode_ = token.settled_decode_seconds;
  carried_settled_ = token.settled_count;
  const SchemeRegistry& reg =
      registry_ != nullptr ? *registry_ : SchemeRegistry::Instance();
  // Stage exactly the unsettled shards, each ladder where it stood.
  std::vector<uint32_t> ids;
  ids.reserve(token.pending.size());
  for (const auto& p : token.pending) ids.push_back(p.shard);
  std::vector<std::vector<uint64_t>> parts;
  PartitionSelected(elements_->data(), elements_->size(), plan_, ids, &parts);
  subs_.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const ShardResumeState::Pending& p = token.pending[i];
    auto sub = std::make_unique<Sub>();
    sub->shard = ids[i];
    sub->elements = std::move(parts[i]);
    sub->attempt = p.attempt;
    sub->d_attempt = std::isfinite(p.d_attempt)
                         ? std::min(std::max(p.d_attempt, 1.0), kMaxSubEstimate)
                         : initial_d_;
    if (p.degrade_level > 0) {
      // Rebuild the fallback reconciler the interrupted ladder reached.
      sub->degrade_level = p.degrade_level;
      sub->scheme_name =
          FallbackSchemeAt(config_.scheme_name, p.degrade_level, reg);
      sub->scheme_wire_id = wire::SchemeWireId(sub->scheme_name);
      sub->alt = CreateSerialScheme(reg, sub->scheme_name, config_.options);
      if (sub->alt == nullptr || sub->scheme_wire_id == 0) {
        error_ = "resume token names an unavailable fallback scheme";
        return;
      }
    }
    subs_.push_back(std::move(sub));
  }
  begun_ = true;
  ready_ = true;
}

ShardedCoordinator::~ShardedCoordinator() = default;

const std::vector<uint64_t>& ShardedCoordinator::leaves() {
  if (!leaves_valid_) {
    leaves_ = ComputeShardLeaves(plan_, elements_->data(), elements_->size());
    leaves_valid_ = true;
  }
  return leaves_;
}

uint64_t ShardedCoordinator::root() { return MerkleRootOf(leaves()); }

bool ShardedCoordinator::AdoptShardCount(int accepted, std::string* error) {
  if (accepted == plan_.shard_count) return true;
  if (accepted < kMinKeyspaceShards || accepted > plan_.shard_count) {
    *error = "responder accepted shard count " + std::to_string(accepted) +
             " outside [" + std::to_string(kMinKeyspaceShards) + ", " +
             std::to_string(plan_.shard_count) + "]";
    return false;
  }
  plan_ = ShardPlan::Derive(accepted, config_.seed);
  leaves_valid_ = false;
  return true;
}

void ShardedCoordinator::EncodeDigestTree(std::vector<uint8_t>* out) {
  *out = EncodeDigestLeaves(leaves());
}

bool ShardedCoordinator::BeginSubSessions(const std::vector<uint8_t>& payload,
                                          std::string* error) {
  if (begun_) {
    *error = "duplicate DIGEST_REPLY";
    return false;
  }
  if (payload.size() !=
      (static_cast<size_t>(plan_.shard_count) + 7) / 8) {
    *error = "malformed DIGEST_REPLY";
    return false;
  }
  std::vector<uint8_t> differs;
  if (!DecodeDiffBitmap(payload, static_cast<size_t>(plan_.shard_count),
                        &differs)) {
    *error = "malformed DIGEST_REPLY bitmap";
    return false;
  }
  std::vector<uint32_t> ids;
  for (size_t k = 0; k < differs.size(); ++k) {
    if (differs[k] != 0) ids.push_back(static_cast<uint32_t>(k));
  }
  identical_ = plan_.shard_count - static_cast<int>(ids.size());
  if (config_.exact_d >= 0.0) {
    // exact_d is documented as a valid per-shard upper bound.
    initial_d_ = std::min(std::max(config_.exact_d, 1.0), kMaxSubEstimate);
    ready_ = true;
  } else if (ids.size() <= kEstimateSkipShards) {
    // Few enough survivors that a sketch costs more than it saves: start
    // from a small default bound and let the retry ladder escalate.
    initial_d_ = kSkipInitialD;
    ready_ = true;
  }
  // Otherwise stay unready: the owning engine sees NeedsEstimate(), runs
  // the global estimate exchange, and SetTotalEstimate unblocks Flush.
  std::vector<std::vector<uint64_t>> parts;
  PartitionSelected(elements_->data(), elements_->size(), plan_, ids, &parts);
  subs_.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto sub = std::make_unique<Sub>();
    sub->shard = ids[i];
    sub->elements = std::move(parts[i]);
    subs_.push_back(std::move(sub));
  }
  begun_ = true;
  return true;
}

void ShardedCoordinator::SetTotalEstimate(double d_hat) {
  d_hat_total_ = d_hat;
  // Mean apportioned share plus a one-sigma Poisson cushion; the retry
  // ladder covers shards whose slice clusters beyond it.
  const double mean =
      d_hat / static_cast<double>(std::max<size_t>(1, subs_.size()));
  initial_d_ = std::ceil(mean + std::sqrt(mean) + 1.0);
  initial_d_ = std::min(std::max(initial_d_, 1.0), kMaxSubEstimate);
  ready_ = true;
}

ShardedCoordinator::Sub* ShardedCoordinator::FindSub(uint32_t shard) {
  auto it = std::lower_bound(
      subs_.begin(), subs_.end(), shard,
      [](const std::unique_ptr<Sub>& s, uint32_t id) { return s->shard < id; });
  if (it == subs_.end() || (*it)->shard != shard) return nullptr;
  return it->get();
}

bool ShardedCoordinator::HandleSubFrame(SubFrame frame, std::string* error) {
  if (!begun_) {
    *error = "sub-session record before DIGEST_REPLY";
    return false;
  }
  Sub* sub = FindSub(frame.shard);
  if (sub == nullptr) {
    *error = ShardError("sub-session record for unknown shard", frame.shard);
    return false;
  }
  if (sub->phase == Sub::kUnopened || sub->phase == Sub::kComplete) {
    *error = ShardError("sub-session record for inactive shard", frame.shard);
    return false;
  }
  if (sub->queued) {
    *error = ShardError("overlapping sub-session records", frame.shard);
    return false;
  }
  sub->queued = true;
  queue_.push_back(std::move(frame));
  return true;
}

void ShardedCoordinator::StartAttempt(Sub& sub) {
  SetReconciler* maker = sub.alt != nullptr ? sub.alt.get() : reconciler_.get();
  sub.engine = maker->CreateInitiator(sub.elements, sub.d_attempt,
                                      plan_.SubSeed(sub.shard));
  if (sub.engine == nullptr) {
    const std::string& name =
        sub.alt != nullptr ? sub.scheme_name : config_.scheme_name;
    sub.error = "scheme '" + name + "' has no wire protocol";
    return;
  }
  sub.engine->NextRequest(&sub.raw);
  sub.StageRequest();
  sub.phase = Sub::kAwaitScheme;
}

// Exhausted retry ladder: switch the shard to the next fallback scheme
// (fresh retry budget, current bound) instead of failing the session.
bool ShardedCoordinator::TryDegrade(Sub& sub) {
  if (sub.attempt >= kMaxAttemptCounter) return false;
  const SchemeRegistry& reg =
      registry_ != nullptr ? *registry_ : SchemeRegistry::Instance();
  const std::string name =
      FallbackSchemeAt(config_.scheme_name, sub.degrade_level + 1, reg);
  auto alt = CreateSerialScheme(reg, name, config_.options);
  if (alt == nullptr) return false;
  if (sub.degrade_level == 0) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  ++sub.degrade_level;
  sub.alt = std::move(alt);
  sub.scheme_name = name;
  sub.scheme_wire_id = wire::SchemeWireId(name);
  ++sub.attempt;
  sub.ladder_start = sub.attempt;  // Fresh retry budget under the fallback.
  StartAttempt(sub);
  return true;
}

void ShardedCoordinator::Open(Sub& sub) {
  if (sub.attempt == 0) {
    sub.attempt = 1;
    sub.ladder_start = 1;
    sub.d_attempt = initial_d_;
  } else {
    // Resumed shard: the new connection needs a new attempt (the
    // responder rebuilds its engine), continuing at the carried bound.
    ++sub.attempt;
    sub.ladder_start = sub.attempt;
  }
  StartAttempt(sub);
}

void ShardedCoordinator::Process(Sub& sub, const SubFrame& frame) {
  switch (sub.phase) {
    case Sub::kAwaitScheme: {
      if (frame.inner_type != static_cast<uint8_t>(FrameType::kSchemeReply)) {
        sub.error = ShardError("unexpected sub-session reply", sub.shard);
        return;
      }
      if (!sub.engine->HandleReply(frame.payload)) {
        sub.error = ShardError("malformed sub-session reply", sub.shard);
        return;
      }
      if (!sub.engine->done()) {
        // Later rounds of the same attempt keep the prefix: the record
        // format stays uniform and the responder re-checks consistency.
        sub.engine->NextRequest(&sub.raw);
        sub.StageRequest();
        return;
      }
      ReconcileOutcome attempt_outcome = sub.engine->TakeOutcome();
      sub.engine.reset();
      sub.acc_data_bytes += attempt_outcome.data_bytes;
      sub.acc_rounds += attempt_outcome.rounds;
      sub.acc_encode += attempt_outcome.encode_seconds;
      sub.acc_decode += attempt_outcome.decode_seconds;
      if (!attempt_outcome.success) {
        if (sub.attempt - sub.ladder_start + 1 < kMaxSubAttempts &&
            sub.d_attempt < kMaxSubEstimate &&
            sub.attempt < kMaxAttemptCounter) {
          // Escalate the bound and retry from scratch. Every scheme's
          // responder sizes itself from the request prefix, so the remote
          // engine follows without renegotiation.
          ++sub.attempt;
          sub.d_attempt =
              std::min(sub.d_attempt * kSubRetryGrowth, kMaxSubEstimate);
          StartAttempt(sub);
          return;
        }
        // Ladder exhausted: degrade to a fallback scheme for this shard
        // instead of failing the whole session.
        if (TryDegrade(sub)) return;
      }
      sub.outcome = std::move(attempt_outcome);
      sub.outcome.data_bytes = sub.acc_data_bytes;
      sub.outcome.rounds = sub.acc_rounds;
      sub.outcome.encode_seconds = sub.acc_encode;
      sub.outcome.decode_seconds = sub.acc_decode;
      sub.has_outcome = true;
      BitWriter w;
      w.WriteBits(sub.outcome.success ? 1 : 0, 8);
      w.WriteBits(static_cast<uint64_t>(sub.outcome.rounds), 32);
      w.WriteBits(static_cast<uint64_t>(sub.outcome.difference.size()), 64);
      sub.scratch = w.TakeBytes();
      sub.pending_type = static_cast<uint8_t>(FrameType::kDone);
      sub.phase = Sub::kAwaitDoneAck;
      return;
    }
    case Sub::kAwaitDoneAck: {
      if (frame.inner_type != static_cast<uint8_t>(FrameType::kDone)) {
        sub.error = ShardError("unexpected sub-session done ack", sub.shard);
        return;
      }
      sub.phase = Sub::kComplete;
      sub.elements = {};
      return;
    }
    default:
      sub.error =
          ShardError("sub-session record for inactive shard", sub.shard);
  }
}

bool ShardedCoordinator::Flush(const SubEmit& emit, std::string* error) {
  if (!queue_.empty()) {
    const size_t n = queue_.size();
    if (pool_ == nullptr && n > 1) {
      const int threads =
          ParallelFor::ResolveThreads(config_.options.pbs.decode_threads);
      if (threads > 1) pool_ = std::make_unique<ParallelFor>(threads);
    }
    // Every queued record targets a distinct shard (enforced at enqueue),
    // so the processing loop is embarrassingly parallel; emissions below
    // stay in arrival order regardless of the thread count.
    if (pool_ != nullptr && n > 1) {
      pool_->Run(n, [this](size_t i, int /*worker*/) {
        Process(*FindSub(queue_[i].shard), queue_[i]);
      });
    } else {
      for (size_t i = 0; i < n; ++i) {
        Process(*FindSub(queue_[i].shard), queue_[i]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      Sub* sub = FindSub(queue_[i].shard);
      sub->queued = false;
      if (!sub->error.empty()) {
        *error = sub->error;
        queue_.clear();
        return false;
      }
      if (sub->phase == Sub::kComplete) {
        ++completed_;
        --open_;
      }
      if (sub->pending_type != 0) {
        emit(sub->shard, sub->pending_type, sub->scratch.data(),
             sub->scratch.size());
        sub->pending_type = 0;
      }
    }
    queue_.clear();
  }
  while (begun_ && ready_ && open_ < static_cast<size_t>(pipeline_) &&
         next_open_ < subs_.size()) {
    Sub& sub = *subs_[next_open_++];
    Open(sub);
    if (!sub.error.empty()) {
      *error = sub.error;
      return false;
    }
    emit(sub.shard, sub.pending_type, sub.scratch.data(), sub.scratch.size());
    sub.pending_type = 0;
    ++open_;
  }
  return true;
}

double ShardedCoordinator::total_d_hat() const {
  if (d_hat_total_ >= 0.0) return d_hat_total_;
  if (config_.exact_d >= 0.0) return config_.exact_d;
  // Estimation was skipped: report the negotiated bound the sub-sessions
  // actually settled at.
  double sum = 0.0;
  for (const auto& sub : subs_) sum += sub->d_attempt;
  return sum;
}

std::shared_ptr<ShardResumeState> ShardedCoordinator::MakeResumeState(
    uint64_t remote_root) const {
  // Resumable only once the shard plan was agreed and the sub-sessions
  // could open (an estimate-phase failure restarts fresh — nothing is
  // banked yet anyway).
  if (!begun_ || !ready_) return nullptr;
  auto token = std::make_shared<ShardResumeState>();
  token->shard_count = plan_.shard_count;
  token->remote_root = remote_root;
  token->initial_d = initial_d_;
  token->identical_shards = identical_;
  token->degraded = degraded_.load(std::memory_order_relaxed);
  token->settled_difference = carried_difference_;
  token->settled_data_bytes = carried_data_bytes_;
  token->settled_rounds = carried_rounds_;
  token->settled_encode_seconds = carried_encode_;
  token->settled_decode_seconds = carried_decode_;
  token->settled_count = carried_settled_;
  int retries = carried_retries_;
  for (const auto& subp : subs_) {
    const Sub& sub = *subp;
    if (sub.attempt > sub.ladder_start) {
      retries += sub.attempt - sub.ladder_start;
    }
    if (sub.has_outcome && sub.outcome.success) {
      // Settled this connection (possibly still awaiting the sub DONE
      // ack — the responder already served the data; don't re-open).
      token->settled_difference.insert(token->settled_difference.end(),
                                       sub.outcome.difference.begin(),
                                       sub.outcome.difference.end());
      token->settled_data_bytes += sub.outcome.data_bytes;
      token->settled_rounds =
          std::max(token->settled_rounds, sub.outcome.rounds);
      token->settled_encode_seconds += sub.outcome.encode_seconds;
      token->settled_decode_seconds += sub.outcome.decode_seconds;
      ++token->settled_count;
      continue;
    }
    ShardResumeState::Pending p;
    p.shard = sub.shard;
    p.attempt = sub.attempt;  // 0 for never-opened shards.
    p.degrade_level = sub.degrade_level;
    p.d_attempt = sub.attempt == 0 ? initial_d_ : sub.d_attempt;
    token->pending.push_back(p);
  }
  token->retries = retries;
  return token;
}

ReconcileOutcome ShardedCoordinator::TakeOutcome() {
  ReconcileOutcome out;
  out.success = true;
  out.rounds = carried_rounds_;
  size_t total_diff = carried_difference_.size();
  int retries = carried_retries_;
  for (const auto& sub : subs_) {
    if (sub->has_outcome) total_diff += sub->outcome.difference.size();
    retries += sub->attempt > sub->ladder_start
                   ? sub->attempt - sub->ladder_start
                   : 0;
  }
  out.difference.reserve(total_diff);
  out.difference.insert(out.difference.end(), carried_difference_.begin(),
                        carried_difference_.end());
  out.data_bytes += carried_data_bytes_;
  out.encode_seconds += carried_encode_;
  out.decode_seconds += carried_decode_;
  for (auto& subp : subs_) {
    Sub& sub = *subp;
    if (!sub.has_outcome) {
      out.success = false;
      continue;
    }
    out.success = out.success && sub.outcome.success;
    out.rounds = std::max(out.rounds, sub.outcome.rounds);
    out.difference.insert(out.difference.end(),
                          sub.outcome.difference.begin(),
                          sub.outcome.difference.end());
    out.data_bytes += sub.outcome.data_bytes;
    out.estimator_bytes += sub.outcome.estimator_bytes;
    out.encode_seconds += sub.outcome.encode_seconds;
    out.decode_seconds += sub.outcome.decode_seconds;
  }
  const size_t differing = subs_.size() + static_cast<size_t>(carried_settled_);
  char summary[112];
  std::snprintf(summary, sizeof(summary),
                "shards=%d identical=%d differing=%zu pipeline=%d retries=%d",
                plan_.shard_count, identical_, differing, pipeline_, retries);
  out.params_summary = summary;
  // Appended only when they happened, so clean sessions keep the classic
  // summary (and the pr9 byte-exact bench gate) untouched.
  const int degraded = degraded_.load(std::memory_order_relaxed);
  if (degraded > 0) {
    out.params_summary += " degraded=" + std::to_string(degraded);
  }
  if (resumed_) {
    out.params_summary += " resumed=" + std::to_string(carried_settled_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ShardedResponderMux (responder side)
// ---------------------------------------------------------------------------

struct ShardedResponderMux::Sub {
  uint32_t shard = 0;
  // Retained until the inner done: a retried attempt rebuilds the
  // responder engine from the same shard slice.
  std::vector<uint64_t> elements;
  std::unique_ptr<ReconcileResponder> engine;
  uint8_t attempt = 0;
  // Graceful degradation: the fallback reconciler announced by the
  // initiator's override prefix (0 = still on the primary scheme).
  std::unique_ptr<SetReconciler> alt;
  uint8_t alt_wire_id = 0;
  bool complete = false;
  bool queued = false;
  uint8_t pending_type = 0;
  std::vector<uint8_t> scratch;
  std::string error;
};

ShardedResponderMux::ShardedResponderMux(
    const SessionConfig& config, SessionEngine::SharedElements elements,
    const SchemeRegistry* registry, int accepted_shards,
    std::shared_ptr<const StoreSnapshot> snapshot)
    : config_(config), elements_(std::move(elements)), registry_(registry) {
  plan_ = ShardPlan::Derive(accepted_shards, config_.seed);
  const SchemeRegistry& reg =
      registry != nullptr ? *registry : SchemeRegistry::Instance();
  reconciler_ =
      CreateSerialScheme(reg, config_.scheme_name, config_.options);
  if (reconciler_ == nullptr) {
    error_ = "unknown scheme '" + config_.scheme_name + "'";
    return;
  }
  // A store snapshot that maintained checksums for exactly this layout
  // hands us the leaves for free (core/element_store.h).
  if (snapshot != nullptr && snapshot->shard_checksums != nullptr &&
      snapshot->shard_checksums->shard_count == accepted_shards &&
      snapshot->shard_checksums->seed == config_.seed) {
    leaves_ = snapshot->shard_checksums->leaves;
    leaves_valid_ = true;
  }
}

ShardedResponderMux::~ShardedResponderMux() = default;

void ShardedResponderMux::EnsureLeaves() {
  if (!leaves_valid_) {
    leaves_ = ComputeShardLeaves(plan_, elements_->data(), elements_->size());
    leaves_valid_ = true;
  }
}

uint64_t ShardedResponderMux::root() {
  EnsureLeaves();
  return MerkleRootOf(leaves_);
}

bool ShardedResponderMux::HandleDigestTree(const std::vector<uint8_t>& payload,
                                           std::vector<uint8_t>* reply,
                                           std::string* error) {
  if (partitioned_) {
    *error = "duplicate DIGEST_TREE";
    return false;
  }
  std::vector<uint64_t> remote;
  if (!DecodeDigestLeaves(payload, static_cast<size_t>(plan_.shard_count),
                          &remote)) {
    *error = "malformed DIGEST_TREE payload";
    return false;
  }
  EnsureLeaves();
  std::vector<uint8_t> differs(static_cast<size_t>(plan_.shard_count), 0);
  std::vector<uint32_t> ids;
  for (size_t k = 0; k < differs.size(); ++k) {
    if (remote[k] != leaves_[k]) {
      differs[k] = 1;
      ids.push_back(static_cast<uint32_t>(k));
    }
  }
  *reply = EncodeDiffBitmap(differs);
  std::vector<std::vector<uint64_t>> parts;
  PartitionSelected(elements_->data(), elements_->size(), plan_, ids, &parts);
  subs_.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto sub = std::make_unique<Sub>();
    sub->shard = ids[i];
    sub->elements = std::move(parts[i]);
    subs_.push_back(std::move(sub));
  }
  partitioned_ = true;
  return true;
}

bool ShardedResponderMux::BeginResume(
    const std::vector<std::pair<uint32_t, uint8_t>>& entries,
    std::string* error) {
  if (partitioned_) {
    *error = "duplicate RESUME";
    return false;
  }
  std::vector<uint32_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) {
    if (e.first >= static_cast<uint32_t>(plan_.shard_count)) {
      *error = ShardError("resume names an unknown shard", e.first);
      return false;
    }
    if (!ids.empty() && e.first <= ids.back()) {
      *error = "resume shard list not ascending";
      return false;
    }
    ids.push_back(e.first);
  }
  std::vector<std::vector<uint64_t>> parts;
  PartitionSelected(elements_->data(), elements_->size(), plan_, ids, &parts);
  subs_.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto sub = std::make_unique<Sub>();
    sub->shard = ids[i];
    sub->elements = std::move(parts[i]);
    // The initiator reopens at the carried attempt + 1, which the
    // in-order check in Process then accepts.
    sub->attempt = entries[i].second;
    subs_.push_back(std::move(sub));
  }
  partitioned_ = true;
  return true;
}

ShardedResponderMux::Sub* ShardedResponderMux::FindSub(uint32_t shard) {
  auto it = std::lower_bound(
      subs_.begin(), subs_.end(), shard,
      [](const std::unique_ptr<Sub>& s, uint32_t id) { return s->shard < id; });
  if (it == subs_.end() || (*it)->shard != shard) return nullptr;
  return it->get();
}

bool ShardedResponderMux::HandleSubFrame(SubFrame frame, std::string* error) {
  if (!partitioned_) {
    *error = "sub-session record before DIGEST_TREE";
    return false;
  }
  Sub* sub = FindSub(frame.shard);
  if (sub == nullptr) {
    *error = ShardError("sub-session record for unknown shard", frame.shard);
    return false;
  }
  if (sub->complete) {
    *error = ShardError("sub-session record for settled shard", frame.shard);
    return false;
  }
  if (sub->queued) {
    *error = ShardError("overlapping sub-session records", frame.shard);
    return false;
  }
  sub->queued = true;
  queue_.push_back(std::move(frame));
  return true;
}

void ShardedResponderMux::Process(Sub& sub, const SubFrame& frame) {
  switch (static_cast<FrameType>(frame.inner_type)) {
    case FrameType::kSchemeRequest: {
      if (frame.payload.empty()) {
        sub.error = ShardError("malformed sub-session request", sub.shard);
        return;
      }
      // Override prefix (graceful degradation): attempt byte's top bit
      // set means one scheme-id byte follows before the bound.
      const uint8_t attempt_byte = frame.payload[0];
      const bool degraded = (attempt_byte & kSubSchemeOverride) != 0;
      const uint8_t attempt =
          static_cast<uint8_t>(attempt_byte & ~kSubSchemeOverride);
      const size_t prefix =
          degraded ? kSubRequestPrefix + 1 : kSubRequestPrefix;
      if (frame.payload.size() < prefix) {
        sub.error = ShardError("malformed sub-session request", sub.shard);
        return;
      }
      const size_t d_off = prefix - 8;
      uint64_t bits = 0;
      for (int b = 0; b < 8; ++b) {
        bits |= static_cast<uint64_t>(frame.payload[d_off + b]) << (8 * b);
      }
      const double d = BitsToDouble(bits);
      if (!std::isfinite(d) || d < 0.0 || d > kMaxSubEstimate) {
        sub.error = ShardError("sub-session bound out of range", sub.shard);
        return;
      }
      if (sub.engine == nullptr || attempt != sub.attempt) {
        // First round of a (possibly retried) attempt: build a fresh
        // responder engine sized from the carried bound. Attempts only
        // ever advance by one.
        if (attempt != sub.attempt + 1) {
          sub.error =
              ShardError("sub-session attempt out of order", sub.shard);
          return;
        }
        sub.attempt = attempt;
        SetReconciler* maker = reconciler_.get();
        if (degraded) {
          const uint8_t wire_id = frame.payload[1];
          if (sub.alt == nullptr || sub.alt_wire_id != wire_id) {
            const std::string name = wire::SchemeNameFromWireId(wire_id);
            const SchemeRegistry& reg = registry_ != nullptr
                                            ? *registry_
                                            : SchemeRegistry::Instance();
            std::unique_ptr<SetReconciler> alt =
                CreateSerialScheme(reg, name, config_.options);
            if (alt == nullptr) {
              sub.error = ShardError(
                  "sub-session names an unavailable fallback scheme",
                  sub.shard);
              return;
            }
            if (sub.alt_wire_id == 0) {
              degraded_.fetch_add(1, std::memory_order_relaxed);
            }
            sub.alt = std::move(alt);
            sub.alt_wire_id = wire_id;
          }
          maker = sub.alt.get();
        }
        sub.engine = maker->CreateResponder(sub.elements, d,
                                            plan_.SubSeed(sub.shard));
        if (sub.engine == nullptr) {
          sub.error =
              "scheme '" + config_.scheme_name + "' has no wire protocol";
          return;
        }
      }
      const std::vector<uint8_t> inner(frame.payload.begin() + prefix,
                                       frame.payload.end());
      if (!sub.engine->HandleRequest(inner, &sub.scratch)) {
        sub.error = ShardError("malformed sub-session request", sub.shard);
        return;
      }
      sub.pending_type = static_cast<uint8_t>(FrameType::kSchemeReply);
      return;
    }
    case FrameType::kDone: {
      // 13-byte summary: u8 success, u32 rounds, u64 recovered diff size.
      if (frame.payload.size() < 13) {
        sub.error = ShardError("malformed sub-session done", sub.shard);
        return;
      }
      sub.complete = true;
      sub.engine.reset();
      sub.elements = {};
      sub.scratch.clear();
      sub.pending_type = static_cast<uint8_t>(FrameType::kDone);
      return;
    }
    default:
      sub.error = ShardError("unexpected sub-session record type", sub.shard);
  }
}

bool ShardedResponderMux::Flush(const SubEmit& emit, std::string* error) {
  if (queue_.empty()) return true;
  const size_t n = queue_.size();
  if (pool_ == nullptr && n > 1) {
    const int threads =
        ParallelFor::ResolveThreads(config_.options.pbs.decode_threads);
    if (threads > 1) pool_ = std::make_unique<ParallelFor>(threads);
  }
  if (pool_ != nullptr && n > 1) {
    pool_->Run(n, [this](size_t i, int /*worker*/) {
      Process(*FindSub(queue_[i].shard), queue_[i]);
    });
  } else {
    for (size_t i = 0; i < n; ++i) {
      Process(*FindSub(queue_[i].shard), queue_[i]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Sub* sub = FindSub(queue_[i].shard);
    sub->queued = false;
    if (!sub->error.empty()) {
      *error = sub->error;
      queue_.clear();
      return false;
    }
    if (sub->pending_type != 0) {
      emit(sub->shard, sub->pending_type, sub->scratch.data(),
           sub->scratch.size());
      sub->pending_type = 0;
    }
  }
  queue_.clear();
  return true;
}

}  // namespace pbs::sync
