#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "pbs/core/messages.h"
#include "pbs/core/params.h"
#include "pbs/sync/sharded_session.h"

namespace pbsbench {
namespace {

using pbs::SessionEngine;
using pbs::SessionStatus;
using pbs::wire::FrameType;

constexpr uint8_t Op(FrameType type) { return static_cast<uint8_t>(type); }
constexpr uint8_t kAnyOp = 0xFE;

struct Rule {
  Role role;
  uint8_t in_op;
  uint8_t out_op;  // kAnyOp matches every queued op.
  Layer layer;
};

// First match wins. The queued op disambiguates frames whose work depends
// on the session shape: an initiator fed HELLO_ACK builds its ToW sketch
// when it answers with ESTIMATE_REQ, but encodes the first scheme round
// when d is known and it answers with SCHEME_REQ.
constexpr Rule kRules[] = {
    {Role::kInitiator, kOpNone, Op(FrameType::kShardPlan), Layer::kSyncLeaves},
    {Role::kInitiator, kOpNone, kAnyOp, Layer::kEngineControl},
    {Role::kResponder, kOpNone, kAnyOp, Layer::kEngineControl},
    {Role::kInitiator, kOpPoll, kAnyOp, Layer::kEnginePoll},
    {Role::kResponder, kOpPoll, kAnyOp, Layer::kEnginePoll},
    {Role::kResponder, Op(FrameType::kHello), kAnyOp, Layer::kEngineControl},
    {Role::kInitiator, Op(FrameType::kHelloAck), Op(FrameType::kEstimateRequest),
     Layer::kEstimator},
    {Role::kInitiator, Op(FrameType::kHelloAck), kAnyOp,
     Layer::kSchemeInitEncode},
    {Role::kResponder, Op(FrameType::kEstimateRequest), kAnyOp,
     Layer::kEstimator},
    {Role::kInitiator, Op(FrameType::kEstimateReply),
     Op(FrameType::kSubSession), Layer::kSyncSubInitiator},
    {Role::kInitiator, Op(FrameType::kEstimateReply), kAnyOp,
     Layer::kSchemeInitEncode},
    {Role::kResponder, Op(FrameType::kSchemeRequest), kAnyOp,
     Layer::kSchemeRespond},
    {Role::kInitiator, Op(FrameType::kSchemeReply), kAnyOp,
     Layer::kSchemeDecode},
    {Role::kResponder, Op(FrameType::kShardPlan), kAnyOp, Layer::kSyncLeaves},
    {Role::kInitiator, Op(FrameType::kShardPlanAck), kAnyOp,
     Layer::kSyncDigest},
    {Role::kResponder, Op(FrameType::kDigestTree), kAnyOp, Layer::kSyncDigest},
    {Role::kInitiator, Op(FrameType::kDigestReply),
     Op(FrameType::kEstimateRequest), Layer::kEstimator},
    {Role::kInitiator, Op(FrameType::kDigestReply), kAnyOp,
     Layer::kSyncSubInitiator},
    {Role::kResponder, Op(FrameType::kSubSession), kAnyOp,
     Layer::kSyncSubResponder},
    {Role::kInitiator, Op(FrameType::kSubSession), kAnyOp,
     Layer::kSyncSubInitiator},
};

const char* RoleName(Role role) {
  return role == Role::kInitiator ? "initiator" : "responder";
}

void Record(std::vector<Span>* spans, int parent, Layer layer, Role role,
            uint8_t in_op, uint8_t out_op, int64_t t0, int64_t t1) {
  Span span;
  span.parent = parent;
  span.layer = layer;
  span.role = role;
  span.in_op = in_op;
  span.out_op = out_op;
  span.t0 = t0;
  span.t1 = t1;
  spans->push_back(span);
}

uint8_t QueuedOp(const SessionEngine& engine) {
  return engine.outbound_size() >= pbs::wire::kFrameHeaderSize
             ? engine.outbound_data()[5]
             : kOpNone;
}

// Reads the per-shard attempt prefix of the initiator's sub-session
// scheme requests (sync/sharded_session.cc: u8 attempt, optionally
// | 0x80 plus a scheme id byte, then the f64 difference bound).
void AnalyzeSubSession(const uint8_t* frame, size_t size,
                       const std::string& primary,
                       std::set<uint32_t>* shards,
                       std::set<std::pair<uint32_t, uint8_t>>* attempts,
                       std::vector<PlanUse>* plans) {
  pbs::wire::WireFrame decoded;
  size_t consumed = 0;
  if (pbs::wire::DecodeFrame(frame, size, &decoded, &consumed) !=
      pbs::wire::FrameStatus::kOk) {
    return;
  }
  std::vector<pbs::sync::SubFrame> records;
  if (!pbs::sync::ParseSubRecords(decoded.payload, &records)) return;
  for (const auto& rec : records) {
    shards->insert(rec.shard);
    if (rec.inner_type != Op(FrameType::kSchemeRequest) ||
        rec.payload.empty()) {
      continue;
    }
    const uint8_t attempt_byte = rec.payload[0];
    const bool override_scheme = (attempt_byte & 0x80) != 0;
    const size_t bound_at = override_scheme ? 2 : 1;
    if (rec.payload.size() < bound_at + sizeof(double)) continue;
    if (!attempts->insert({rec.shard, attempt_byte & 0x7F}).second) continue;
    PlanUse use;
    use.scheme = override_scheme
                     ? pbs::wire::SchemeNameFromWireId(rec.payload[1])
                     : primary;
    std::memcpy(&use.d_bound, rec.payload.data() + bound_at, sizeof(double));
    plans->push_back(use);
  }
}

template <bool kTraced>
PumpOutcome Pump(const SessionSpec& spec,
                 const ResponderFactory& make_responder,
                 std::vector<Span>* spans) {
  PumpOutcome out;
  std::set<uint32_t> shards;
  std::set<std::pair<uint32_t, uint8_t>> attempts;
  int64_t analysis_ns = 0;
  int root = -1;
  if constexpr (kTraced) {
    root = static_cast<int>(spans->size());
    Record(spans, -1, Layer::kSession, Role::kInitiator, kOpNone, kOpNone, 0,
           0);
  }
  const int64_t start = NowNs();
  int64_t t0 = start;
  SessionEngine initiator = SessionEngine::Initiator(spec.config, spec.a);
  int64_t t1 = 0;
  if constexpr (kTraced) {
    t1 = NowNs();
    Record(spans, root, ClassifyCall(Role::kInitiator, kOpNone,
                                     QueuedOp(initiator)),
           Role::kInitiator, kOpNone, QueuedOp(initiator), t0, t1);
    t0 = NowNs();
  }
  SessionEngine responder = make_responder();
  if constexpr (kTraced) {
    t1 = NowNs();
    Record(spans, root, Layer::kEngineControl, Role::kResponder, kOpNone,
           kOpNone, t0, t1);
  }
  std::vector<uint8_t> buf;
  for (;;) {
    SessionEngine* src = nullptr;
    SessionEngine* dst = nullptr;
    Role dst_role = Role::kResponder;
    if (initiator.Status() == SessionStatus::kWantWrite) {
      src = &initiator;
      dst = &responder;
    } else if (responder.Status() == SessionStatus::kWantWrite) {
      src = &responder;
      dst = &initiator;
      dst_role = Role::kInitiator;
    } else {
      break;
    }
    const Role src_role =
        dst_role == Role::kInitiator ? Role::kResponder : Role::kInitiator;
    const size_t n = src->outbound_size();
    buf.resize(n);
    if constexpr (kTraced) t0 = NowNs();
    src->Poll(buf.data(), n);
    if constexpr (kTraced) {
      t1 = NowNs();
      Record(spans, root, Layer::kEnginePoll, src_role, kOpPoll, kOpNone, t0,
             t1);
    }
    size_t pos = 0;
    while (pos + pbs::wire::kFrameHeaderSize <= n) {
      size_t payload = 0;
      if (pbs::wire::InspectFrameHeader(buf.data() + pos, &payload) !=
          pbs::wire::FrameStatus::kOk) {
        payload = n - pos - pbs::wire::kFrameHeaderSize;  // Feed the rest.
      }
      const size_t size =
          std::min(n - pos, pbs::wire::kFrameHeaderSize + payload);
      const uint8_t op = buf[pos + 5];
      if constexpr (kTraced) t0 = NowNs();
      dst->Feed(buf.data() + pos, size);
      if constexpr (kTraced) {
        t1 = NowNs();
        const uint8_t queued = QueuedOp(*dst);
        Record(spans, root, ClassifyCall(dst_role, op, queued), dst_role, op,
               queued, t0, t1);
        if (op == Op(FrameType::kEstimateRequest)) out.estimate_ran = true;
        if (op == Op(FrameType::kSubSession) &&
            dst_role == Role::kResponder) {
          const int64_t a0 = NowNs();
          AnalyzeSubSession(buf.data() + pos, size, spec.config.scheme_name,
                            &shards, &attempts, &out.plans);
          const int64_t a1 = NowNs();
          analysis_ns += a1 - a0;
          Record(spans, root, Layer::kBenchAnalysis, dst_role, op, kOpNone,
                 a0, a1);
        }
      }
      ++out.frames;
      out.frame_bytes += size;
      pos += size;
    }
  }
  const int64_t end = NowNs();
  out.wall_ns = end - start - analysis_ns;
  if constexpr (kTraced) {
    (*spans)[static_cast<size_t>(root)].t0 = start;
    (*spans)[static_cast<size_t>(root)].t1 = end;
  }
  out.result = initiator.TakeResult();
  out.differing_shards = static_cast<int>(shards.size());
  out.shard_attempts = static_cast<int>(attempts.size());
  if (spec.config.keyspace_shards < 2) {
    out.plans.push_back({spec.config.scheme_name, out.result.d_hat});
  }
  return out;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSession: return "session(unattributed)";
    case Layer::kEngineControl: return "engine.control";
    case Layer::kEnginePoll: return "engine.poll";
    case Layer::kEstimator: return "estimator";
    case Layer::kSchemeInitEncode: return "scheme.init_encode";
    case Layer::kSchemeRespond: return "scheme.respond";
    case Layer::kSchemeDecode: return "scheme.decode";
    case Layer::kSyncLeaves: return "sync.leaves";
    case Layer::kSyncDigest: return "sync.digest";
    case Layer::kSyncSubInitiator: return "sync.subsession.initiator";
    case Layer::kSyncSubResponder: return "sync.subsession.responder";
    case Layer::kBenchAnalysis: return "bench.analysis(excluded)";
    case Layer::kCount: break;
  }
  return "?";
}

const char* OpName(uint8_t op) {
  switch (op) {
    case kOpNone: return "(create)";
    case kOpPoll: return "(poll)";
    case kAnyOp: return "*";
    case Op(FrameType::kHello): return "HELLO";
    case Op(FrameType::kHelloAck): return "HELLO_ACK";
    case Op(FrameType::kEstimateRequest): return "ESTIMATE_REQ";
    case Op(FrameType::kEstimateReply): return "ESTIMATE_REPLY";
    case Op(FrameType::kSchemeRequest): return "SCHEME_REQ";
    case Op(FrameType::kSchemeReply): return "SCHEME_REPLY";
    case Op(FrameType::kDone): return "DONE";
    case Op(FrameType::kError): return "ERROR";
    case Op(FrameType::kUpdate): return "UPDATE";
    case Op(FrameType::kUpdateAck): return "UPDATE_ACK";
    case Op(FrameType::kShardPlan): return "SHARD_PLAN";
    case Op(FrameType::kShardPlanAck): return "SHARD_PLAN_ACK";
    case Op(FrameType::kDigestTree): return "DIGEST_TREE";
    case Op(FrameType::kDigestReply): return "DIGEST_REPLY";
    case Op(FrameType::kSubSession): return "SUB_SESSION";
    case Op(FrameType::kResume): return "RESUME";
    case Op(FrameType::kResumeAck): return "RESUME_ACK";
  }
  return "?";
}

Layer ClassifyCall(Role role, uint8_t in_op, uint8_t out_op) {
  for (const Rule& rule : kRules) {
    if (rule.role == role && rule.in_op == in_op &&
        (rule.out_op == kAnyOp || rule.out_op == out_op)) {
      return rule.layer;
    }
  }
  return Layer::kEngineControl;  // HELLO_ACK-less control: DONE, ERROR, ...
}

void PrintLayerMap() {
  std::printf("frame-op -> layer map (role, fed op -> first queued op; "
              "first match wins):\n");
  for (const Rule& rule : kRules) {
    std::printf("  %-9s %-14s -> %-14s : %s\n", RoleName(rule.role),
                OpName(rule.in_op), OpName(rule.out_op),
                LayerName(rule.layer));
  }
  std::printf("  %-9s %-14s -> %-14s : %s\n", "*", "*", "*",
              LayerName(Layer::kEngineControl));
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.t0, parent.t0);
    const int64_t hi = std::min(span.t1, parent.t1);
    if (hi > lo) children[static_cast<size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].t1 - spans[i].t0) - covered;
  }
  return self;
}

PumpOutcome PumpSession(const SessionSpec& spec,
                        const ResponderFactory& make_responder,
                        std::vector<Span>* spans) {
  return spans != nullptr ? Pump<true>(spec, make_responder, spans)
                          : Pump<false>(spec, make_responder, nullptr);
}

int ReplayPlan(const pbs::SchemeOptions& options, const PlanUse& use) {
  // PBS plans on both endpoints; PinSketch-WP only on its initiator; the
  // other schemes size themselves without the optimizer.
  int calls = 0;
  if (use.scheme == "pbs") {
    calls = 2;
  } else if (use.scheme == "pinsketch-wp") {
    calls = 1;
  }
  pbs::PbsConfig config = options.pbs;
  config.sig_bits = options.sig_bits;
  const int d_used = pbs::InflateEstimate(use.d_bound, config.gamma);
  volatile int sink = 0;
  for (int i = 0; i < calls; ++i) {
    sink = sink + pbs::PlanFor(config, d_used).params.t;
  }
  return calls;
}

}  // namespace pbsbench
