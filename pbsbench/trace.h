// The traced in-process pump: one session's initiator and responder
// SessionEngines pumped against each other on the calling thread (no
// sockets), with a span around every Feed/Poll call. Each span is tagged
// with the receiving role, the frame op InspectFrameHeader reads on the
// fed frame, and the op of the first frame the call queued; a fixed rule
// table (PrintLayerMap) turns that triple into the layer the span is
// charged to. The spans of one session hang under a root span, so the
// root's self time is the session's unattributed time.

#ifndef PBSBENCH_TRACE_H_
#define PBSBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace pbsbench {

enum class Role : uint8_t { kInitiator, kResponder };

enum class Layer : uint8_t {
  kSession,           // Root span of one pumped session.
  kEngineControl,     // Engine creation, HELLO, DONE, ERROR handling.
  kEnginePoll,        // SessionEngine::Poll.
  kEstimator,         // ToW sketch build + estimate (both roles).
  kSchemeInitEncode,  // Initiator frame that opens the scheme phase.
  kSchemeRespond,     // Responder SCHEME_REQ handling.
  kSchemeDecode,      // Initiator SCHEME_REPLY handling.
  kSyncLeaves,        // SHARD_PLAN / SHARD_PLAN_ACK (Merkle leaves).
  kSyncDigest,        // DIGEST_TREE / DIGEST_REPLY.
  kSyncSubInitiator,  // Initiator sub-session work (partition, encode, decode).
  kSyncSubResponder,  // Responder sub-session work.
  kBenchAnalysis,     // The bench parsing frames; excluded from session wall.
  kCount,
};

const char* LayerName(Layer layer);

/// Pseudo frame ops for spans that feed no frame.
inline constexpr uint8_t kOpNone = 0;     // Engine creation.
inline constexpr uint8_t kOpPoll = 0xFF;  // Poll call.

const char* OpName(uint8_t op);

struct Span {
  int parent = -1;  // Index of the parent span in the same vector.
  Layer layer = Layer::kSession;
  Role role = Role::kInitiator;
  uint8_t in_op = kOpNone;
  uint8_t out_op = kOpNone;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// The layer a Feed/Poll/create call is charged to.
Layer ClassifyCall(Role role, uint8_t in_op, uint8_t out_op);

/// Prints the (role, fed op, queued op) -> layer rule table.
void PrintLayerMap();

/// One scheme plan a session made: the scheme and the difference bound
/// its endpoints planned for (before gamma inflation).
struct PlanUse {
  std::string scheme;
  double d_bound = 0.0;
};

struct PumpOutcome {
  pbs::SessionResult result;  // The initiator's.
  int64_t wall_ns = 0;        // Session wall, bench analysis excluded.
  int frames = 0;
  size_t frame_bytes = 0;
  bool estimate_ran = false;
  int differing_shards = 0;
  int shard_attempts = 0;  // Distinct (shard, attempt) pairs.
  std::vector<PlanUse> plans;
};

using ResponderFactory = std::function<pbs::SessionEngine()>;

/// Pumps one session in-process. With `spans` non-null every call is
/// recorded (traced); with null nothing is timed but the session wall.
PumpOutcome PumpSession(const SessionSpec& spec,
                        const ResponderFactory& make_responder,
                        std::vector<Span>* spans);

/// Replays PlanFor for one plan use, as the scheme endpoints call it;
/// returns the number of PlanFor calls made (0 for schemes that plan
/// without the optimizer).
int ReplayPlan(const pbs::SchemeOptions& options, const PlanUse& use);

}  // namespace pbsbench

#endif  // PBSBENCH_TRACE_H_
