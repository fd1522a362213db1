// Sans-I/O session engine: the wire-session protocol as a pure poll/feed
// state machine, with no transport, no threads, and no blocking anywhere.
//
// A SessionEngine holds one side (initiator or responder) of the framed
// reconciliation protocol (docs/WIRE_FORMAT.md). The embedding owns all
// I/O and pumps bytes through three calls:
//
//   Feed(data, size)  hand the engine inbound bytes, in ANY chunking --
//                     partial frames, single bytes, many frames at once;
//   Poll(out, max)    drain up to `max` pending outbound bytes;
//   Status()          what the engine needs next:
//                       kWantWrite  outbound bytes pending (Poll them)
//                       kWantRead   blocked on more inbound bytes (Feed)
//                       kDone       session settled; TakeResult()
//                       kError      session failed; result().error says why
//
// Because the engine never performs I/O, the same state machine serves
// every integration style: the blocking convenience drivers
// (core/wire_session.h) pump one engine over a ByteTransport; the
// single-threaded loopback runner pumps two engines against each other
// with no second thread; and net/ReconcileServer multiplexes thousands of
// engines -- one per connection -- from a single event loop.
//
// Steady-state rounds are allocation-free: inbound/outbound buffers, the
// frame scratch, and the request/reply payload buffers all warm to their
// peak size and are reused, and the scheme engines underneath reuse their
// pbs::Workspace scratch (tests/core/hotpath_alloc_test.cc pins the whole
// stack at zero allocations per round once warm).

#ifndef PBS_CORE_SESSION_ENGINE_H_
#define PBS_CORE_SESSION_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pbs/core/element_store.h"
#include "pbs/core/messages.h"
#include "pbs/core/set_reconciler.h"

namespace pbs {

namespace sync {
class ShardedCoordinator;
class ShardedResponderMux;
struct ShardResumeState;
}  // namespace sync

/// Everything the initiator pins for one session. The responder adopts
/// these from the HELLO frame; it contributes only its element set.
struct SessionConfig {
  /// Registry key of the scheme to run (must exist on both sides).
  std::string scheme_name = "pbs";
  /// Scheme construction knobs; plan-affecting fields travel in the HELLO.
  SchemeOptions options;
  /// Master seed: drives every random choice of both engines, exactly like
  /// the `seed` argument of SetReconciler::Reconcile.
  uint64_t seed = 0xC11;
  /// Seed of the ToW estimate exchange (kept separate from `seed` so the
  /// estimator and the scheme never share hash functions).
  uint64_t estimate_seed = 0xE57;
  /// When >= 0, skip the estimate phase and hand this d to both engines
  /// (the "d known" setting of Sections 2-5, and the tests' way of
  /// matching an in-process Reconcile call exactly). In a sharded session
  /// it is the per-shard d (a valid upper bound for every shard).
  double exact_d = -1.0;
  /// Keyspace sharding (sync/shard_planner.h). 0 or 1 runs the classic
  /// monolithic session; >= 2 splits the keyspace into that many
  /// hash-range shards, exchanges the Merkle pre-filter, and reconciles
  /// only differing shards as pipelined sub-sessions. The initiator
  /// proposes the count in SHARD_PLAN; a responder configured with a
  /// smaller (>= 2) count clamps it in SHARD_PLAN_ACK.
  int keyspace_shards = 0;
  /// Max sub-sessions in flight at once on the initiator (sharded
  /// sessions only). Local pacing knob; never travels on the wire.
  int shard_pipeline = 4;
  /// Per-phase deadline in milliseconds: how long this side waits for the
  /// peer's next frame in any one protocol phase before failing the
  /// session with "phase deadline exceeded". 0 disables (wait forever).
  /// Local knob, never on the wire; distinct from the server's idle reap
  /// (which closes whole connections, not phases). Enforced by embeddings
  /// via SessionEngine::CheckDeadline() / DeadlineRemainingMs().
  int phase_deadline_ms = 0;
  /// When set, the sharded initiator re-attaches to a previous partial
  /// session instead of starting fresh: it sends RESUME (instead of
  /// SHARD_PLAN) carrying the token's Merkle root and pending-shard list,
  /// and reconciles only the shards the token left unsettled. Taken from
  /// SessionResult::resume_state of the failed attempt. Ignored for
  /// monolithic sessions and responders.
  std::shared_ptr<const sync::ShardResumeState> resume;
};

/// Result of driving one side of a session to completion.
struct SessionResult {
  bool ok = false;        ///< Handshake + protocol + transport all succeeded.
  std::string error;      ///< Human-readable failure cause when !ok.
  std::string scheme;     ///< Registry key of the scheme that ran.
  double d_hat = 0.0;     ///< The difference estimate the engines consumed.
  /// Scheme outcome with wire_bytes/wire_frames filled in. Only the
  /// initiator recovers the difference; the responder's outcome carries
  /// accounting fields (and success mirrored from the DONE summary).
  ReconcileOutcome outcome;
  /// Shards that settled only after degrading to an alternate scheme
  /// (graceful degradation; sharded sessions only).
  int degraded_shards = 0;
  /// On a failed sharded-initiator session: everything a reconnecting
  /// client needs to finish the job via SessionConfig::resume. Null when
  /// the session was not resumable (monolithic, responder, or failed
  /// before the shard plan was agreed).
  std::shared_ptr<sync::ShardResumeState> resume_state;
};

/// What the engine needs from its embedding to make progress.
enum class SessionStatus {
  kWantRead,   ///< Blocked on inbound bytes: Feed() more (or FeedEof()).
  kWantWrite,  ///< Outbound bytes pending: Poll() / ConsumeOutbound() them.
  kDone,       ///< Session settled successfully; result() is final.
  kError,      ///< Session failed; result().error explains.
};

/// One side of a framed reconciliation session as a sans-I/O state
/// machine. Construct with Initiator() or Responder(), then pump bytes
/// per the file comment. Move-only; one engine per session.
class SessionEngine {
 public:
  /// The engine's (read-only) element set. Engines of one process that
  /// serve the same set share it through this handle instead of each
  /// holding a copy — with thousands of concurrent sessions over one big
  /// key set (net/ReconcileServer), per-connection copies would dominate
  /// server memory.
  using SharedElements = std::shared_ptr<const std::vector<uint64_t>>;

  /// Mints the initiating (Alice) side over `elements` (her set A).
  /// Configuration errors (out-of-range fields, unknown scheme) surface
  /// immediately as Status() == kError. `registry` defaults to the
  /// process-wide SchemeRegistry::Instance(); tests inject their own.
  static SessionEngine Initiator(const SessionConfig& config,
                                 std::vector<uint64_t> elements,
                                 const SchemeRegistry* registry = nullptr);
  static SessionEngine Initiator(const SessionConfig& config,
                                 SharedElements elements,
                                 const SchemeRegistry* registry = nullptr);

  /// Mints the responding (Bob) side over `elements` (his set B). The
  /// scheme and all plan-affecting options arrive in the peer's HELLO.
  static SessionEngine Responder(std::vector<uint64_t> elements,
                                 const SchemeRegistry* registry = nullptr);
  static SessionEngine Responder(SharedElements elements,
                                 const SchemeRegistry* registry = nullptr);

  /// Responder with side-local defaults: fields of `local_config` that
  /// never travel in the HELLO are honored for this side's engines --
  /// currently options.pbs.decode_threads, the local per-group decode
  /// parallelism (each peer parallelizes with its own resources; the
  /// recovered difference is identical either way). Every plan-affecting
  /// field is still adopted from the peer's HELLO.
  static SessionEngine Responder(const SessionConfig& local_config,
                                 SharedElements elements,
                                 const SchemeRegistry* registry = nullptr);

  /// Responder over a mutable store (core/element_store.h): serves
  /// reconciliations against `snapshot` (one consistent epoch for the
  /// whole session, however fast the set churns) and, because `store` is
  /// attached, also accepts UPDATE sessions that mutate the live set.
  /// Schemes with a snapshot fast path (PBS) adopt the snapshot's
  /// pre-built sketches instead of rebuilding at session setup. `snapshot`
  /// must be non-null (take it from store->snapshot() at admit time);
  /// `store` may be null for a frozen snapshot server that still rejects
  /// UPDATE as read-only.
  static SessionEngine Responder(const SessionConfig& local_config,
                                 std::shared_ptr<const StoreSnapshot> snapshot,
                                 std::shared_ptr<MutableElementStore> store,
                                 const SchemeRegistry* registry = nullptr);

  /// Mints the writer side of an UPDATE session: sends each batch as one
  /// kUpdate frame (strict ping-pong with the server's kUpdateAck), then a
  /// DONE summary. No HELLO/estimate/scheme phases run. The result's
  /// params_summary reports the final epoch and cumulative apply counts.
  static SessionEngine Updater(std::vector<UpdateBatch> batches,
                               const SchemeRegistry* registry = nullptr);

  SessionEngine(SessionEngine&&) noexcept;
  SessionEngine& operator=(SessionEngine&&) noexcept;
  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;
  ~SessionEngine();

  /// Accepts `size` inbound bytes in any chunking. Complete frames are
  /// processed immediately (possibly queueing outbound bytes); a trailing
  /// partial frame is buffered until more bytes arrive. Bytes fed after
  /// the session settled are ignored.
  void Feed(const uint8_t* data, size_t size);

  /// Signals end-of-stream from the peer. A session that has not settled
  /// fails with the classic "transport closed ..." diagnostics.
  void FeedEof();

  /// Copies up to `max` pending outbound bytes into `out` and consumes
  /// them. Returns the number copied (0 when nothing is pending).
  size_t Poll(uint8_t* out, size_t max);

  /// Zero-copy outbound access for writev/epoll embeddings: a stable view
  /// of the pending bytes, consumed explicitly after a (partial) write.
  /// The view is invalidated by any Feed/Poll/ConsumeOutbound call.
  const uint8_t* outbound_data() const { return outbound_.data() + out_pos_; }
  size_t outbound_size() const { return outbound_.size() - out_pos_; }
  void ConsumeOutbound(size_t n);

  SessionStatus Status() const;

  /// Minimum inbound bytes needed to complete the frame in flight (the
  /// rest of a header, or the rest of a payload). Only meaningful in
  /// kWantRead, where it is always > 0; blocking drivers Recv() exactly
  /// this much, preserving the classic driver's read pattern.
  size_t NeededBytes() const;

  /// Reports that the embedding's transport failed while writing the
  /// pending outbound bytes. Fails the session with
  /// "transport failed <label>" where <label> names the frame in flight
  /// (see pending_write_label()), and drops the undeliverable bytes.
  void FailTransport();

  /// What the pending outbound bytes are, e.g. "sending HELLO",
  /// "sending round request" -- for the embedding's diagnostics.
  const char* pending_write_label() const { return write_label_; }

  /// Enforces SessionConfig::phase_deadline_ms: when a deadline is set,
  /// the session is not settled, and the current phase has overrun, fails
  /// the session with "phase deadline exceeded while <phase>" (a
  /// responder also queues an ERROR frame first so the peer learns why)
  /// and returns true. Embeddings call this whenever they wake up with no
  /// inbound progress (event-loop ticks, RecvTimed timeouts). No-op when
  /// the deadline is disabled or the session already settled.
  bool CheckDeadline();

  /// Milliseconds left in the current phase: -1 when no deadline is set
  /// (or the session settled), otherwise >= 0. Blocking drivers pass this
  /// to ByteTransport::RecvTimed.
  int64_t DeadlineRemainingMs() const;

  /// Human-readable name of the phase in flight ("awaiting HELLO_ACK",
  /// "running sub-sessions", ...) for deadline diagnostics.
  const char* phase_name() const;

  /// The session result; final once Status() is kDone or kError.
  const SessionResult& result() const { return result_; }

  /// Moves the result out (call once, after the session settled).
  SessionResult TakeResult() { return std::move(result_); }

 private:
  enum class State {
    // Initiator.
    kAwaitHelloAck,
    kAwaitEstimateReply,
    kAwaitSchemeReply,
    kAwaitUpdateAck,  // Updater role: batch in flight.
    kAwaitShardPlanAck,  // Sharded initiator: SHARD_PLAN in flight.
    kAwaitResumeAck,     // Sharded initiator: RESUME in flight.
    kAwaitDigestReply,   // Sharded initiator: DIGEST_TREE in flight.
    kShardMux,           // Sharded initiator: sub-sessions running.
    kAwaitDoneAck,
    // Responder.
    kAwaitHello,
    kServing,
    // Both.
    kSettled,
    kFailed,
  };

  SessionEngine(bool is_initiator, const SessionConfig& config,
                SharedElements elements, const SchemeRegistry* registry);

  const SchemeRegistry& registry() const;
  void ProcessInbound();
  void DispatchFrame();
  void DispatchInitiator();
  void DispatchResponder();
  void HandleHello();
  void HandleEstimateRequest();
  void HandleSchemeRequest();
  void HandleUpdate();
  void StartShardedInitiator();
  void StartResumedInitiator();
  void HandleShardPlan();
  void HandleShardPlanAck();
  void HandleResume();
  void HandleResumeAck();
  void HandleDigestTree();
  void HandleDigestReply();
  void SendEstimateRequest();
  void HandleSubSession();
  void FlushShardFrames();
  void FinishShardedInitiator();
  void StartSchemePhase();
  void EmitNextRequest();
  void EmitNextUpdate();
  void FinishUpdater();
  void AppendOutbound(wire::FrameType type, uint32_t round,
                      const uint8_t* payload, size_t size, const char* label);
  void AppendError(const std::string& message);
  void Fail(std::string error);
  void Settle();
  size_t BufferedBytes() const { return inbound_.size() - in_pos_; }

  bool is_initiator_;
  State state_;
  SessionConfig config_;
  SharedElements elements_;
  // Mutable-store plumbing: the snapshot pins this session's view of the
  // set (and carries the adoptable pre-built layout); the store, when
  // attached, accepts UPDATE sessions. Both null for classic sessions.
  std::shared_ptr<const StoreSnapshot> snapshot_;
  std::shared_ptr<MutableElementStore> store_;
  // Updater role (initiator side).
  bool is_updater_ = false;
  std::vector<UpdateBatch> batches_;
  size_t batch_pos_ = 0;
  // Responder side: true once this session's first frame was kUpdate;
  // reconciliation frames are then rejected (sessions are single-purpose).
  bool update_session_ = false;
  UpdateBatch update_scratch_;  // Reused decode target.
  // Cumulative UPDATE accounting (both roles).
  uint64_t update_epoch_ = 0;
  uint32_t update_inserted_ = 0;
  uint32_t update_deleted_ = 0;
  uint32_t update_rejected_ = 0;
  const SchemeRegistry* registry_;  // nullptr = SchemeRegistry::Instance().
  uint8_t scheme_id_ = 0;
  std::unique_ptr<SetReconciler> reconciler_;
  std::unique_ptr<ReconcileInitiator> initiator_engine_;
  std::unique_ptr<ReconcileResponder> responder_engine_;
  // Sharded sessions (sync/sharded_session.h); null in monolithic ones.
  std::unique_ptr<sync::ShardedCoordinator> shard_coordinator_;
  std::unique_ptr<sync::ShardedResponderMux> shard_mux_;
  double d_hat_ = -1.0;
  uint32_t exchange_ = 0;
  size_t estimator_payload_bytes_ = 0;
  // Sharded initiator: the responder's Merkle root from SHARD_PLAN_ACK /
  // RESUME_ACK — carried into resume tokens so the responder can detect
  // a set that changed between attempts (stale resume).
  uint64_t remote_root_ = 0;
  // Phase deadline clock: re-stamped at construction and after every
  // dispatched frame; only read when config_.phase_deadline_ms > 0.
  std::chrono::steady_clock::time_point phase_start_{};

  // Byte plumbing: inbound accumulates fed bytes ahead of a consumed
  // prefix; outbound accumulates encoded frames ahead of a drained
  // prefix. Both warm to peak capacity and stop allocating.
  std::vector<uint8_t> inbound_;
  size_t in_pos_ = 0;
  std::vector<uint8_t> outbound_;
  size_t out_pos_ = 0;
  wire::WireFrame frame_;               // Reused decode target.
  std::vector<uint8_t> payload_scratch_;  // Reused request/reply payload.
  const char* write_label_ = "sending frame";

  size_t wire_bytes_ = 0;
  int wire_frames_ = 0;
  SessionResult result_;
};

}  // namespace pbs

#endif  // PBS_CORE_SESSION_ENGINE_H_
