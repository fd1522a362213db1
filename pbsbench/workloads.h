// The three benchmark workloads. Each owns its generated inputs, an
// in-process ReconcileServer on the loopback interface, and the clients
// that drive it through the public API; the same session list can be
// replayed in-process (no sockets) for the traced run.

#ifndef PBSBENCH_WORKLOADS_H_
#define PBSBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "pbs/core/element_store.h"
#include "pbs/net/reconcile_server.h"

namespace pbsbench {

/// Follow-up sessions a reconciliation may run after a scheme failure.
constexpr int kMaxFollowUps = 3;

/// True when a session that ended with `result` as attempt `attempt` of
/// its reconciliation needs a follow-up: it completed, but its scheme
/// reported failure. Errors are not retried.
bool NeedsFollowUp(const pbs::SessionResult& result, int attempt);

/// Scheme label of the writer's own UPDATE session in the session log.
extern const char* const kUpdateScheme;

/// The stable name of a registered scheme (or kUpdateScheme), so session
/// records carry a pointer rather than a string of their own.
const char* InternScheme(const std::string& name);

/// Client-side record of one session (connect -> DONE). Fixed size, with
/// no heap storage of its own.
///
/// A reconciliation (the benchmark's unit of work) is the session of
/// stream index `index` plus the follow-up sessions it needed: a session
/// whose scheme reports failure is followed by another, configured by
/// Workload::FollowUp, up to kMaxFollowUps times.
struct SessionRecord {
  size_t index = 0;
  int attempt = 0;    // 0 = first session, k = the k-th follow-up.
  bool last = true;   // This session ended its reconciliation.
  double op_wall_ms = 0.0;  // If last: first connect -> this DONE.
  const char* scheme = "";
  bool ok = false;       // Protocol completed (DONE exchanged).
  bool success = false;  // The scheme recovered a difference.
  Verdict verdict = Verdict::kWrong;
  bool estimated = false;  // Ran the monolithic ToW estimate.
  double wall_ms = 0.0;
  double connect_ms = 0.0;  // Connect -> first server frame.
  int feed_calls = 0;       // Client-side SessionEngine::Feed calls.
  size_t wire_bytes = 0;
  size_t data_bytes = 0;
  int rounds = 0;
  size_t diff_size = 0;  // Recovered difference size.
  double d_true = 0.0;
  double d_hat = 0.0;
};

/// The client's session records, in a buffer of fixed capacity that is
/// allocated and written before the set-ups. The benchmark's own
/// bookkeeping then holds the same resident memory whatever the
/// throughput, so peak_rss_mb does not grow with sessions per second.
/// A run whose log fills ends its measurement early and says so.
class SessionLog {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;
  // Room kept for the reconciliations in flight when the loops see full():
  // up to 4 connections, each with up to 1 + kMaxFollowUps sessions.
  static constexpr size_t kSlack = 16;
  static constexpr size_t kErrorsKept = 3;

  void Allocate();
  bool full() const { return size_ + kSlack >= records_.size(); }
  /// Appends `rec`; keeps `error` if it is one of the first kErrorsKept.
  void Add(const SessionRecord& rec, const std::string& error);

  size_t size() const { return size_; }
  const SessionRecord* begin() const { return records_.data(); }
  const SessionRecord* end() const { return records_.data() + size_; }
  /// (index, scheme, message) of the first kErrorsKept failed sessions.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<SessionRecord> records_;
  size_t size_ = 0;
  std::vector<std::string> errors_;
};

/// One writer batch of the open-loop UPDATE stream.
struct UpdateRecord {
  double latency_ms = 0.0;  // Scheduled send -> UPDATE_ACK received.
  double lag_ms = 0.0;      // Scheduled send -> actually sent.
  bool ok = false;
};

/// Server-side tallies from the session logger.
struct LoggerTally {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t scheme_failed = 0;  // ok, but the DONE summary reports failure.
  std::map<std::string, uint64_t> ok_by_scheme;
};

struct E2EResult {
  SessionLog sessions;
  std::vector<UpdateRecord> updates;
  double update_wall_s = 0.0;
  double wall_s = 0.0;        // Measurement loop, input generation excluded.
  double generation_s = 0.0;  // Client input generation inside the loop.
  double cpu_util = 0.0;      // (user + sys) / (wall * nproc).
  pbs::ServerStats stats;
  LoggerTally tally;
  int max_threads = 0;
  int max_connections = 0;
  uint64_t client_sessions = 0;  // Connections the clients opened.
  std::vector<std::string> problems;  // Failed cross-checks.
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int sig_bits() const = 0;
  virtual int server_shards() const = 0;
  virtual int client_threads() const = 0;

  /// Generates the inputs and starts the server.
  virtual void Setup() = 0;
  /// Stops the server and joins its threads.
  virtual void Teardown() = 0;

  /// Session `index` of the deterministic session stream.
  virtual SessionSpec MakeSession(size_t index) const = 0;

  /// The config of follow-up `attempt` (1..kMaxFollowUps) of `spec`'s
  /// reconciliation: what a client does when the scheme reports failure.
  virtual pbs::SessionConfig FollowUp(const SessionSpec& spec,
                                      int attempt) const = 0;

  /// Closed-loop (and for live_sharded_1m open-loop writer) run against
  /// the server for `seconds`, then a wait for every started operation.
  /// `out` comes with its session log allocated.
  virtual void RunE2E(double seconds, E2EResult* out) = 0;

  /// The responder engine the server would mint for a session, for the
  /// in-process pump.
  virtual pbs::SessionEngine MakeResponder() const = 0;

  /// Fingerprint of the generated inputs: the base set plus the first
  /// kFingerprintSessions sessions of the stream.
  virtual uint64_t BaseFingerprint() const = 0;
  uint64_t StreamFingerprint() const;

  /// The writer's batches (empty for workloads without writes) and the
  /// live store (null without one), for the replayed Apply spans.
  virtual const std::vector<pbs::UpdateBatch>& writer_batches() const;
  virtual std::shared_ptr<pbs::MutableElementStore> store() const {
    return nullptr;
  }

  static constexpr size_t kFingerprintSessions = 8;
};

/// Builds the named workload ("mono_1m", "serve_small", "live_sharded_1m")
/// or returns null. `small` shrinks it for the self-test.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small);

std::vector<std::string> WorkloadNames();

/// Cross-checks client tallies against the server's stats() and its
/// session logger; appends a line to `result->problems` per mismatch.
void CrossCheck(E2EResult* result);

}  // namespace pbsbench

#endif  // PBSBENCH_WORKLOADS_H_
