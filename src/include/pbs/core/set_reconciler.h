// Polymorphic scheme abstraction: every reconciliation scheme in the repo
// (PBS and the Section-7/8 baselines alike) is exposed behind one
// interface, constructed by name from a string-keyed registry.
//
// The split of responsibilities mirrors the paper's experiment setup:
// the *caller* (sim/runner, CLI, applications) owns workload generation
// and the ToW estimate exchange, because the estimate is shared across
// schemes (Section 6.2) and its bytes are excluded from the reported
// communication overhead; the *scheme* owns its inflation policy
// (gamma-conservative or raw), parameter planning, and the protocol
// itself. New backends register themselves with SchemeRegistry and are
// immediately usable from the runner, the benches, and pbs_cli without
// touching any of them.

#ifndef PBS_CORE_SET_RECONCILER_H_
#define PBS_CORE_SET_RECONCILER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pbs/core/params.h"

namespace pbs {

struct StoreSnapshot;

/// Unified outcome of one reconciliation, whichever scheme ran it and
/// whether it ran in-process (SetReconciler::Reconcile) or over a wire
/// session (core/wire_session.h).
struct ReconcileOutcome {
  bool success = false;          ///< Protocol settled within its round cap.
  int rounds = 1;                ///< Message rounds actually executed.
  std::vector<uint64_t> difference;  ///< Recovered A /\triangle B.
  size_t data_bytes = 0;         ///< Protocol bytes (excl. estimator).
  size_t estimator_bytes = 0;    ///< Estimate exchange bytes, if the scheme
                                 ///< ran one itself (usually 0: the caller
                                 ///< owns estimation, see header comment).
  double encode_seconds = 0.0;   ///< Sketch/filter construction time
                                 ///< (both parties' in Reconcile()).
  double decode_seconds = 0.0;   ///< Decode/peel/recovery time (both
                                 ///< parties' in Reconcile()).
  std::string params_summary;    ///< Human-readable parameterization, e.g.
                                 ///< "g=20 n=127 t=8" or "t=138".
  /// Framed bytes actually moved by the session layer (handshake, estimate
  /// exchange, frame headers, payloads — both directions). Zero for
  /// in-process Reconcile() calls, which frame nothing; filled by
  /// core/wire_session.h so callers can report *true* transfer sizes next
  /// to the abstract data_bytes accounting above.
  size_t wire_bytes = 0;
  /// Frames exchanged by the session layer (both directions; 0 in-process).
  int wire_frames = 0;
};

/// Construction-time knobs shared by every scheme. PbsConfig doubles as the
/// common parameter block (delta, target rounds, p0, gamma, optimizer
/// ranges): the partitioned schemes read all of it, the single-shot
/// baselines only the inflation factor gamma.
struct SchemeOptions {
  /// Signature width log|U| in bits (paper: 32).
  int sig_bits = 32;
  /// Appendix J.3: account signature-width-dependent wire fields at this
  /// width while computing over sig_bits (0 = off). Schemes that do not
  /// model it simply ignore it.
  int report_sig_bits = 0;
  /// PBS/partitioning knobs and the shared estimator policy.
  PbsConfig pbs;
};

/// Cumulative wall time one protocol engine spent producing sketches and
/// wire bytes (encode) and decoding/recovering (decode), in seconds.
struct PbsTimers {
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
};

/// One side's protocol engine for reconciling over a byte stream: the
/// *initiator* (the paper's Alice) drives a strict ping-pong of opaque
/// payloads and ultimately learns the difference. Payloads are scheme-
/// specific (documented in docs/WIRE_FORMAT.md); the session driver in
/// core/wire_session.h wraps each one in a checksummed WireFrame and moves
/// it across a ByteTransport, so endpoint implementations never see
/// framing or sockets.
///
/// Call sequence: while !done(): NextRequest(&out) -> (peer) ->
/// HandleReply().
/// After done(), TakeOutcome() yields the reconciliation outcome. These
/// engines are the scheme's only implementation: SetReconciler::Reconcile
/// pumps the same pair in-process, so a wire session and an in-process
/// call with equal inputs, estimate and seed recover identical results.
class ReconcileInitiator {
 public:
  virtual ~ReconcileInitiator() = default;

  /// Overwrites `*out` with the next request payload. Precondition:
  /// !done(). Advances the scheme's round state. Multi-round schemes reuse
  /// `out`'s capacity, which is what keeps steady-state SessionEngine
  /// rounds allocation-free (tests/core/hotpath_alloc_test.cc).
  virtual void NextRequest(std::vector<uint8_t>* out) = 0;

  /// Consumes the responder's reply to the last request. Returns false on
  /// a malformed reply (the session is then aborted with a wire error).
  virtual bool HandleReply(const std::vector<uint8_t>& reply) = 0;

  /// True once the protocol has settled (successfully or not); no further
  /// requests may be produced.
  virtual bool done() const = 0;

  /// The reconciliation outcome. Valid once done(); may be called once.
  virtual ReconcileOutcome TakeOutcome() = 0;
};

/// The responding side (the paper's Bob): a pure request -> reply state
/// machine. The responder learns protocol parameters from the first
/// request payload and needs no outcome of its own.
class ReconcileResponder {
 public:
  virtual ~ReconcileResponder() = default;

  /// Produces the reply payload for one request. Returns false on a
  /// malformed request (the session is then aborted with a wire error).
  virtual bool HandleRequest(const std::vector<uint8_t>& request,
                             std::vector<uint8_t>* reply) = 0;

  /// This side's share of the encode/decode work so far. Reconcile() adds
  /// it to the initiator's outcome, so in-process figures count both
  /// parties' time; a wire session reports the initiator's side only.
  virtual PbsTimers timers() const { return {}; }
};

/// Interface implemented by every reconciliation scheme.
///
/// A scheme is its pair of engines: CreateInitiator()/CreateResponder()
/// mint fresh per-session state, so a single SetReconciler can serve many
/// concurrent wire sessions. Implementations must be stateless after
/// construction; the in-process Reconcile() is const and may be called
/// concurrently from the runner's worker threads.
class SetReconciler {
 public:
  virtual ~SetReconciler() = default;

  /// Registry key, e.g. "pbs", "pinsketch-wp".
  virtual const char* name() const = 0;
  /// Paper-style label for tables/figures, e.g. "PBS", "PinSketch/WP".
  virtual const char* display_name() const = 0;
  /// True if the scheme can run additional repair rounds (PBS,
  /// PinSketch/WP); false for one-shot sketch exchanges.
  virtual bool supports_rounds() const { return false; }
  /// True if the scheme's sizing consumes the caller's d-hat estimate.
  /// A scheme returning false ignores the d_hat argument entirely.
  virtual bool needs_estimate() const { return true; }

  /// Reconciles `a` and `b` in-process given the caller's estimate `d_hat`
  /// of |A /\triangle B| (exact when the caller knows d, Sections 2-5; a
  /// ToW estimate otherwise). Each scheme applies its own rounding/
  /// inflation policy to d_hat. `seed` drives every random choice, so equal
  /// inputs give bit-identical outcomes. Mints the initiator over a copy of
  /// `a` and the responder over a copy of `b` and pumps request -> reply ->
  /// HandleReply on reused buffers until the initiator is done -- no
  /// framing, no session engine. A payload either engine rejects ends the
  /// call with success = false. encode/decode_seconds sum both engines.
  /// Precondition: `a` and `b` each list distinct elements (sets, not
  /// multisets), as CreateInitiator/CreateResponder require.
  ReconcileOutcome Reconcile(const std::vector<uint64_t>& a,
                             const std::vector<uint64_t>& b, double d_hat,
                             uint64_t seed) const;

  /// Mints the initiator-side engine for one reconciliation over
  /// `elements` (the initiator's set A). The scheme applies its inflation
  /// policy to `d_hat` and derives every random choice from `seed`.
  /// Precondition: `elements` are distinct. pbs and pinsketch-wp throw
  /// std::invalid_argument on an element listed twice; the single-shot
  /// schemes do not check, and a duplicate there can yield a wrong
  /// difference.
  virtual std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat, uint64_t seed) const = 0;

  /// Mints the responder-side engine over `elements` (the responder's set
  /// B). Protocol parameters the responder cannot derive from `d_hat`
  /// arrive in the first request payload. Precondition: `elements` are
  /// distinct. Responders do not check (their partition waits for the
  /// first request). A duplicate in B makes a pbs or pinsketch-wp session
  /// end with success = false, except for the element 2^(sig_bits-1),
  /// whose doubled checksum term wraps to zero.
  virtual std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat, uint64_t seed) const = 0;

  /// Mints a responder over a published store snapshot
  /// (core/element_store.h): the element vector is shared rather than
  /// copied and, when the scheme can, the snapshot's pre-built sketch
  /// state replaces the per-session O(|B|) rebuild. The default (and any
  /// scheme without a snapshot fast path) returns nullptr, in which case
  /// the session layer falls back to CreateResponder over the snapshot's
  /// elements -- adoption is an optimization, never a requirement.
  virtual std::unique_ptr<ReconcileResponder> CreateSnapshotResponder(
      std::shared_ptr<const StoreSnapshot> /*snapshot*/, double /*d_hat*/,
      uint64_t /*seed*/) const {
    return nullptr;
  }
};

/// Builds a scheme instance from shared options.
using SchemeFactory =
    std::function<std::unique_ptr<SetReconciler>(const SchemeOptions&)>;

/// String-keyed scheme registry. The five built-in schemes (pbs,
/// pinsketch, pinsketch-wp, ddigest, graphene) are registered on first
/// use; additional backends register via Register() or a static
/// SchemeRegistrar at namespace scope.
class SchemeRegistry {
 public:
  /// The process-wide registry (thread-safe lazy init; built-ins are
  /// registered before the first caller returns).
  static SchemeRegistry& Instance();

  /// Registers a scheme. Returns false (and keeps the existing entry) if
  /// the name is already taken.
  bool Register(const std::string& name, const std::string& display_name,
                SchemeFactory factory);

  /// Constructs the named scheme, or nullptr if unknown.
  std::unique_ptr<SetReconciler> Create(const std::string& name,
                                        const SchemeOptions& options) const;

  bool Contains(const std::string& name) const;

  /// Registered scheme names, sorted.
  std::vector<std::string> Names() const;

  /// Display label for a registered name ("" if unknown). Does not
  /// construct the scheme.
  std::string DisplayName(const std::string& name) const;

 private:
  struct Entry {
    std::string display_name;
    SchemeFactory factory;
  };
  std::vector<std::pair<std::string, Entry>> entries_;
};

/// Registers the five built-in schemes directly into `registry` (called
/// once from SchemeRegistry::Instance(); defined in
/// baselines/baseline_reconcilers.cc so the registration translation unit
/// is always linked).
void RegisterBuiltinSchemes(SchemeRegistry& registry);

/// Static-registration helper for out-of-tree backends:
///   static pbs::SchemeRegistrar reg("myscheme", "MyScheme", MakeMyScheme);
struct SchemeRegistrar {
  SchemeRegistrar(const std::string& name, const std::string& display_name,
                  SchemeFactory factory) {
    SchemeRegistry::Instance().Register(name, display_name,
                                        std::move(factory));
  }
};

}  // namespace pbs

#endif  // PBS_CORE_SET_RECONCILER_H_
