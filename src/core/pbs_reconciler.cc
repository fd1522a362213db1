#include "pbs/core/pbs_reconciler.h"

#include <cstdio>

#include "pbs/common/bitio.h"
#include "pbs/core/element_store.h"
#include "pbs/core/pbs_endpoints.h"

namespace pbs {

namespace {

// Scheme-payload kinds for the pbs wire protocol (docs/WIRE_FORMAT.md).
constexpr uint8_t kPbsRound = 1;   // Round request/reply (endpoint bytes).
constexpr uint8_t kPbsDigest = 2;  // Strong-verification digest exchange.

std::string PbsSummary(const PbsPlan& plan) {
  char summary[64];
  std::snprintf(summary, sizeof(summary), "g=%d n=%d t=%d d_used=%d",
                plan.params.g, plan.params.n, plan.params.t, plan.d_used);
  return summary;
}

// Initiator engine: drives PbsAlice one exchange per protocol round, plus
// the optional strong digest.
// The first round request carries d_used so the responder can size its
// plan identically; round payloads embed the endpoints' packed messages.
class PbsInitiator : public ReconcileInitiator {
 public:
  PbsInitiator(std::vector<uint64_t> elements, double d_hat, uint64_t seed,
               const PbsConfig& config, int report_sig_bits)
      : config_(config),
        report_sig_bits_(report_sig_bits),
        d_used_(InflateEstimate(d_hat, config.gamma)),
        alice_(std::move(elements), config, seed) {
    alice_.SetDifferenceEstimate(d_used_);
  }

  std::vector<uint8_t> NextRequest() override {
    std::vector<uint8_t> out;
    NextRequestInto(&out);
    return out;
  }

  void NextRequestInto(std::vector<uint8_t>* out) override {
    if (awaiting_digest_) {
      out->assign(1, kPbsDigest);
      return;
    }
    // Round body, frame writer, and the caller's `out` are all reused
    // scratch: once every buffer has seen its peak round size, building a
    // request performs zero heap allocations.
    alice_.MakeRoundRequest(&body_scratch_);
    pending_request_bytes_ = body_scratch_.size();
    BitWriter& w = frame_writer_;
    w.Clear();
    w.WriteBits(kPbsRound, 8);
    if (alice_.round() == 1) {
      // First round: ship d_used so Bob plans the same (g, n, t).
      w.WriteBits(static_cast<uint32_t>(d_used_), 32);
    }
    w.WriteBytes(body_scratch_.data(), body_scratch_.size());
    out->assign(w.bytes().begin(), w.bytes().end());
  }

  bool HandleReply(const std::vector<uint8_t>& reply) override {
    if (awaiting_digest_) {
      success_ = alice_.VerifyStrongDigest(reply);
      data_bytes_ += reply.size();
      done_ = true;
      return true;
    }
    const bool finished = alice_.HandleRoundReply(reply);
    data_bytes_ += pending_request_bytes_ + reply.size();
    if (finished) {
      if (config_.strong_verification) {
        awaiting_digest_ = true;
      } else {
        success_ = true;
        done_ = true;
      }
    } else if (alice_.round() >= config_.max_rounds) {
      success_ = false;
      done_ = true;
    }
    return true;
  }

  bool done() const override { return done_; }

  ReconcileOutcome TakeOutcome() override {
    ReconcileOutcome outcome;
    outcome.success = success_;
    outcome.rounds = alice_.round();
    outcome.difference = alice_.Difference();
    outcome.data_bytes = data_bytes_;
    outcome.encode_seconds = alice_.timers().encode_seconds;
    outcome.decode_seconds = alice_.timers().decode_seconds;
    if (report_sig_bits_ > config_.sig_bits) {
      // Appendix J.3 accounting: XOR sums and checksums scale with the
      // signature width; sketches and bin positions do not. The XOR-sum
      // count is the *recovered* difference (the fields actually sent).
      const double extra_per_sig =
          static_cast<double>(report_sig_bits_ - config_.sig_bits) / 8.0;
      const double sig_fields =
          static_cast<double>(outcome.difference.size()) +
          static_cast<double>(alice_.plan().params.g);
      outcome.data_bytes += static_cast<size_t>(extra_per_sig * sig_fields);
    }
    outcome.params_summary = PbsSummary(alice_.plan());
    return outcome;
  }

 private:
  PbsConfig config_;
  int report_sig_bits_;
  int d_used_;
  PbsAlice alice_;
  std::vector<uint8_t> body_scratch_;
  BitWriter frame_writer_;
  size_t pending_request_bytes_ = 0;
  size_t data_bytes_ = 0;
  bool awaiting_digest_ = false;
  bool success_ = false;
  bool done_ = false;
};

class PbsResponder : public ReconcileResponder {
 public:
  PbsResponder(std::vector<uint64_t> elements, uint64_t seed,
               const PbsConfig& config)
      : bob_(std::move(elements), config, seed) {}

  /// Snapshot form: shared elements + optional pre-built layout (adopted
  /// inside PbsBob iff it matches the session's plan).
  PbsResponder(std::shared_ptr<const std::vector<uint64_t>> elements,
               std::shared_ptr<const PbsStoreLayout> layout, uint64_t seed,
               const PbsConfig& config)
      : bob_(std::move(elements), std::move(layout), config, seed) {}

  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    BitReader r(request);
    const uint8_t kind = static_cast<uint8_t>(r.ReadBits(8));
    if (r.overflowed()) return false;
    if (kind == kPbsDigest) {
      *reply = bob_.MakeStrongDigest();
      return true;
    }
    if (kind != kPbsRound) return false;
    if (first_round_) {
      // Caps the peer-requested plan size (~10x the paper's largest d):
      // d_used drives the responder's group-table allocation.
      const uint32_t d_used = static_cast<uint32_t>(r.ReadBits(32));
      if (r.overflowed() || d_used > (1u << 20)) return false;
      bob_.SetDifferenceEstimate(static_cast<int>(d_used));
      first_round_ = false;
    }
    body_scratch_.resize(r.remaining_bits() / 8);
    if (!r.ReadBytes(body_scratch_.data(), body_scratch_.size())) return false;
    bob_.HandleRoundRequest(body_scratch_, reply);
    return true;
  }

  PbsTimers timers() const override { return bob_.timers(); }

 private:
  PbsBob bob_;
  std::vector<uint8_t> body_scratch_;
  bool first_round_ = true;
};

}  // namespace

PbsReconciler::PbsReconciler(const SchemeOptions& options)
    : config_(options.pbs), report_sig_bits_(options.report_sig_bits) {
  config_.sig_bits = options.sig_bits;
}

std::unique_ptr<ReconcileInitiator> PbsReconciler::CreateInitiator(
    std::vector<uint64_t> elements, double d_hat, uint64_t seed) const {
  return std::make_unique<PbsInitiator>(std::move(elements), d_hat, seed,
                                        config_, report_sig_bits_);
}

std::unique_ptr<ReconcileResponder> PbsReconciler::CreateResponder(
    std::vector<uint64_t> elements, double /*d_hat*/, uint64_t seed) const {
  return std::make_unique<PbsResponder>(std::move(elements), seed, config_);
}

std::unique_ptr<ReconcileResponder> PbsReconciler::CreateSnapshotResponder(
    std::shared_ptr<const StoreSnapshot> snapshot, double /*d_hat*/,
    uint64_t seed) const {
  if (snapshot == nullptr || snapshot->elements == nullptr ||
      snapshot->layout == nullptr) {
    return nullptr;  // No pre-built state: use the validating plain path.
  }
  return std::make_unique<PbsResponder>(snapshot->elements, snapshot->layout,
                                        seed, config_);
}

}  // namespace pbs
