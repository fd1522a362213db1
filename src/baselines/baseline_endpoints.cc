// Protocol engines for the baseline schemes (docs/WIRE_FORMAT.md): the
// only implementation of each, driven over the wire by the session layer
// and in-process by SetReconciler::Reconcile. One-shot schemes
// (PinSketch, D.Digest, Graphene) are a single exchange: the initiator
// ships its sizing parameter, the responder ships its sketch/filter, the
// initiator decodes. PinSketch/WP is the genuinely interactive one and
// mirrors the PBS round structure (settled bits, three-way splits) at
// PinSketch field widths.
//
// Timing: each initiator reports its own sketch/filter build as encode and
// its recovery as decode; each responder reports its sketch/filter build
// (plus, for PinSketch/WP, its merge and BCH decode) through timers(), so
// Reconcile() counts both parties' work.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "pbs/baselines/baseline_reconcilers.h"
#include "pbs/baselines/graphene.h"
#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/bitio.h"
#include "pbs/core/group_state.h"
#include "pbs/core/messages.h"
#include "pbs/gf/gf2m.h"
#include "pbs/ibf/bloom_filter.h"
#include "pbs/ibf/invertible_bloom_filter.h"

namespace pbs {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string Summary(const char* format, int value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// D.Digest sizing shared by both sides: 2 d-hat cells, 3 hashes when
// d-hat > 200 and 4 otherwise (the configuration guideline of [15]).
size_t DDigestCells(int d_est) { return static_cast<size_t>(2) * d_est; }
int DDigestHashes(int d_est) { return d_est > 200 ? 3 : 4; }

// Responder-side cap on peer-requested difference capacities (t, d_est).
// These fields arrive in a tiny request but drive O(d) allocations on the
// serving side, so they are bounded to ~10x the paper's largest d rather
// than by what a 4-byte integer can express.
constexpr int kMaxWireDifference = 1 << 20;

// ------------------------------------------------------------- pinsketch --
// PinSketch [13] (Section 7): t BCH syndromes (odd power sums over
// GF(2^log|U|)) of each whole set; t log|U| bits on the wire, O(t^2)
// decode -- the computational bottleneck PBS removes.

class PinSketchInitiator : public ReconcileInitiator {
 public:
  PinSketchInitiator(std::vector<uint64_t> elements, double d_hat,
                     uint64_t seed, int sig_bits, double gamma)
      : elements_(std::move(elements)),
        seed_(seed),
        sig_bits_(sig_bits),
        t_(std::max(1, InflateEstimate(d_hat, gamma))) {}

  void NextRequest(std::vector<uint8_t>* out) override {
    BitWriter w;
    w.WriteBits(static_cast<uint32_t>(t_), 32);
    *out = w.TakeBytes();
  }

  bool HandleReply(const std::vector<uint8_t>& reply) override {
    const GF2m field(sig_bits_);
    const auto encode_start = Clock::now();
    PowerSumSketch alice_sketch(field, t_);
    for (uint64_t e : elements_) alice_sketch.Toggle(e);
    const auto decode_start = Clock::now();
    outcome_.encode_seconds = Seconds(encode_start, decode_start);

    BitReader r(reply);
    PowerSumSketch received = PowerSumSketch::Deserialize(&r, field, t_);
    if (r.overflowed()) return false;
    received.Merge(alice_sketch);
    auto decoded = received.Decode(/*verify=*/true, seed_);
    outcome_.decode_seconds = Seconds(decode_start, Clock::now());
    if (decoded.has_value()) {
      outcome_.success = true;
      outcome_.difference = std::move(*decoded);
    }
    outcome_.data_bytes = reply.size();
    outcome_.params_summary = Summary("t=%d", t_);
    done_ = true;
    return true;
  }

  bool done() const override { return done_; }
  ReconcileOutcome TakeOutcome() override { return std::move(outcome_); }

 private:
  std::vector<uint64_t> elements_;
  uint64_t seed_;
  int sig_bits_;
  int t_;
  bool done_ = false;
  ReconcileOutcome outcome_;
};

class PinSketchResponder : public ReconcileResponder {
 public:
  PinSketchResponder(std::vector<uint64_t> elements, int sig_bits)
      : elements_(std::move(elements)), sig_bits_(sig_bits) {}

  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    BitReader r(request);
    const int t = static_cast<int>(r.ReadBits(32));
    if (r.overflowed() || t < 1 || t > kMaxWireDifference) return false;
    const auto encode_start = Clock::now();
    const GF2m field(sig_bits_);
    PowerSumSketch sketch(field, t);
    for (uint64_t e : elements_) sketch.Toggle(e);
    BitWriter w;
    sketch.Serialize(&w);
    *reply = w.TakeBytes();
    timers_.encode_seconds += Seconds(encode_start, Clock::now());
    return true;
  }

  PbsTimers timers() const override { return timers_; }

 private:
  std::vector<uint64_t> elements_;
  int sig_bits_;
  PbsTimers timers_;
};

// --------------------------------------------------------------- ddigest --
// Difference Digest [15] (Sections 7, 8.1): one IBF exchange; each cell
// carries three log|U|-bit fields, hence roughly 6 d log|U| bits.

class DDigestInitiator : public ReconcileInitiator {
 public:
  DDigestInitiator(std::vector<uint64_t> elements, double d_hat,
                   uint64_t seed, int sig_bits)
      : elements_(std::move(elements)),
        seed_(seed),
        sig_bits_(sig_bits),
        d_est_(std::max(
            1, std::max(0, static_cast<int>(std::llround(d_hat))))) {}

  void NextRequest(std::vector<uint8_t>* out) override {
    BitWriter w;
    w.WriteBits(static_cast<uint32_t>(d_est_), 32);
    *out = w.TakeBytes();
  }

  bool HandleReply(const std::vector<uint8_t>& reply) override {
    const size_t cells = DDigestCells(d_est_);
    const int num_hashes = DDigestHashes(d_est_);
    const auto encode_start = Clock::now();
    InvertibleBloomFilter alice_ibf(cells, num_hashes, seed_, sig_bits_);
    for (uint64_t e : elements_) alice_ibf.Insert(e);
    const auto decode_start = Clock::now();
    outcome_.encode_seconds = Seconds(encode_start, decode_start);

    BitReader r(reply);
    InvertibleBloomFilter bob_ibf = InvertibleBloomFilter::Deserialize(
        &r, cells, num_hashes, seed_, sig_bits_);
    if (r.overflowed()) return false;
    alice_ibf.Subtract(bob_ibf);
    auto decoded = alice_ibf.Decode();
    outcome_.decode_seconds = Seconds(decode_start, Clock::now());

    outcome_.success = decoded.complete;
    outcome_.difference = std::move(decoded.positive);
    outcome_.difference.insert(outcome_.difference.end(),
                               decoded.negative.begin(),
                               decoded.negative.end());
    outcome_.data_bytes = reply.size();
    outcome_.params_summary = Summary("d_est=%d", d_est_);
    done_ = true;
    return true;
  }

  bool done() const override { return done_; }
  ReconcileOutcome TakeOutcome() override { return std::move(outcome_); }

 private:
  std::vector<uint64_t> elements_;
  uint64_t seed_;
  int sig_bits_;
  int d_est_;
  bool done_ = false;
  ReconcileOutcome outcome_;
};

class DDigestResponder : public ReconcileResponder {
 public:
  DDigestResponder(std::vector<uint64_t> elements, uint64_t seed,
                   int sig_bits)
      : elements_(std::move(elements)), seed_(seed), sig_bits_(sig_bits) {}

  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    BitReader r(request);
    const int d_est = static_cast<int>(r.ReadBits(32));
    if (r.overflowed() || d_est < 1 || d_est > kMaxWireDifference) {
      return false;
    }
    const auto encode_start = Clock::now();
    InvertibleBloomFilter ibf(DDigestCells(d_est), DDigestHashes(d_est),
                              seed_, sig_bits_);
    for (uint64_t e : elements_) ibf.Insert(e);
    BitWriter w;
    ibf.Serialize(&w);
    *reply = w.TakeBytes();
    timers_.encode_seconds += Seconds(encode_start, Clock::now());
    return true;
  }

  PbsTimers timers() const override { return timers_; }

 private:
  std::vector<uint64_t> elements_;
  uint64_t seed_;
  int sig_bits_;
  PbsTimers timers_;
};

// -------------------------------------------------------------- graphene --
// Graphene [32] (Sections 7, 8.2); see baselines/graphene.h for the
// protocol shape and the cost model that sizes it.

class GrapheneInitiator : public ReconcileInitiator {
 public:
  GrapheneInitiator(std::vector<uint64_t> elements, double d_hat,
                    uint64_t seed, int sig_bits, double gamma)
      : elements_(std::move(elements)),
        seed_(seed),
        sig_bits_(sig_bits),
        d_est_(std::max(InflateEstimate(d_hat, gamma), 1)) {}

  void NextRequest(std::vector<uint8_t>* out) override {
    BitWriter w;
    w.WriteBits(static_cast<uint32_t>(d_est_), 32);
    *out = w.TakeBytes();
  }

  bool HandleReply(const std::vector<uint8_t>& reply) override {
    const GrapheneConfig config;
    BitReader r(reply);
    const bool use_bf = r.ReadBit();
    r.AlignToByte();
    const uint64_t bf_bits = r.ReadBits(64);
    const int bf_hashes = static_cast<int>(r.ReadBits(16));
    const uint64_t cells = r.ReadBits(64);
    // The geometry fields must be backed by bytes actually present in the
    // reply; anything larger is corruption (or a hostile peer) and must
    // not drive allocation.
    const uint64_t reply_bits = static_cast<uint64_t>(reply.size()) * 8;
    if (r.overflowed() || cells == 0 ||
        cells > reply_bits / (3 * static_cast<uint64_t>(sig_bits_)) ||
        (use_bf && (bf_bits > reply_bits || bf_hashes < 1 ||
                    bf_hashes > 64))) {
      // bf_hashes also bounds per-element probe work during filtering;
      // ForCapacity produces ~10, so 64 is already generous.
      return false;
    }
    const BloomFilter bf = use_bf ? BloomFilter::Deserialize(
                                        &r, bf_bits, bf_hashes, seed_)
                                  : BloomFilter(8, 1, seed_);
    r.AlignToByte();
    InvertibleBloomFilter bob_ibf = InvertibleBloomFilter::Deserialize(
        &r, cells, config.ibf_hashes, seed_ ^ 0x1BF, sig_bits_);
    if (r.overflowed()) return false;
    const size_t wire_accounted_bytes =
        (use_bf ? bf.byte_size() : 0) + bob_ibf.byte_size() + 8;

    // Candidate set Z (passes the BF) and IBF(Z).
    const auto encode_start = Clock::now();
    std::vector<uint64_t> z;
    z.reserve(elements_.size());
    std::vector<uint64_t> a_minus_z;
    for (uint64_t e : elements_) {
      if (!use_bf || bf.Contains(e)) {
        z.push_back(e);
      } else {
        a_minus_z.push_back(e);
      }
    }
    InvertibleBloomFilter z_ibf(cells, config.ibf_hashes, seed_ ^ 0x1BF,
                                sig_bits_);
    for (uint64_t e : z) z_ibf.Insert(e);
    const auto decode_start = Clock::now();
    outcome_.encode_seconds = Seconds(encode_start, decode_start);

    bob_ibf.Subtract(z_ibf);
    auto decoded = bob_ibf.Decode();
    outcome_.decode_seconds = Seconds(decode_start, Clock::now());

    outcome_.success = decoded.complete;
    outcome_.difference = std::move(a_minus_z);
    outcome_.difference.insert(outcome_.difference.end(),
                               decoded.negative.begin(),
                               decoded.negative.end());
    outcome_.difference.insert(outcome_.difference.end(),
                               decoded.positive.begin(),
                               decoded.positive.end());
    // BF + IBF + the 8-byte geometry surcharge the paper credits
    // Graphene.
    outcome_.data_bytes = wire_accounted_bytes;
    outcome_.params_summary = Summary("d_est=%d", d_est_);
    done_ = true;
    return true;
  }

  bool done() const override { return done_; }
  ReconcileOutcome TakeOutcome() override { return std::move(outcome_); }

 private:
  std::vector<uint64_t> elements_;
  uint64_t seed_;
  int sig_bits_;
  int d_est_;
  bool done_ = false;
  ReconcileOutcome outcome_;
};

class GrapheneResponder : public ReconcileResponder {
 public:
  GrapheneResponder(std::vector<uint64_t> elements, uint64_t seed,
                    int sig_bits)
      : elements_(std::move(elements)), seed_(seed), sig_bits_(sig_bits) {}

  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    BitReader r(request);
    const int d_est = static_cast<int>(r.ReadBits(32));
    if (r.overflowed() || d_est < 1 || d_est > kMaxWireDifference) {
      return false;
    }
    const auto encode_start = Clock::now();
    const GrapheneConfig config;
    const GraphenePlan plan =
        GrapheneChoosePlan(d_est, elements_.size(), sig_bits_, config);

    BloomFilter bf = plan.use_bf() ? BloomFilter::ForCapacity(
                                         elements_.size(), plan.epsilon,
                                         seed_)
                                   : BloomFilter(8, 1, seed_);
    if (plan.use_bf()) {
      for (uint64_t e : elements_) bf.Insert(e);
    }
    InvertibleBloomFilter ibf(plan.cells, config.ibf_hashes, seed_ ^ 0x1BF,
                              sig_bits_);
    for (uint64_t e : elements_) ibf.Insert(e);

    BitWriter w;
    w.WriteBit(plan.use_bf());
    w.AlignToByte();
    w.WriteBits(plan.use_bf() ? bf.bit_count() : 0, 64);
    w.WriteBits(static_cast<uint64_t>(bf.num_hashes()), 16);
    w.WriteBits(plan.cells, 64);
    if (plan.use_bf()) bf.Serialize(&w);
    w.AlignToByte();
    ibf.Serialize(&w);
    *reply = w.TakeBytes();
    timers_.encode_seconds += Seconds(encode_start, Clock::now());
    return true;
  }

  PbsTimers timers() const override { return timers_; }

 private:
  std::vector<uint64_t> elements_;
  uint64_t seed_;
  int sig_bits_;
  PbsTimers timers_;
};

// ---------------------------------------------------------- pinsketch/wp --

// PinSketch/WP (Section 8.3): PBS's hash partition into g = d/delta groups
// applied to PinSketch. Per group pair the initiator ships a capacity-t
// PinSketch over GF(2^log|U|); the responder decodes the merged sketch
// and replies with the distinct elements plus a checksum; BCH failures
// split the group three ways as in PBS. The (t - delta) log|U| safety
// margin costs 3-4x PBS's (t - delta) log n. Canonical unit order evolves
// identically on both sides: settled units are dropped (the
// initiator announces settlement bits at the head of the next round's
// request), decode-failed units are replaced in place by their three
// children, survivors stay put — the Section 3.2/3.3 discipline at
// PinSketch field widths.
class PinSketchWpInitiator : public ReconcileInitiator {
 public:
  PinSketchWpInitiator(std::vector<uint64_t> elements, double d_hat,
                       uint64_t seed, const PbsConfig& config,
                       int report_sig_bits)
      : field_(config.sig_bits),
        family_(seed),
        config_(config),
        report_sig_bits_(report_sig_bits),
        d_used_(InflateEstimate(d_hat, config.gamma)) {
    const PbsPlan plan = PlanFor(config_, d_used_);
    t_ = std::max(plan.params.t, 1);
    g_ = static_cast<uint32_t>(plan.params.g);
    count_bits_ = wire::CountBits(t_);
    PartitionIntoRoots(family_, elements, g_, config_.sig_bits, &units_);
    if (HasDuplicateElement(units_)) {
      throw std::invalid_argument(
          "pinsketch-wp initiator: element listed twice");
    }
  }

  void NextRequest(std::vector<uint8_t>* out) override {
    const auto encode_start = Clock::now();
    ++round_;
    BitWriter w;
    // The (g, t) sizing header is derived from the d-hat both sides share,
    // so data_bytes leaves it out (as PbsInitiator leaves out d_used).
    size_t header_bytes = 0;
    if (round_ == 1) {
      w.WriteBits(g_, 32);
      w.WriteBits(static_cast<uint32_t>(t_), 32);
      header_bytes = w.byte_size();
    } else {
      for (bool settled : settled_bits_) w.WriteBit(settled);
      w.AlignToByte();
    }
    settled_bits_.clear();
    for (const Unit& unit : units_) {
      PowerSumSketch sketch(field_, t_);
      for (uint64_t e : unit.elements) sketch.Toggle(e);
      sketch.Serialize(&w);
      sig_fields_ += static_cast<size_t>(t_);  // t syndromes per unit.
    }
    request_bytes_ = w.byte_size() - header_bytes;
    timers_.encode_seconds += Seconds(encode_start, Clock::now());
    *out = w.TakeBytes();
  }

  bool HandleReply(const std::vector<uint8_t>& reply) override {
    const auto decode_start = Clock::now();
    BitReader r(reply);
    data_bytes_ += request_bytes_ + reply.size();
    std::vector<Unit> next_units;
    for (Unit& unit : units_) {
      if (r.ReadBit()) {
        // Three-way split; the responder redistributes identically.
        SplitInto(family_, unit, config_.sig_bits, &next_units);
        continue;
      }
      const uint64_t count = r.ReadBits(count_bits_);
      if (count > static_cast<uint64_t>(t_)) return false;
      sig_fields_ += count + 1;  // Recovered elements + Bob's checksum.
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t s = r.ReadBits(config_.sig_bits);
        if (s == 0) continue;
        if (!unit.core.InSubUniverse(family_, s, g_)) continue;
        Toggle(&unit, s, config_.sig_bits);
        if (diff_.erase(s) == 0) diff_.insert(s);
      }
      const uint64_t bob_checksum = r.ReadBits(config_.sig_bits);
      if (r.overflowed()) return false;
      if (unit.checksum != bob_checksum) {
        settled_bits_.push_back(false);
        next_units.push_back(std::move(unit));
      } else {
        settled_bits_.push_back(true);
      }
    }
    if (r.overflowed()) return false;
    // Settled units' sets are freed at scope exit, after the timer stops.
    const std::vector<Unit> retired =
        std::exchange(units_, std::move(next_units));
    if (units_.empty() || round_ >= config_.max_rounds) done_ = true;
    timers_.decode_seconds += Seconds(decode_start, Clock::now());
    return true;
  }

  bool done() const override { return done_; }

  ReconcileOutcome TakeOutcome() override {
    ReconcileOutcome outcome;
    outcome.success = units_.empty();
    outcome.rounds = round_;
    outcome.difference.assign(diff_.begin(), diff_.end());
    outcome.data_bytes = data_bytes_;
    outcome.encode_seconds = timers_.encode_seconds;
    outcome.decode_seconds = timers_.decode_seconds;
    if (report_sig_bits_ > config_.sig_bits) {
      // Appendix J.3: every signature-width field (syndromes, recovered
      // elements, checksums) is accounted at report_sig_bits.
      outcome.data_bytes += sig_fields_ *
                            static_cast<size_t>(report_sig_bits_ -
                                                config_.sig_bits) / 8;
    }
    char summary[64];
    std::snprintf(summary, sizeof(summary), "g=%u t=%d delta=%d d_used=%d",
                  g_, t_, config_.delta, d_used_);
    outcome.params_summary = summary;
    return outcome;
  }

 private:
  GF2m field_;
  HashFamily family_;
  PbsConfig config_;
  int report_sig_bits_ = 0;
  int d_used_;
  int t_ = 1;
  uint32_t g_ = 1;
  int count_bits_ = 1;
  std::vector<Unit> units_;
  std::vector<bool> settled_bits_;
  std::unordered_set<uint64_t> diff_;
  size_t request_bytes_ = 0;
  size_t data_bytes_ = 0;
  size_t sig_fields_ = 0;
  PbsTimers timers_;
  int round_ = 0;
  bool done_ = false;
};

class PinSketchWpResponder : public ReconcileResponder {
 public:
  PinSketchWpResponder(std::vector<uint64_t> elements, uint64_t seed,
                       const PbsConfig& config)
      : elements_(std::move(elements)),
        field_(config.sig_bits),
        family_(seed),
        seed_(seed),
        sig_bits_(config.sig_bits) {}

  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    BitReader r(request);
    if (first_) {
      first_ = false;
      g_ = static_cast<uint32_t>(r.ReadBits(32));
      t_ = static_cast<int>(r.ReadBits(32));
      // The header must be followed by g sketches of t*sig_bits bits, so
      // a request this size can only back so many units — reject anything
      // bigger before allocating the unit table.
      const uint64_t sketch_bits = static_cast<uint64_t>(request.size()) * 8 -
                                   64;
      if (r.overflowed() || g_ == 0 || t_ < 1 ||
          static_cast<uint64_t>(g_) * static_cast<uint64_t>(t_) >
              sketch_bits / static_cast<uint64_t>(sig_bits_)) {
        return false;
      }
      count_bits_ = wire::CountBits(t_);
      PartitionIntoRoots(family_, elements_, g_, sig_bits_, &units_);
    } else {
      // Evolve the table as the initiator did: last round's failed units
      // split; the others each read a settled bit, in canonical order, and
      // settled ones drop. Then the stream re-aligns to a byte boundary.
      std::vector<Unit> next_units;
      next_units.reserve(units_.size());
      for (size_t u = 0; u < units_.size(); ++u) {
        if (failed_[u]) {
          SplitInto(family_, units_[u], sig_bits_, &next_units);
        } else if (!r.ReadBit()) {
          next_units.push_back(std::move(units_[u]));
        }
      }
      r.AlignToByte();
      if (r.overflowed()) return false;
      units_ = std::move(next_units);
    }

    BitWriter w;
    failed_.assign(units_.size(), false);
    for (size_t u = 0; u < units_.size(); ++u) {
      const Unit& unit = units_[u];
      const auto encode_start = Clock::now();
      PowerSumSketch alice_sketch =
          PowerSumSketch::Deserialize(&r, field_, t_);
      if (r.overflowed()) return false;
      PowerSumSketch merged(field_, t_);
      for (uint64_t e : unit.elements) merged.Toggle(e);
      merged.Merge(alice_sketch);
      const auto decode_start = Clock::now();
      timers_.encode_seconds += Seconds(encode_start, decode_start);
      auto decoded = merged.Decode(/*verify=*/true, seed_ ^ unit.core.key);
      timers_.decode_seconds += Seconds(decode_start, Clock::now());
      failed_[u] = !decoded.has_value();
      w.WriteBit(failed_[u]);  // A failed decode splits on both sides.
      if (failed_[u]) continue;
      w.WriteBits(decoded->size(), count_bits_);
      for (uint64_t s : *decoded) w.WriteBits(s, sig_bits_);
      w.WriteBits(unit.checksum, sig_bits_);
    }
    *reply = w.TakeBytes();
    return true;
  }

  PbsTimers timers() const override { return timers_; }

 private:
  std::vector<uint64_t> elements_;
  GF2m field_;
  HashFamily family_;
  uint64_t seed_;
  int sig_bits_;
  uint32_t g_ = 0;
  int t_ = 1;
  int count_bits_ = 1;
  bool first_ = true;
  std::vector<Unit> units_;
  std::vector<bool> failed_;  // Per unit: last round's decode failed.
  PbsTimers timers_;
};

}  // namespace

// ----------------------------------------------------- factory overrides --

std::unique_ptr<ReconcileInitiator> PinSketchReconciler::CreateInitiator(
    std::vector<uint64_t> elements, double d_hat, uint64_t seed) const {
  return std::make_unique<PinSketchInitiator>(std::move(elements), d_hat,
                                              seed, sig_bits_, gamma_);
}

std::unique_ptr<ReconcileResponder> PinSketchReconciler::CreateResponder(
    std::vector<uint64_t> elements, double /*d_hat*/, uint64_t /*seed*/)
    const {
  return std::make_unique<PinSketchResponder>(std::move(elements),
                                              sig_bits_);
}

std::unique_ptr<ReconcileInitiator> DDigestReconciler::CreateInitiator(
    std::vector<uint64_t> elements, double d_hat, uint64_t seed) const {
  return std::make_unique<DDigestInitiator>(std::move(elements), d_hat, seed,
                                            sig_bits_);
}

std::unique_ptr<ReconcileResponder> DDigestReconciler::CreateResponder(
    std::vector<uint64_t> elements, double /*d_hat*/, uint64_t seed) const {
  return std::make_unique<DDigestResponder>(std::move(elements), seed,
                                            sig_bits_);
}

std::unique_ptr<ReconcileInitiator> GrapheneReconciler::CreateInitiator(
    std::vector<uint64_t> elements, double d_hat, uint64_t seed) const {
  return std::make_unique<GrapheneInitiator>(std::move(elements), d_hat,
                                             seed, sig_bits_, gamma_);
}

std::unique_ptr<ReconcileResponder> GrapheneReconciler::CreateResponder(
    std::vector<uint64_t> elements, double /*d_hat*/, uint64_t seed) const {
  return std::make_unique<GrapheneResponder>(std::move(elements), seed,
                                             sig_bits_);
}

std::unique_ptr<ReconcileInitiator> PinSketchWpReconciler::CreateInitiator(
    std::vector<uint64_t> elements, double d_hat, uint64_t seed) const {
  return std::make_unique<PinSketchWpInitiator>(std::move(elements), d_hat,
                                                seed, config_,
                                                report_sig_bits_);
}

std::unique_ptr<ReconcileResponder> PinSketchWpReconciler::CreateResponder(
    std::vector<uint64_t> elements, double /*d_hat*/, uint64_t seed) const {
  return std::make_unique<PinSketchWpResponder>(std::move(elements), seed,
                                                config_);
}

}  // namespace pbs
