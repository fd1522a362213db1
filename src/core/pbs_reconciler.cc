// The "pbs" scheme's two engines, one class per side (Sections 2-3):
//
//   PbsInitiator (Alice)              PbsResponder (Bob)
//   NextRequest    -- round k --->    HandleRequest     \  repeated until
//   HandleReply    <-------------                       /  all units settle
//
// plus, with PbsConfig::strong_verification, one digest exchange
// (Section 2.2.3). Payload layouts: docs/WIRE_FORMAT.md ("pbs payloads")
// and core/messages.h.

#include "pbs/core/pbs_reconciler.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/bitio.h"
#include "pbs/common/mset_hash.h"
#include "pbs/common/parallel.h"
#include "pbs/common/workspace.h"
#include "pbs/core/element_store.h"
#include "pbs/core/group_state.h"
#include "pbs/core/messages.h"
#include "pbs/core/parity_bitmap.h"
#include "pbs/gf/gf2m.h"
#include "pbs/hash/hash_family.h"

namespace pbs {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Scheme-payload kinds for the pbs wire protocol (docs/WIRE_FORMAT.md).
constexpr uint8_t kPbsRound = 1;   // Round request/reply.
constexpr uint8_t kPbsDigest = 2;  // Strong-verification digest exchange.

// Round-request header: the kind byte, then (round 1 only) the 32-bit
// d_used so Bob plans the same (g, n, t). Neither counts as data bytes.
constexpr size_t kKindBytes = 1;
constexpr size_t kDUsedBytes = 4;

// Caps the peer-requested plan size (~10x the paper's largest d): d_used
// drives the responder's group-table allocation.
constexpr uint32_t kMaxPeerDUsed = 1u << 20;

// The strong digest: a 192-bit multiset hash (common/mset_hash.h).
constexpr size_t kDigestBytes = 24;
constexpr uint64_t kDigestSalt = 0x5742;

constexpr size_t kDecodeBatch =
    static_cast<size_t>(PowerSumSketch::kDecodeBatch);

// Signatures must be nonzero (Section 2.1 excludes 0 from the universe so
// Procedure 1 can distinguish "no difference" from "difference is 0") and
// fit the configured width. Violations are caller bugs, reported loudly.
void ValidateElements(const std::vector<uint64_t>& elements, int sig_bits,
                      const char* who) {
  const uint64_t limit =
      sig_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << sig_bits) - 1;
  for (uint64_t e : elements) {
    if (e == 0) {
      throw std::invalid_argument(
          std::string(who) +
          ": element 0 is excluded from the universe (Section 2.1)");
    }
    if (e > limit) {
      throw std::invalid_argument(
          std::string(who) + ": element exceeds sig_bits width");
    }
  }
}

std::string PbsSummary(const PbsPlan& plan) {
  char summary[64];
  std::snprintf(summary, sizeof(summary), "g=%d n=%d t=%d d_used=%d",
                plan.params.g, plan.params.n, plan.params.t, plan.d_used);
  return summary;
}

// Per-worker pool for the per-group loops (PbsConfig::decode_threads):
// null when one thread is asked for, so the serial path spawns nothing.
std::unique_ptr<ParallelFor> MakePool(int decode_threads) {
  const int threads = ParallelFor::ResolveThreads(decode_threads);
  return threads > 1 ? std::make_unique<ParallelFor>(threads) : nullptr;
}

// ---------------------------------------------------------------------------
// Alice
// ---------------------------------------------------------------------------

// Learns A /\triangle B. Sized at construction from the gamma-inflated
// d-hat; one request/reply exchange per protocol round, then the optional
// strong digest. Encode time is the whole round request (bin + sketch,
// parallel across groups with decode_threads != 1, plus serialization);
// decode time is reply parsing and element recovery.
class PbsInitiator : public ReconcileInitiator {
 public:
  PbsInitiator(std::vector<uint64_t> elements, double d_hat, uint64_t seed,
               const PbsConfig& config, int report_sig_bits)
      : config_(config),
        report_sig_bits_(report_sig_bits),
        family_(seed),
        elements_(std::move(elements)),
        plan_(PlanFor(config, InflateEstimate(d_hat, config.gamma))),
        pool_(MakePool(config.decode_threads)) {
    const GF2m field(plan_.params.m);
    const int workers = pool_ != nullptr ? pool_->threads() : 1;
    for (int i = 0; i < workers; ++i) {
      workers_.push_back(
          std::make_unique<EncodeScratch>(field, plan_.params.t));
    }
    PartitionIntoRoots(family_, elements_,
                       static_cast<uint32_t>(plan_.params.g),
                       config_.sig_bits, &units_);
    if (HasDuplicateElement(units_)) {
      throw std::invalid_argument("pbs initiator: element listed twice");
    }
  }

  void NextRequest(std::vector<uint8_t>* out) override {
    if (awaiting_digest_) {
      out->assign(1, kPbsDigest);
      return;
    }
    ++round_;
    const auto start = Clock::now();
    const size_t t = static_cast<size_t>(plan_.params.t);
    const int m = plan_.params.m;
    const size_t n_units = units_.size();

    // Phase A (parallel over units): bin each group and stage its sketch's
    // odd syndromes in the unit's flat slice.
    syndromes_.resize(n_units * t);
    const auto encode_unit = [this, t](size_t u, int worker) {
      EncodeScratch& scratch = *workers_[worker];
      const SaltedHash h(units_[u].core.BinSalt(family_, round_));
      ParityBitmap::BuildInto(units_[u].elements, h, plan_.params.n,
                              &scratch.pb);
      scratch.pb.ToSketchInto(&scratch.sketch);
      const std::vector<uint64_t>& odd = scratch.sketch.odd_syndromes();
      std::copy(odd.begin(), odd.end(), syndromes_.begin() + u * t);
    };
    if (pool_ != nullptr) {
      pool_->Run(n_units, encode_unit);
    } else {
      for (size_t u = 0; u < n_units; ++u) encode_unit(u, 0);
    }

    // Phase B (serial), written straight into the caller's buffer: the
    // header, last round's settled flags, then the staged syndromes in
    // canonical unit order -- byte-identical for any thread count.
    BitWriter w(std::move(*out));
    w.WriteBits(kPbsRound, 8);
    size_t header_bytes = kKindBytes;
    if (round_ == 1) {
      w.WriteBits(static_cast<uint32_t>(plan_.d_used), 32);
      header_bytes += kDUsedBytes;
    }
    for (bool settled : last_settled_) w.WriteBit(settled);
    last_settled_.clear();
    for (uint64_t syndrome : syndromes_) w.WriteBits(syndrome, m);
    pending_request_bytes_ = w.byte_size() - header_bytes;
    *out = w.TakeBytes();
    timers_.encode_seconds += Seconds(start, Clock::now());
  }

  bool HandleReply(const std::vector<uint8_t>& reply) override {
    if (awaiting_digest_) {
      if (reply.size() != kDigestBytes) return false;
      success_ = DigestMatches(reply);
      data_bytes_ += reply.size();
      done_ = true;
      return true;
    }
    if (!HandleRoundReply(reply)) return false;
    data_bytes_ += pending_request_bytes_ + reply.size();
    if (units_.empty()) {
      if (config_.strong_verification) {
        awaiting_digest_ = true;
      } else {
        success_ = true;
        done_ = true;
      }
    } else if (round_ >= config_.max_rounds) {
      done_ = true;
    }
    return true;
  }

  bool done() const override { return done_; }

  ReconcileOutcome TakeOutcome() override {
    ReconcileOutcome outcome;
    outcome.success = success_;
    outcome.rounds = round_;
    outcome.difference.assign(diff_.begin(), diff_.end());
    outcome.data_bytes = data_bytes_;
    outcome.encode_seconds = timers_.encode_seconds;
    outcome.decode_seconds = timers_.decode_seconds;
    if (report_sig_bits_ > config_.sig_bits) {
      // Appendix J.3 accounting: XOR sums and checksums scale with the
      // signature width; sketches and bin positions do not. The XOR-sum
      // count is the *recovered* difference (the fields actually sent).
      const double extra_per_sig =
          static_cast<double>(report_sig_bits_ - config_.sig_bits) / 8.0;
      const double sig_fields =
          static_cast<double>(outcome.difference.size()) +
          static_cast<double>(plan_.params.g);
      outcome.data_bytes += static_cast<size_t>(extra_per_sig * sig_fields);
    }
    outcome.params_summary = PbsSummary(plan_);
    return outcome;
  }

 private:
  // Per-worker encode scratch.
  struct EncodeScratch {
    EncodeScratch(const GF2m& field, int t) : sketch(field, t) {}
    ParityBitmap pb;
    PowerSumSketch sketch;
  };

  // Consumes one round reply: splits the failed units, recovers candidate
  // elements from the decoded ones (Procedures 1 and 3) and drops the
  // units whose checksum settles. False on a malformed reply: truncated,
  // a count above t, or a whole byte left over after the last unit.
  bool HandleRoundReply(const std::vector<uint8_t>& reply) {
    const auto start = Clock::now();
    BitReader r(reply);
    const int t = plan_.params.t;
    const int n = plan_.params.n;
    const int m = plan_.params.m;
    const int count_bits = wire::CountBits(t);
    const int sig_bits = config_.sig_bits;
    const uint32_t g = static_cast<uint32_t>(plan_.params.g);

    next_units_.clear();
    next_units_.reserve(units_.size());
    for (Unit& unit : units_) {
      if (r.ReadBit()) {
        // Decode failed: both sides split; children reconcile from next
        // round. At the depth cap the unit retries as-is.
        if (unit.core.depth < config_.max_split_depth) {
          SplitInto(family_, unit, sig_bits, &next_units_);
        } else {
          next_units_.push_back(std::move(unit));
        }
        continue;
      }

      const int count = static_cast<int>(r.ReadBits(count_bits));
      if (count > t) return false;
      positions_.resize(count);
      xors_.resize(count);
      for (int i = 0; i < count; ++i) positions_[i] = r.ReadBits(m);
      for (int i = 0; i < count; ++i) xors_[i] = r.ReadBits(sig_bits);
      const uint64_t bob_checksum = r.ReadBits(sig_bits);
      if (r.overflowed()) return false;

      // Recover each candidate distinct element (Procedures 1 and 3).
      const SaltedHash h(unit.core.BinSalt(family_, round_));
      ParityBitmap::BuildInto(unit.elements, h, n, &pb_);
      for (int i = 0; i < count; ++i) {
        const uint64_t pos = positions_[i];
        if (pos < 1 || pos > static_cast<uint64_t>(n)) continue;
        const uint64_t s = pb_.xor_sum[pos] ^ xors_[i];
        if (s == 0) continue;  // XOR-cancelled fake.
        if (config_.subuniverse_check) {
          if (BinIndex(s, h, n) != pos) continue;  // Procedure 3.
          if (!unit.core.InSubUniverse(family_, s, g)) continue;
        }
        Toggle(&unit, s, sig_bits);
        if (diff_.erase(s) == 0) diff_.insert(s);
      }

      const bool settled = unit.checksum == bob_checksum;
      last_settled_.push_back(settled);
      if (!settled) next_units_.push_back(std::move(unit));
    }
    if (r.overflowed() || r.remaining_bits() >= 8) return false;

    units_.swap(next_units_);
    next_units_.clear();  // Frees settled/moved-from units promptly.
    timers_.decode_seconds += Seconds(start, Clock::now());
    return true;
  }

  // Checks Bob's digest of B against H(A /\triangle D-hat) in one scan of
  // A: an element of D-hat met in A is toggled out (skipped), the D-hat
  // elements left over are toggled in. Extra memory is O(|D-hat|).
  bool DigestMatches(const std::vector<uint8_t>& reply) const {
    BitReader r(reply);
    std::array<uint64_t, 3> theirs;
    for (auto& lane : theirs) lane = r.ReadBits(64);
    MsetHash mine(family_.Salt(HashFamily::kEstimator, kDigestSalt));
    std::unordered_set<uint64_t> not_in_a = diff_;
    for (uint64_t e : elements_) {
      if (not_in_a.erase(e) == 0) mine.Add(e);
    }
    for (uint64_t e : not_in_a) mine.Add(e);
    return mine.digest() == theirs;
  }

  PbsConfig config_;
  int report_sig_bits_;
  HashFamily family_;
  std::vector<uint64_t> elements_;
  PbsPlan plan_;
  std::unique_ptr<ParallelFor> pool_;
  std::vector<std::unique_ptr<EncodeScratch>> workers_;

  std::vector<Unit> units_;  // Canonical order, unsettled units only.
  std::unordered_set<uint64_t> diff_;  // Accumulated D-hat (toggles).
  std::vector<bool> last_settled_;     // Flags for the next request.
  int round_ = 0;
  PbsTimers timers_;

  // Round scratch, reused so steady-state rounds allocate nothing; the
  // remaining allocations follow productive events only (recovered
  // differences, unit splits).
  std::vector<uint64_t> syndromes_;  // units_.size() * t staging slots.
  std::vector<Unit> next_units_;
  ParityBitmap pb_;
  std::vector<uint64_t> positions_;
  std::vector<uint64_t> xors_;

  size_t pending_request_bytes_ = 0;
  size_t data_bytes_ = 0;
  bool awaiting_digest_ = false;
  bool success_ = false;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Bob
// ---------------------------------------------------------------------------

// Answers Alice's rounds. Learns d_used from the first request, then plans
// exactly as she did. Encode time is request staging and reply
// serialization; decode time is the per-group bin + sketch + BCH-decode
// step, timed as one wall-clock phase (it runs fused and, with
// decode_threads != 1, across a worker pool).
class PbsResponder : public ReconcileResponder {
 public:
  // `elements` is shared, never copied. When `layout` (a store snapshot's
  // pre-built round-1 state, core/element_store.h) matches the session's
  // (seed, sig_bits, plan shape), round 1 reads bitmaps, syndromes and
  // checksums straight out of it and the O(|B|) group partition waits
  // until a second round needs it. Otherwise it is dropped and the units
  // are built from scratch, so adoption never changes the wire bytes.
  PbsResponder(std::shared_ptr<const std::vector<uint64_t>> elements,
               std::shared_ptr<const PbsStoreLayout> layout, uint64_t seed,
               const PbsConfig& config)
      : config_(config),
        family_(seed),
        elements_(std::move(elements)),
        layout_(std::move(layout)) {}

  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    BitReader r(request);
    const uint8_t kind = static_cast<uint8_t>(r.ReadBits(8));
    if (r.overflowed()) return false;
    if (kind == kPbsDigest) {
      if (request.size() != kKindBytes) return false;
      WriteStrongDigest(reply);
      return true;
    }
    if (kind != kPbsRound) return false;
    if (round_ == 0) {
      const uint32_t d_used = static_cast<uint32_t>(r.ReadBits(32));
      if (r.overflowed() || d_used > kMaxPeerDUsed) return false;
      Plan(static_cast<int>(d_used));
    }
    return HandleRound(r, reply);
  }

  PbsTimers timers() const override { return timers_; }

 private:
  // Per-worker decode scratch: one block of kDecodeBatch lanes.
  struct DecodeScratch {
    DecodeScratch(const GF2m& field, int t)
        : bitmaps(kDecodeBatch), positions(kDecodeBatch) {
      sketches.reserve(kDecodeBatch);
      for (size_t i = 0; i < kDecodeBatch; ++i) sketches.emplace_back(field, t);
    }
    Workspace ws;
    std::vector<ParityBitmap> bitmaps;
    std::vector<PowerSumSketch> sketches;
    std::vector<std::vector<uint64_t>> positions;
  };

  void Plan(int d_used) {
    plan_ = PlanFor(config_, d_used);
    const GF2m field(plan_.params.m);
    pool_ = MakePool(config_.decode_threads);
    const int workers = pool_ != nullptr ? pool_->threads() : 1;
    for (int i = 0; i < workers; ++i) {
      workers_.push_back(
          std::make_unique<DecodeScratch>(field, plan_.params.t));
    }
    const uint32_t g = static_cast<uint32_t>(plan_.params.g);
    if (LayoutMatchesPlan()) {
      // Round 1 reads bitmaps and syndromes from the layout; the units
      // need only their lineage and checksum until a second round.
      units_.resize(g);
      for (uint32_t i = 0; i < g; ++i) {
        units_[i].core = UnitCore::Root(family_, i);
        units_[i].checksum = layout_->checksums[i];
      }
      partitioned_ = false;
    } else {
      layout_.reset();  // A mismatched layout is useless; drop it.
      PartitionIntoRoots(family_, *elements_, g, config_.sig_bits, &units_);
    }
  }

  // True when the layout is exactly what this session would build: its
  // contents depend only on (seed, sig_bits, g, n, m, t), so a d_used
  // mismatch is fine as long as the planned shape coincides.
  bool LayoutMatchesPlan() const {
    return layout_ != nullptr && layout_->seed == family_.master_seed() &&
           layout_->config.sig_bits == config_.sig_bits &&
           layout_->plan.params.g == plan_.params.g &&
           layout_->plan.params.n == plan_.params.n &&
           layout_->plan.params.m == plan_.params.m &&
           layout_->plan.params.t == plan_.params.t;
  }

  // One round: evolve the unit table, stage Alice's sketches, decode every
  // unit, write the reply. False on a truncated request or trailing
  // bytes: the body is exactly the flags of last round's decoded units
  // plus t*m bits per unit, padded to a byte.
  bool HandleRound(BitReader& r, std::vector<uint8_t>* reply) {
    ++round_;
    if (round_ > 1) {
      // An adopted layout deferred the O(|B|) partition; any second round
      // needs real per-unit element lists (for splits and later bin
      // salts), and the table is still exactly the g roots here.
      if (!partitioned_) {
        PartitionIntoRoots(family_, *elements_,
                           static_cast<uint32_t>(plan_.params.g),
                           config_.sig_bits, &units_);
        partitioned_ = true;
      }
      // Evolve the table exactly as Alice did: consume her settled flags
      // for units that decoded last round (unit_counts_ still holds last
      // round's results, -1 for a failed decode), split the failed ones.
      next_units_.clear();
      next_units_.reserve(units_.size());
      for (size_t u = 0; u < units_.size(); ++u) {
        Unit& unit = units_[u];
        if (unit_counts_[u] < 0) {
          if (unit.core.depth < config_.max_split_depth) {
            SplitInto(family_, unit, config_.sig_bits, &next_units_);
          } else {
            next_units_.push_back(std::move(unit));
          }
          continue;
        }
        if (!r.ReadBit()) next_units_.push_back(std::move(unit));
      }
      units_.swap(next_units_);
      next_units_.clear();  // Frees settled/moved-from units promptly.
    }

    const int t = plan_.params.t;
    const int m = plan_.params.m;
    const size_t n_units = units_.size();
    const size_t stride = static_cast<size_t>(t);

    // Stage every unit's peer sketch (the bit-serial reader forces
    // canonical order here).
    const auto read_start = Clock::now();
    alice_syndromes_.resize(n_units * stride);
    for (uint64_t& syndrome : alice_syndromes_) syndrome = r.ReadBits(m);
    if (r.overflowed() || r.remaining_bits() >= 8) return false;
    unit_counts_.resize(n_units);
    unit_positions_.resize(n_units * stride);
    unit_xors_.resize(n_units * stride);

    // Decode in blocks of kDecodeBatch units, serially or spread over the
    // pool; every block writes only its own units' result slots.
    const auto decode_start = Clock::now();
    timers_.encode_seconds += Seconds(read_start, decode_start);
    const size_t blocks = (n_units + kDecodeBatch - 1) / kDecodeBatch;
    if (pool_ != nullptr) {
      pool_->Run(blocks, [this](size_t block, int worker) {
        DecodeBlock(block * kDecodeBatch, *workers_[worker]);
      });
    } else {
      for (size_t block = 0; block < blocks; ++block) {
        DecodeBlock(block * kDecodeBatch, *workers_[0]);
      }
    }

    // The reply in canonical unit order, straight into the caller's
    // buffer -- byte-identical for any thread count.
    const auto write_start = Clock::now();
    timers_.decode_seconds += Seconds(decode_start, write_start);
    const int count_bits = wire::CountBits(t);
    const int sig_bits = config_.sig_bits;
    BitWriter w(std::move(*reply));
    for (size_t u = 0; u < n_units; ++u) {
      const int count = unit_counts_[u];
      w.WriteBit(count < 0);
      if (count < 0) continue;
      w.WriteBits(static_cast<uint64_t>(count), count_bits);
      const uint64_t* positions = unit_positions_.data() + u * stride;
      const uint64_t* xors = unit_xors_.data() + u * stride;
      for (int i = 0; i < count; ++i) w.WriteBits(positions[i], m);
      for (int i = 0; i < count; ++i) w.WriteBits(xors[i], sig_bits);
      w.WriteBits(units_[u].checksum, sig_bits);
    }
    *reply = w.TakeBytes();
    timers_.encode_seconds += Seconds(write_start, Clock::now());
    return true;
  }

  // Bins, sketches, merges and BCH-decodes the units of the block starting
  // at `base` through one DecodeBatchInto call, so neighboring groups'
  // Chien searches advance in SIMD lanes. Shared state is read-only
  // (element lists, layout, hash family); `scratch` is this worker's.
  void DecodeBlock(size_t base, DecodeScratch& scratch) {
    const size_t count = std::min(kDecodeBatch, units_.size() - base);
    const size_t stride = static_cast<size_t>(plan_.params.t);
    const PowerSumSketch* lane_sketch[kDecodeBatch];
    std::vector<uint64_t>* lane_out[kDecodeBatch];
    const ParityBitmap* lane_pb[kDecodeBatch];
    uint8_t lane_ok[kDecodeBatch];
    for (size_t l = 0; l < count; ++l) {
      const size_t u = base + l;
      PowerSumSketch& sketch = scratch.sketches[l];
      if (!partitioned_) {
        // Adopted round 1: units are the g roots in group order, and the
        // store maintained exactly the bitmap/sketch this unit would have
        // built (same seed, same round-1 bin salt).
        lane_pb[l] = &layout_->bitmaps[u];
        sketch.Reset();
        sketch.MergeOdd(Span<const uint64_t>(
            layout_->syndromes.data() + u * stride, stride));
      } else {
        const SaltedHash h(units_[u].core.BinSalt(family_, round_));
        ParityBitmap::BuildInto(units_[u].elements, h, plan_.params.n,
                                &scratch.bitmaps[l]);
        lane_pb[l] = &scratch.bitmaps[l];
        scratch.bitmaps[l].ToSketchInto(&sketch);
      }
      sketch.MergeOdd(Span<const uint64_t>(
          alice_syndromes_.data() + u * stride, stride));
      lane_sketch[l] = &sketch;
      lane_out[l] = &scratch.positions[l];
    }
    PowerSumSketch::DecodeBatchInto(
        Span<const PowerSumSketch* const>(lane_sketch, count),
        Span<std::vector<uint64_t>* const>(lane_out, count),
        Span<uint8_t>(lane_ok, count), scratch.ws);
    for (size_t l = 0; l < count; ++l) {
      const size_t u = base + l;
      if (!lane_ok[l]) {
        unit_counts_[u] = -1;
        continue;
      }
      const std::vector<uint64_t>& decoded = scratch.positions[l];
      unit_counts_[u] = static_cast<int>(decoded.size());
      uint64_t* positions = unit_positions_.data() + u * stride;
      uint64_t* xors = unit_xors_.data() + u * stride;
      for (size_t i = 0; i < decoded.size(); ++i) {
        positions[i] = decoded[i];
        xors[i] = lane_pb[l]->xor_sum[decoded[i]];
      }
    }
  }

  // The strong-verification epilogue: the 192-bit multiset hash of B.
  void WriteStrongDigest(std::vector<uint8_t>* reply) const {
    MsetHash hash(family_.Salt(HashFamily::kEstimator, kDigestSalt));
    for (uint64_t e : *elements_) hash.Add(e);
    BitWriter w(std::move(*reply));
    for (uint64_t lane : hash.digest()) w.WriteBits(lane, 64);
    *reply = w.TakeBytes();
  }

  PbsConfig config_;
  HashFamily family_;
  std::shared_ptr<const std::vector<uint64_t>> elements_;
  std::shared_ptr<const PbsStoreLayout> layout_;  // Null unless adopted.
  bool partitioned_ = true;  // False while adopted units' lists are lazy.
  PbsPlan plan_;
  std::unique_ptr<ParallelFor> pool_;
  std::vector<std::unique_ptr<DecodeScratch>> workers_;

  std::vector<Unit> units_;
  int round_ = 0;
  PbsTimers timers_;

  // Round scratch, reused so steady-state rounds allocate nothing.
  std::vector<Unit> next_units_;
  std::vector<uint64_t> alice_syndromes_;  // units_.size() * t, wire order.
  std::vector<uint64_t> unit_positions_;   // units_.size() * t result slots.
  std::vector<uint64_t> unit_xors_;        // Matching per-position XOR sums.
  std::vector<int> unit_counts_;           // Recovered count, -1 = failed.
};

}  // namespace

PbsReconciler::PbsReconciler(const SchemeOptions& options)
    : config_(options.pbs), report_sig_bits_(options.report_sig_bits) {
  config_.sig_bits = options.sig_bits;
}

std::unique_ptr<ReconcileInitiator> PbsReconciler::CreateInitiator(
    std::vector<uint64_t> elements, double d_hat, uint64_t seed) const {
  ValidateElements(elements, config_.sig_bits, "pbs initiator");
  return std::make_unique<PbsInitiator>(std::move(elements), d_hat, seed,
                                        config_, report_sig_bits_);
}

std::unique_ptr<ReconcileResponder> PbsReconciler::CreateResponder(
    std::vector<uint64_t> elements, double /*d_hat*/, uint64_t seed) const {
  ValidateElements(elements, config_.sig_bits, "pbs responder");
  return std::make_unique<PbsResponder>(
      std::make_shared<const std::vector<uint64_t>>(std::move(elements)),
      nullptr, seed, config_);
}

std::unique_ptr<ReconcileResponder> PbsReconciler::CreateSnapshotResponder(
    std::shared_ptr<const StoreSnapshot> snapshot, double /*d_hat*/,
    uint64_t seed) const {
  if (snapshot == nullptr || snapshot->elements == nullptr ||
      snapshot->layout == nullptr) {
    return nullptr;  // No pre-built state: use the validating plain path.
  }
  // The store's insert path already enforces ValidateElements' invariants;
  // re-checking would bring back the O(|B|) setup scan this path avoids.
  return std::make_unique<PbsResponder>(snapshot->elements, snapshot->layout,
                                        seed, config_);
}

}  // namespace pbs
