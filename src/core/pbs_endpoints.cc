#include "pbs/core/pbs_endpoints.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include <array>

#include "pbs/common/bitio.h"
#include "pbs/common/mset_hash.h"
#include "pbs/common/parallel.h"
#include "pbs/common/workspace.h"
#include <algorithm>

#include "pbs/core/element_store.h"
#include "pbs/core/group_state.h"
#include "pbs/core/messages.h"
#include "pbs/core/parity_bitmap.h"

namespace pbs {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

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

}  // namespace

// ---------------------------------------------------------------------------
// Alice
// ---------------------------------------------------------------------------

struct PbsAlice::Impl {
  PbsConfig config;
  HashFamily family;
  std::vector<uint64_t> elements;
  PbsPlan plan;
  bool plan_ready = false;
  GF2m field{6};  // Replaced once the plan is known.

  // One active reconciliation unit (Alice side).
  struct Unit {
    UnitCore core;
    std::unordered_set<uint64_t> working;  // A_unit /\triangle D-hat so far.
    SetChecksum checksum;
    bool decoded_ok = false;   // Bob's last decode succeeded.
    bool settled = false;      // Checksum verified.
  };

  std::vector<Unit> units;        // Canonical order, active units only.
  std::vector<bool> last_settled; // Settled flags to ship in the next request.
  bool have_flags = false;
  std::unordered_set<uint64_t> diff;  // Accumulated D-hat (toggle semantics).
  int round = 0;
  PbsTimers timers;

  // Round-processing scratch, reused across rounds so steady-state
  // encoding/decoding allocates nothing: the named buffers keep their
  // peak capacity. Allocations that remain are proportional to productive
  // events only (recovered differences entering `diff`/`working`, unit
  // splits). Alice's paths need no Workspace -- the BCH decode (which
  // does) runs on Bob's side.
  BitWriter writer;
  ParityBitmap pb_scratch;
  std::vector<uint64_t> positions_scratch;
  std::vector<uint64_t> xors_scratch;
  std::vector<Unit> next_units_scratch;
  std::vector<bool> flags_scratch;

  // Per-group parallel encode (config.decode_threads != 1): the groups'
  // parity bitmaps and sketches are independent, so phase A builds them
  // concurrently -- one scratch block per worker, one flat staging slice
  // per unit -- and phase B serializes the staged syndromes in canonical
  // unit order, byte-identical to the serial writer.
  struct WorkerScratch {
    ParityBitmap pb;
    std::optional<PowerSumSketch> sketch;  // Re-made per plan.
  };
  std::vector<std::unique_ptr<WorkerScratch>> workers;
  std::unique_ptr<ParallelFor> pool;  // Null when decode_threads == 1.
  std::vector<uint64_t> enc_syndromes;  // units.size() * t staging slots.

  Impl(std::vector<uint64_t> elems, const PbsConfig& cfg, uint64_t seed)
      : config(cfg), family(seed), elements(std::move(elems)) {}

  void BuildUnits() {
    const uint32_t g = static_cast<uint32_t>(plan.params.g);
    field = GF2m(plan.params.m);
    const int nthreads = ParallelFor::ResolveThreads(config.decode_threads);
    if (nthreads > 1 && pool == nullptr) {
      pool = std::make_unique<ParallelFor>(nthreads);
    }
    const int scratch_count = pool != nullptr ? pool->threads() : 1;
    workers.clear();
    for (int i = 0; i < scratch_count; ++i) {
      workers.push_back(std::make_unique<WorkerScratch>());
      workers.back()->sketch.emplace(field, plan.params.t);
    }
    units.clear();
    units.resize(g);
    for (uint32_t i = 0; i < g; ++i) {
      units[i].core = UnitCore::Root(family, i);
      units[i].checksum = SetChecksum(config.sig_bits);
    }
    uint64_t groups[kXxHashBatch];
    for (size_t base = 0; base < elements.size(); base += kXxHashBatch) {
      const size_t blk = std::min(kXxHashBatch, elements.size() - base);
      GroupOfMany(family, elements.data() + base, blk, g, groups);
      for (size_t i = 0; i < blk; ++i) {
        Unit& u = units[groups[i]];
        u.working.insert(elements[base + i]);
        u.checksum.Add(elements[base + i]);
      }
    }
  }

  // Replaces a decode-failed unit by its three children (in place).
  std::vector<Unit> SplitUnit(Unit& parent) {
    std::vector<Unit> children(3);
    const uint64_t salt = parent.core.SplitSalt(family);
    for (int c = 0; c < 3; ++c) {
      children[c].core = parent.core.Child(family, static_cast<uint8_t>(c));
      children[c].checksum = SetChecksum(config.sig_bits);
    }
    for (uint64_t e : parent.working) {
      Unit& child = children[UnitCore::ChildIndexOf(e, salt)];
      child.working.insert(e);
      child.checksum.Add(e);
    }
    return children;
  }

  void Toggle(Unit& unit, uint64_t s) {
    if (auto it = unit.working.find(s); it != unit.working.end()) {
      unit.working.erase(it);
      unit.checksum.Remove(s);
    } else {
      unit.working.insert(s);
      unit.checksum.Add(s);
    }
    if (auto it = diff.find(s); it != diff.end()) {
      diff.erase(it);
    } else {
      diff.insert(s);
    }
  }
};

PbsAlice::PbsAlice(std::vector<uint64_t> elements, const PbsConfig& config,
                   uint64_t seed)
    : impl_(std::make_unique<Impl>(std::move(elements), config, seed)) {
  ValidateElements(impl_->elements, config.sig_bits, "PbsAlice");
}

PbsAlice::~PbsAlice() = default;

void PbsAlice::SetDifferenceEstimate(int d_used) {
  Impl& a = *impl_;
  a.plan = PlanFor(a.config, d_used);
  a.plan_ready = true;
  a.BuildUnits();
}

std::vector<uint8_t> PbsAlice::MakeRoundRequest() {
  std::vector<uint8_t> out;
  MakeRoundRequest(&out);
  return out;
}

void PbsAlice::MakeRoundRequest(std::vector<uint8_t>* out) {
  Impl& a = *impl_;
  assert(a.plan_ready);
  ++a.round;
  const auto start = Clock::now();
  const int t = a.plan.params.t;
  const int m = a.plan.params.m;
  const size_t n_units = a.units.size();

  // Phase A (parallel over units): bin each group and stage its sketch's
  // odd syndromes in the unit's flat slice.
  a.enc_syndromes.resize(n_units * static_cast<size_t>(t));
  const auto encode_unit = [&a, t](size_t u, int worker) {
    const Impl::Unit& unit = a.units[u];
    if (unit.settled) return;
    Impl::WorkerScratch& scratch = *a.workers[worker];
    const SaltedHash h(unit.core.BinSalt(a.family, a.round));
    ParityBitmap::BuildInto(unit.working, h, a.plan.params.n, &scratch.pb);
    scratch.pb.ToSketchInto(&*scratch.sketch);
    const std::vector<uint64_t>& odd = scratch.sketch->odd_syndromes();
    std::copy(odd.begin(), odd.end(),
              a.enc_syndromes.begin() + u * static_cast<size_t>(t));
  };
  if (a.pool != nullptr) {
    a.pool->Run(n_units, encode_unit);
  } else {
    for (size_t u = 0; u < n_units; ++u) encode_unit(u, 0);
  }

  // Phase B (serial): settled flags, then the staged syndromes in
  // canonical unit order -- byte-identical to serializing each sketch
  // inline, for any thread count.
  BitWriter& w = a.writer;
  w.Clear();
  if (a.have_flags) {
    for (bool settled : a.last_settled) w.WriteBit(settled);
    a.have_flags = false;
  }
  for (size_t u = 0; u < n_units; ++u) {
    if (a.units[u].settled) continue;
    const uint64_t* syn = a.enc_syndromes.data() + u * static_cast<size_t>(t);
    for (int i = 0; i < t; ++i) w.WriteBits(syn[i], m);
  }

  a.timers.encode_seconds += Seconds(start, Clock::now());
  out->assign(w.bytes().begin(), w.bytes().end());
}

bool PbsAlice::HandleRoundReply(const std::vector<uint8_t>& reply) {
  Impl& a = *impl_;
  const auto start = Clock::now();
  BitReader r(reply);
  const int count_bits = wire::CountBits(a.plan.params.t);
  const int m = a.plan.params.m;
  const int sig_bits = a.config.sig_bits;
  const uint32_t g = static_cast<uint32_t>(a.plan.params.g);

  std::vector<Impl::Unit>& next_units = a.next_units_scratch;
  std::vector<bool>& flags = a.flags_scratch;
  next_units.clear();
  flags.clear();
  next_units.reserve(a.units.size());

  for (Impl::Unit& unit : a.units) {
    if (unit.settled) continue;
    const bool failed = r.ReadBit();
    if (failed) {
      // Three-way split (Section 3.2); children reconcile from next round.
      if (unit.core.depth < a.config.max_split_depth) {
        for (Impl::Unit& child : a.SplitUnit(unit)) {
          next_units.push_back(std::move(child));
        }
      } else {
        next_units.push_back(std::move(unit));  // Depth cap: retry as-is.
      }
      continue;
    }

    const int count = static_cast<int>(r.ReadBits(count_bits));
    std::vector<uint64_t>& positions = a.positions_scratch;
    std::vector<uint64_t>& xors = a.xors_scratch;
    positions.resize(count);
    xors.resize(count);
    for (int i = 0; i < count; ++i) positions[i] = r.ReadBits(m);
    for (int i = 0; i < count; ++i) xors[i] = r.ReadBits(sig_bits);
    const uint64_t bob_checksum = r.ReadBits(sig_bits);

    // Recover each candidate distinct element (Procedures 1 and 3).
    const SaltedHash h(unit.core.BinSalt(a.family, a.round));
    ParityBitmap& pb = a.pb_scratch;
    ParityBitmap::BuildInto(unit.working, h, a.plan.params.n, &pb);
    for (int i = 0; i < count; ++i) {
      const uint64_t pos = positions[i];
      if (pos < 1 || pos > static_cast<uint64_t>(a.plan.params.n)) continue;
      const uint64_t s = pb.xor_sum[pos] ^ xors[i];
      if (s == 0) continue;  // XOR-cancelled fake.
      if (a.config.subuniverse_check) {
        if (BinIndex(s, h, a.plan.params.n) != pos) continue;  // Procedure 3.
        if (!unit.core.InSubUniverse(a.family, s, g)) continue;
      }
      a.Toggle(unit, s);
    }

    const bool settled = unit.checksum.value() == bob_checksum;
    flags.push_back(settled);
    if (!settled) {
      unit.decoded_ok = true;
      next_units.push_back(std::move(unit));
    }
  }

  a.units.swap(next_units);
  next_units.clear();  // Frees settled/moved-from units promptly.
  a.last_settled.assign(flags.begin(), flags.end());
  a.have_flags = true;
  a.timers.decode_seconds += Seconds(start, Clock::now());
  return a.units.empty();
}

bool PbsAlice::finished() const {
  return impl_->plan_ready && impl_->round > 0 && impl_->units.empty();
}

int PbsAlice::round() const { return impl_->round; }

std::vector<uint64_t> PbsAlice::Difference() const {
  return {impl_->diff.begin(), impl_->diff.end()};
}

bool PbsAlice::VerifyStrongDigest(
    const std::vector<uint8_t>& digest_msg) const {
  BitReader r(digest_msg);
  std::array<uint64_t, 3> theirs;
  for (auto& lane : theirs) lane = r.ReadBits(64);
  if (r.overflowed()) return false;
  // H(A /\triangle D-hat): start from A, toggle every recovered element.
  MsetHash mine(impl_->family.Salt(HashFamily::kEstimator, 0x5742));
  std::unordered_set<uint64_t> in_a(impl_->elements.begin(),
                                    impl_->elements.end());
  for (uint64_t e : impl_->elements) mine.Add(e);
  for (uint64_t e : impl_->diff) mine.Toggle(e, !in_a.count(e));
  return mine.digest() == theirs;
}

std::vector<uint64_t> PbsAlice::ElementsOnlyInA() const {
  std::unordered_set<uint64_t> in_a(impl_->elements.begin(),
                                    impl_->elements.end());
  std::vector<uint64_t> only_in_a;
  for (uint64_t e : impl_->diff) {
    if (in_a.count(e)) only_in_a.push_back(e);
  }
  return only_in_a;
}

const PbsPlan& PbsAlice::plan() const { return impl_->plan; }
const PbsTimers& PbsAlice::timers() const { return impl_->timers; }

// ---------------------------------------------------------------------------
// Bob
// ---------------------------------------------------------------------------

struct PbsBob::Impl {
  PbsConfig config;
  HashFamily family;
  std::vector<uint64_t> elements;
  // Snapshot mode (core/element_store.h): the set is shared, not owned,
  // and `layout` (when non-null and matching the session plan) supplies
  // round 1's bitmaps/syndromes/checksums so BuildUnits' O(|B|) partition
  // can be deferred until a second round actually happens.
  std::shared_ptr<const std::vector<uint64_t>> shared_elements;
  std::shared_ptr<const PbsStoreLayout> layout;
  bool partitioned = true;  // False while adopted units' elements are lazy.
  PbsPlan plan;
  bool plan_ready = false;
  GF2m field{6};

  const std::vector<uint64_t>& elems() const {
    return shared_elements != nullptr ? *shared_elements : elements;
  }

  struct Unit {
    UnitCore core;
    std::vector<uint64_t> elements;
    uint64_t checksum = 0;
    bool decode_failed = false;  // Last round's decode failed -> will split.
  };

  std::vector<Unit> units;
  int round = 0;
  PbsTimers timers;

  // Round-processing scratch (see PbsAlice::Impl): reused so steady-state
  // request handling allocates nothing.
  BitWriter writer;
  std::vector<Unit> next_units_scratch;

  // Per-group parallel decode (config.decode_threads != 1). The round is
  // a three-phase pipeline: (1) serial -- stage every unit's peer sketch
  // out of the request bitstream; (2) parallel over units -- bin, sketch,
  // merge, BCH-decode each group into its flat result slice, each worker
  // using its own Workspace/bitmap/sketch scratch; (3) serial -- write
  // the reply in canonical unit order. Results are written to per-unit
  // slots and serialized in order, so the reply bytes are identical for
  // every thread count.
  struct WorkerScratch {
    Workspace ws;
    ParityBitmap pb;
    std::optional<PowerSumSketch> diff_sketch;  // Re-made per plan.
    std::vector<uint64_t> positions;
  };
  std::vector<std::unique_ptr<WorkerScratch>> workers;
  std::unique_ptr<ParallelFor> pool;  // Null when decode_threads == 1.
  // Serial lane-blocked decode scratch (decode_threads == 1): up to
  // PowerSumSketch::kDecodeBatch units are staged and handed to one
  // DecodeBatchInto call, so neighboring groups' Chien searches advance in
  // SIMD lanes instead of serially. Results are identical to the per-unit
  // path (DecodeBatchInto is pinned bit-identical to DecodeInto).
  struct LaneScratch {
    std::vector<ParityBitmap> bitmaps;
    std::vector<PowerSumSketch> sketches;  // Re-made per plan.
    std::vector<std::vector<uint64_t>> positions;
  };
  LaneScratch lanes;
  std::vector<uint64_t> alice_syndromes;  // units.size() * t, wire order.
  std::vector<uint64_t> unit_positions;   // units.size() * t result slots.
  std::vector<uint64_t> unit_xors;        // Matching per-position XOR sums.
  std::vector<int> unit_counts;           // Recovered count, -1 = failed.

  Impl(std::vector<uint64_t> elems, const PbsConfig& cfg, uint64_t seed)
      : config(cfg), family(seed), elements(std::move(elems)) {}

  uint64_t ChecksumOf(const std::vector<uint64_t>& elems) const {
    SetChecksum c(config.sig_bits);
    for (uint64_t e : elems) c.Add(e);
    return c.value();
  }

  void SetupWorkers() {
    field = GF2m(plan.params.m);
    const int nthreads = ParallelFor::ResolveThreads(config.decode_threads);
    if (nthreads > 1 && pool == nullptr) {
      pool = std::make_unique<ParallelFor>(nthreads);
    }
    const int scratch_count = pool != nullptr ? pool->threads() : 1;
    workers.clear();
    for (int i = 0; i < scratch_count; ++i) {
      workers.push_back(std::make_unique<WorkerScratch>());
      workers.back()->diff_sketch.emplace(field, plan.params.t);
    }
    const size_t kB = static_cast<size_t>(PowerSumSketch::kDecodeBatch);
    lanes.bitmaps.resize(kB);
    lanes.positions.resize(kB);
    lanes.sketches.clear();
    lanes.sketches.reserve(kB);
    for (size_t i = 0; i < kB; ++i) {
      lanes.sketches.emplace_back(field, plan.params.t);
    }
  }

  void BuildUnits() {
    const uint32_t g = static_cast<uint32_t>(plan.params.g);
    SetupWorkers();
    units.clear();
    units.resize(g);
    for (uint32_t i = 0; i < g; ++i) units[i].core = UnitCore::Root(family, i);
    PartitionIntoUnits(g);
    for (Unit& u : units) u.checksum = ChecksumOf(u.elements);
    partitioned = true;
  }

  // Scatters the element list into the g root units, computing groups in
  // hash-kernel-sized blocks through the batched lanes.
  void PartitionIntoUnits(uint32_t g) {
    const std::vector<uint64_t>& xs = elems();
    uint64_t groups[kXxHashBatch];
    for (size_t base = 0; base < xs.size(); base += kXxHashBatch) {
      const size_t blk = std::min(kXxHashBatch, xs.size() - base);
      GroupOfMany(family, xs.data() + base, blk, g, groups);
      for (size_t i = 0; i < blk; ++i) {
        units[groups[i]].elements.push_back(xs[base + i]);
      }
    }
  }

  /// True when the adopted layout is exactly what this session would have
  /// built: layout contents depend only on (seed, sig_bits, g, n, m, t),
  /// so a d_used mismatch is fine as long as the planned shape coincides.
  bool LayoutMatchesPlan() const {
    return layout != nullptr && layout->seed == family.master_seed() &&
           layout->config.sig_bits == config.sig_bits &&
           layout->plan.params.g == plan.params.g &&
           layout->plan.params.n == plan.params.n &&
           layout->plan.params.m == plan.params.m &&
           layout->plan.params.t == plan.params.t;
  }

  /// Snapshot fast path: root units carry the store's checksums; their
  /// element lists stay empty until EnsurePartitioned. Round 1 then reads
  /// bitmaps/syndromes straight out of the layout.
  void AdoptLayout() {
    const uint32_t g = static_cast<uint32_t>(plan.params.g);
    SetupWorkers();
    units.clear();
    units.resize(g);
    for (uint32_t i = 0; i < g; ++i) {
      units[i].core = UnitCore::Root(family, i);
      units[i].checksum = layout->checksums[i];
    }
    partitioned = false;
  }

  /// Deferred O(|B|) group partition of the adopted path. Must run while
  /// the unit table is still exactly the g roots in group order -- i.e. at
  /// the top of round 2, before any split/settle evolution.
  void EnsurePartitioned() {
    if (partitioned) return;
    partitioned = true;
    PartitionIntoUnits(static_cast<uint32_t>(plan.params.g));
  }

  std::vector<Unit> SplitUnit(Unit& parent) {
    std::vector<Unit> children(3);
    const uint64_t salt = parent.core.SplitSalt(family);
    for (int c = 0; c < 3; ++c) {
      children[c].core = parent.core.Child(family, static_cast<uint8_t>(c));
    }
    for (uint64_t e : parent.elements) {
      children[UnitCore::ChildIndexOf(e, salt)].elements.push_back(e);
    }
    for (Unit& child : children) child.checksum = ChecksumOf(child.elements);
    return children;
  }
};

PbsBob::PbsBob(std::vector<uint64_t> elements, const PbsConfig& config,
               uint64_t seed)
    : impl_(std::make_unique<Impl>(std::move(elements), config, seed)) {
  ValidateElements(impl_->elements, config.sig_bits, "PbsBob");
}

PbsBob::PbsBob(std::shared_ptr<const std::vector<uint64_t>> elements,
               std::shared_ptr<const PbsStoreLayout> layout,
               const PbsConfig& config, uint64_t seed)
    : impl_(std::make_unique<Impl>(std::vector<uint64_t>{}, config, seed)) {
  // The store's insert path already enforces the ValidateElements
  // invariants; re-checking here would reintroduce the O(|B|) setup scan
  // this constructor exists to avoid.
  impl_->shared_elements = std::move(elements);
  impl_->layout = std::move(layout);
}

PbsBob::~PbsBob() = default;

void PbsBob::SetDifferenceEstimate(int d_used) {
  Impl& b = *impl_;
  b.plan = PlanFor(b.config, d_used);
  b.plan_ready = true;
  if (b.LayoutMatchesPlan()) {
    b.AdoptLayout();
  } else {
    b.layout.reset();  // Mismatched layout is useless; drop it.
    b.BuildUnits();
  }
}

std::vector<uint8_t> PbsBob::HandleRoundRequest(
    const std::vector<uint8_t>& request) {
  std::vector<uint8_t> reply;
  HandleRoundRequest(request, &reply);
  return reply;
}

void PbsBob::HandleRoundRequest(const std::vector<uint8_t>& request,
                                std::vector<uint8_t>* reply) {
  Impl& b = *impl_;
  assert(b.plan_ready);
  ++b.round;
  BitReader r(request);

  // Evolve the unit table exactly as Alice did: consume her settled flags
  // for units whose decode succeeded last round, split the failed ones.
  if (b.round > 1) {
    // Adopted sessions deferred the O(|B|) partition; any second round
    // needs real per-unit element lists (for splits and later bin salts),
    // and the table is still exactly the g roots here.
    b.EnsurePartitioned();
    std::vector<Impl::Unit>& next_units = b.next_units_scratch;
    next_units.clear();
    next_units.reserve(b.units.size());
    for (Impl::Unit& unit : b.units) {
      if (unit.decode_failed) {
        if (unit.core.depth < b.config.max_split_depth) {
          for (Impl::Unit& child : b.SplitUnit(unit)) {
            next_units.push_back(std::move(child));
          }
        } else {
          unit.decode_failed = false;
          next_units.push_back(std::move(unit));
        }
        continue;
      }
      const bool settled = r.ReadBit();
      if (!settled) next_units.push_back(std::move(unit));
    }
    b.units.swap(next_units);
    next_units.clear();  // Frees settled/moved-from units promptly.
  }

  BitWriter& w = b.writer;
  w.Clear();
  const int count_bits = wire::CountBits(b.plan.params.t);
  const int m = b.plan.params.m;
  const int n = b.plan.params.n;
  const int t = b.plan.params.t;
  const int sig_bits = b.config.sig_bits;
  const size_t n_units = b.units.size();
  const size_t stride = static_cast<size_t>(t);

  // Phase 1 (serial): stage every unit's peer sketch out of the request
  // bitstream (the bit-serial reader forces canonical order here).
  const auto read_start = Clock::now();
  b.alice_syndromes.resize(n_units * stride);
  for (size_t u = 0; u < n_units; ++u) {
    uint64_t* syn = b.alice_syndromes.data() + u * stride;
    for (int i = 0; i < t; ++i) syn[i] = r.ReadBits(m);
  }
  b.unit_counts.resize(n_units);
  b.unit_positions.resize(n_units * stride);
  b.unit_xors.resize(n_units * stride);

  // Phase 2 (parallel over units): bin, sketch, merge, BCH-decode each
  // group into its flat result slice. Shared state is read-only (element
  // lists, field tables, hash family); every mutable object is per-worker
  // or per-unit, as common/parallel.h's ownership rules require.
  const auto decode_start = Clock::now();
  b.timers.encode_seconds += Seconds(read_start, decode_start);
  const auto decode_unit = [&b, n, stride](size_t u, int worker) {
    const Impl::Unit& unit = b.units[u];
    Impl::WorkerScratch& scratch = *b.workers[worker];
    PowerSumSketch& diff_sketch = *scratch.diff_sketch;
    const ParityBitmap* pb;
    if (!b.partitioned) {
      // Adopted round 1: units are the g roots in group order, and the
      // store maintained exactly the bitmap/sketch this unit would have
      // built (same seed, same round-1 bin salt), so read both straight
      // out of the layout instead of re-binning the group.
      pb = &b.layout->bitmaps[u];
      diff_sketch.Reset();
      diff_sketch.MergeOdd(Span<const uint64_t>(
          b.layout->syndromes.data() + u * stride, stride));
    } else {
      const SaltedHash h(unit.core.BinSalt(b.family, b.round));
      ParityBitmap::BuildInto(unit.elements, h, n, &scratch.pb);
      pb = &scratch.pb;
      scratch.pb.ToSketchInto(&diff_sketch);
    }
    diff_sketch.MergeOdd(Span<const uint64_t>(
        b.alice_syndromes.data() + u * stride, stride));
    if (!diff_sketch.DecodeInto(&scratch.positions, scratch.ws)) {
      b.unit_counts[u] = -1;
      return;
    }
    const int count = static_cast<int>(scratch.positions.size());
    b.unit_counts[u] = count;
    uint64_t* positions = b.unit_positions.data() + u * stride;
    uint64_t* xors = b.unit_xors.data() + u * stride;
    for (int i = 0; i < count; ++i) {
      const uint64_t pos = scratch.positions[i];
      positions[i] = pos;
      xors[i] = pb->xor_sum[pos];
    }
  };
  if (b.pool != nullptr) {
    b.pool->Run(n_units, decode_unit);
  } else {
    // Serial path: stage up to kDecodeBatch units per block and decode them
    // through one DecodeBatchInto call, so the per-group Chien searches run
    // in SIMD lanes. Per-unit results are bit-identical to decode_unit, so
    // the reply bytes stay the same as the pool path's.
    constexpr size_t kB = static_cast<size_t>(PowerSumSketch::kDecodeBatch);
    const PowerSumSketch* lane_sketch[kB];
    std::vector<uint64_t>* lane_out[kB];
    const ParityBitmap* lane_pb[kB];
    uint8_t lane_ok[kB];
    Workspace& ws = b.workers[0]->ws;
    for (size_t base = 0; base < n_units; base += kB) {
      const size_t blk = std::min(kB, n_units - base);
      for (size_t l = 0; l < blk; ++l) {
        const size_t u = base + l;
        const Impl::Unit& unit = b.units[u];
        PowerSumSketch& diff_sketch = b.lanes.sketches[l];
        if (!b.partitioned) {
          lane_pb[l] = &b.layout->bitmaps[u];
          diff_sketch.Reset();
          diff_sketch.MergeOdd(Span<const uint64_t>(
              b.layout->syndromes.data() + u * stride, stride));
        } else {
          const SaltedHash h(unit.core.BinSalt(b.family, b.round));
          ParityBitmap::BuildInto(unit.elements, h, n, &b.lanes.bitmaps[l]);
          lane_pb[l] = &b.lanes.bitmaps[l];
          b.lanes.bitmaps[l].ToSketchInto(&diff_sketch);
        }
        diff_sketch.MergeOdd(Span<const uint64_t>(
            b.alice_syndromes.data() + u * stride, stride));
        lane_sketch[l] = &diff_sketch;
        lane_out[l] = &b.lanes.positions[l];
      }
      PowerSumSketch::DecodeBatchInto(
          Span<const PowerSumSketch* const>(lane_sketch, blk),
          Span<std::vector<uint64_t>* const>(lane_out, blk),
          Span<uint8_t>(lane_ok, blk), ws);
      for (size_t l = 0; l < blk; ++l) {
        const size_t u = base + l;
        if (!lane_ok[l]) {
          b.unit_counts[u] = -1;
          continue;
        }
        const std::vector<uint64_t>& decoded = b.lanes.positions[l];
        const int count = static_cast<int>(decoded.size());
        b.unit_counts[u] = count;
        uint64_t* positions = b.unit_positions.data() + u * stride;
        uint64_t* xors = b.unit_xors.data() + u * stride;
        for (int i = 0; i < count; ++i) {
          const uint64_t pos = decoded[i];
          positions[i] = pos;
          xors[i] = lane_pb[l]->xor_sum[pos];
        }
      }
    }
  }

  // Phase 3 (serial): the reply in canonical unit order -- byte-identical
  // to the serial per-unit writer for any thread count.
  const auto write_start = Clock::now();
  b.timers.decode_seconds += Seconds(decode_start, write_start);
  for (size_t u = 0; u < n_units; ++u) {
    Impl::Unit& unit = b.units[u];
    const int count = b.unit_counts[u];
    if (count < 0) {
      unit.decode_failed = true;
      w.WriteBit(true);
      continue;
    }
    unit.decode_failed = false;
    w.WriteBit(false);
    w.WriteBits(static_cast<uint64_t>(count), count_bits);
    const uint64_t* positions = b.unit_positions.data() + u * stride;
    const uint64_t* xors = b.unit_xors.data() + u * stride;
    for (int i = 0; i < count; ++i) w.WriteBits(positions[i], m);
    for (int i = 0; i < count; ++i) w.WriteBits(xors[i], sig_bits);
    w.WriteBits(unit.checksum, sig_bits);
  }
  b.timers.encode_seconds += Seconds(write_start, Clock::now());

  reply->assign(w.bytes().begin(), w.bytes().end());
}

std::vector<uint8_t> PbsBob::MakeStrongDigest() const {
  MsetHash hash(impl_->family.Salt(HashFamily::kEstimator, 0x5742));
  for (uint64_t e : impl_->elems()) hash.Add(e);
  BitWriter w;
  for (uint64_t lane : hash.digest()) w.WriteBits(lane, 64);
  return w.TakeBytes();
}

const PbsPlan& PbsBob::plan() const { return impl_->plan; }
const PbsTimers& PbsBob::timers() const { return impl_->timers; }

}  // namespace pbs
