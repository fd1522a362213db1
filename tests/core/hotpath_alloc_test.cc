// Counting-allocator regression test for the zero-allocation hot path.
//
// Overrides the global new/delete pair for the whole test binary with
// malloc-backed implementations that count allocations, then pins the
// load-bearing property of the Workspace refactor: once warm, one full PBS
// round encode -> decode cycle -- parity-bitmap binning, power-sum
// sketching, wire (de)serialization, BM + Chien decoding, element
// recovery, verification -- performs ZERO heap allocations. The pbs
// initiator engine's round-request encoding and the IBF peeling path are
// pinned too.
//
// If any of these tests regress, a std::vector (or node container) crept
// back into a per-round code path; thread it through pbs::Workspace or a
// reused buffer instead.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pbs/bch/berlekamp_massey.h"
#include "pbs/bch/pgz_decoder.h"
#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/bitio.h"
#include "pbs/common/workspace.h"
#include "pbs/core/element_store.h"
#include "pbs/core/params.h"
#include "pbs/core/parity_bitmap.h"
#include "pbs/core/session_engine.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/core/transport.h"
#include "pbs/estimator/tow.h"
#include "pbs/gf/gf2m.h"
#include "pbs/gf/gfpoly.h"
#include "pbs/gf/roots.h"
#include "pbs/hash/hash_family.h"
#include "pbs/ibf/invertible_bloom_filter.h"
#include "pbs/net/reconcile_server.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = align;
  // aligned_alloc requires size to be a multiple of align.
  size = (size + align - 1) / align * align;
  return std::aligned_alloc(align, size);
}

}  // namespace

// Replacement global allocation functions (C++17 set, sized and aligned
// variants included). Defining them in one TU overrides the defaults for
// the entire pbs_tests binary; the other tests are unaffected beyond a
// relaxed atomic increment per allocation.
void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pbs {
namespace {

TEST(HotpathAlloc, CountingHooksAreLive) {
  const std::uint64_t before = AllocCount();
  auto* sink = new std::vector<uint64_t>(100);
  const std::uint64_t after = AllocCount();
  delete sink;
  EXPECT_GT(after, before);
}

// One full PBS round cycle at the kernel level, exactly the per-unit work
// the pbs engines' round request, Bob's request handling and Alice's reply
// handling perform: Alice bins and sketches her unit and
// serializes the sketch; Bob deserializes, bins his side, merges, BCH
// decodes the difference bitmap and replies with positions + XOR sums;
// Alice recovers the distinct elements. After a warm-up round, repeating
// the cycle (with a fresh per-round bin salt, as the real protocol does)
// must not allocate.
TEST(HotpathAlloc, PbsRoundKernelCycleIsAllocationFree) {
  const GF2m field(8);  // n = 255: a Chien-searchable parity-bitmap field.
  const int n = 255;
  const int t = 12;
  const int d = 6;

  // Alice's and Bob's unit contents: shared base plus d Bob-only extras.
  std::vector<uint64_t> alice_elems, bob_elems;
  for (uint64_t e = 1; e <= 40; ++e) {
    alice_elems.push_back(e * 2654435761u);
    bob_elems.push_back(e * 2654435761u);
  }
  std::vector<uint64_t> expected_diff;
  for (uint64_t e = 1; e <= static_cast<uint64_t>(d); ++e) {
    bob_elems.push_back(e * 40503u + 7);
    expected_diff.push_back(e * 40503u + 7);
  }

  const HashFamily family(0xC0FFEE);
  Workspace ws;
  ParityBitmap pb_alice, pb_bob;
  PowerSumSketch sketch_alice(field, t);
  PowerSumSketch wire_sketch(field, t);
  PowerSumSketch diff_sketch(field, t);
  BitWriter writer;
  std::vector<uint64_t> positions;
  std::vector<uint64_t> recovered;
  positions.reserve(t);
  recovered.reserve(t);

  // Pre-warm the workspace and output buffers at the worst case the
  // (n, t) plan admits -- a full-capacity decode of t elements -- so no
  // later round can exceed a buffer size seen here.
  {
    PowerSumSketch worst(field, t);
    for (uint64_t e = 1; e <= static_cast<uint64_t>(t); ++e) worst.Toggle(e);
    ASSERT_TRUE(worst.DecodeInto(&positions, ws));
  }

  int decode_failures = 0;
  int misattributed = 0;  // Recovered element outside the planted diff.
  int max_recovered = 0;
  const auto run_cycle = [&](int round) {
    const SaltedHash h(family.Salt(HashFamily::kBinPartition,
                                   static_cast<uint64_t>(round)));
    // Alice: encode.
    ParityBitmap::BuildInto(alice_elems, h, n, &pb_alice);
    pb_alice.ToSketchInto(&sketch_alice);
    writer.Clear();
    sketch_alice.Serialize(&writer);
    // Bob: decode the difference bitmap.
    BitReader reader(writer.bytes());
    wire_sketch.ReadFrom(&reader);
    ParityBitmap::BuildInto(bob_elems, h, n, &pb_bob);
    pb_bob.ToSketchInto(&diff_sketch);
    diff_sketch.Merge(wire_sketch);
    if (!diff_sketch.DecodeInto(&positions, ws)) {
      ++decode_failures;
      return;
    }
    // Alice: recover candidate distinct elements from (position, XOR sum)
    // pairs (Procedure 1). Rounds where two planted differences collide in
    // one bin legitimately recover fewer than d elements (the real
    // protocol's next round catches them), so assert soundness here --
    // everything recovered is a planted difference -- not completeness.
    recovered.clear();
    for (uint64_t pos : positions) {
      const uint64_t s = pb_alice.xor_sum[pos] ^ pb_bob.xor_sum[pos];
      if (s != 0 && BinIndex(s, h, n) == pos) recovered.push_back(s);
    }
    for (uint64_t s : recovered) {
      bool planted = false;
      for (uint64_t e : expected_diff) planted = planted || (e == s);
      if (!planted) ++misattributed;
    }
    max_recovered = std::max(max_recovered, static_cast<int>(recovered.size()));
  };

  // Warm-up: reaches steady-state capacities everywhere.
  for (int round = 1; round <= 3; ++round) run_cycle(round);
  ASSERT_EQ(decode_failures, 0);

  const std::uint64_t before = AllocCount();
  for (int round = 4; round <= 40; ++round) run_cycle(round);
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state PBS round cycle allocated " << (after - before)
      << " times";
  EXPECT_EQ(decode_failures, 0);
  EXPECT_EQ(misattributed, 0);
  // Over dozens of independent bin partitions, at least one round places
  // all d differences in distinct bins and recovers every one of them.
  EXPECT_EQ(max_recovered, d);
}

// Engine level: after warm-up, the pbs initiator's round-request encoding
// into a caller-reused buffer is allocation-free across rounds.
TEST(HotpathAlloc, EndpointRoundEncodeIsAllocationFree) {
  SchemeOptions options;
  options.pbs.gamma = 1.0;  // d_used = 20 exactly.
  std::vector<uint64_t> elements;
  for (uint64_t e = 1; e <= 500; ++e) {
    // Odd multiplier: a bijection mod 2^32, so every signature is nonzero
    // and fits config.sig_bits.
    elements.push_back((e * 0x9E3779B9u) & 0xFFFFFFFFu);
  }

  const std::unique_ptr<ReconcileInitiator> alice =
      SchemeRegistry::Instance()
          .Create("pbs", options)
          ->CreateInitiator(elements, /*d_hat=*/20, /*seed=*/42);

  std::vector<uint8_t> request;
  alice->NextRequest(&request);  // Warm-up round.
  alice->NextRequest(&request);
  ASSERT_FALSE(request.empty());

  const std::uint64_t before = AllocCount();
  for (int i = 0; i < 10; ++i) alice->NextRequest(&request);
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state round encoding allocated " << (after - before)
      << " times";
}

// BCH decoder kernels directly: BM synthesis and the PGZ reference solver
// on a warm workspace.
TEST(HotpathAlloc, DecoderKernelsAreAllocationFree) {
  const GF2m field(10);
  const int t = 20;
  PowerSumSketch sketch(field, t);
  for (uint64_t e = 3; e <= 40; e += 3) sketch.Toggle(e);

  Workspace ws;
  std::vector<uint64_t> decoded;

  // Expand syndromes once for the raw-kernel calls.
  std::vector<uint64_t> syndromes(2 * t, 0);
  for (int k = 1; k <= 2 * t; ++k) {
    syndromes[k - 1] = (k % 2 == 1)
                           ? sketch.odd_syndromes()[(k - 1) / 2]
                           : field.Sqr(syndromes[k / 2 - 1]);
  }
  std::vector<uint64_t> lambda_bm(2 * t + 1, 0), lambda_pgz(t + 1, 0);

  bool all_ok = true;
  const auto run_kernels = [&] {
    all_ok = all_ok && sketch.DecodeInto(&decoded, ws);
    const BmWsResult bm = BerlekampMasseyWs(field, syndromes, ws, lambda_bm);
    all_ok = all_ok && bm.IsConsistent();
    all_ok = all_ok && PgzLocatorWs(field, syndromes, ws, lambda_pgz) ==
                           bm.degree;
  };

  // Warm-up runs the exact measured sequence twice: the first pass grows
  // buffers, the second lets the LIFO pool's buffer-to-call-site
  // assignment reach its fixed point.
  run_kernels();
  run_kernels();
  ASSERT_TRUE(all_ok);

  const std::uint64_t before = AllocCount();
  for (int i = 0; i < 20; ++i) run_kernels();
  const std::uint64_t after = AllocCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0u)
      << "BCH kernels allocated " << (after - before) << " times";
}

// ------------------------------------------------------- session engine --
//
// The sans-I/O session layer must add ZERO allocations of its own on the
// round path: Feed's inbound buffering, frame decode, dispatch, the
// reply/request scratch, and Poll's outbound staging all reuse warmed
// buffers. To measure the layer in isolation, a probe scheme runs many
// fixed-size rounds whose endpoint work is allocation-free by
// construction; the scheme engines underneath are pinned separately above
// (their remaining allocations are proportional to productive events —
// recovered differences, unit splits — not to rounds processed).

constexpr int kProbeRounds = 48;
constexpr size_t kProbePayloadBytes = 384;

class ProbeInitiator : public ReconcileInitiator {
 public:
  void NextRequest(std::vector<uint8_t>* out) override {
    ++round_;
    out->assign(kProbePayloadBytes, static_cast<uint8_t>(round_));
  }
  bool HandleReply(const std::vector<uint8_t>& reply) override {
    data_bytes_ += kProbePayloadBytes + reply.size();
    return reply.size() == kProbePayloadBytes;
  }
  bool done() const override { return round_ >= kProbeRounds; }
  ReconcileOutcome TakeOutcome() override {
    ReconcileOutcome outcome;
    outcome.success = true;
    outcome.rounds = kProbeRounds;
    outcome.data_bytes = data_bytes_;
    return outcome;
  }

 private:
  int round_ = 0;
  size_t data_bytes_ = 0;
};

class ProbeResponder : public ReconcileResponder {
 public:
  bool HandleRequest(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* reply) override {
    if (request.size() != kProbePayloadBytes) return false;
    reply->assign(kProbePayloadBytes, request[0]);
    return true;
  }
};

class ProbeScheme : public SetReconciler {
 public:
  const char* name() const override { return "alloc-probe"; }
  const char* display_name() const override { return "AllocProbe"; }
  bool supports_rounds() const override { return true; }
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t>, double, uint64_t) const override {
    return std::make_unique<ProbeInitiator>();
  }
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t>, double, uint64_t) const override {
    return std::make_unique<ProbeResponder>();
  }
};

TEST(HotpathAlloc, SessionEngineSteadyStateRoundsAreAllocationFree) {
  // A private registry keeps the probe scheme out of the registry-wide
  // parity suites; the engines take it by injection.
  SchemeRegistry registry;
  ASSERT_TRUE(registry.Register("alloc-probe", "AllocProbe",
                                [](const SchemeOptions&) {
                                  return std::make_unique<ProbeScheme>();
                                }));

  SessionConfig config;
  config.scheme_name = "alloc-probe";
  config.exact_d = 4.0;  // Skip the (once-per-session) estimate phase.
  const std::vector<uint64_t> elements = {1, 2, 3, 4};
  SessionEngine initiator =
      SessionEngine::Initiator(config, elements, &registry);
  SessionEngine responder = SessionEngine::Responder(elements, &registry);

  // One pump = one protocol exchange: the initiator's pending frame
  // crosses, the responder's reply crosses back, and dispatch queues the
  // next request.
  uint8_t chunk[1024];
  const auto pump_exchange = [&] {
    while (initiator.Status() == SessionStatus::kWantWrite) {
      const size_t n = initiator.Poll(chunk, sizeof(chunk));
      responder.Feed(chunk, n);
    }
    while (responder.Status() == SessionStatus::kWantWrite) {
      const size_t n = responder.Poll(chunk, sizeof(chunk));
      initiator.Feed(chunk, n);
    }
  };

  // Warm-up: handshake plus enough rounds for every buffer — inbound,
  // outbound, frame payload, request/reply scratch — to reach peak size.
  for (int i = 0; i < 8; ++i) pump_exchange();
  ASSERT_EQ(initiator.Status(), SessionStatus::kWantWrite);

  const std::uint64_t before = AllocCount();
  for (int i = 0; i < 20; ++i) pump_exchange();
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state SessionEngine Feed/Poll round processing allocated "
      << (after - before) << " times";

  for (int i = 0; i < kProbeRounds + 4 &&
                  initiator.Status() != SessionStatus::kDone;
       ++i) {
    pump_exchange();
  }
  ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
      << initiator.result().error;
  EXPECT_TRUE(initiator.result().outcome.success);
  EXPECT_EQ(initiator.result().outcome.rounds, kProbeRounds);
  EXPECT_EQ(responder.Status(), SessionStatus::kDone);
}

// ------------------------------------------------------------ shard loop --
//
// The server's whole steady-state serving path — EventLoop::Wait, the
// shard's readiness dispatch, recv into the reused read buffer, engine
// Feed/Poll, send, interest updates, LRU touch, per-shard counters — must
// add ZERO allocations per round on top of the engine (pinned above).
// The probe runs over a real TCP connection against a sharded server;
// the ping-pong protocol guarantees that between the client receiving
// reply k and sending request k+1 the server is idle, so the global
// allocation counter sampled at exchanges 10 and 40 brackets exactly the
// server threads' handling of 30 steady-state exchanges (the client side
// of the loop below touches no heap: stack buffers + warmed engine).
TEST(HotpathAlloc, ShardLoopSteadyStateRoundsAreAllocationFree) {
  SchemeRegistry registry;
  ASSERT_TRUE(registry.Register("alloc-probe", "AllocProbe",
                                [](const SchemeOptions&) {
                                  return std::make_unique<ProbeScheme>();
                                }));

  ServerOptions options;
  options.registry = &registry;
  options.shards = 2;  // Exercises the acceptor→shard handoff too.
  options.serve_limit = 1;
  std::string error;
  auto server = ReconcileServer::Create(options, {1, 2, 3, 4}, &error);
  ASSERT_NE(server, nullptr) << error;
  std::thread serving([&server] { server->Run(); });

  SessionConfig config;
  config.scheme_name = "alloc-probe";
  config.exact_d = 4.0;  // Skip the estimate phase.
  SessionEngine initiator = SessionEngine::Initiator(
      config, std::vector<uint64_t>{1, 2, 3, 4}, &registry);
  auto transport = TcpConnect("127.0.0.1", server->port(), &error);
  ASSERT_NE(transport, nullptr) << error;

  uint8_t buf[1024];
  int exchanges = 0;
  std::uint64_t before = 0, after = 0;
  while (true) {
    const SessionStatus status = initiator.Status();
    if (status == SessionStatus::kDone || status == SessionStatus::kError) {
      break;
    }
    if (status == SessionStatus::kWantWrite) {
      ASSERT_TRUE(
          transport->Send(initiator.outbound_data(),
                          initiator.outbound_size()));
      initiator.ConsumeOutbound(initiator.outbound_size());
      continue;
    }
    // kWantRead: one blocking read of exactly what the frame needs.
    const size_t need = initiator.NeededBytes();
    ASSERT_LE(need, sizeof(buf));
    ASSERT_TRUE(transport->Recv(buf, need));
    initiator.Feed(buf, need);
    if (initiator.Status() != SessionStatus::kWantRead) {
      // A full exchange completed: the server fully processed our last
      // request and is idle again.
      ++exchanges;
      if (exchanges == 10) before = AllocCount();
      if (exchanges == 40) after = AllocCount();
    }
  }
  ASSERT_EQ(initiator.Status(), SessionStatus::kDone)
      << initiator.result().error;
  EXPECT_TRUE(initiator.result().outcome.success);
  ASSERT_GE(exchanges, 40) << "probe session too short to sample";
  EXPECT_EQ(after - before, 0u)
      << "steady-state shard serving loop allocated " << (after - before)
      << " times over 30 exchanges";

  serving.join();  // serve_limit = 1: returns by itself.
  EXPECT_EQ(server->stats().completed, 1u);
}

// IBF peeling with workspace scratch and a reused result.
TEST(HotpathAlloc, IbfDecodeIntoIsAllocationFree) {
  const uint64_t salt = 0xABCDEF;
  InvertibleBloomFilter a(/*cells=*/120, /*num_hashes=*/3, salt,
                          /*sig_bits=*/32);
  InvertibleBloomFilter b(/*cells=*/120, /*num_hashes=*/3, salt,
                          /*sig_bits=*/32);
  for (uint64_t e = 1; e <= 200; ++e) {
    a.Insert(e * 48271u);
    b.Insert(e * 48271u);
  }
  for (uint64_t e = 1; e <= 15; ++e) a.Insert(e * 69621u);
  a.Subtract(b);

  Workspace ws;
  InvertibleBloomFilter::DecodeResult result;
  a.DecodeInto(ws, &result);  // Warm-up.
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.positive.size(), 15u);

  const std::uint64_t before = AllocCount();
  for (int i = 0; i < 20; ++i) a.DecodeInto(ws, &result);
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "IBF peeling allocated " << (after - before) << " times";
  EXPECT_TRUE(result.complete);
}

// A single insert and a single delete on a warm, layout-configured
// MutableElementStore are allocation-free: the open-addressing key index
// reuses tombstones instead of growing, the element array has spare
// capacity from the warm-up churn, and the incremental parity-bitmap /
// syndrome / checksum maintenance runs entirely in preallocated scratch.
// Publish() (snapshot deep-copy) is the explicitly allocating slow path
// and deliberately outside this pin.
TEST(HotpathAlloc, MutableStoreSingleUpdateIsAllocationFree) {
  std::vector<uint64_t> initial;
  for (uint64_t e = 1; e <= 500; ++e) {
    // Odd multiplier mod 2^32 is a bijection: unique nonzero signatures.
    initial.push_back((e * 2654435761u) & 0xFFFFFFFFu);
  }
  MutableElementStore store(std::move(initial));
  PbsConfig config;
  config.sig_bits = 32;
  std::string error;
  ASSERT_TRUE(store.ConfigureLayout(config, 0xC11, 50, &error)) << error;

  // Warm-up: one insert/delete cycle sizes the element array past its
  // snap-fit reserve and leaves the fresh value's probe chain ending in a
  // reusable tombstone.
  const uint64_t fresh = 0xF00DF00Du;
  ASSERT_TRUE(store.ApplyInsert(fresh));
  ASSERT_TRUE(store.ApplyDelete(fresh));

  const std::uint64_t before = AllocCount();
  const bool inserted = store.ApplyInsert(fresh);
  const bool deleted = store.ApplyDelete(fresh);
  const std::uint64_t after = AllocCount();
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(deleted);
  EXPECT_EQ(after - before, 0u)
      << "warm store insert+delete allocated " << (after - before)
      << " times";

  // The store still works and publishes correctly after the counted ops.
  store.Publish();
  EXPECT_EQ(store.snapshot()->elements->size(), 500u);
}

// The lane-batched SIMD kernels behind the cross-group decode: once warm,
// DecodeBatchInto over a full batch of sketches, a raw ChienSearchBatch
// over eight staged locators, the lane-blocked ParityBitmap::BuildInto,
// and the vectorized odd-bin scan are all allocation-free at steady state.
TEST(HotpathAlloc, BatchKernelsAreAllocationFree) {
  const GF2m field(11);  // n = 2047: the benchmark plan's field.
  const int n = 2047;
  const int t = 16;
  constexpr int kB = PowerSumSketch::kDecodeBatch;

  // kB sketches with varying loads (empty through near capacity).
  std::vector<PowerSumSketch> sketches;
  sketches.reserve(kB);
  for (int i = 0; i < kB; ++i) {
    sketches.emplace_back(field, t);
    for (int e = 1; e <= 2 * i; ++e) {
      sketches[i].Toggle(static_cast<uint64_t>(e * 131 + i + 1));
    }
  }
  const PowerSumSketch* ptrs[kB];
  std::vector<std::vector<uint64_t>> outs(kB);
  std::vector<uint64_t>* out_ptrs[kB];
  uint8_t ok[kB];
  for (int i = 0; i < kB; ++i) {
    ptrs[i] = &sketches[i];
    out_ptrs[i] = &outs[i];
  }
  Workspace ws;

  // Raw batch-Chien inputs: kB planted full-capacity locators, built with
  // allocating GFPoly arithmetic outside the measured region.
  std::vector<std::vector<uint64_t>> coeffs(kB);
  std::vector<std::vector<uint64_t>> roots(kB);
  std::vector<ChienBatchPoly> polys(kB);
  for (int p = 0; p < kB; ++p) {
    GFPoly locator = GFPoly::One(field);
    for (uint64_t r = 1; r <= static_cast<uint64_t>(t); ++r) {
      locator = locator.Mul(GFPoly(field, {r * 37 + p, 1}));
    }
    coeffs[p] = locator.coeffs();
    roots[p].assign(t, 0);
  }

  // Batched bitmap build + vectorized odd-bin scan inputs.
  std::vector<uint64_t> elems;
  for (uint64_t e = 1; e <= 1000; ++e) elems.push_back(e * 2654435761u | 1);
  const SaltedHash h(0xB00B1E5);
  ParityBitmap pb;
  PowerSumSketch scan(field, t);
  // The lane-batched ToW pass over the same elements: its key powers live
  // in a stack block, so a constructed sketch adds without allocating.
  TowSketch tow(kTowDefaultSketches, 0x70C);

  const auto run_batch = [&] {
    PowerSumSketch::DecodeBatchInto(
        Span<const PowerSumSketch* const>(ptrs, kB),
        Span<std::vector<uint64_t>* const>(out_ptrs, kB),
        Span<uint8_t>(ok, kB), ws);
    for (int p = 0; p < kB; ++p) {
      polys[p] = ChienBatchPoly{coeffs[p], roots[p], 0};
    }
    ChienSearchBatch(field, Span<ChienBatchPoly>(polys.data(), kB), ws);
    ParityBitmap::BuildInto(elems, h, n, &pb);
    pb.ToSketchInto(&scan);
    tow.AddAll(elems);
  };

  // Warm-up twice: the first pass grows buffers, the second lets the LIFO
  // pool's buffer-to-call-site assignment reach its fixed point.
  run_batch();
  run_batch();

  const std::uint64_t before = AllocCount();
  for (int i = 0; i < 10; ++i) run_batch();
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state batch kernels allocated " << (after - before)
      << " times";
  for (int i = 0; i < kB; ++i) {
    EXPECT_EQ(ok[i], 1) << "sketch " << i;
    EXPECT_EQ(outs[i].size(), static_cast<size_t>(2 * i)) << "sketch " << i;
  }
  for (int p = 0; p < kB; ++p) EXPECT_EQ(polys[p].count, t) << "poly " << p;
}

}  // namespace
}  // namespace pbs
