// Hot-path microbench: allocating (seed-style) vs Workspace decode paths.
//
// Measures the per-unit PBS round cycle -- parity-bitmap binning, power-sum
// sketching, wire round-trip, BCH decode, element recovery -- in two
// implementations of the same arithmetic:
//   alloc: fresh std::vector-backed objects per call, the shape of the code
//          before the Workspace refactor (still exercised via the
//          convenience wrappers Build/ToSketch/Decode);
//   ws:    reused buffers + pbs::Workspace scratch (BuildInto/ToSketchInto/
//          DecodeInto), the production hot path, allocation-free in steady
//          state (tests/core/hotpath_alloc_test.cc).
// Also isolates the BCH decode kernel and the PGZ reference solver, and
// times one Section 5.1 plan (PlanFor) per d_used.
//
// Output: one table row per (kernel, path, n, t, d, threads) with ns/op
// and op/s; JSON via PBS_BENCH_JSON (see docs/BENCHMARKS.md). The
// pbs_round_cycle rows drive the pbs scheme's initiator/responder engines
// over a multi-group plan at decode_threads = 1/2/4 -- the per-group parallel
// decode records (near-linear scaling expected on idle multi-core
// hardware; single-core machines record the pool's overhead instead).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "pbs/bch/pgz_decoder.h"
#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/bitio.h"
#include "pbs/common/workspace.h"
#include "pbs/core/parity_bitmap.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/gf/gf2m.h"
#include "pbs/hash/hash_family.h"
#include "pbs/sim/metrics.h"
#include "pbs/sim/workload.h"

namespace {

using pbs::BitReader;
using pbs::BitWriter;
using pbs::GF2m;
using pbs::HashFamily;
using pbs::ParityBitmap;
using pbs::PowerSumSketch;
using pbs::SaltedHash;
using pbs::Workspace;
using pbs::bench::TimeNs;

struct Case {
  int m;  // Field degree; n = 2^m - 1 bins.
  int t;  // BCH capacity.
  int d;  // Planted differences per unit.
};

int main_impl() {
  const bool full = pbs::bench::FullMode();
  const double budget = full ? 1.0 : 0.25;
  std::printf("== Hot path: allocating vs workspace decode cycle ==\n");
  std::printf("mode=%s budget=%.2fs/case\n\n", full ? "FULL" : "quick",
              budget);

  pbs::bench::Recorder rec(
      "hotpath",
      {"kernel", "path", "n", "t", "d", "threads", "ns_per_op", "Mops"});

  const std::vector<Case> cases = {{8, 8, 4}, {9, 12, 6}, {11, 16, 8}};
  const HashFamily family(0xBE7C4);

  for (const Case& c : cases) {
    const GF2m field(c.m);
    const int n = static_cast<int>(field.order());
    // One unit's elements: shared base + d Bob-only differences. Sized at
    // the paper's delta ~ 5 distinct elements per group times a few shared.
    std::vector<uint64_t> alice, bob;
    for (uint64_t e = 1; e <= 30; ++e) {
      alice.push_back(e * 2654435761u % 0xFFFFFFFFu + 1);
      bob.push_back(e * 2654435761u % 0xFFFFFFFFu + 1);
    }
    for (uint64_t e = 1; e <= static_cast<uint64_t>(c.d); ++e) {
      bob.push_back(e * 40503u + 7);
    }

    uint64_t round = 0;

    // ---- Full round cycle, allocating path (pre-refactor shape). ----
    const std::function<void()> cycle_alloc = [&] {
      const SaltedHash h(family.Salt(HashFamily::kBinPartition, ++round));
      BitWriter w;
      const ParityBitmap pb_a = ParityBitmap::Build(alice, h, n);
      pb_a.ToSketch(field, c.t).Serialize(&w);
      const std::vector<uint8_t> wire = w.TakeBytes();
      BitReader r(wire);
      PowerSumSketch from_wire = PowerSumSketch::Deserialize(&r, field, c.t);
      const ParityBitmap pb_b = ParityBitmap::Build(bob, h, n);
      PowerSumSketch diff = pb_b.ToSketch(field, c.t);
      diff.Merge(from_wire);
      const auto positions = diff.Decode();
      if (positions.has_value()) {
        std::vector<uint64_t> recovered;
        for (uint64_t pos : *positions) {
          const uint64_t s = pb_a.xor_sum[pos] ^ pb_b.xor_sum[pos];
          if (s != 0 && BinIndex(s, h, n) == pos) recovered.push_back(s);
        }
      }
    };

    // ---- Full round cycle, workspace path (production shape). ----
    Workspace ws;
    ParityBitmap pb_a, pb_b;
    PowerSumSketch sk_a(field, c.t), sk_wire(field, c.t), sk_diff(field, c.t);
    BitWriter writer;
    std::vector<uint64_t> positions, recovered;
    const std::function<void()> cycle_ws = [&] {
      const SaltedHash h(family.Salt(HashFamily::kBinPartition, ++round));
      ParityBitmap::BuildInto(alice, h, n, &pb_a);
      pb_a.ToSketchInto(&sk_a);
      writer.Clear();
      sk_a.Serialize(&writer);
      BitReader r(writer.bytes());
      sk_wire.ReadFrom(&r);
      ParityBitmap::BuildInto(bob, h, n, &pb_b);
      pb_b.ToSketchInto(&sk_diff);
      sk_diff.Merge(sk_wire);
      if (sk_diff.DecodeInto(&positions, ws)) {
        recovered.clear();
        for (uint64_t pos : positions) {
          const uint64_t s = pb_a.xor_sum[pos] ^ pb_b.xor_sum[pos];
          if (s != 0 && BinIndex(s, h, n) == pos) recovered.push_back(s);
        }
      }
    };

    // ---- BCH decode kernel only (fixed difference sketch). ----
    PowerSumSketch planted(field, c.t);
    for (uint64_t e = 1; e <= static_cast<uint64_t>(c.d); ++e) {
      planted.Toggle(e * 37 % field.order() + 1);
    }
    const std::function<void()> decode_alloc = [&] { (void)planted.Decode(); };
    const std::function<void()> decode_ws = [&] { (void)planted.DecodeInto(&positions, ws); };

    // ---- PGZ reference solver (wrapper vs in-place workspace). ----
    std::vector<uint64_t> syndromes(2 * c.t, 0);
    for (int k = 1; k <= 2 * c.t; ++k) {
      syndromes[k - 1] = (k % 2 == 1)
                             ? planted.odd_syndromes()[(k - 1) / 2]
                             : field.Sqr(syndromes[k / 2 - 1]);
    }
    std::vector<uint64_t> lambda(c.t + 1, 0);
    const std::function<void()> pgz_alloc = [&] { (void)pbs::PgzLocator(field, syndromes); };
    const std::function<void()> pgz_ws = [&] {
      (void)pbs::PgzLocatorWs(field, syndromes, ws, lambda);
    };

    const struct {
      const char* kernel;
      const char* path;
      const std::function<void()>* op;
    } rows[] = {
        {"round_cycle", "alloc", &cycle_alloc},
        {"round_cycle", "ws", &cycle_ws},
        {"bch_decode", "alloc", &decode_alloc},
        {"bch_decode", "ws", &decode_ws},
        {"pgz", "alloc", &pgz_alloc},
        {"pgz", "ws", &pgz_ws},
    };
    for (const auto& row : rows) {
      const double ns = TimeNs(*row.op, budget);
      rec.AddRow({row.kernel, row.path, std::to_string(n),
                  std::to_string(c.t), std::to_string(c.d), "1",
                  pbs::FormatDouble(ns, 1), pbs::bench::FormatMops(ns)});
    }
  }

  // ---- Section 5.1 planning: one PlanFor call. ----
  // Both pbs engines plan when a session starts, at the d_used of that
  // attempt; the rows sit on the sharded retry ladder (d_used x4 per
  // rung). n and t are the chosen cell; best of TimeNs' repetitions.
  {
    const pbs::PbsConfig config;
    for (int d : {6, 89, 1414, 5653}) {
      const pbs::PbsPlanParams plan = pbs::PlanFor(config, d).params;
      const double ns =
          TimeNs([&] { (void)pbs::PlanFor(config, d); }, budget);
      rec.AddRow({"plan_for", "optimizer", std::to_string(plan.n),
                  std::to_string(plan.t), std::to_string(d), "1",
                  pbs::FormatDouble(ns, 1), pbs::bench::FormatMops(ns)});
    }
  }

  // ---- Engine rounds over a multi-group plan: parallel decode. ----
  // One op = the encode + decode time both engines report for one
  // complete reconcile (Reconcile() sums their timers). Per-session
  // setup -- planning, group partition, pool spawn -- runs outside every
  // timer (the responder plans inside its first HandleRequest, which a
  // wall clock around the loop would count), so the threads=N rows
  // isolate what decode_threads actually parallelizes: the per-group
  // encode/decode phases of every round. Reported is the best rep (least
  // scheduler noise); near-linear scaling needs idle multi-core hardware
  // -- single-core machines record the pool's fork/join overhead instead.
  {
    const int d = full ? 512 : 256;
    const int reps = full ? 40 : 15;
    const pbs::SetPair pair =
        pbs::GenerateSetPair(4000, static_cast<size_t>(d), 32, 0x9A5EED);
    std::vector<uint64_t> truth = pair.truth_diff;
    std::sort(truth.begin(), truth.end());
    pbs::SchemeOptions options;
    options.pbs.gamma = 1.0;  // d-hat = d_used = d.
    const pbs::PbsPlanParams plan = pbs::PlanFor(options.pbs, d).params;
    for (int threads : {1, 2, 4}) {
      options.pbs.decode_threads = threads;
      const auto scheme =
          pbs::SchemeRegistry::Instance().Create("pbs", options);
      const uint64_t seed = 0xB0B;
      bool ok = true;
      double best_ns = 1e18;
      for (int rep = 0; rep < reps; ++rep) {
        pbs::ReconcileOutcome outcome =
            scheme->Reconcile(pair.a, pair.b, d, seed);
        best_ns = std::min(
            best_ns, 1e9 * (outcome.encode_seconds + outcome.decode_seconds));
        ok = ok && outcome.success;
        std::sort(outcome.difference.begin(), outcome.difference.end());
        ok = ok && outcome.difference == truth;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "FAIL: threads=%d endpoint reconcile diverged from the "
                     "planted difference\n",
                     threads);
        return 1;
      }
      rec.AddRow({"pbs_round_cycle", "endpoints", std::to_string(plan.n),
                  std::to_string(plan.t), std::to_string(d),
                  std::to_string(threads), pbs::FormatDouble(best_ns, 1),
                  pbs::bench::FormatMops(best_ns)});
    }
  }

  rec.Print();
  std::printf(
      "\nround_cycle = bin + sketch + wire + BCH-decode + recover for one "
      "unit;\nws rows reuse buffers through pbs::Workspace, alloc rows "
      "rebuild them per call.\n");
  return 0;
}

}  // namespace

int main() { return main_impl(); }
