// Micro-benchmarks: the wide-lane SIMD kernel layer (Recorder harness).
//
// Head-to-head timings of every lane-batched kernel against the scalar
// reference it is pinned bit-identical to by the differential test suites:
// cross-group batch Chien search vs per-group incremental search, the
// cross-group sketch decode vs per-sketch DecodeInto, the lane-blocked
// parity-bitmap build / odd-bin scan / XOR-fold vs their scalar forms, the
// four-cell IBF subtract vs cell-at-a-time, the batched xxhash64 vs a
// scalar hash loop, and the lane-batched Tug-of-War pass vs the
// per-counter FourWiseHash::Sign loop. One table/JSON row per (kernel,
// path) pair; the `simd` rows carry the speedup over the scalar row they
// follow, so the recorded trajectory (BENCH_pbs.json) tracks both absolute
// cost and the win.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "pbs/bch/power_sum_sketch.h"
#include "pbs/common/cpu_features.h"
#include "pbs/common/rng.h"
#include "pbs/common/workspace.h"
#include "pbs/core/parity_bitmap.h"
#include "pbs/gf/gfpoly.h"
#include "pbs/gf/roots.h"
#include "pbs/hash/fourwise.h"
#include "pbs/hash/xxhash64.h"
#include "pbs/ibf/invertible_bloom_filter.h"

namespace {

using pbs::ChienBatchPoly;
using pbs::FourWiseBank;
using pbs::FourWiseHash;
using pbs::FourWiseKernel;
using pbs::GF2m;
using pbs::GFPoly;
using pbs::InvertibleBloomFilter;
using pbs::ParityBitmap;
using pbs::PowerSumSketch;
using pbs::SaltedHash;
using pbs::Span;
using pbs::Workspace;
using pbs::Xoshiro256;

std::vector<uint64_t> Distinct(const GF2m& f, int count, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::set<uint64_t> s;
  while (static_cast<int>(s.size()) < count) {
    s.insert(rng.NextBounded(f.order()) + 1);
  }
  return {s.begin(), s.end()};
}

// prod_i (x + r_i) over `count` distinct nonzero roots: a full-capacity
// locator, the exact shape each group's decode hands to Chien search.
std::vector<uint64_t> PlantedLocator(const GF2m& f, int count, uint64_t seed) {
  GFPoly p = GFPoly::One(f);
  for (uint64_t r : Distinct(f, count, seed)) p = p.Mul(GFPoly(f, {r, 1}));
  return p.coeffs();
}

int main_impl() {
  const bool full = pbs::bench::FullMode();
  const double budget = full ? 0.6 : 0.15;
  std::printf("== wide-lane SIMD kernel micro-benchmarks ==\n");
  std::printf("mode=%s budget=%.2fs/case simd_backend=%s cpu=%s\n\n",
              full ? "FULL" : "quick", budget, pbs::cpu::SimdBackend(),
              pbs::cpu::FeatureString());

  pbs::bench::Recorder rec("simd_kernels", {"kernel", "path", "params",
                                            "ns_per_op", "speedup"});
  double scalar_ns = 0.0;
  const auto add = [&](const char* kernel, const char* path,
                       const std::string& params, double ns) {
    const bool is_ref = scalar_ns == 0.0;
    if (is_ref) scalar_ns = ns;
    rec.AddRow({kernel, path, params, pbs::FormatDouble(ns, 1),
                is_ref ? "1.00" : pbs::FormatDouble(scalar_ns / ns, 2)});
    if (!is_ref) scalar_ns = 0.0;
  };

  // ---- Cross-group batch Chien search (the tentpole's headline case). ----
  // Eight groups at the PBS plan shape (n = 2047, t = 16), each with a
  // full-capacity degree-16 locator: scalar = eight incremental searches,
  // simd = one ChienSearchBatch walking all lanes through the doubled exp
  // table together.
  {
    constexpr int kGroups = 8;
    constexpr int t = 16;
    const GF2m f(11);  // n = 2047.
    std::vector<std::vector<uint64_t>> coeffs(kGroups), roots(kGroups);
    std::vector<ChienBatchPoly> polys(kGroups);
    for (int p = 0; p < kGroups; ++p) {
      coeffs[p] = PlantedLocator(f, t, 100 + p);
      roots[p].assign(t, 0);
    }
    Workspace ws;
    const std::string params = "n=2047 t=16 groups=8";
    add("chien_batch", "scalar", params, pbs::bench::TimeNs([&] {
          for (int p = 0; p < kGroups; ++p) {
            (void)pbs::ChienSearchIncremental(
                f, coeffs[p], ws, Span<uint64_t>(roots[p].data(), t));
          }
        }, budget));
    add("chien_batch", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] {
          for (int p = 0; p < kGroups; ++p) {
            polys[p] = ChienBatchPoly{coeffs[p], roots[p], 0};
          }
          pbs::ChienSearchBatch(f, Span<ChienBatchPoly>(polys.data(), kGroups),
                                ws);
        }, budget));
  }

  // ---- Cross-group sketch decode (batch Chien wired into the decoder). ----
  {
    constexpr int kGroups = 8;
    constexpr int t = 16;
    const GF2m f(11);
    std::vector<PowerSumSketch> sketches;
    for (int i = 0; i < kGroups; ++i) {
      sketches.emplace_back(f, t);
      for (uint64_t e : Distinct(f, t, 200 + i)) sketches[i].Toggle(e);
    }
    const PowerSumSketch* ptrs[kGroups];
    std::vector<std::vector<uint64_t>> outs(kGroups);
    std::vector<uint64_t>* out_ptrs[kGroups];
    uint8_t ok[kGroups];
    for (int i = 0; i < kGroups; ++i) {
      ptrs[i] = &sketches[i];
      out_ptrs[i] = &outs[i];
    }
    Workspace ws;
    const std::string params = "n=2047 t=16 groups=8 d=16";
    add("decode_batch", "scalar", params, pbs::bench::TimeNs([&] {
          for (int i = 0; i < kGroups; ++i) {
            (void)sketches[i].DecodeInto(&outs[i], ws);
          }
        }, budget));
    add("decode_batch", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] {
          PowerSumSketch::DecodeBatchInto(
              Span<const PowerSumSketch* const>(ptrs, kGroups),
              Span<std::vector<uint64_t>* const>(out_ptrs, kGroups),
              Span<uint8_t>(ok, kGroups), ws);
        }, budget));
  }

  // ---- Parity-bitmap build at the paper's set size (1e6 elements). ----
  // Quick mode scales down to keep the suite fast; the recorded full-mode
  // run is the acceptance number.
  {
    const size_t count = full ? 1000000 : 200000;
    const int n = 2047;
    std::vector<uint64_t> elems(count);
    Xoshiro256 rng(77);
    for (auto& e : elems) e = rng.Next() | 1;
    const SaltedHash h(0xB17);
    ParityBitmap pb;
    const std::string params =
        "n=2047 elements=" + std::to_string(count);
    add("bitmap_build", "scalar", params, pbs::bench::TimeNs([&] {
          ParityBitmap::BuildIntoScalar(elems, h, n, &pb);
        }, budget));
    add("bitmap_build", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] {
          ParityBitmap::BuildInto(elems, h, n, &pb);
        }, budget));
  }

  // ---- Odd-bin scan (bitmap -> sketch) and XOR-fold. ----
  {
    const int n = 2047;
    const GF2m f(11);
    const SaltedHash h(0x5C);
    Xoshiro256 rng(78);
    std::vector<uint64_t> elems(4096);
    for (auto& e : elems) e = rng.Next() | 1;
    ParityBitmap a = ParityBitmap::Build(elems, h, n);
    for (auto& e : elems) e = rng.Next() | 1;
    const ParityBitmap b = ParityBitmap::Build(elems, h, n);
    PowerSumSketch sketch(f, 16);
    const std::string params = "n=2047";
    add("bitmap_scan", "scalar", params, pbs::bench::TimeNs([&] {
          a.ToSketchIntoScalar(&sketch);
        }, budget));
    add("bitmap_scan", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] { a.ToSketchInto(&sketch); }, budget));
    add("bitmap_fold", "scalar", params, pbs::bench::TimeNs([&] {
          a.FoldXorScalar(b);
        }, budget));
    add("bitmap_fold", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] { a.FoldXor(b); }, budget));
  }

  // ---- IBF cell-stream subtract (Difference Digest / Graphene). ----
  {
    const size_t cells = full ? 30000 : 3000;
    InvertibleBloomFilter x(cells, 4, 0x1BF, 32);
    InvertibleBloomFilter y(cells, 4, 0x1BF, 32);
    Xoshiro256 rng(79);
    for (int i = 0; i < 2000; ++i) x.Insert((rng.Next() & 0xFFFFFFFFu) | 1);
    for (int i = 0; i < 2000; ++i) y.Insert((rng.Next() & 0xFFFFFFFFu) | 1);
    const std::string params = "cells=" + std::to_string(x.cell_count());
    add("ibf_subtract", "scalar", params, pbs::bench::TimeNs([&] {
          x.SubtractScalar(y);
        }, budget));
    add("ibf_subtract", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] { x.Subtract(y); }, budget));
  }

  // ---- Batched xxhash64 (partitioning / IBF keying). ----
  {
    constexpr size_t kCount = 4096;
    std::vector<uint64_t> xs(kCount), out(kCount);
    Xoshiro256 rng(80);
    for (auto& v : xs) v = rng.Next();
    const uint64_t seed = 0x9E37;
    const std::string params = "batch=" + std::to_string(kCount);
    add("xxhash64", "scalar", params, pbs::bench::TimeNs([&] {
          for (size_t i = 0; i < kCount; ++i) {
            out[i] = pbs::XxHash64(xs[i], seed);
          }
        }, budget));
    add("xxhash64", pbs::cpu::SimdBackend(), params,
        pbs::bench::TimeNs([&] {
          pbs::XxHash64Batch(xs.data(), kCount, seed, out.data());
        }, budget));
  }

  // ---- Tug-of-War estimate pass (ell = 128 four-wise hashes). ----
  // The estimate's full-set pass at the paper's |S| = 10^6 in both modes:
  // `reference` runs the per-counter FourWiseHash::Sign loop, then one row
  // per FourWiseBank body this CPU runs, each with its speedup over the
  // reference. One reference pass takes seconds, so a row is the best of
  // three single passes, in ns per key.
  {
    constexpr size_t kKeys = 1000000;
    constexpr size_t kEll = 128;
    std::vector<uint64_t> keys(kKeys);
    Xoshiro256 rng(81);
    for (auto& k : keys) k = rng.Next();
    const uint64_t seed = 0x70C;
    const FourWiseBank bank(kEll, seed);
    std::vector<FourWiseHash> hashes;
    pbs::SplitMix64 seeds(seed);
    for (size_t j = 0; j < kEll; ++j) hashes.emplace_back(seeds.Next());
    std::vector<int64_t> sums(kEll);
    const auto ns_per_key = [&](const std::function<void()>& pass) {
      double best = 1e18;
      for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        pass();
        best = std::min(best, std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
      }
      return best / kKeys;
    };
    const std::string params = "keys=1000000 ell=128";
    const double ref_ns = ns_per_key([&] {
      for (size_t j = 0; j < kEll; ++j) {
        int64_t acc = 0;
        for (uint64_t x : keys) acc += hashes[j].Sign(x);
        sums[j] = acc;
      }
    });
    rec.AddRow({"tow_addall", "reference", params,
                pbs::FormatDouble(ref_ns, 1), "1.00"});
    const std::pair<FourWiseKernel, const char*> bodies[] = {
        {FourWiseKernel::kPortable, "portable"},
        {FourWiseKernel::kAvx2, "avx2"},
        {FourWiseKernel::kAvx512, "avx512"}};
    for (const auto& [kernel, path] : bodies) {
      if (!FourWiseBank::Available(kernel)) continue;
      const double ns = ns_per_key(
          [&] { bank.AddSignsWith(kernel, keys, sums.data()); });
      rec.AddRow({"tow_addall", path, params, pbs::FormatDouble(ns, 1),
                  pbs::FormatDouble(ref_ns / ns, 2)});
    }
  }

  rec.Print();
  std::printf(
      "\nEach simd row's speedup is against the scalar (tow_addall: the\n"
      "reference) row above it; the differential suites (ChienBatchDiff,\n"
      "DecodeBatchDiff, BitmapSimdDiff, IbfSimdDiff, HashBatchDiff,\n"
      "TowSimdDiff) pin every pair bit-identical.\n");
  return 0;
}

}  // namespace

int main() { return main_impl(); }
