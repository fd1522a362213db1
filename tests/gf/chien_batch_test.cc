// Differential tests for the cross-group batch Chien search: the batched
// kernel (AVX2 lanes where available) must be bit-identical -- same root
// counts, same roots, same (generator) order -- to per-polynomial
// ChienSearchIncremental and to ChienSearchBatchPortable, across every
// Chien-sized field, randomized polynomial mixes, and ragged batch sizes
// below the lane width.

#include "pbs/gf/roots.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "pbs/common/rng.h"
#include "pbs/gf/gfpoly.h"

namespace pbs {
namespace {

// Builds prod_i (x + r_i) for distinct nonzero roots r_i: a polynomial
// guaranteed to have exactly deg distinct roots.
std::vector<uint64_t> PolyWithPlantedRoots(const GF2m& f, int count,
                                           Xoshiro256* rng) {
  std::set<uint64_t> roots;
  while (static_cast<int>(roots.size()) < count) {
    roots.insert(rng->NextBounded(f.order()) + 1);
  }
  GFPoly p = GFPoly::One(f);
  for (uint64_t r : roots) p = p.Mul(GFPoly(f, {r, 1}));
  return p.coeffs();
}

// Uniformly random coefficients (typically few or no roots); the leading
// coefficient is forced nonzero for degree >= 0.
std::vector<uint64_t> RandomPoly(const GF2m& f, int degree, Xoshiro256* rng) {
  if (degree < 0) return {0, 0, 0};  // The zero polynomial (padded).
  std::vector<uint64_t> coeffs(degree + 1);
  for (int i = 0; i < degree; ++i) coeffs[i] = rng->NextBounded(f.order() + 1);
  coeffs[degree] = rng->NextBounded(f.order()) + 1;
  return coeffs;
}

TEST(ChienBatchDiff, MatchesIncrementalAcrossFieldsAndRaggedBatches) {
  Xoshiro256 rng(0xC41EB47C);
  for (int m = 2; m <= 16; ++m) {
    const GF2m field(m);
    const int max_deg =
        static_cast<int>(std::min<uint64_t>(16, field.order() - 1));
    Workspace ws_batch, ws_portable, ws_serial;
    for (int iter = 0; iter < 10; ++iter) {
      // Randomized batch size, including ragged tails below the lane
      // width and multi-quad batches.
      const int n_polys = 1 + static_cast<int>(rng.NextBounded(11));
      std::vector<std::vector<uint64_t>> coeffs(n_polys);
      std::vector<std::vector<uint64_t>> out_batch(n_polys);
      std::vector<std::vector<uint64_t>> out_portable(n_polys);
      std::vector<std::vector<uint64_t>> out_serial(n_polys);
      std::vector<ChienBatchPoly> polys(n_polys);
      std::vector<ChienBatchPoly> polys_portable(n_polys);
      for (int p = 0; p < n_polys; ++p) {
        const int degree = static_cast<int>(rng.NextBounded(max_deg + 2)) - 1;
        // Half planted full-root locators (the decode shape), half random
        // coefficients (few roots, exercising full scans and early exits).
        if (degree >= 1 && rng.Next() % 2 == 0) {
          coeffs[p] = PolyWithPlantedRoots(field, degree, &rng);
        } else {
          coeffs[p] = RandomPoly(field, degree, &rng);
        }
        const size_t slots =
            static_cast<size_t>(std::max(PolyDegree(coeffs[p]), 1));
        out_batch[p].assign(slots, 0);
        out_portable[p].assign(slots, 0);
        out_serial[p].assign(slots, 0);
        polys[p] = ChienBatchPoly{coeffs[p], out_batch[p], 0};
        polys_portable[p] = ChienBatchPoly{coeffs[p], out_portable[p], 0};
      }

      ChienSearchBatch(field, Span<ChienBatchPoly>(polys.data(), n_polys),
                       ws_batch);
      ChienSearchBatchPortable(
          field, Span<ChienBatchPoly>(polys_portable.data(), n_polys),
          ws_portable);

      for (int p = 0; p < n_polys; ++p) {
        const int expected = ChienSearchIncremental(
            field, coeffs[p], ws_serial, out_serial[p]);
        ASSERT_EQ(polys[p].count, expected)
            << "m=" << m << " iter=" << iter << " poly=" << p;
        ASSERT_EQ(polys_portable[p].count, expected)
            << "m=" << m << " iter=" << iter << " poly=" << p;
        for (int r = 0; r < expected; ++r) {
          ASSERT_EQ(out_batch[p][r], out_serial[p][r])
              << "m=" << m << " iter=" << iter << " poly=" << p
              << " root=" << r;
          ASSERT_EQ(out_portable[p][r], out_serial[p][r])
              << "m=" << m << " iter=" << iter << " poly=" << p
              << " root=" << r;
        }
      }
    }
  }
}

TEST(ChienBatchDiff, EmptyBatchIsANoOp) {
  const GF2m field(8);
  Workspace ws;
  ChienSearchBatch(field, Span<ChienBatchPoly>(nullptr, 0), ws);
}

TEST(ChienBatchDiff, FullCapacityLocatorsAcrossEightGroups) {
  // The pbs responder's decode-block shape: eight groups, each with a
  // full-capacity degree-t locator of planted distinct roots.
  const GF2m field(11);  // n = 2047.
  const int t = 16;
  Xoshiro256 rng(0x8713AA);
  Workspace ws, ws_serial;
  std::vector<std::vector<uint64_t>> coeffs(8);
  std::vector<std::vector<uint64_t>> out(8), expected(8);
  std::vector<ChienBatchPoly> polys(8);
  for (int p = 0; p < 8; ++p) {
    coeffs[p] = PolyWithPlantedRoots(field, t, &rng);
    out[p].assign(t, 0);
    expected[p].assign(t, 0);
    polys[p] = ChienBatchPoly{coeffs[p], out[p], 0};
  }
  ChienSearchBatch(field, Span<ChienBatchPoly>(polys.data(), 8), ws);
  for (int p = 0; p < 8; ++p) {
    ASSERT_EQ(polys[p].count,
              ChienSearchIncremental(field, coeffs[p], ws_serial, expected[p]));
    ASSERT_EQ(polys[p].count, t);
    for (int r = 0; r < t; ++r) EXPECT_EQ(out[p][r], expected[p][r]);
  }
}

}  // namespace
}  // namespace pbs
