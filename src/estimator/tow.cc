#include "pbs/estimator/tow.h"

#include <cassert>
#include <cmath>

namespace pbs {

TowSketch::TowSketch(int ell, uint64_t seed)
    : counters_(ell, 0),
      hashes_(ell, seed ^ 0x7077536B65746368ull) {  // "towSketch"
  assert(ell >= 1);
}

void TowSketch::AddAll(Span<const uint64_t> elements) {
  hashes_.AddSigns(elements, counters_.data());
}

double TowSketch::Estimate(const TowSketch& a, const TowSketch& b) {
  assert(a.ell() == b.ell());
  double sum = 0.0;
  for (int i = 0; i < a.ell(); ++i) {
    const double diff =
        static_cast<double>(a.counters_[i] - b.counters_[i]);
    sum += diff * diff;
  }
  return sum / a.ell();
}

int TowSketch::BitSize(int ell, uint64_t set_size) {
  const int bits_per_counter = static_cast<int>(
      std::ceil(std::log2(2.0 * static_cast<double>(set_size) + 1.0)));
  return ell * bits_per_counter;
}

void TowSketch::Serialize(BitWriter* writer, uint64_t set_size) const {
  const int bits = BitSize(1, set_size);
  for (int64_t c : counters_) {
    // Zig-zag so negative counters fit the fixed width.
    const uint64_t zz = (static_cast<uint64_t>(c) << 1) ^
                        static_cast<uint64_t>(c >> 63);
    writer->WriteBits(zz, bits);
  }
}

TowSketch TowSketch::Deserialize(BitReader* reader, int ell, uint64_t seed,
                                 uint64_t set_size) {
  TowSketch sketch(ell, seed);
  const int bits = BitSize(1, set_size);
  for (int i = 0; i < ell; ++i) {
    const uint64_t zz = reader->ReadBits(bits);
    sketch.counters_[i] =
        static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  }
  return sketch;
}

TowExchange TowEstimateExchange(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b, int ell,
                                uint64_t seed) {
  TowSketch sketch_a(ell, seed);
  TowSketch sketch_b(ell, seed);
  sketch_a.AddAll(a);
  sketch_b.AddAll(b);
  TowExchange exchange;
  exchange.d_hat = TowSketch::Estimate(sketch_a, sketch_b);
  exchange.bytes =
      (static_cast<size_t>(TowSketch::BitSize(ell, b.size())) + 7) / 8;
  return exchange;
}

double TowEstimateFromDifference(const std::vector<uint64_t>& sym_diff,
                                 int ell, uint64_t seed) {
  TowSketch diff_sketch(ell, seed);
  diff_sketch.AddAll(sym_diff);
  TowSketch empty(ell, seed);
  return TowSketch::Estimate(diff_sketch, empty);
}

}  // namespace pbs
