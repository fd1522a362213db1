#include "common.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <numeric>

#include <sys/resource.h>

namespace pbsbench {
namespace {
// Counted by the replacement operator new below, per thread, so the
// count needs no synchronisation.
thread_local uint64_t t_allocated_bytes = 0;
}  // namespace
}  // namespace pbsbench

void* operator new(std::size_t size) {
  pbsbench::t_allocated_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pbsbench {

uint64_t ThreadAllocatedBytes() { return t_allocated_bytes; }

int Rng::LogUniformAt(double u, int lo, int hi) {
  const double x = std::exp(std::log(static_cast<double>(lo)) +
                            u * (std::log(static_cast<double>(hi) + 1.0) -
                                 std::log(static_cast<double>(lo))));
  return std::min(hi, std::max(lo, static_cast<int>(x)));
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
  rng.Next();
  Rng mixed(rng.Next() ^ (index * 0x8CB92BA72F3D8DD7ull));
  return mixed.Next();
}

Keys DistinctKeys(Rng& rng, size_t count, uint64_t lo, uint64_t hi) {
  Keys keys;
  keys.reserve(count);
  while (keys.size() < count) {
    while (keys.size() < count) keys.push_back(lo + rng.Below(hi - lo));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return keys;
}

Verdict CheckDifference(Keys recovered, const Keys& truth,
                        const std::vector<const Keys*>& concurrent) {
  std::sort(recovered.begin(), recovered.end());
  if (recovered == truth) return Verdict::kExact;
  // A live server's snapshot is the base set plus at most one writer
  // batch in flight: the extra keys must be exactly one such batch.
  Keys extra;
  std::set_symmetric_difference(recovered.begin(), recovered.end(),
                                truth.begin(), truth.end(),
                                std::back_inserter(extra));
  for (const Keys* batch : concurrent) {
    if (extra == *batch &&
        std::includes(recovered.begin(), recovered.end(), batch->begin(),
                      batch->end())) {
      return Verdict::kConcurrent;
    }
  }
  return Verdict::kWrong;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Tail TailOf(const std::vector<double>& values) {
  static const double kPercentiles[] = {99.99, 99.9, 99.5, 99.0, 95.0,
                                        90.0,  75.0, 50.0};
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  for (double p : kPercentiles) {
    const auto beyond = static_cast<size_t>(
        std::floor(static_cast<double>(values.size()) * (100.0 - p) / 100.0));
    if (beyond >= 10) {
      tail.percentile = p;
      tail.beyond = beyond;
      tail.value = Quantile(values, p / 100.0);
      return tail;
    }
  }
  tail.value = *std::max_element(values.begin(), values.end());
  return tail;
}

std::string DescribeTail(const Tail& tail) {
  char buf[128];
  if (tail.percentile >= 100.0) {
    std::snprintf(buf, sizeof(buf), "max of %zu samples (fewer than 20)",
                  tail.samples);
  } else {
    std::snprintf(buf, sizeof(buf), "p%g of %zu samples, %zu beyond",
                  tail.percentile, tail.samples, tail.beyond);
  }
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

}  // namespace pbsbench
