// Shared pieces of the pbsbench benchmark: seeded input generation,
// fingerprints, the difference oracle, order statistics and the metric
// table every mode prints.

#ifndef PBSBENCH_COMMON_H_
#define PBSBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pbs/core/session_engine.h"

namespace pbsbench {

using Clock = std::chrono::steady_clock;
using Keys = std::vector<uint64_t>;
using SharedKeys = std::shared_ptr<const Keys>;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// splitmix64: the only randomness source of the benchmark, so one
/// --seed reproduces every generated input exactly.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Integer drawn log-uniformly from [lo, hi].
  int LogUniform(int lo, int hi) { return LogUniformAt(Unit(), lo, hi); }
  /// The integer at quantile u in [0, 1) of the log-uniform [lo, hi].
  static int LogUniformAt(double u, int lo, int hi);

 private:
  uint64_t state_;
};

/// Seed of stream `index` under run seed `seed` (independent streams for
/// the base set, each session and the writer).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// `count` distinct keys drawn uniformly from [lo, hi), sorted.
Keys DistinctKeys(Rng& rng, size_t count, uint64_t lo, uint64_t hi);

/// Running hash of generated inputs, in generation order.
class Fingerprint {
 public:
  void Add(uint64_t x) {
    h_ ^= x + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
    h_ *= 0xFF51AFD7ED558CCDull;
  }
  void AddAll(const Keys& keys) {
    Add(keys.size());
    for (uint64_t k : keys) Add(k);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

/// One generated session: the initiator's config and set, and the true
/// symmetric difference against the server's base set.
struct SessionSpec {
  size_t index = 0;
  pbs::SessionConfig config;
  SharedKeys a;
  Keys truth;  // Sorted A /\triangle B.
};

/// Oracle verdict for one recovered difference.
enum class Verdict {
  kExact,       ///< Recovered == truth.
  kConcurrent,  ///< Recovered == truth + one writer batch's keys.
  kWrong,       ///< Anything else: fails the run.
};

/// Checks `recovered` against `truth`. `concurrent` lists key sets (each
/// sorted) that a live server may legitimately have held in addition to
/// the base set while the session ran.
Verdict CheckDifference(Keys recovered, const Keys& truth,
                        const std::vector<const Keys*>& concurrent);

/// Sorted copy of q-quantile (q in [0,1]) by linear interpolation.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v);

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  // 100 = the maximum (too few samples).
  size_t beyond = 0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& values);
std::string DescribeTail(const Tail& tail);

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Bytes requested through operator new by the calling thread so far.
uint64_t ThreadAllocatedBytes();

/// Threads of this process right now (/proc/self/status).
int ThreadCount();

}  // namespace pbsbench

#endif  // PBSBENCH_COMMON_H_
