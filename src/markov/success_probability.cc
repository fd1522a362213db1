#include "pbs/markov/success_probability.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace pbs {

namespace {

// Thread-safe log-gamma: libm's lgamma() writes the process-global
// `signgam`, a data race when concurrent sessions plan parameters at the
// same time (flagged by the TSan CI job). All arguments here are
// positive integers + 1, where the sign is always +, so the signgam
// side channel carries no information anyway; lgamma_r discards it into
// a local instead.
double LGamma(double v) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(v, &sign);
#else
  return std::lgamma(v);
#endif
}

}  // namespace

double BinomialPmf(int d, double p, int x) {
  if (x < 0 || x > d) return 0.0;
  if (p <= 0.0) return x == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return x == d ? 1.0 : 0.0;
  const double log_choose =
      LGamma(d + 1.0) - LGamma(x + 1.0) - LGamma(d - x + 1.0);
  const double log_pmf = log_choose + x * std::log(p) +
                         (d - x) * std::log1p(-p);
  return std::exp(log_pmf);
}

double SingleGroupSuccess(int n, int t, int r, int x) {
  assert(x >= 0);
  if (x == 0) return 1.0;
  if (x > t) return 0.0;  // Appendix D: pessimistic truncation.
  const TransitionMatrix m = TransitionMatrix::ForRound(n, t);
  return m.Power(r).At(x, 0);
}

double Alpha(int n, int t, int r, int d, int g) {
  assert(g >= 1);
  const TransitionMatrix mr = TransitionMatrix::ForRound(n, t).Power(r);
  const double p = 1.0 / static_cast<double>(g);
  double alpha = 0.0;
  for (int x = 0; x <= t && x <= d; ++x) {
    const double w = BinomialPmf(d, p, x);
    const double success = x == 0 ? 1.0 : mr.At(x, 0);
    alpha += w * success;
  }
  return alpha;
}

double OverallSuccessLowerBound(double alpha, int g) {
  const double alpha_g = std::pow(alpha, g);
  return 1.0 - 2.0 * (1.0 - alpha_g);
}

double SuccessLowerBound(int n, int t, int r, int d, int g) {
  return OverallSuccessLowerBound(Alpha(n, t, r, d, g), g);
}

SplitModelContext::SplitModelContext(int r, int d, int g, int t_max)
    : r_(std::max(r, 0)),
      d_(d),
      p_(1.0 / static_cast<double>(g)),
      t_max_(t_max) {
  assert(g >= 1);
}

double SplitModelContext::Pmf(int x) {
  while (static_cast<int>(pmf_.size()) <= x) {
    const int i = static_cast<int>(pmf_.size());
    const double mass = BinomialPmf(d_, p_, i);
    const double before = tracked_.empty() ? 0.0 : tracked_.back();
    pmf_.push_back(mass);
    tracked_.push_back(before + mass);
  }
  return pmf_[x];
}

double SplitModelContext::TrackedMass(int x_max) {
  if (x_max < 0) return 0.0;
  Pmf(x_max);
  return tracked_[x_max];
}

// Track the Binomial tail far enough that the ignored mass is < 1e-12.
int SplitModelContext::TailCutoff(int t) {
  int x = t;
  // Crude but safe: extend until pmf < 1e-13 and x > 4 * mean.
  const double mean = d_ * p_;
  while (x < d_ && (Pmf(x) > 1e-13 || x < 4 * mean + 10)) {
    ++x;
    if (x > t + 200) break;  // Defensive cap; pmf is long gone by here.
  }
  return x;
}

// M for (n, t) is the leading (t + 1) x (t + 1) block of M for (n, T),
// T >= t, and M is lower triangular (a round never adds bad balls), so
// each power's leading block is the power of the leading block with the
// same nonzero terms summed in the same order: one matrix per n serves
// every t < dim bit for bit. The first request for n builds just its own
// t (a lone cell stays cheap); a larger one rebuilds for t_max once.
const SplitModelContext::PowerColumns& SplitModelContext::ColumnsFor(int n,
                                                                     int t) {
  auto it = std::find_if(powers_.begin(), powers_.end(),
                         [n](const PowerColumns& p) { return p.n == n; });
  if (it != powers_.end() && it->dim > t) return *it;
  const bool first = it == powers_.end();
  if (first) it = powers_.insert(powers_.end(), PowerColumns{});
  it->n = n;
  it->dim = (first ? t : std::max(t, t_max_)) + 1;
  it->col0.assign(static_cast<size_t>(r_ + 1) * it->dim, 0.0);
  const TransitionMatrix m = TransitionMatrix::ForRound(n, it->dim - 1);
  TransitionMatrix power = m.Power(0);
  for (int k = 0; k <= r_; ++k) {
    if (k > 0) power = power.Multiply(m);
    for (int x = 0; x < it->dim; ++x) {
      it->col0[static_cast<size_t>(k) * it->dim + x] = power.At(x, 0);
    }
  }
  return *it;
}

// Row x of the multinomial split weights: the probability that an
// independent hash, 1/3 each, splits x elements into (x1, x2, x - x1 - x2),
// at slot x1 * (x + 1) - x1 * (x1 - 1) / 2 + x2 (the (x1, x2) loop order).
const double* SplitModelContext::WeightRow(int x) {
  if (static_cast<int>(weights_.size()) <= x) weights_.resize(x + 1);
  std::vector<double>& row = weights_[x];
  if (!row.empty()) return row.data();
  while (static_cast<int>(log_fact_.size()) <= x) {
    const int i = static_cast<int>(log_fact_.size());
    log_fact_.push_back(i == 0 ? 0.0
                               : log_fact_[i - 1] +
                                     std::log(static_cast<double>(i)));
  }
  const double log3 = std::log(3.0);
  row.reserve(static_cast<size_t>(x + 1) * (x + 2) / 2);
  for (int x1 = 0; x1 <= x; ++x1) {
    for (int x2 = 0; x2 <= x - x1; ++x2) {
      const int x3 = x - x1 - x2;
      const double log_w = log_fact_[x] - log_fact_[x1] - log_fact_[x2] -
                           log_fact_[x3] - x * log3;
      row.push_back(std::exp(log_w));
    }
  }
  return row.data();
}

const double* SplitModelContext::SuccessRow(int n, int t, int x_max) {
  const size_t width = static_cast<size_t>(x_max) + 1;
  // Level 0: nothing but the empty group has succeeded.
  level_.assign(width, 0.0);
  level_[0] = 1.0;
  if (r_ == 0) return level_.data();
  const PowerColumns& cols = ColumnsFor(n, t);
  int support = 0;  // Last x with S_{k-1}(x) != 0.
  for (int k = 1; k <= r_; ++k) {
    level_.swap(prev_level_);
    level_.assign(width, 0.0);
    level_[0] = 1.0;
    const double* prev = prev_level_.data();
    const double* col = cols.col0.data() + static_cast<size_t>(k) * cols.dim;
    for (int x = 1; x <= x_max && x <= t; ++x) level_[x] = col[x];
    // x > t: BCH failure burns this round; the group splits into three
    // sub-group pairs by an independent hash (multinomial 1/3 each), and
    // every part must finish within k - 1 rounds. Terms run in (x1, x2)
    // order. A term with a zero factor is +0, and adding +0 leaves the
    // nonnegative sum unchanged, so only the x2 range with every part
    // within `support` is visited, without a per-term test.
    for (int x = t + 1; x <= x_max && x <= 3 * support; ++x) {
      const double* w = WeightRow(x);
      double acc = 0.0;
      for (int x1 = 0; x1 <= x && x1 <= support; ++x1) {
        const double* w_x1 = w;
        w += x - x1 + 1;
        const double s1 = prev[x1];
        if (s1 == 0.0) continue;
        const int lo = std::max(0, x - x1 - support);
        const int hi = std::min(support, x - x1);
        for (int x2 = lo; x2 <= hi; ++x2) {
          acc += w_x1[x2] * s1 * prev[x2] * prev[x - x1 - x2];
        }
      }
      level_[x] = acc;
    }
    support = x_max;
    while (support > 0 && level_[support] == 0.0) --support;
  }
  return level_.data();
}

double SplitModelContext::AlphaWithSplits(int n, int t) {
  const int x_max = std::min(d_, TailCutoff(t));
  if (x_max < 0) return 0.0;
  const double* success = SuccessRow(n, t, x_max);
  double alpha = 0.0;
  for (int x = 0; x <= x_max; ++x) alpha += Pmf(x) * success[x];
  return alpha;
}

double SplitModelContext::AlphaCalibrated(int n, int t, double base_penalty,
                                          double split_penalty) {
  const int x_max = std::min(d_, TailCutoff(t));
  double fail = 0.0;
  if (x_max >= 1) {
    const double* success = SuccessRow(n, t, x_max);
    for (int x = 1; x <= x_max; ++x) {
      const double w = Pmf(x);
      const double path_fail = 1.0 - success[x];
      fail += w * path_fail * (x <= t ? base_penalty : split_penalty);
    }
  }
  // Mass beyond the tracked tail counts as full failure.
  fail += std::max(0.0, 1.0 - TrackedMass(x_max));
  return std::max(0.0, 1.0 - fail);
}

double SplitModelContext::SingleGroupSuccess(int n, int t, int x) {
  assert(x >= 0);
  return SuccessRow(n, t, x)[x];
}

double SingleGroupSuccessWithSplits(int n, int t, int r, int x) {
  return SplitModelContext(r, 0, 1, t).SingleGroupSuccess(n, t, x);
}

double AlphaWithSplits(int n, int t, int r, int d, int g) {
  return SplitModelContext(r, d, g, t).AlphaWithSplits(n, t);
}

double SuccessLowerBoundWithSplits(int n, int t, int r, int d, int g) {
  return OverallSuccessLowerBound(AlphaWithSplits(n, t, r, d, g), g);
}

double AlphaCalibrated(int n, int t, int r, int d, int g, double base_penalty,
                       double split_penalty) {
  return SplitModelContext(r, d, g, t)
      .AlphaCalibrated(n, t, base_penalty, split_penalty);
}

double SuccessLowerBoundCalibrated(int n, int t, int r, int d, int g,
                                   double base_penalty,
                                   double split_penalty) {
  return OverallSuccessLowerBound(
      AlphaCalibrated(n, t, r, d, g, base_penalty, split_penalty), g);
}

}  // namespace pbs
