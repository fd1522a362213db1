#include "pbs/baselines/graphene.h"

#include <algorithm>
#include <cmath>

namespace pbs {

namespace {

size_t CellsFor(double expected_items, const GrapheneConfig& config) {
  const double cells = config.cells_per_item * expected_items +
                       config.slack_mult * std::sqrt(expected_items) +
                       config.slack_const;
  return static_cast<size_t>(std::ceil(cells));
}

// Total wire bits for a candidate epsilon.
double CostBits(double epsilon, size_t set_b, double d_est, int sig_bits,
                const GrapheneConfig& config) {
  const double expected = epsilon < 1.0 ? epsilon * d_est : d_est;
  const double ibf_bits =
      static_cast<double>(CellsFor(expected, config)) * 3 * sig_bits;
  if (epsilon >= 1.0) return ibf_bits;
  const double bf_bits = 1.44 * std::log2(1.0 / epsilon) *
                         static_cast<double>(set_b);
  return bf_bits + ibf_bits;
}

}  // namespace

GraphenePlan GrapheneChoosePlan(int d_est, size_t set_b_size, int sig_bits,
                                const GrapheneConfig& config) {
  const double d_clamped = std::max(d_est, 1);
  double best_eps = 1.0;
  double best_cost = CostBits(1.0, set_b_size, d_clamped, sig_bits, config);
  for (double eps : config.epsilon_grid) {
    const double cost = CostBits(eps, set_b_size, d_clamped, sig_bits, config);
    if (cost < best_cost) {
      best_cost = cost;
      best_eps = eps;
    }
  }
  GraphenePlan plan;
  plan.epsilon = best_eps;
  const double expected = best_eps < 1.0 ? best_eps * d_clamped : d_clamped;
  plan.cells = CellsFor(expected, config);
  return plan;
}

}  // namespace pbs
