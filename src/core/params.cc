#include "pbs/core/params.h"

#include <cmath>

namespace pbs {

PbsPlan PlanFor(const PbsConfig& config, int d_used) {
  OptimizerOptions options = config.optimizer;
  options.d = d_used;
  options.delta = config.delta;
  options.r = config.target_rounds;
  options.p0 = config.p0;
  options.sig_bits = config.sig_bits;

  PbsPlan plan;
  plan.d_used = d_used;
  if (auto params = OptimizeParams(options)) {
    plan.params = *params;
    return plan;
  }

  // No feasible cell: take the most forgiving corner of the range so the
  // protocol still runs; correctness is guaranteed by the checksum loop.
  plan.params.g = GroupCount(d_used, config.delta);
  plan.params.m = options.max_m;
  plan.params.n = (1 << options.max_m) - 1;
  plan.params.t =
      static_cast<int>(std::floor(options.t_high * config.delta));
  plan.params.lower_bound = 0.0;
  plan.params.bits_per_group =
      static_cast<double>(plan.params.t + config.delta) * plan.params.m +
      static_cast<double>(config.delta + 1) * config.sig_bits;
  return plan;
}

int InflateEstimate(double d_hat, double gamma) {
  if (d_hat <= 0.0) return 0;
  return static_cast<int>(std::ceil(gamma * d_hat));
}

}  // namespace pbs
