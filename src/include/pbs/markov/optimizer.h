// Parameter optimization of Section 5.1 / Appendix H.
//
// Among all (n, t) with n = 2^m - 1 and t in a band around delta, find the
// combination that guarantees Pr[R <= r] >= p0 (via the rigorous lower
// bound) while minimizing the per-group first-round communication
//     t log n + delta log n    (+ the constant delta log|U| + log|U|).
// The paper narrows n to {63, ..., 2047} and t to [1.5 delta, 3.5 delta];
// both ranges are configurable here (Section 5.2's r = 1 case needs a wider
// search to be feasible at all).

#ifndef PBS_MARKOV_OPTIMIZER_H_
#define PBS_MARKOV_OPTIMIZER_H_

#include <optional>
#include <vector>

namespace pbs {

/// Inputs to the (n, t) search.
struct OptimizerOptions {
  int d = 1000;          ///< (Estimated, inflated) set-difference size.
  int delta = 5;         ///< Average distinct elements per group.
  int r = 3;             ///< Target number of rounds.
  double p0 = 0.99;      ///< Target overall success probability.
  int sig_bits = 32;     ///< log|U|, for reporting the constant term.
  int min_m = 6;         ///< Smallest bitmap exponent (n = 2^m - 1).
  int max_m = 11;        ///< Largest bitmap exponent.
  double t_low = 1.5;    ///< Lower t bound as a multiple of delta.
  double t_high = 3.5;   ///< Upper t bound as a multiple of delta.
  /// Penalties aligning the analytical chain with the paper's Table 1
  /// (see success_probability.h). Set both to 1.0 for the raw model.
  double base_penalty = 1.5;
  double split_penalty = 9.0;
};

/// One evaluated (n, t) cell.
struct OptimizerCell {
  int n = 0;
  int t = 0;
  double lower_bound = 0.0;   ///< 1 - 2(1 - alpha^g).
  double variable_bits = 0.0; ///< (t + delta) * log2(n+1).
  double total_bits = 0.0;    ///< variable + (delta + 1) * sig_bits.
  bool feasible = false;      ///< lower_bound >= p0.
};

/// The chosen parameterization.
struct PbsPlanParams {
  int g = 1;   ///< Number of groups, ceil(d / delta).
  int n = 0;   ///< Bins per group (2^m - 1).
  int m = 0;   ///< log2(n + 1).
  int t = 0;   ///< BCH error-correction capacity per group.
  double lower_bound = 0.0;
  double bits_per_group = 0.0;  ///< First-round average, formula (1).
};

/// Number of groups for d distinct elements at delta per group:
/// ceil(d / delta), and 1 when d <= 0.
int GroupCount(int d, int delta);

/// Evaluates the whole (n, t) grid (for Table 1), in (m, t) order.
std::vector<OptimizerCell> EvaluateGrid(const OptimizerOptions& options);

/// Picks the feasible cell minimizing communication; among cells of equal
/// communication, the highest lower bound, then the earliest in (m, t)
/// order. nullopt if no cell in the search range meets p0. Cells are
/// evaluated cheapest first and the scan stops at the first communication
/// class holding a feasible cell, so the result equals the argmin over
/// EvaluateGrid at a fraction of its cost.
std::optional<PbsPlanParams> OptimizeParams(const OptimizerOptions& options);

}  // namespace pbs

#endif  // PBS_MARKOV_OPTIMIZER_H_
