#include "pbs/markov/optimizer.h"

#include <algorithm>
#include <cmath>

#include "pbs/markov/success_probability.h"

namespace pbs {

namespace {

// The search range in (m, t) order, bits filled in, bound not yet
// evaluated.
std::vector<OptimizerCell> GridCells(const OptimizerOptions& options) {
  std::vector<OptimizerCell> cells;
  const int t_min = static_cast<int>(std::ceil(options.t_low * options.delta));
  const int t_max =
      static_cast<int>(std::floor(options.t_high * options.delta));
  for (int m = options.min_m; m <= options.max_m; ++m) {
    for (int t = t_min; t <= t_max; ++t) {
      OptimizerCell cell;
      cell.n = (1 << m) - 1;
      cell.t = t;
      cell.variable_bits = static_cast<double>(t + options.delta) * m;
      cell.total_bits =
          cell.variable_bits +
          static_cast<double>(options.delta + 1) * options.sig_bits;
      cells.push_back(cell);
    }
  }
  return cells;
}

SplitModelContext ContextFor(const OptimizerOptions& options) {
  return SplitModelContext(
      options.r, options.d, GroupCount(options.d, options.delta),
      static_cast<int>(std::floor(options.t_high * options.delta)));
}

void Evaluate(const OptimizerOptions& options, SplitModelContext& context,
              OptimizerCell* cell) {
  cell->lower_bound = OverallSuccessLowerBound(
      context.AlphaCalibrated(cell->n, cell->t, options.base_penalty,
                              options.split_penalty),
      GroupCount(options.d, options.delta));
  cell->feasible = cell->lower_bound >= options.p0;
}

}  // namespace

int GroupCount(int d, int delta) {
  if (d <= 0) return 1;
  return (d + delta - 1) / delta;
}

std::vector<OptimizerCell> EvaluateGrid(const OptimizerOptions& options) {
  std::vector<OptimizerCell> cells = GridCells(options);
  SplitModelContext context = ContextFor(options);
  for (auto& cell : cells) Evaluate(options, context, &cell);
  return cells;
}

std::optional<PbsPlanParams> OptimizeParams(const OptimizerOptions& options) {
  std::vector<OptimizerCell> cells = GridCells(options);
  std::stable_sort(cells.begin(), cells.end(),
                   [](const OptimizerCell& a, const OptimizerCell& b) {
                     return a.variable_bits < b.variable_bits;
                   });
  SplitModelContext context = ContextFor(options);
  const OptimizerCell* best = nullptr;
  for (auto& cell : cells) {
    // Every later cell costs more than the feasible one already held.
    if (best != nullptr && cell.variable_bits != best->variable_bits) break;
    Evaluate(options, context, &cell);
    if (!cell.feasible) continue;
    if (best == nullptr || cell.lower_bound > best->lower_bound) best = &cell;
  }
  if (best == nullptr) return std::nullopt;

  PbsPlanParams params;
  params.g = GroupCount(options.d, options.delta);
  params.n = best->n;
  params.m = static_cast<int>(std::round(std::log2(best->n + 1)));
  params.t = best->t;
  params.lower_bound = best->lower_bound;
  params.bits_per_group = best->total_bits;
  return params;
}

}  // namespace pbs
