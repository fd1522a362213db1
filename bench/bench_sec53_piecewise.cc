// Section 5.3 / Appendix G: expected fraction of the d distinct elements
// reconciled in each round ("piecewise reconciliability"), both from the
// Markov model and measured empirically.
//
// Paper reference (d=1000, n=127, t=13, delta=5, p0=0.99):
// 0.962 / 0.0380 / 3.61e-4 / 2.86e-6 for rounds 1-4.

#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/markov/piecewise.h"
#include "pbs/sim/metrics.h"
#include "pbs/sim/workload.h"

using namespace pbs;

int main() {
  std::printf("== Section 5.3: piecewise reconciliability ==\n\n");

  std::printf("Analytical (d=1000, n=127, t=13, g=200):\n");
  const auto fractions = ExpectedRoundFractions(127, 13, 1000, 200, 4);
  bench::Recorder analytic("sec53_piecewise_analytic",
                           {"round", "expected_fraction", "paper"});
  const char* paper[] = {"0.962", "0.0380", "3.61e-04", "2.86e-06"};
  for (int k = 0; k < 4; ++k) {
    analytic.AddRow({std::to_string(k + 1),
                     FormatScientific(fractions[k], 3), paper[k]});
  }
  analytic.Print();

  // Empirical: count how many truth elements have been recovered after each
  // round. The difference after round k is the outcome of a run capped at
  // max_rounds = k: every run is seed-deterministic, so the capped runs
  // replay the same first k rounds.
  const int instances = bench::FullMode() ? 200 : 30;
  const size_t set_size = bench::FullMode() ? 1000000 : 100000;
  std::printf("\nEmpirical (|A|=%zu, %d instances, d=1000, d known):\n",
              set_size, instances);
  std::vector<double> recovered_by_round(5, 0.0);
  for (int i = 0; i < instances; ++i) {
    SetPair pair = GenerateSetPair(set_size, 1000, 32, 0x5EC53 + i);
    std::unordered_set<uint64_t> truth(pair.truth_diff.begin(),
                                       pair.truth_diff.end());
    bool finished = false;
    for (int round = 1; round <= 4 && !finished; ++round) {
      SchemeOptions options;
      options.pbs.gamma = 1.0;  // d-hat = d_used = 1000, d known.
      options.pbs.max_rounds = round;
      const ReconcileOutcome outcome =
          SchemeRegistry::Instance()
              .Create("pbs", options)
              ->Reconcile(pair.a, pair.b, 1000, 100 + i);
      finished = outcome.success;
      size_t correct = 0;
      for (uint64_t e : outcome.difference) {
        if (truth.count(e)) ++correct;
      }
      recovered_by_round[round] += static_cast<double>(correct) / 1000.0;
      if (finished) {
        for (int rest = round + 1; rest <= 4; ++rest) {
          recovered_by_round[rest] += static_cast<double>(correct) / 1000.0;
        }
      }
    }
  }
  bench::Recorder empirical("sec53_piecewise_empirical",
                            {"round", "measured_fraction_in_round"});
  double prev = 0.0;
  for (int round = 1; round <= 4; ++round) {
    const double cum = recovered_by_round[round] / instances;
    empirical.AddRow({std::to_string(round), FormatScientific(cum - prev, 3)});
    prev = cum;
  }
  empirical.Print();
  std::printf(
      "\nNote: the plan used here is the optimizer's (n=127, t=13); the "
      "empirical round-1 fraction should sit near the analytical 0.96.\n");
  return 0;
}
