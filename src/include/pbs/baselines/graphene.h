// Graphene baseline [32] (Sections 7, 8.2): sizing model. The protocol
// engines live in baselines/baseline_endpoints.cc.
//
// Protocol-I shape: Bob sends an (optional) Bloom filter of B plus an IBF
// of B. Alice passes her elements through the BF to form a candidate set Z
// (a superset of A n B), builds IBF(Z) locally, and decodes
// IBF(B) - IBF(Z), which contains only the BF's false positives (Z \ B)
// and any B-only elements. The difference is then
// (A \ Z) u (Z \ B) u (B \ Z). A per-epsilon cost model chooses the BF
// false-positive rate, dropping the BF entirely (epsilon = 1) when its
// O(|B|) cost exceeds the IBF savings -- reproducing the crossover the
// paper discusses for d large relative to |B|.

#ifndef PBS_BASELINES_GRAPHENE_H_
#define PBS_BASELINES_GRAPHENE_H_

#include <cstddef>
#include <vector>

namespace pbs {

/// Cost-model constants. Defaults are tuned (tests/baselines) so the
/// decode success rate meets the 239/240 target of Section 8.2.
struct GrapheneConfig {
  /// Candidate BF false-positive rates; 1.0 means "no BF" (IBF-only).
  std::vector<double> epsilon_grid = {1.0,  0.5,   0.2,   0.1,  0.05,
                                      0.02, 0.01,  0.005, 0.002, 0.001};
  /// IBF cells per expected recovered element.
  double cells_per_item = 1.7;
  /// Additive slack: cells += slack_mult * sqrt(expected) + slack_const.
  double slack_mult = 3.0;
  double slack_const = 10.0;
  int ibf_hashes = 4;
};

/// The cost model's resolved choice for one exchange: the BF false-positive
/// rate (1.0 = BF dropped) and the IBF cell budget the responder ships.
struct GraphenePlan {
  double epsilon = 1.0;  ///< Chosen BF false-positive rate (1.0 = no BF).
  size_t cells = 0;      ///< IBF cells.
  bool use_bf() const { return epsilon < 1.0; }
};

/// Runs the per-epsilon cost model of Section 8.2 over `config`'s grid.
GraphenePlan GrapheneChoosePlan(int d_est, size_t set_b_size, int sig_bits,
                                const GrapheneConfig& config = {});

}  // namespace pbs

#endif  // PBS_BASELINES_GRAPHENE_H_
