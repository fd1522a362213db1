// Registry-wide oracle: every registered scheme, run both in-process
// (SetReconciler::Reconcile) and as a framed loopback session, is checked
// against std::set_symmetric_difference on the edge shapes of the set
// space, at an exact, an 8x-low and an 8x-high d-hat.
//
// Invariants:
//  - fail closed: a reported success is the exact difference;
//  - the in-process pump and the wire session agree (same engines);
//  - PBS, PinSketch and PinSketch/WP succeed at d-hat = d on every shape.
// The cases that fall short are listed exactly, with the reason, in
// kKnownFailures (honest failures) and kKnownWrongAnswers (one PinSketch
// defect), so any change in behaviour shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "pbs/common/rng.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/core/wire_session.h"
#include "scheme_test_util.h"

namespace pbs {
namespace {

using test::Sorted;

struct OracleShape {
  std::string name;
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
};

// `n` distinct nonzero 32-bit signatures, none equal to 1 or 2^32 - 1
// (the boundary shape adds those itself).
std::vector<uint64_t> Distinct(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::set<uint64_t> out;
  while (out.size() < n) {
    const uint64_t s = rng.Next() & 0xFFFFFFFFull;
    if (s > 1 && s < 0xFFFFFFFFull) out.insert(s);
  }
  return {out.begin(), out.end()};
}

std::vector<OracleShape> Shapes() {
  const std::vector<uint64_t> common = Distinct(1000, 0x0AC1E);
  std::vector<OracleShape> shapes;
  shapes.push_back({"both_empty", {}, {}});
  shapes.push_back({"a_empty", {}, Distinct(200, 7)});
  shapes.push_back({"b_empty", Distinct(200, 8), {}});
  shapes.push_back({"d_zero", common, common});
  // A strictly inside B: 60 B-only elements.
  std::vector<uint64_t> superset = common;
  for (uint64_t e : Distinct(60, 9)) {
    if (!std::binary_search(common.begin(), common.end(), e)) {
      superset.push_back(e);
    }
  }
  shapes.push_back({"a_subset_b", common, superset});
  // The two extreme signatures of a 32-bit universe are the difference.
  std::vector<uint64_t> with_low = common, with_high = common;
  with_low.push_back(1);
  with_high.push_back(0xFFFFFFFFull);
  shapes.push_back({"boundary_sigs", with_low, with_high});
  return shapes;
}

std::vector<uint64_t> Truth(const OracleShape& shape) {
  const std::vector<uint64_t> a = Sorted(shape.a), b = Sorted(shape.b);
  std::vector<uint64_t> out;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(out));
  return out;
}

using Case = std::tuple<std::string, std::string, std::string>;

// (scheme, shape, d-hat label) cases that report failure -- honestly, with
// no difference claimed -- on the current engines. A change to this list
// is a behaviour change and must be explained.
const std::set<Case> kKnownFailures = {
    // Under-estimates: the exchange is sized below what it must carry
    // (PinSketch/WP recovers by splitting over its extra rounds; with
    // d = 2 the boundary shape is within every other scheme's reach).
    {"pbs", "a_empty", "d/8"},
    {"pbs", "b_empty", "d/8"},
    {"pbs", "a_subset_b", "d/8"},
    {"pinsketch", "a_empty", "d/8"},
    {"pinsketch", "b_empty", "d/8"},
    {"pinsketch", "a_subset_b", "d/8"},
    {"ddigest", "a_empty", "d/8"},
    {"ddigest", "b_empty", "d/8"},
    {"ddigest", "a_subset_b", "d/8"},
    {"ddigest", "boundary_sigs", "d/8"},
    // D.Digest at d = 2: 2 d-hat = 4 cells do not peel two entries here.
    {"ddigest", "boundary_sigs", "d"},
    // Graphene's Protocol I assumes A covers B: every B-only element must
    // peel out of an IBF sized for the Bloom filter's few false positives,
    // so A = {} and A inside B fail at every d-hat.
    {"graphene", "a_empty", "d"},
    {"graphene", "a_empty", "d/8"},
    {"graphene", "a_empty", "8d+1"},
    {"graphene", "a_subset_b", "d"},
    {"graphene", "a_subset_b", "d/8"},
    {"graphene", "a_subset_b", "8d+1"},
};

// Cases that report success with a WRONG difference. PinSketch sized
// below the true d decodes any sketch whose locator polynomial happens to
// split into distinct roots; at t = 1 (d-hat = 2/8 here) that is every
// nonzero sketch, so {1, 2^32 - 1} decodes as the single element
// 1 ^ (2^32 - 1). The scheme has no redundancy to catch this; pinned here
// so it stays visible until the protocol gains a check.
const std::set<Case> kKnownWrongAnswers = {
    {"pinsketch", "boundary_sigs", "d/8"},
};

TEST(SchemeOracle, EdgeShapesMatchSymmetricDifference) {
  std::set<Case> failures, wrong_answers;
  for (const OracleShape& shape : Shapes()) {
    const std::vector<uint64_t> truth = Truth(shape);
    const double d = static_cast<double>(truth.size());
    const std::pair<const char*, double> d_hats[] = {
        {"d", d}, {"d/8", d / 8.0}, {"8d+1", 8.0 * d + 1.0}};
    for (const std::string& name : SchemeRegistry::Instance().Names()) {
      const auto scheme = SchemeRegistry::Instance().Create(name, {});
      for (const auto& [label, d_hat] : d_hats) {
        SCOPED_TRACE(name + " on " + shape.name + " at d-hat=" + label);
        const ReconcileOutcome direct =
            scheme->Reconcile(shape.a, shape.b, d_hat, 0x0AC1E);
        SessionConfig config;
        config.scheme_name = name;
        config.seed = 0x0AC1E;
        config.exact_d = d_hat;
        const SessionResult session =
            RunLoopbackSession(config, shape.a, shape.b);
        ASSERT_TRUE(session.ok) << session.error;
        EXPECT_EQ(session.outcome.success, direct.success);
        EXPECT_EQ(Sorted(session.outcome.difference),
                  Sorted(direct.difference));

        const Case c{name, shape.name, label};
        if (!direct.success) {
          failures.insert(c);
        } else if (Sorted(direct.difference) != truth) {
          wrong_answers.insert(c);
        }
        if ((name == "pbs" || name == "pinsketch" ||
             name == "pinsketch-wp") &&
            std::string(label) == "d") {
          EXPECT_TRUE(direct.success);
        }
      }
    }
  }
  EXPECT_EQ(failures, kKnownFailures);
  EXPECT_EQ(wrong_answers, kKnownWrongAnswers);
}

// Both parties' work is timed in-process, for every scheme.
TEST(SchemeOracle, EncodeAndDecodeTimedForEveryScheme) {
  const std::vector<uint64_t> a = Distinct(3000, 21);
  std::vector<uint64_t> b(a.begin() + 40, a.end());
  for (const std::string& name : SchemeRegistry::Instance().Names()) {
    SCOPED_TRACE(name);
    const ReconcileOutcome out = SchemeRegistry::Instance()
                                     .Create(name, {})
                                     ->Reconcile(a, b, 40.0, 3);
    ASSERT_TRUE(out.success);
    EXPECT_GT(out.encode_seconds, 0.0);
    EXPECT_GT(out.decode_seconds, 0.0);
  }
}

}  // namespace
}  // namespace pbs
