#include "pbs/core/group_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "pbs/common/checksum.h"
#include "pbs/common/rng.h"

namespace pbs {
namespace {

TEST(GroupState, RootUnitsHaveDistinctKeys) {
  HashFamily family(42);
  std::set<uint64_t> keys;
  for (uint32_t g = 0; g < 500; ++g) {
    EXPECT_TRUE(keys.insert(UnitCore::Root(family, g).key).second);
  }
}

TEST(GroupState, ChildrenDeterministicAndDistinct) {
  HashFamily family(42);
  UnitCore root = UnitCore::Root(family, 3);
  UnitCore c0 = root.Child(family, 0);
  UnitCore c0_again = root.Child(family, 0);
  UnitCore c1 = root.Child(family, 1);
  EXPECT_EQ(c0.key, c0_again.key);
  EXPECT_NE(c0.key, c1.key);
  EXPECT_EQ(c0.depth, 1);
  EXPECT_EQ(c0.group, 3u);
  EXPECT_EQ(c0.split_path.size(), 1u);
}

TEST(GroupState, GroupPartitionIsConsistent) {
  HashFamily f1(7), f2(7);
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng.Next();
    EXPECT_EQ(GroupOf(f1, x, 200), GroupOf(f2, x, 200));
  }
}

TEST(GroupState, RootSubUniverseMatchesGroupHash) {
  HashFamily family(9);
  Xoshiro256 rng(2);
  const uint32_t g = 50;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.Next();
    const uint32_t group = GroupOf(family, x, g);
    for (uint32_t other = 0; other < g; other += 7) {
      const bool expected = other == group;
      EXPECT_EQ(UnitCore::Root(family, other).InSubUniverse(family, x, g),
                expected);
    }
  }
}

TEST(GroupState, SplitPartitionsElementsExactly) {
  HashFamily family(11);
  UnitCore root = UnitCore::Root(family, 0);
  const uint64_t salt = root.SplitSalt(family);
  Xoshiro256 rng(3);
  int counts[3] = {};
  for (int i = 0; i < 30000; ++i) {
    const uint8_t c = UnitCore::ChildIndexOf(rng.Next(), salt);
    ASSERT_LT(c, 3);
    ++counts[c];
  }
  // Roughly uniform thirds.
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(GroupState, ChildSubUniverseRequiresFullPath) {
  HashFamily family(13);
  const uint32_t g = 10;
  Xoshiro256 rng(4);
  UnitCore root = UnitCore::Root(family, 2);
  const uint64_t salt = root.SplitSalt(family);
  UnitCore children[3] = {root.Child(family, 0), root.Child(family, 1),
                          root.Child(family, 2)};
  int checked = 0;
  for (int i = 0; i < 50000 && checked < 300; ++i) {
    const uint64_t x = rng.Next();
    if (GroupOf(family, x, g) != 2) continue;
    ++checked;
    const uint8_t expected = UnitCore::ChildIndexOf(x, salt);
    for (uint8_t c = 0; c < 3; ++c) {
      EXPECT_EQ(children[c].InSubUniverse(family, x, g), c == expected);
    }
  }
  EXPECT_GE(checked, 300);
}

TEST(GroupState, GrandchildrenPathsNested) {
  HashFamily family(17);
  UnitCore root = UnitCore::Root(family, 0);
  UnitCore child = root.Child(family, 1);
  UnitCore grandchild = child.Child(family, 2);
  EXPECT_EQ(grandchild.depth, 2);
  EXPECT_EQ(grandchild.split_path.size(), 2u);
  EXPECT_EQ(grandchild.split_path[0].second, 1);
  EXPECT_EQ(grandchild.split_path[1].second, 2);
}

TEST(GroupState, BinSaltVariesByRound) {
  HashFamily family(19);
  UnitCore root = UnitCore::Root(family, 0);
  EXPECT_NE(root.BinSalt(family, 1), root.BinSalt(family, 2));
  EXPECT_EQ(root.BinSalt(family, 1), root.BinSalt(family, 1));
}

std::vector<uint64_t> RandomElements(size_t count, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> xs(count);
  for (uint64_t& x : xs) x = (rng.Next() & 0xFFFFFFFFu) | 1;
  return xs;
}

uint64_t Sum(const std::vector<uint64_t>& xs, int sig_bits) {
  SetChecksum sum(sig_bits);
  for (uint64_t x : xs) sum.Add(x);
  return sum.value();
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(GroupState, PartitionMatchesPerElementGroupOf) {
  HashFamily family(23);
  const uint32_t g = 37;  // Not a multiple of the hash batch.
  const std::vector<uint64_t> xs = RandomElements(5003, 5);
  std::vector<Unit> units;
  PartitionIntoRoots(family, xs, g, 32, &units);
  ASSERT_EQ(units.size(), g);
  std::vector<std::vector<uint64_t>> expected(g);
  for (uint64_t x : xs) expected[GroupOf(family, x, g)].push_back(x);
  for (uint32_t i = 0; i < g; ++i) {
    EXPECT_EQ(units[i].core.key, UnitCore::Root(family, i).key);
    EXPECT_EQ(units[i].core.depth, 0);
    EXPECT_EQ(units[i].elements, expected[i]);  // Input order kept.
    EXPECT_EQ(units[i].checksum, Sum(expected[i], 32));
  }
}

TEST(GroupState, PartitionReplacesPreviousTable) {
  HashFamily family(29);
  std::vector<Unit> units;
  PartitionIntoRoots(family, RandomElements(100, 6), 8, 32, &units);
  PartitionIntoRoots(family, {}, 3, 32, &units);
  ASSERT_EQ(units.size(), 3u);
  for (const Unit& unit : units) {
    EXPECT_TRUE(unit.elements.empty());
    EXPECT_EQ(unit.checksum, 0u);
  }
}

TEST(GroupState, SplitChildrenPartitionParent) {
  HashFamily family(31);
  for (int sig_bits : {32, 64}) {
    Unit parent;
    parent.core = UnitCore::Root(family, 4).Child(family, 1);
    parent.elements = RandomElements(3000, 7);
    if (sig_bits == 64) {
      for (uint64_t& x : parent.elements) x |= uint64_t{0xF} << 60;
    }
    parent.checksum = Sum(parent.elements, sig_bits);
    std::vector<Unit> out(2);  // Children append after existing units.
    SplitInto(family, parent, sig_bits, &out);
    ASSERT_EQ(out.size(), 5u);
    const uint64_t salt = parent.core.SplitSalt(family);
    std::vector<uint64_t> all;
    SetChecksum children_sum(sig_bits);
    for (uint8_t c = 0; c < 3; ++c) {
      const Unit& child = out[2 + c];
      EXPECT_EQ(child.core.key, parent.core.Child(family, c).key);
      EXPECT_EQ(child.core.depth, parent.core.depth + 1);
      EXPECT_EQ(child.checksum, Sum(child.elements, sig_bits));
      for (uint64_t x : child.elements) {
        EXPECT_EQ(UnitCore::ChildIndexOf(x, salt), c);
        all.push_back(x);
        children_sum.Add(x);
      }
    }
    EXPECT_EQ(Sorted(all), Sorted(parent.elements));
    EXPECT_EQ(children_sum.value(), parent.checksum);
  }
}

TEST(GroupState, ToggleInThenOutRestoresUnit) {
  HashFamily family(37);
  Unit unit;
  unit.core = UnitCore::Root(family, 0);
  unit.elements = RandomElements(50, 8);
  unit.checksum = Sum(unit.elements, 32);
  const std::vector<uint64_t> before = Sorted(unit.elements);
  const uint64_t before_sum = unit.checksum;

  const uint64_t absent = 0xFFFFFFFEu;  // Even: RandomElements are odd.
  Toggle(&unit, absent, 32);
  EXPECT_EQ(unit.elements.size(), before.size() + 1);
  EXPECT_EQ(unit.elements.back(), absent);
  EXPECT_EQ(unit.checksum, Sum(unit.elements, 32));
  Toggle(&unit, absent, 32);
  EXPECT_EQ(Sorted(unit.elements), before);
  EXPECT_EQ(unit.checksum, before_sum);

  // Out then back in: a present element (here the first) is swap-removed.
  const uint64_t present = before.front();
  Toggle(&unit, present, 32);
  EXPECT_EQ(std::count(unit.elements.begin(), unit.elements.end(), present),
            0);
  EXPECT_EQ(unit.checksum, Sum(unit.elements, 32));
  Toggle(&unit, present, 32);
  EXPECT_EQ(Sorted(unit.elements), before);
  EXPECT_EQ(unit.checksum, before_sum);
}

TEST(GroupState, DuplicateElementDetectedPerUnit) {
  HashFamily family(41);
  std::vector<uint64_t> xs = RandomElements(4000, 9);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::vector<Unit> units;
  PartitionIntoRoots(family, xs, 16, 32, &units);
  EXPECT_FALSE(HasDuplicateElement(units));
  for (size_t i : {size_t{0}, xs.size() / 2, xs.size() - 1}) {
    std::vector<uint64_t> dup = xs;
    dup.push_back(xs[i]);
    PartitionIntoRoots(family, dup, 16, 32, &units);
    EXPECT_TRUE(HasDuplicateElement(units)) << i;
  }
}

}  // namespace
}  // namespace pbs
