#include "pbs/core/group_state.h"

#include <algorithm>

#include "pbs/common/checksum.h"
#include "pbs/common/rng.h"

namespace pbs {

UnitCore UnitCore::Root(const HashFamily& family, uint32_t g) {
  UnitCore unit;
  unit.group = g;
  unit.depth = 0;
  unit.key = SplitMix64(family.master_seed() ^
                        (0x726F6F74756E6974ull + g)).Next();
  return unit;
}

uint64_t UnitCore::SplitSalt(const HashFamily& family) const {
  return family.Salt(HashFamily::kSplitPartition, key, depth);
}

UnitCore UnitCore::Child(const HashFamily& family, uint8_t index) const {
  UnitCore child;
  child.group = group;
  child.depth = static_cast<uint8_t>(depth + 1);
  child.key = SplitMix64(key ^ (0xC0FFEEull + index)).Next();
  child.split_path = split_path;
  child.split_path.emplace_back(SplitSalt(family), index);
  return child;
}

bool UnitCore::InSubUniverse(const HashFamily& family, uint64_t x,
                             uint32_t num_groups) const {
  if (GroupOf(family, x, num_groups) != group) return false;
  for (const auto& [salt, index] : split_path) {
    if (ChildIndexOf(x, salt) != index) return false;
  }
  return true;
}

namespace {

// Sets each of `count` freshly filled units' checksums from its elements.
void SumElements(Unit* units, size_t count, int sig_bits) {
  for (Unit* unit = units; unit != units + count; ++unit) {
    SetChecksum sum(sig_bits);
    for (uint64_t e : unit->elements) sum.Add(e);
    unit->checksum = sum.value();
  }
}

}  // namespace

void PartitionIntoRoots(const HashFamily& family,
                        const std::vector<uint64_t>& elements,
                        uint32_t num_groups, int sig_bits,
                        std::vector<Unit>* units) {
  units->assign(num_groups, Unit{});
  for (uint32_t g = 0; g < num_groups; ++g) {
    (*units)[g].core = UnitCore::Root(family, g);
  }
  uint64_t groups[kXxHashBatch];
  for (size_t base = 0; base < elements.size(); base += kXxHashBatch) {
    const size_t blk = std::min(kXxHashBatch, elements.size() - base);
    GroupOfMany(family, elements.data() + base, blk, num_groups, groups);
    for (size_t i = 0; i < blk; ++i) {
      (*units)[groups[i]].elements.push_back(elements[base + i]);
    }
  }
  SumElements(units->data(), units->size(), sig_bits);
}

void SplitInto(const HashFamily& family, const Unit& parent, int sig_bits,
               std::vector<Unit>* out) {
  const uint64_t salt = parent.core.SplitSalt(family);
  const size_t first = out->size();
  out->resize(first + 3);
  Unit* children = out->data() + first;
  for (uint8_t c = 0; c < 3; ++c) {
    children[c].core = parent.core.Child(family, c);
  }
  for (uint64_t e : parent.elements) {
    children[UnitCore::ChildIndexOf(e, salt)].elements.push_back(e);
  }
  SumElements(children, 3, sig_bits);
}

void Toggle(Unit* unit, uint64_t x, int sig_bits) {
  SetChecksum sum(sig_bits, unit->checksum);
  std::vector<uint64_t>& elements = unit->elements;
  const auto it = std::find(elements.begin(), elements.end(), x);
  const bool add = it == elements.end();
  if (add) {
    elements.push_back(x);
  } else {
    *it = elements.back();
    elements.pop_back();
  }
  sum.Toggle(x, add);
  unit->checksum = sum.value();
}

bool HasDuplicateElement(const std::vector<Unit>& units) {
  // Linear probing keyed by a Fibonacci hash, at most half full. 0 marks
  // an empty slot, so a repeated 0 goes unseen; it is also harmless, as 0
  // moves no checksum, bitmap XOR sum or power sum.
  std::vector<uint64_t> slots;
  for (const Unit& unit : units) {
    int bits = 2;
    while ((size_t{1} << bits) < 2 * unit.elements.size()) ++bits;
    const size_t mask = (size_t{1} << bits) - 1;
    slots.assign(mask + 1, 0);
    for (uint64_t e : unit.elements) {
      size_t i = (e * 0x9E3779B97F4A7C15ull) >> (64 - bits);
      for (; slots[i] != 0; i = (i + 1) & mask) {
        if (slots[i] == e) return true;
      }
      slots[i] = e;
    }
  }
  return false;
}

}  // namespace pbs
