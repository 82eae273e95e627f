#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bloom.h"
#include "baselines/btree.h"
#include "baselines/skiplist.h"
#include "common/random.h"
#include "datasets/generators.h"

namespace lidx {
namespace {

using Tree = BPlusTree<uint64_t, uint64_t>;

std::vector<std::pair<uint64_t, uint64_t>> MakePairs(
    const std::vector<uint64_t>& keys) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) pairs.emplace_back(keys[i], i);
  return pairs;
}

// ----- B+-tree: bulk load -----

class BTreeBulkTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeBulkTest, BulkLoadThenFindAll) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, GetParam(), 11);
  Tree tree;
  tree.BulkLoad(MakePairs(keys));
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(tree.Find(keys[i]), std::optional<uint64_t>(i));
  }
  // Misses.
  EXPECT_FALSE(tree.Find(keys.back() + 1).has_value());
  if (keys.front() > 0) { EXPECT_FALSE(tree.Find(keys.front() - 1).has_value()); }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeBulkTest,
                         ::testing::Values(1, 2, 63, 64, 65, 1000, 20000));

TEST(BTreeTest, EmptyTree) {
  Tree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.Find(1).has_value());
  EXPECT_FALSE(tree.Erase(1));
  std::vector<std::pair<uint64_t, uint64_t>> out;
  tree.RangeScan(0, 100, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BTreeTest, InsertOverwrites) {
  Tree tree;
  EXPECT_TRUE(tree.Insert(5, 1));
  EXPECT_FALSE(tree.Insert(5, 2));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Find(5), std::optional<uint64_t>(2));
}

TEST(BTreeTest, SequentialInsertAscending) {
  Tree tree;
  for (uint64_t k = 0; k < 10000; ++k) ASSERT_TRUE(tree.Insert(k, k * 2));
  tree.CheckInvariants();
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_EQ(tree.Find(k), std::optional<uint64_t>(k * 2));
  }
}

TEST(BTreeTest, SequentialInsertDescending) {
  Tree tree;
  for (uint64_t k = 10000; k > 0; --k) ASSERT_TRUE(tree.Insert(k, k));
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 10000u);
  for (uint64_t k = 1; k <= 10000; ++k) {
    ASSERT_EQ(tree.Find(k), std::optional<uint64_t>(k));
  }
}

TEST(BTreeTest, RangeScanMatchesReference) {
  const auto keys = GenerateKeys(KeyDistribution::kClustered, 5000, 13);
  Tree tree;
  tree.BulkLoad(MakePairs(keys));
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t a = rng.NextBounded(keys.size());
    const size_t b = std::min(keys.size() - 1, a + rng.NextBounded(100));
    std::vector<std::pair<uint64_t, uint64_t>> got;
    tree.RangeScan(keys[a], keys[b], &got);
    ASSERT_EQ(got.size(), b - a + 1);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, keys[a + i]);
      ASSERT_EQ(got[i].second, a + i);
    }
  }
}

TEST(BTreeTest, ScanN) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 1000, 19);
  Tree tree;
  tree.BulkLoad(MakePairs(keys));
  std::vector<std::pair<uint64_t, uint64_t>> got;
  EXPECT_EQ(tree.ScanN(keys[100], 50, &got), 50u);
  ASSERT_EQ(got.size(), 50u);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(got[i].first, keys[100 + i]);
  // Scan past the end.
  got.clear();
  EXPECT_EQ(tree.ScanN(keys[keys.size() - 10], 50, &got), 10u);
}

TEST(BTreeTest, EraseAllAscending) {
  Tree tree;
  for (uint64_t k = 0; k < 5000; ++k) tree.Insert(k, k);
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Erase(k)) << k;
    if (k % 512 == 0) tree.CheckInvariants();
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
}

TEST(BTreeTest, EraseAllDescending) {
  Tree tree;
  for (uint64_t k = 0; k < 5000; ++k) tree.Insert(k, k);
  for (uint64_t k = 5000; k > 0; --k) {
    ASSERT_TRUE(tree.Erase(k - 1));
  }
  EXPECT_TRUE(tree.empty());
}

TEST(BTreeTest, EraseMissingReturnsFalse) {
  Tree tree;
  tree.Insert(10, 1);
  EXPECT_FALSE(tree.Erase(11));
  EXPECT_FALSE(tree.Erase(9));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, FuzzAgainstStdMap) {
  Tree tree;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(23);
  for (int op = 0; op < 40000; ++op) {
    const uint64_t key = rng.NextBounded(5000);
    const int action = static_cast<int>(rng.NextBounded(10));
    if (action < 5) {
      const uint64_t value = rng.Next();
      tree.Insert(key, value);
      ref[key] = value;
    } else if (action < 8) {
      const auto got = tree.Find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        ASSERT_FALSE(got.has_value()) << key;
      } else {
        ASSERT_EQ(got, std::optional<uint64_t>(it->second)) << key;
      }
    } else {
      ASSERT_EQ(tree.Erase(key), ref.erase(key) > 0) << key;
    }
    if (op % 5000 == 4999) {
      tree.CheckInvariants();
      ASSERT_EQ(tree.size(), ref.size());
    }
  }
  // Final full comparison via range scan.
  std::vector<std::pair<uint64_t, uint64_t>> all;
  tree.RangeScan(0, UINT64_MAX, &all);
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : all) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST(BTreeTest, BulkLoadThenMutate) {
  const auto keys = GenerateKeys(KeyDistribution::kStep, 10000, 29);
  Tree tree;
  tree.BulkLoad(MakePairs(keys), 0.7);
  tree.CheckInvariants();
  std::map<uint64_t, uint64_t> ref;
  for (size_t i = 0; i < keys.size(); ++i) ref[keys[i]] = i;
  Rng rng(31);
  for (int op = 0; op < 10000; ++op) {
    const uint64_t key = rng.Next() >> 20;
    if (rng.NextBounded(2) == 0) {
      tree.Insert(key, op);
      ref[key] = op;
    } else {
      ASSERT_EQ(tree.Erase(key), ref.erase(key) > 0);
    }
  }
  tree.CheckInvariants();
  ASSERT_EQ(tree.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(tree.Find(k), std::optional<uint64_t>(v));
  }
}

TEST(BTreeTest, MoveSemantics) {
  Tree a;
  a.Insert(1, 10);
  a.Insert(2, 20);
  Tree b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.Find(1), std::optional<uint64_t>(10));
  Tree c;
  c = std::move(b);
  EXPECT_EQ(c.Find(2), std::optional<uint64_t>(20));
}

TEST(BTreeTest, SizeBytesGrowsWithData) {
  Tree small, large;
  small.BulkLoad(MakePairs(GenerateKeys(KeyDistribution::kUniform, 100)));
  large.BulkLoad(MakePairs(GenerateKeys(KeyDistribution::kUniform, 10000)));
  EXPECT_GT(large.SizeBytes(), small.SizeBytes() * 10);
}

// ----- Skip list -----

TEST(SkipListTest, InsertFindErase) {
  SkipList<uint64_t, uint64_t> list;
  EXPECT_TRUE(list.Insert(5, 50));
  EXPECT_TRUE(list.Insert(3, 30));
  EXPECT_TRUE(list.Insert(7, 70));
  EXPECT_FALSE(list.Insert(5, 55));  // Overwrite.
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.Find(5), std::optional<uint64_t>(55));
  EXPECT_FALSE(list.Find(6).has_value());
  EXPECT_TRUE(list.Erase(5));
  EXPECT_FALSE(list.Erase(5));
  EXPECT_EQ(list.size(), 2u);
  list.CheckInvariants();
}

TEST(SkipListTest, FullRangeScanOrder) {
  SkipList<uint64_t, uint64_t> list;
  Rng rng(37);
  std::map<uint64_t, uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next();
    list.Insert(k, i);
    ref[k] = i;
  }
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  list.RangeScan(0, std::numeric_limits<uint64_t>::max(), &scanned);
  ASSERT_EQ(scanned.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : scanned) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST(SkipListTest, RangeScan) {
  SkipList<uint64_t, uint64_t> list;
  for (uint64_t k = 0; k < 100; k += 2) list.Insert(k, k);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  list.RangeScan(10, 20, &out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out.front().first, 10u);
  EXPECT_EQ(out.back().first, 20u);
}

TEST(SkipListTest, FuzzAgainstStdMap) {
  SkipList<uint64_t, uint64_t> list;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(41);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBounded(2000);
    switch (rng.NextBounded(3)) {
      case 0:
        list.Insert(key, op);
        ref[key] = op;
        break;
      case 1: {
        const auto got = list.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got.has_value()) { ASSERT_EQ(*got, it->second); }
        break;
      }
      default:
        ASSERT_EQ(list.Erase(key), ref.erase(key) > 0);
    }
    if (op % 5000 == 4999) list.CheckInvariants();
  }
  list.CheckInvariants();
  ASSERT_EQ(list.size(), ref.size());
}

TEST(SkipListTest, MoveLeavesSourceUsable) {
  SkipList<uint64_t, uint64_t> a;
  a.Insert(1, 1);
  SkipList<uint64_t, uint64_t> b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented.
  a.Insert(2, 2);
  EXPECT_EQ(a.size(), 1u);
}

// ----- Bloom filter -----

TEST(BloomTest, NoFalseNegatives) {
  for (KeyDistribution d : AllKeyDistributions()) {
    const auto keys = GenerateKeys(d, 20000, 43);
    BloomFilter bloom(keys.size(), 10.0);
    for (uint64_t k : keys) bloom.Add(k);
    for (uint64_t k : keys) {
      ASSERT_TRUE(bloom.MayContain(k)) << KeyDistributionName(d);
    }
  }
}

TEST(BloomTest, FprNearTheory) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 50000, 47);
  BloomFilter bloom(keys.size(), 10.0);
  for (uint64_t k : keys) bloom.Add(k);
  // ~1% theoretical FPR at 10 bits/key.
  Rng rng(53);
  size_t fp = 0;
  const size_t probes = 100000;
  for (size_t i = 0; i < probes; ++i) {
    // Odd high keys: effectively disjoint from the key set.
    const uint64_t k = (1ull << 62) | rng.Next();
    fp += bloom.MayContain(k);
  }
  const double fpr = static_cast<double>(fp) / probes;
  EXPECT_LT(fpr, 0.03);
  EXPECT_GT(fpr, 0.0001);
}

TEST(BloomTest, FprNearTheoryAtOddSizesOnSequentialKeys) {
  // Probes map onto the bit array by their high bits; at bit counts that
  // are no power of two, and under dense sequential keys, the filter must
  // still spread them over every word and keep its theoretical FPR.
  for (const size_t words : {size_t{37}, size_t{1001}, size_t{4099}}) {
    const size_t keys = words * 64 / 10;
    BloomFilter bloom(keys, 10.0);
    ASSERT_EQ(bloom.num_bits(), words * 64);
    for (uint64_t k = 0; k < keys; ++k) bloom.Add(k);
    const double k = bloom.num_hashes();
    const double theory = std::pow(
        1.0 - std::exp(-k * static_cast<double>(keys) /
                       static_cast<double>(bloom.num_bits())),
        k);
    Rng rng(71 + words);
    size_t fp = 0;
    const size_t probes = 200000;
    for (size_t i = 0; i < probes; ++i) {
      fp += bloom.MayContain((uint64_t{1} << 62) | rng.Next());
    }
    const double fpr = static_cast<double>(fp) / probes;
    EXPECT_LT(fpr, 2.0 * theory + 0.002) << words << " words";
    EXPECT_GT(fpr, theory / 4.0) << words << " words";
  }
}

TEST(BloomTest, MoreBitsLowerFpr) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 59);
  BloomFilter small(keys.size(), 4.0);
  BloomFilter large(keys.size(), 16.0);
  for (uint64_t k : keys) {
    small.Add(k);
    large.Add(k);
  }
  Rng rng(61);
  size_t fp_small = 0, fp_large = 0;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t k = (1ull << 62) | rng.Next();
    fp_small += small.MayContain(k);
    fp_large += large.MayContain(k);
  }
  EXPECT_GT(fp_small, fp_large * 2);
}

TEST(BloomTest, SizeMatchesBudget) {
  BloomFilter bloom(1000, 8.0);
  EXPECT_GE(bloom.num_bits(), 8000u);
  EXPECT_LE(bloom.num_bits(), 8100u);
  EXPECT_EQ(bloom.num_hashes(), 6);  // round(8 * ln2) = 6.
}

TEST(BloomTest, EmptyFilterRejectsEverything) {
  BloomFilter bloom(100, 10.0);
  Rng rng(67);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(bloom.MayContain(rng.Next()));
  }
}

}  // namespace
}  // namespace lidx
