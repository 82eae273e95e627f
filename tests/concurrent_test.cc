#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datasets/generators.h"
#include "one_d/pgm.h"
#include "serving/sharded_index.h"

namespace lidx {
namespace {

// The XIndex-style concurrent learned index (tutorial §6.5): range shards,
// each a frozen PGM snapshot plus a bounded delta of fresh writes that is
// merged into a new snapshot on the writer once it reaches `delta_limit`
// entries. Readers are lock-free.
using Index = ShardedIndex<PgmIndex<uint64_t, uint64_t>>;

Index::Options XIndexOptions(size_t num_shards = 64,
                             size_t delta_limit = 1024) {
  Index::Options opts;
  opts.num_shards = num_shards;
  opts.buffer_capacity = delta_limit;
  opts.rebuild_min_delta = delta_limit;
  opts.rebuild_fraction = 0;
  opts.background_drain = false;
  return opts;
}

std::vector<uint64_t> Ranks(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(ConcurrentIndexTest, BulkLoadAndFind) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 50000, 829);
  Index index(XIndexOptions());
  index.BulkLoad(keys, Ranks(keys.size()));
  index.CheckInvariants();
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_EQ(index.Find(keys[i]), std::optional<uint64_t>(i));
  }
  ASSERT_FALSE(index.Find(keys.back() + 1).has_value());
}

TEST(ConcurrentIndexTest, SingleThreadMutations) {
  Index index(XIndexOptions());
  index.BulkLoad({10, 20, 30}, {1, 2, 3});
  index.Insert(15, 100);
  EXPECT_EQ(index.Find(15), std::optional<uint64_t>(100));
  EXPECT_TRUE(index.Erase(20));
  EXPECT_FALSE(index.Find(20).has_value());
  EXPECT_FALSE(index.Erase(20));
  index.Insert(20, 9);
  EXPECT_EQ(index.Find(20), std::optional<uint64_t>(9));
  index.CheckInvariants();
}

TEST(ConcurrentIndexTest, CompactionPreservesData) {
  // A small delta forces frequent compactions.
  Index index(XIndexOptions(/*num_shards=*/4, /*delta_limit=*/64));
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 1000, 839);
  index.BulkLoad(keys, Ranks(keys.size()));
  std::map<uint64_t, uint64_t> ref;
  for (size_t i = 0; i < keys.size(); ++i) ref[keys[i]] = i;
  Rng rng(853);
  for (int op = 0; op < 10000; ++op) {
    const uint64_t k = rng.Next() >> 8;
    index.Insert(k, op);
    ref[k] = op;
  }
  index.CheckInvariants();
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(index.Find(k), std::optional<uint64_t>(v)) << k;
  }
  ASSERT_EQ(index.size(), ref.size());
}

TEST(ConcurrentIndexTest, RangeScanMergesDelta) {
  Index index(XIndexOptions());
  index.BulkLoad({10, 20, 30, 40, 50}, {1, 2, 3, 4, 5});
  index.Insert(25, 99);
  index.Erase(30);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  index.RangeScan(15, 45, &out);
  const std::vector<std::pair<uint64_t, uint64_t>> expected{
      {20, 2}, {25, 99}, {40, 4}};
  EXPECT_EQ(out, expected);
  index.CheckInvariants();
}

TEST(ConcurrentIndexTest, ConcurrentReadersSeeAllBulkData) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 100000, 857);
  Index index(XIndexOptions());
  index.BulkLoad(keys, Ranks(keys.size()));
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(859 + t);
      for (int i = 0; i < 20000; ++i) {
        const size_t j = rng.NextBounded(keys.size());
        const auto got = index.Find(keys[j]);
        if (!got.has_value() || *got != j) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ConcurrentIndexTest, ReadersAndWritersNoTornState) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 50000, 863);
  Index index(XIndexOptions(/*num_shards=*/64, /*delta_limit=*/256));
  index.BulkLoad(keys, Ranks(keys.size()));

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};

  // Writers insert keys with value = key ^ kMask so readers can validate
  // any value they observe.
  constexpr uint64_t kMask = 0xDEADBEEFull;
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(877 + t);
      for (int i = 0; i < 20000; ++i) {
        const uint64_t k = rng.Next() >> 8;
        index.Insert(k, k ^ kMask);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(881 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t j = rng.NextBounded(keys.size());
        const auto got = index.Find(keys[j]);
        // A bulk-loaded key must resolve to its rank or a writer value.
        if (got.has_value() && *got != j && *got != (keys[j] ^ kMask)) {
          bad_reads.fetch_add(1);
        }
        if (!got.has_value()) {
          // Bulk keys are never erased in this test.
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  index.CheckInvariants();

  // Post-conditions: all writer keys visible with the right values.
  for (int t = 0; t < 2; ++t) {
    Rng rng(877 + t);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t k = rng.Next() >> 8;
      const auto got = index.Find(k);
      ASSERT_TRUE(got.has_value()) << k;
      // A bulk key may collide with a writer key; both values are legal.
      if (*got != (k ^ kMask)) {
        const auto it = std::lower_bound(keys.begin(), keys.end(), k);
        ASSERT_TRUE(it != keys.end() && *it == k) << k;
      }
    }
  }
}

TEST(ConcurrentIndexTest, ParallelWritersDisjointShards) {
  Index index(XIndexOptions(/*num_shards=*/8));
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 10000, 883);
  index.BulkLoad(keys, Ranks(keys.size()));
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < 5000; ++i) {
        // Distinct key spaces per writer.
        index.Insert((static_cast<uint64_t>(t) << 50) + i * 2 + 1, i);
      }
    });
  }
  for (auto& t : writers) t.join();
  index.CheckInvariants();
  for (int t = 0; t < 4; ++t) {
    for (uint64_t i = 0; i < 5000; i += 97) {
      ASSERT_EQ(index.Find((static_cast<uint64_t>(t) << 50) + i * 2 + 1),
                std::optional<uint64_t>(i));
    }
  }
}

}  // namespace
}  // namespace lidx
