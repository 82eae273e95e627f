// TieredIndex tests: the hot updatable tier (the DiskLsmTree's memtable)
// over cold compressed runs. Fuzzed against std::map across codecs and
// migration modes; plus targeted coverage of sealing visibility, tombstone
// compaction, bulk load, page reclamation, flushing behind an in-flight
// migration, and teardown with retired states.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/tiered_index.h"
#include "storage/page.h"

namespace lidx {
namespace {

using storage::PageCodec;

std::string FreshFile(const std::string& name) {
  const std::string path = ::testing::TempDir() + "lidx_tiered_" + name;
  std::remove(path.c_str());
  return path;
}

template <typename Tiered>
void CheckAgainstMap(const Tiered& tiered,
                     const std::map<uint64_t, uint64_t>& want,
                     uint64_t key_space) {
  for (const auto& [key, value] : want) {
    const std::optional<uint64_t> got = tiered.Find(key);
    ASSERT_TRUE(got.has_value()) << key;
    ASSERT_EQ(*got, value) << key;
  }
  // Misses, including erased keys.
  Rng rng(601);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.NextBounded(key_space);
    const auto it = want.find(key);
    const std::optional<uint64_t> got = tiered.Find(key);
    ASSERT_EQ(it != want.end(), got.has_value()) << key;
    if (it != want.end()) {
      ASSERT_EQ(it->second, *got);
    }
  }
  // Range scans agree, including tombstoned gaps.
  for (int trial = 0; trial < 25; ++trial) {
    const uint64_t lo = rng.NextBounded(key_space);
    const uint64_t hi = lo + rng.NextBounded(key_space / 4 + 1);
    std::vector<std::pair<uint64_t, uint64_t>> got;
    tiered.RangeScan(lo, hi, &got);
    std::vector<std::pair<uint64_t, uint64_t>> expect;
    for (auto it = want.lower_bound(lo);
         it != want.end() && it->first <= hi; ++it) {
      expect.emplace_back(it->first, it->second);
    }
    ASSERT_EQ(expect, got) << lo << ".." << hi;
  }
}

struct FuzzConfig {
  PageCodec codec;
  bool background;
  const char* tag;
};

class TieredFuzzTest : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(TieredFuzzTest, MatchesMapUnderMixedOps) {
  const FuzzConfig cfg = GetParam();
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 700;  // Many migrations across the op stream.
  opts.cold_run_limit = 3;
  opts.pool_frames = 32;
  opts.codec = cfg.codec;
  opts.background_migration = cfg.background;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile(cfg.tag), opts);
  std::map<uint64_t, uint64_t> want;
  constexpr uint64_t kKeySpace = 5000;
  Rng rng(607);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.NextBounded(kKeySpace);
    switch (rng.NextBounded(5)) {
      case 0:
      case 1:
      case 2: {
        const uint64_t value = rng.Next();
        want[key] = value;
        tiered.Insert(key, value);
        break;
      }
      case 3:
        want.erase(key);
        tiered.Delete(key);
        break;
      default: {
        const auto it = want.find(key);
        const std::optional<uint64_t> got = tiered.Find(key);
        ASSERT_EQ(it != want.end(), got.has_value()) << "op " << op;
        if (it != want.end()) {
          ASSERT_EQ(it->second, *got) << "op " << op;
        }
      }
    }
  }
  tiered.WaitForCompactions();
  tiered.CheckInvariants();
  CheckAgainstMap(tiered, want, kKeySpace);
  // Everything findable after forcing the remaining hot span to disk too.
  tiered.Flush();
  tiered.CheckInvariants();
  EXPECT_EQ(tiered.MemtableSize(), 0u);
  CheckAgainstMap(tiered, want, kKeySpace);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndMigrationModes, TieredFuzzTest,
    ::testing::Values(FuzzConfig{PageCodec::kPlain, false, "plain_inline"},
                      FuzzConfig{PageCodec::kDelta, false, "delta_inline"},
                      FuzzConfig{PageCodec::kFor, false, "for_inline"},
                      FuzzConfig{PageCodec::kDelta, true, "delta_bg"}),
    [](const auto& info) { return std::string(info.param.tag); });

TEST(TieredIndexTest, MergeAllDropsTombstonesAtTheBottom) {
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 1 << 20;  // Only explicit flushes migrate.
  opts.cold_run_limit = 1;   // Every migration merges to a single run.
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("tombstones"), opts);
  for (uint64_t key = 0; key < 2000; ++key) tiered.Insert(key, key + 1);
  tiered.Flush();
  ASSERT_EQ(tiered.NumRunEntries(), 2000u);
  // Erase half; after the merge-all the tombstones must not survive in
  // the (single, bottom) run.
  for (uint64_t key = 0; key < 2000; key += 2) tiered.Delete(key);
  tiered.Flush();
  ASSERT_EQ(tiered.Runs().size(), 1u);
  EXPECT_EQ(tiered.NumRunEntries(), 1000u);
  for (uint64_t key = 0; key < 2000; ++key) {
    ASSERT_EQ(tiered.Find(key).has_value(), key % 2 == 1) << key;
  }
  tiered.CheckInvariants();
}

TEST(TieredIndexTest, HotOverwriteShadowsColdVersion) {
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 1 << 20;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("shadow"), opts);
  tiered.Insert(42, 1);
  tiered.Flush();
  ASSERT_EQ(tiered.Find(42), std::optional<uint64_t>(1));
  tiered.Insert(42, 2);  // Newer hot version over the disk-resident one.
  EXPECT_EQ(tiered.Find(42), std::optional<uint64_t>(2));
  tiered.Delete(42);  // Tombstone over the disk-resident version.
  EXPECT_FALSE(tiered.Find(42).has_value());
  tiered.Flush();
  EXPECT_FALSE(tiered.Find(42).has_value());
}

TEST(TieredIndexTest, BulkLoadServesFromColdRuns) {
  std::vector<uint64_t> keys(10000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i * 7 + 3;
    values[i] = i * 11;
  }
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.codec = PageCodec::kDelta;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("bulk"), opts);
  tiered.BulkLoad(keys, values);
  EXPECT_EQ(tiered.MemtableSize(), 0u);
  EXPECT_EQ(tiered.NumRunEntries(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 37) {
    ASSERT_EQ(tiered.Find(keys[i]), std::optional<uint64_t>(values[i]));
    ASSERT_FALSE(tiered.Find(keys[i] + 1).has_value());
  }
  // Updates over the bulk-loaded base follow the normal tier path.
  tiered.Insert(keys[5], 999);
  tiered.Delete(keys[6]);
  EXPECT_EQ(tiered.Find(keys[5]), std::optional<uint64_t>(999));
  EXPECT_FALSE(tiered.Find(keys[6]).has_value());
  tiered.CheckInvariants();
}

TEST(TieredIndexTest, MergedRunsFreeTheirPages) {
  // A run merged away must give its pages back as soon as no reader can
  // still see it, not dozens of migrations later: after every migration
  // the file's allocated pages are exactly the live runs' pages.
  std::vector<uint64_t> keys(400000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i * 5;
    values[i] = i;
  }
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 4096;
  opts.cold_run_limit = 4;
  opts.pool_frames = 64;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("reclaim"), opts);
  tiered.BulkLoad(keys, values);
  Rng rng(619);
  for (int migration = 0; migration < 40; ++migration) {
    for (size_t i = 0; i < opts.hot_limit; ++i) {
      tiered.Insert(rng.NextBounded(keys.size() * 5), i);
    }
    tiered.Flush();
    size_t live = 0;
    for (const auto& run : tiered.Runs()) live += run->NumPages();
    ASSERT_EQ(tiered.file()->NumPages() - tiered.file()->FreeListSize(), live)
        << "after migration " << migration;
  }
}

TEST(TieredIndexTest, DestructorWithPendingRetiredStatesIsClean) {
  // Many rapid background migrations leave retired sealed tiers and
  // layouts on the tree's epoch manager; destruction must free them while the pool and
  // file are still alive (ASan would catch the use-after-free).
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 200;
  opts.cold_run_limit = 2;
  opts.background_migration = true;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("teardown"), opts);
  Rng rng(617);
  for (int op = 0; op < 5000; ++op) {
    tiered.Insert(rng.NextBounded(10000), rng.Next());
  }
  // No Flush/WaitForCompactions: the destructor handles in-flight state.
}

TEST(TieredIndexTest, FlushWaitsOutAnInFlightMigration) {
  // Flush must empty the hot tier even while an earlier background
  // migration is still in flight: it waits that one out, then seals what
  // arrived since. Every shared-pool worker is parked so the first
  // migration stays queued until Flush is already waiting on it.
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 100;
  opts.background_migration = true;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("flush_inflight"), opts);
  // Shared with the parked workers, which may poll it after the test ends.
  struct Gate {
    std::atomic<size_t> parked{0};
    std::atomic<bool> release{false};
  };
  const auto gate = std::make_shared<Gate>();
  ThreadPool& pool = ThreadPool::Shared();
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([gate] {
      gate->parked.fetch_add(1);
      while (!gate->release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (gate->parked.load() < pool.num_threads()) std::this_thread::yield();
  // The 100th insert seals a migration that stays queued; 50 more follow.
  // (EXPECT, not ASSERT: an early return would leave the workers parked.)
  for (uint64_t key = 0; key < 150; ++key) tiered.Insert(key, key + 1);
  EXPECT_EQ(tiered.MemtableSize(), 150u);
  EXPECT_EQ(tiered.NumRunEntries(), 0u);
  std::thread releaser([gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate->release.store(true);
  });
  tiered.Flush();
  releaser.join();
  EXPECT_EQ(tiered.MemtableSize(), 0u);
  EXPECT_EQ(tiered.NumRunEntries(), 150u);
  for (uint64_t key = 0; key < 150; ++key) {
    ASSERT_EQ(tiered.Find(key), std::optional<uint64_t>(key + 1)) << key;
  }
  tiered.CheckInvariants();
}

TEST(TieredIndexTest, ColdRunsUseConfiguredCodecAndCompress) {
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 1 << 20;
  opts.codec = PageCodec::kDelta;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("codec"), opts);
  for (uint64_t key = 0; key < 50000; ++key) tiered.Insert(key * 3, key);
  tiered.Flush();
  const auto runs = tiered.Runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0]->codec(), PageCodec::kDelta);
  EXPECT_GT(runs[0]->NumPackedPages(), 0u);
  // Dense keys and rank values pack far tighter than the plain layout's
  // 239 records per page.
  EXPECT_GT(runs[0]->KeysPerPage(), 500.0);
}

}  // namespace
}  // namespace lidx
