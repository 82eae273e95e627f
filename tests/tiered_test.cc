// TieredIndex tests: the hot updatable tier over cold compressed runs.
// Fuzzed against std::map across codecs and migration modes; plus targeted
// coverage of sealing visibility, tombstone compaction, bulk load, page
// reclamation, and teardown with retired states.

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
        tiered.Erase(key);
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
  tiered.WaitForMigration();
  tiered.CheckInvariants();
  CheckAgainstMap(tiered, want, kKeySpace);
  // Everything findable after forcing the remaining hot span to disk too.
  tiered.FlushHot();
  tiered.CheckInvariants();
  EXPECT_EQ(tiered.HotSize(), 0u);
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
  tiered.FlushHot();
  ASSERT_EQ(tiered.ColdSize(), 2000u);
  // Erase half; after the merge-all the tombstones must not survive in
  // the (single, bottom) run.
  for (uint64_t key = 0; key < 2000; key += 2) tiered.Erase(key);
  tiered.FlushHot();
  ASSERT_EQ(tiered.ColdRuns().size(), 1u);
  EXPECT_EQ(tiered.ColdSize(), 1000u);
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
  tiered.FlushHot();
  ASSERT_EQ(tiered.Find(42), std::optional<uint64_t>(1));
  tiered.Insert(42, 2);  // Newer hot version over the disk-resident one.
  EXPECT_EQ(tiered.Find(42), std::optional<uint64_t>(2));
  tiered.Erase(42);  // Tombstone over the disk-resident version.
  EXPECT_FALSE(tiered.Find(42).has_value());
  tiered.FlushHot();
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
  EXPECT_EQ(tiered.HotSize(), 0u);
  EXPECT_EQ(tiered.ColdSize(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 37) {
    ASSERT_EQ(tiered.Find(keys[i]), std::optional<uint64_t>(values[i]));
    ASSERT_FALSE(tiered.Find(keys[i] + 1).has_value());
  }
  // Updates over the bulk-loaded base follow the normal tier path.
  tiered.Insert(keys[5], 999);
  tiered.Erase(keys[6]);
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
    tiered.FlushHot();
    size_t live = 0;
    for (const auto& run : tiered.ColdRuns()) live += run->NumPages();
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
  // No FlushHot/WaitForMigration: the destructor handles in-flight state.
}

TEST(TieredIndexTest, ColdRunsUseConfiguredCodecAndCompress) {
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 1 << 20;
  opts.codec = PageCodec::kDelta;
  TieredIndex<uint64_t, uint64_t> tiered(FreshFile("codec"), opts);
  for (uint64_t key = 0; key < 50000; ++key) tiered.Insert(key * 3, key);
  tiered.FlushHot();
  const auto runs = tiered.ColdRuns();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0]->codec(), PageCodec::kDelta);
  EXPECT_GT(runs[0]->NumPackedPages(), 0u);
  // Dense keys and rank values pack far tighter than the plain layout's
  // 239 records per page.
  EXPECT_GT(runs[0]->KeysPerPage(), 500.0);
}

}  // namespace
}  // namespace lidx
