#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "lsm/lsm_tree.h"
#include "lsm/merge.h"
#include "storage/disk_lsm_tree.h"

namespace lidx {
namespace {

using Lsm = LsmTree<uint64_t, uint64_t>;
using MemStore = MemRunStore<uint64_t, uint64_t>;
using DiskStore = storage::DiskRunStore<uint64_t, uint64_t>;

// The tree under test on run store `Store`. A disk-store tree gets its own
// page file in the gtest temp dir, deleted again with the tree.
template <typename Store>
class TestLsm : public LsmTree<uint64_t, uint64_t, Store> {
  using Base = LsmTree<uint64_t, uint64_t, Store>;

 public:
  using typename Base::Options;

  explicit TestLsm(const Options& opts = Options())
    requires(!Store::kPaged)
      : Base(opts) {}
  explicit TestLsm(const Options& opts = Options())
    requires Store::kPaged
      : Base(NextPageFile(), opts) {}

  ~TestLsm() {
    if constexpr (Store::kPaged) std::remove(this->file().path().c_str());
  }

 private:
  static std::string NextPageFile() {
    static int next = 0;
    return ::testing::TempDir() + "lidx_lsm_test_" +
           std::to_string(getpid()) + "_" + std::to_string(next++);
  }
};

// Small trees so a few thousand keys reach several levels. The disk store
// has no search-mode switch (its runs are always learned) and gets a small
// buffer pool so reads also exercise eviction.
template <typename Store = MemStore>
typename TestLsm<Store>::Options SmallOptions(RunSearchMode mode) {
  typename TestLsm<Store>::Options opts;
  opts.memtable_limit = 256;
  opts.l0_run_limit = 3;
  opts.level_size_factor = 4;
  if constexpr (Store::kPaged) {
    opts.pool_frames = 32;
  } else {
    opts.search_mode = mode;
  }
  return opts;
}

// Runs a tree-logic test body once per run store, as
// body.operator()<TestLsm<Store>>(SmallOptions<Store>(mode)) — the body
// is a lambda templated on the tree type, taking its options. The disk
// store runs only for kLearned, the one mode it has; test names stay
// those of the memory store.
template <typename Body>
void ForEachStore(RunSearchMode mode, const Body& body) {
  {
    SCOPED_TRACE("MemRunStore");
    body.template operator()<TestLsm<MemStore>>(SmallOptions<MemStore>(mode));
  }
  if (mode == RunSearchMode::kLearned) {
    SCOPED_TRACE("DiskRunStore");
    body.template operator()<TestLsm<DiskStore>>(SmallOptions<DiskStore>(mode));
  }
}

class LsmModeTest : public ::testing::TestWithParam<RunSearchMode> {};

TEST_P(LsmModeTest, PutGetAcrossCompactions) {
  ForEachStore(GetParam(), []<typename Tree>(const auto& opts) {
    Tree lsm(opts);
    const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 701);
    for (size_t i = 0; i < keys.size(); ++i) lsm.Put(keys[i], i);
    lsm.CheckInvariants();
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(lsm.Get(keys[i]), std::optional<uint64_t>(i)) << i;
    }
    // Misses.
    Rng rng(709);
    for (int probe = 0; probe < 500; ++probe) {
      const uint64_t miss = keys[rng.NextBounded(keys.size())] + 1;
      if (!std::binary_search(keys.begin(), keys.end(), miss)) {
        ASSERT_FALSE(lsm.Get(miss).has_value());
      }
    }
  });
}

TEST_P(LsmModeTest, OverwriteTakesNewest) {
  ForEachStore(GetParam(), []<typename Tree>(const auto& opts) {
    Tree lsm(opts);
    for (uint64_t k = 0; k < 5000; ++k) lsm.Put(k, k);
    for (uint64_t k = 0; k < 5000; k += 3) lsm.Put(k, k + 1000000);
    for (uint64_t k = 0; k < 5000; ++k) {
      const uint64_t expected = (k % 3 == 0) ? k + 1000000 : k;
      ASSERT_EQ(lsm.Get(k), std::optional<uint64_t>(expected)) << k;
    }
  });
}

TEST_P(LsmModeTest, DeleteShadowsAcrossLevels) {
  ForEachStore(GetParam(), []<typename Tree>(const auto& opts) {
    Tree lsm(opts);
    for (uint64_t k = 0; k < 5000; ++k) lsm.Put(k, k);
    lsm.Flush();
    for (uint64_t k = 0; k < 5000; k += 2) lsm.Delete(k);
    lsm.Flush();
    lsm.CheckInvariants();
    for (uint64_t k = 0; k < 5000; ++k) {
      if (k % 2 == 0) {
        ASSERT_FALSE(lsm.Get(k).has_value()) << k;
      } else {
        ASSERT_EQ(lsm.Get(k), std::optional<uint64_t>(k)) << k;
      }
    }
  });
}

TEST_P(LsmModeTest, FuzzAgainstStdMap) {
  ForEachStore(GetParam(), []<typename Tree>(const auto& opts) {
    Tree lsm(opts);
    std::map<uint64_t, uint64_t> ref;
    Rng rng(719);
    for (int op = 0; op < 30000; ++op) {
      const uint64_t key = rng.NextBounded(3000);
      switch (rng.NextBounded(4)) {
        case 0:
        case 1:
          lsm.Put(key, op);
          ref[key] = op;
          break;
        case 2: {
          const auto got = lsm.Get(key);
          const auto it = ref.find(key);
          ASSERT_EQ(got.has_value(), it != ref.end()) << key;
          if (got.has_value()) { ASSERT_EQ(*got, it->second); }
          break;
        }
        default:
          lsm.Delete(key);
          ref.erase(key);
      }
      if (op % 10000 == 9999) lsm.CheckInvariants();
    }
    lsm.CheckInvariants();
    for (const auto& [k, v] : ref) {
      ASSERT_EQ(lsm.Get(k), std::optional<uint64_t>(v));
    }
  });
}

TEST_P(LsmModeTest, RangeScanMergesComponents) {
  ForEachStore(GetParam(), []<typename Tree>(const auto& opts) {
    Tree lsm(opts);
    std::map<uint64_t, uint64_t> ref;
    Rng rng(727);
    for (int i = 0; i < 10000; ++i) {
      const uint64_t k = rng.NextBounded(100000);
      lsm.Put(k, i);
      ref[k] = i;
    }
    for (int i = 0; i < 2000; ++i) {
      const uint64_t k = rng.NextBounded(100000);
      lsm.Delete(k);
      ref.erase(k);
    }
    for (int trial = 0; trial < 20; ++trial) {
      const uint64_t lo = rng.NextBounded(90000);
      const uint64_t hi = lo + rng.NextBounded(10000);
      std::vector<std::pair<uint64_t, uint64_t>> got;
      lsm.RangeScan(lo, hi, &got);
      std::vector<std::pair<uint64_t, uint64_t>> expected;
      for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
           ++it) {
        expected.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(got, expected) << "range [" << lo << "," << hi << "]";
    }
  });
}

TEST_P(LsmModeTest, IngestMatchesStdMap) {
  ForEachStore(GetParam(), []<typename Tree>(const auto& opts) {
    for (const bool background : {false, true}) {
      SCOPED_TRACE(background ? "background" : "sync");
      typename Tree::Options tree_opts = opts;
      tree_opts.background_compaction = background;
      Tree lsm(tree_opts);
      std::map<uint64_t, uint64_t> ref;
      Rng rng(797);
      // A batch of n distinct keys, a quarter of them tombstones.
      const auto ingest = [&](size_t n) {
        std::map<uint64_t, RunEntry<uint64_t>> batch;
        while (batch.size() < n) {
          batch[rng.NextBounded(8000)] =
              RunEntry<uint64_t>{rng.Next(), rng.NextBounded(4) == 0};
        }
        for (const auto& [key, e] : batch) {
          if (e.deleted) {
            ref.erase(key);
          } else {
            ref[key] = e.value;
          }
        }
        lsm.Ingest(std::vector<typename Tree::KV>(batch.begin(), batch.end()));
      };
      const auto check = [&] {
        for (uint64_t key = 0; key < 8000; ++key) {
          const auto it = ref.find(key);
          const std::optional<uint64_t> want =
              it == ref.end() ? std::nullopt
                              : std::optional<uint64_t>(it->second);
          ASSERT_EQ(lsm.Get(key), want) << key;
        }
        std::vector<std::pair<uint64_t, uint64_t>> got;
        lsm.RangeScan(0, UINT64_MAX, &got);
        const std::vector<std::pair<uint64_t, uint64_t>> want_all(
            ref.begin(), ref.end());
        ASSERT_EQ(got, want_all);
      };
      // Into an empty tree, larger than the memtable: one bottom run, its
      // tombstones already dropped.
      ingest(opts.memtable_limit * 5);
      EXPECT_EQ(lsm.NumRuns(), 1u);
      EXPECT_EQ(lsm.NumRunEntries(), ref.size());
      check();
      // Interleaved with Put/Delete (the memtable is older than a batch),
      // batches both within and past the memtable limit.
      for (int round = 0; round < 40; ++round) {
        for (int op = 0; op < 150; ++op) {
          const uint64_t key = rng.NextBounded(8000);
          if (rng.NextBounded(3) == 0) {
            lsm.Delete(key);
            ref.erase(key);
          } else {
            lsm.Put(key, key + static_cast<uint64_t>(round));
            ref[key] = key + static_cast<uint64_t>(round);
          }
        }
        ingest(round % 3 == 0
                   ? opts.memtable_limit + 1 + rng.NextBounded(800)
                   : 1 + rng.NextBounded(opts.memtable_limit));
        if (round % 10 == 9) check();
      }
      lsm.WaitForCompactions();
      lsm.CheckInvariants();
      check();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, LsmModeTest,
                         ::testing::Values(RunSearchMode::kBinarySearch,
                                           RunSearchMode::kLearned),
                         [](const auto& info) {
                           return info.param == RunSearchMode::kLearned
                                      ? "learned"
                                      : "binary";
                         });

TEST(LsmTest, LearnedModeUsesFewerSearchSteps) {
  // The BOURBON claim: per-run learned models shrink the in-run search.
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 50000, 733);
  Lsm learned(SmallOptions(RunSearchMode::kLearned));
  Lsm binary(SmallOptions(RunSearchMode::kBinarySearch));
  for (size_t i = 0; i < keys.size(); ++i) {
    learned.Put(keys[i], i);
    binary.Put(keys[i], i);
  }
  learned.Flush();
  binary.Flush();
  LsmStats learned_stats;
  LsmStats binary_stats;
  Rng rng(739);
  for (int probe = 0; probe < 5000; ++probe) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    learned.Get(k, &learned_stats);
    binary.Get(k, &binary_stats);
  }
  ASSERT_GT(binary_stats.search_steps, 0u);
  EXPECT_LT(learned_stats.search_steps, binary_stats.search_steps / 2);
}

TEST(LsmTest, BloomCutsRunProbes) {
  Lsm lsm(SmallOptions(RunSearchMode::kLearned));
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 743);
  for (size_t i = 0; i < keys.size(); ++i) lsm.Put(keys[i], i);
  lsm.Flush();
  LsmStats stats;
  Rng rng(751);
  for (int probe = 0; probe < 2000; ++probe) {
    lsm.Get(keys[rng.NextBounded(keys.size())] + 1, &stats);  // Mostly misses.
  }
  EXPECT_GT(stats.bloom_rejects, stats.run_probes * 5);
}

TEST(LsmTest, CompactionReducesRunCount) {
  Lsm::Options opts = SmallOptions(RunSearchMode::kLearned);
  Lsm lsm(opts);
  for (uint64_t k = 0; k < 50000; ++k) lsm.Put(k, k);
  lsm.Flush();
  // L0 is bounded by the run limit; the rest must have been compacted.
  EXPECT_LE(lsm.NumRuns(), opts.l0_run_limit + lsm.NumLevels() + 1);
}

TEST(LsmTest, ModelBytesOnlyInLearnedMode) {
  Lsm learned(SmallOptions(RunSearchMode::kLearned));
  Lsm binary(SmallOptions(RunSearchMode::kBinarySearch));
  for (uint64_t k = 0; k < 5000; ++k) {
    learned.Put(k * 7, k);
    binary.Put(k * 7, k);
  }
  learned.Flush();
  binary.Flush();
  EXPECT_GT(learned.ModelSizeBytes(), 0u);
  EXPECT_EQ(binary.ModelSizeBytes(), 0u);
}

TEST(LsmTest, EmptyTreeBehaves) {
  ForEachStore(RunSearchMode::kLearned, []<typename Tree>(const auto&) {
    Tree lsm;
    EXPECT_FALSE(lsm.Get(5).has_value());
    std::vector<std::pair<uint64_t, uint64_t>> out;
    lsm.RangeScan(0, 100, &out);
    EXPECT_TRUE(out.empty());
    lsm.Flush();  // No-op.
    EXPECT_EQ(lsm.NumRuns(), 0u);
  });
}

TEST(LsmTest, DeleteOfAbsentKeyHarmless) {
  Lsm lsm(SmallOptions(RunSearchMode::kLearned));
  lsm.Delete(42);
  lsm.Put(43, 1);
  EXPECT_FALSE(lsm.Get(42).has_value());
  EXPECT_EQ(lsm.Get(43), std::optional<uint64_t>(1));
}

TEST(LsmTest, TombstonesDropOnceTheDeepestLevelEmpties) {
  // A cascade whose deletes empty the deepest level leaves that slot
  // empty; later compactions into L1 are then at the bottom and must drop
  // their tombstones instead of keeping runs that shadow nothing.
  ForEachStore(RunSearchMode::kLearned, []<typename Tree>(const auto& opts) {
    Tree lsm(opts);
    const uint64_t n = 5000;
    for (uint64_t k = 0; k < n; ++k) lsm.Put(k, k);
    lsm.Flush();
    ASSERT_GE(lsm.NumLevels(), 2u);
    ASSERT_GT(lsm.NumRuns(), 1u);
    // Delete every key, then keep deleting absent ones until the cascade
    // has carried the tombstones to the deepest level and emptied it.
    uint64_t next = 0;
    while (next < n || lsm.NumRuns() != 0) {
      ASSERT_LT(next, 20 * n) << "cascade never emptied the tree";
      lsm.Delete(next++);
    }
    // One more compaction's worth of tombstone-only flushes.
    for (size_t i = 0; i < (opts.l0_run_limit + 1) * opts.memtable_limit;
         ++i) {
      lsm.Delete(next++);
    }
    lsm.CheckInvariants();
    EXPECT_EQ(lsm.NumRuns(), 0u);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    lsm.RangeScan(0, UINT64_MAX, &out);
    EXPECT_TRUE(out.empty());
  });
}

// ----- Parallel & background compaction -----

TEST(LsmTest, ParallelCompactionThreadsProduceIdenticalContents) {
  // The range-partitioned merge is byte-identical to the serial merge, so
  // the whole tree must agree with the serial tree after any mix.
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 30000, 757);
  Lsm::Options serial_opts = SmallOptions(RunSearchMode::kLearned);
  Lsm::Options par_opts = serial_opts;
  par_opts.compaction_threads = 8;
  Lsm serial(serial_opts);
  Lsm parallel(par_opts);
  for (size_t i = 0; i < keys.size(); ++i) {
    serial.Put(keys[i], i);
    parallel.Put(keys[i], i);
    if (i % 7 == 0) {
      serial.Delete(keys[i / 2]);
      parallel.Delete(keys[i / 2]);
    }
  }
  serial.Flush();
  parallel.Flush();
  serial.CheckInvariants();
  parallel.CheckInvariants();
  std::vector<std::pair<uint64_t, uint64_t>> a, b;
  serial.RangeScan(0, UINT64_MAX, &a);
  parallel.RangeScan(0, UINT64_MAX, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(serial.NumRuns(), parallel.NumRuns());
  EXPECT_EQ(serial.NumLevels(), parallel.NumLevels());
}

TEST(LsmTest, BackgroundCompactionMatchesSyncContents) {
  ForEachStore(RunSearchMode::kLearned, []<typename Tree>(const auto& opts) {
    const auto keys = GenerateKeys(KeyDistribution::kUniform, 40000, 761);
    typename Tree::Options bg_opts = opts;
    bg_opts.background_compaction = true;
    Tree sync_tree(opts);
    Tree bg_tree(bg_opts);
    for (size_t i = 0; i < keys.size(); ++i) {
      sync_tree.Put(keys[i], i);
      bg_tree.Put(keys[i], i);
      if (i % 11 == 0) {
        sync_tree.Delete(keys[i]);
        bg_tree.Delete(keys[i]);
      }
      if (i % 5000 == 0) bg_tree.CheckInvariants();  // Mid-churn.
    }
    sync_tree.Flush();
    bg_tree.Flush();
    bg_tree.WaitForCompactions();
    bg_tree.CheckInvariants();
    std::vector<std::pair<uint64_t, uint64_t>> a, b;
    sync_tree.RangeScan(0, UINT64_MAX, &a);
    bg_tree.RangeScan(0, UINT64_MAX, &b);
    EXPECT_EQ(a, b);
    // Reads during churn see every written key.
    Rng rng(769);
    for (int probe = 0; probe < 1000; ++probe) {
      const size_t i = rng.NextBounded(keys.size());
      EXPECT_EQ(bg_tree.Get(keys[i]), sync_tree.Get(keys[i]));
    }
  });
}

TEST(LsmTest, CompactionModeCountersAreExclusive) {
  ForEachStore(RunSearchMode::kLearned, []<typename Tree>(const auto& opts) {
    const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 773);
    {
      Tree lsm(opts);
      for (size_t i = 0; i < keys.size(); ++i) lsm.Put(keys[i], i);
      lsm.Flush();
      EXPECT_GT(lsm.inline_compactions(), 0u);
      EXPECT_EQ(lsm.background_compactions(), 0u);
    }
    {
      typename Tree::Options bg_opts = opts;
      bg_opts.background_compaction = true;
      Tree lsm(bg_opts);
      for (size_t i = 0; i < keys.size(); ++i) lsm.Put(keys[i], i);
      lsm.Flush();
      lsm.WaitForCompactions();
      EXPECT_EQ(lsm.inline_compactions(), 0u);
      EXPECT_GT(lsm.background_compactions(), 0u);
    }
  });
}

TEST(LsmTest, BackgroundModeCutsPutLatencyTail) {
  // The insert-stall fix: with compaction off the writer thread, the p99
  // Put must beat the worst synchronous Put, which pays for a full
  // multi-level merge. p99 (not max) keeps the assertion robust: flush
  // Puts (~0.4% of Puts at memtable 256) still drain the memtable inline.
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 60000, 787);
  const auto run_with = [&](bool background, std::vector<double>* lat) {
    Lsm::Options opts = SmallOptions(RunSearchMode::kLearned);
    opts.background_compaction = background;
    Lsm lsm(opts);
    lat->reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      Timer t;
      lsm.Put(keys[i], i);
      lat->push_back(static_cast<double>(t.ElapsedNanos()));
    }
    lsm.WaitForCompactions();
    lsm.CheckInvariants();
  };
  std::vector<double> sync_lat, bg_lat;
  run_with(false, &sync_lat);
  run_with(true, &bg_lat);
  const double max_sync = *std::max_element(sync_lat.begin(), sync_lat.end());
  const size_t p99_rank = bg_lat.size() * 99 / 100;
  std::nth_element(bg_lat.begin(), bg_lat.begin() + p99_rank, bg_lat.end());
  const double p99_bg = bg_lat[p99_rank];
  EXPECT_LT(p99_bg, max_sync)
      << "background p99 " << p99_bg << " vs sync max " << max_sync;
}

TEST(LsmTest, BackgroundBacklogStaysBounded) {
  ForEachStore(RunSearchMode::kLearned, []<typename Tree>(const auto& opts) {
    typename Tree::Options bg_opts = opts;
    bg_opts.background_compaction = true;
    bg_opts.max_pending_compactions = 1;
    Tree lsm(bg_opts);
    // Hammer inserts far faster than one worker can merge; the bounded
    // queue must keep L0 within its allowance the whole time (the invariant
    // checker enforces the bound under the lock).
    for (uint64_t k = 0; k < 100000; ++k) {
      lsm.Put(k * 2654435761u, k);
      if (k % 10000 == 0) lsm.CheckInvariants();
    }
    lsm.Flush();
    lsm.WaitForCompactions();
    lsm.CheckInvariants();
  });
}

// ---------------------------------------------------------------------
// lsm/merge.h: the borrowed read-side merge against a newest-wins oracle
// ---------------------------------------------------------------------

using Entries = std::vector<std::pair<uint64_t, RunEntry<uint64_t>>>;
using Rows = std::vector<std::pair<uint64_t, uint64_t>>;

// Live rows of newest-first `streams` over the oldest plain `rows`, by
// replaying every level oldest first into a std::map.
Rows NewestWinsOracle(const std::vector<Entries>& streams, const Rows& rows) {
  std::map<uint64_t, std::optional<uint64_t>> newest;
  for (const auto& [k, v] : rows) newest[k] = v;
  for (auto it = streams.rbegin(); it != streams.rend(); ++it) {
    for (const auto& [k, e] : *it) newest[k] = LiveValue(e);
  }
  Rows live;
  for (const auto& [k, v] : newest) {
    if (v.has_value()) live.emplace_back(k, *v);
  }
  return live;
}

// Runs MergeLive over borrowed views of `streams` and `rows`, appending to
// a copy of `prefix`.
Rows MergeLiveInto(const std::vector<Entries>& streams, const Rows& rows,
                   Rows prefix) {
  std::vector<EntrySpan<uint64_t, uint64_t>> spans(streams.begin(),
                                                   streams.end());
  MergeLive<uint64_t, uint64_t>(spans, rows, &prefix);
  return prefix;
}

// Runs MergeColumns over `rows` split into a key and a value column.
RowColumns<uint64_t, uint64_t> MergeColumnsOf(const Entries& delta,
                                              const Rows& rows) {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (const auto& [k, v] : rows) {
    keys.push_back(k);
    values.push_back(v);
  }
  return MergeColumns<uint64_t, uint64_t>(delta, keys, values);
}

// The rows of parallel key and value columns.
Rows Zip(const RowColumns<uint64_t, uint64_t>& columns) {
  EXPECT_EQ(columns.keys.size(), columns.values.size());
  Rows rows;
  for (size_t i = 0; i < columns.keys.size(); ++i) {
    rows.emplace_back(columns.keys[i], columns.values[i]);
  }
  return rows;
}

// Sorted unique keys below `key_space`, each a tombstone with probability
// `tombstone_frac`; the value tags the stream so the winner is visible.
Entries RandomEntries(Rng* rng, uint64_t key_space, size_t n,
                      double tombstone_frac, uint64_t tag) {
  std::map<uint64_t, RunEntry<uint64_t>> picked;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = rng->NextBounded(key_space);
    picked[k] = RunEntry<uint64_t>{k * 100 + tag,
                                   rng->NextDouble() < tombstone_frac};
  }
  return Entries(picked.begin(), picked.end());
}

TEST(MergeTest, MatchesNewestWinsOracleOnRandomStreams) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const uint64_t key_space = 1 + rng.NextBounded(200);
    const size_t num_streams = rng.NextBounded(6);
    std::vector<Entries> streams;
    for (size_t r = 0; r < num_streams; ++r) {
      // Mix of empty, sparse, dense and all-tombstone streams.
      const double tombstone_frac =
          rng.NextBounded(5) == 0 ? 1.0 : rng.NextDouble() * 0.5;
      streams.push_back(RandomEntries(&rng, key_space, rng.NextBounded(60),
                                      tombstone_frac, r + 1));
    }
    Rows rows;
    if (rng.NextBounded(3) != 0) {
      for (const auto& [k, e] :
           RandomEntries(&rng, key_space, rng.NextBounded(120), 0.0, 0)) {
        rows.emplace_back(k, e.value);
      }
    }
    Rows prefix;
    for (uint64_t i = rng.NextBounded(3); i > 0; --i) {
      prefix.emplace_back(i, i);
    }
    Rows want = prefix;
    const Rows live = NewestWinsOracle(streams, rows);
    want.insert(want.end(), live.begin(), live.end());
    ASSERT_EQ(MergeLiveInto(streams, rows, prefix), want) << "trial " << trial;
    // The columnar rebuild merge agrees on a one-stream merge and sizes
    // its columns exactly.
    if (!streams.empty()) {
      const RowColumns<uint64_t, uint64_t> merged =
          MergeColumnsOf(streams.front(), rows);
      EXPECT_EQ(Zip(merged), NewestWinsOracle({streams.front()}, rows))
          << "trial " << trial;
      EXPECT_EQ(merged.keys.capacity(), merged.keys.size())
          << "trial " << trial;
    }

    // The run-building merge (drains and compactions) agrees on the entry
    // streams alone once its tombstones are elided.
    Rows owning;
    const std::vector<EntrySpan<uint64_t, uint64_t>> spans(streams.begin(),
                                                           streams.end());
    for (const auto& [k, e] :
         MergeStreams<uint64_t, uint64_t>(spans, /*threads=*/1)) {
      if (!e.deleted) owning.emplace_back(k, e.value);
    }
    EXPECT_EQ(owning, NewestWinsOracle(streams, {})) << "trial " << trial;
  }
}

TEST(MergeTest, EmptyStreams) {
  const Rows rows = {{1, 10}, {5, 50}};
  EXPECT_TRUE(MergeLiveInto({}, {}, {}).empty());
  EXPECT_TRUE(MergeLiveInto({Entries{}, Entries{}}, {}, {}).empty());
  EXPECT_EQ(MergeLiveInto({}, rows, {}), rows);
  EXPECT_EQ(MergeLiveInto({Entries{}, Entries{}}, rows, {}), rows);
}

TEST(MergeTest, AllTombstoneStreamsHideEveryOlderRow) {
  const Entries newer = {{1, {0, true}}, {3, {0, true}}};
  const Entries older = {{3, {30, false}}, {5, {0, true}}, {7, {0, true}}};
  const Rows rows = {{1, 10}, {2, 20}, {5, 50}, {7, 70}};
  EXPECT_EQ(MergeLiveInto({newer, older}, rows, {}), (Rows{{2, 20}}));
  EXPECT_TRUE(MergeLiveInto({newer, older}, {}, {}).empty());
}

TEST(MergeTest, KeyInEveryStreamTakesTheNewest) {
  const Entries s0 = {{4, {400, false}}};
  const Entries s1 = {{2, {21, false}}, {4, {401, false}}};
  const Entries s2 = {{4, {0, true}}, {9, {92, false}}};
  const Rows rows = {{4, 403}, {9, 93}};
  EXPECT_EQ(MergeLiveInto({s0, s1, s2}, rows, {}),
            (Rows{{2, 21}, {4, 400}, {9, 92}}));
  // A tombstone in the newest stream hides the key at every older level.
  const Entries dead = {{4, {0, true}}};
  EXPECT_EQ(MergeLiveInto({dead, s0, s1, s2}, rows, {}),
            (Rows{{2, 21}, {9, 92}}));
}

TEST(MergeTest, PlainRowsAreTheOldestStream) {
  // Rows pass through around, before and after the entries; an entry at a
  // row's key replaces it.
  const Entries entries = {{3, {33, false}}, {6, {0, true}}};
  const Rows rows = {{1, 1}, {3, 3}, {4, 4}, {6, 6}, {8, 8}, {9, 9}};
  EXPECT_EQ(MergeLiveInto({entries}, rows, {}),
            (Rows{{1, 1}, {3, 33}, {4, 4}, {8, 8}, {9, 9}}));
}

TEST(MergeTest, AppendsAfterRowsAlreadyInOut) {
  const Entries entries = {{20, {200, false}}, {30, {0, true}}};
  const Rows rows = {{10, 1}, {30, 3}};
  const Rows prefix = {{99, 9}, {1, 1}};  // Earlier output, any order.
  EXPECT_EQ(MergeLiveInto({entries}, rows, prefix),
            (Rows{{99, 9}, {1, 1}, {10, 1}, {20, 200}}));
}

// MergeColumns against the oracle on random snapshots and deltas of every
// density, from a few deltas in a large column (the rebuild's shape, where
// galloping skips long stretches) to deltas larger than the column. The
// output is the oracle's rows, and both columns are reserved to exactly
// their size.
TEST(MergeTest, MergeColumnsMatchesOracleOnRandomInputs) {
  Rng rng(79);
  for (int trial = 0; trial < 400; ++trial) {
    const uint64_t key_space = 1 + rng.NextBounded(5000);
    Rows rows;
    for (const auto& [k, e] : RandomEntries(
             &rng, key_space, rng.NextBounded(4000), /*tombstone_frac=*/0.0,
             /*tag=*/0)) {
      rows.emplace_back(k, e.value);
    }
    const size_t max_delta = rng.NextBounded(3) == 0 ? 3000 : 40;
    const Entries delta = RandomEntries(&rng, key_space,
                                        rng.NextBounded(max_delta),
                                        rng.NextDouble(), /*tag=*/1);
    const RowColumns<uint64_t, uint64_t> merged = MergeColumnsOf(delta, rows);
    ASSERT_EQ(Zip(merged), NewestWinsOracle({delta}, rows))
        << "trial " << trial;
    EXPECT_EQ(merged.keys.capacity(), merged.keys.size()) << "trial " << trial;
    EXPECT_EQ(merged.values.capacity(), merged.values.size())
        << "trial " << trial;
  }
}

TEST(MergeTest, MergeColumnsEdgeCases) {
  const Rows rows = {{10, 1}, {20, 2}, {30, 3}, {40, 4}};
  const auto expect_merge = [](const Entries& delta, const Rows& base,
                               const Rows& want) {
    const RowColumns<uint64_t, uint64_t> merged = MergeColumnsOf(delta, base);
    EXPECT_EQ(Zip(merged), want);
    EXPECT_EQ(merged.keys.capacity(), merged.keys.size());
    EXPECT_EQ(merged.values.capacity(), merged.values.size());
  };
  // An empty column, an empty delta, and both.
  expect_merge({}, {}, {});
  expect_merge({}, rows, rows);
  expect_merge({{5, {50, false}}, {7, {0, true}}}, {}, {{5, 50}});
  // Tombstones on the column's first and last keys.
  expect_merge({{10, {0, true}}, {40, {0, true}}}, rows, {{20, 2}, {30, 3}});
  // Tombstones of absent keys, below, between and above the column.
  expect_merge({{1, {0, true}}, {25, {0, true}}, {99, {0, true}}}, rows,
               rows);
  // Fresh keys below and above the column, and an update in between.
  expect_merge({{1, {11, false}}, {20, {22, false}}, {50, {55, false}}}, rows,
               {{1, 11}, {10, 1}, {20, 22}, {30, 3}, {40, 4}, {50, 55}});
  // Every row deleted.
  expect_merge({{10, {0, true}}, {20, {0, true}}, {30, {0, true}},
                {40, {0, true}}},
               rows, {});
}

}  // namespace
}  // namespace lidx
