// Sanitizer-targeted stress tests. These exist primarily for the TSan CI
// leg: they hammer the XIndex-shaped sharded index (lock-free readers over
// epoch-retired shard states) and the multi-threaded throughput harness
// with mixed readers, writers, erasers, range scanners, and concurrent
// invariant checkers, so data races in the publication protocol surface as
// sanitizer reports rather than rare corruption. Under plain builds they
// double as correctness smoke tests.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/serving_adapter.h"
#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "datasets/generators.h"
#include "common/epoch.h"
#include "lsm/lsm_tree.h"
#include "lsm/run.h"
#include "one_d/tiered_index.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/pgm.h"
#include "one_d/radix_spline.h"
#include "one_d/rmi.h"
#include "serving/sharded_index.h"
#include "storage/disk_lsm_tree.h"

namespace lidx {
namespace {

// XIndex-shaped: range shards of frozen PGM snapshots, each with a bounded
// delta that is merged into a fresh snapshot on the writer once it reaches
// `delta_limit` entries.
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

// Readers, writers, erasers, range scanners, and invariant checkers all
// running at once. The checker is lock-free like the readers, so it is
// legal mid-churn; any publication bug shows up as a TSan report or an
// invariant abort.
TEST(StressTest, MixedOpsWithConcurrentInvariantChecks) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 907);
  // A small delta means frequent compactions under churn.
  Index index(XIndexOptions(/*num_shards=*/8, /*delta_limit=*/128));
  index.BulkLoad(keys, Ranks(keys.size()));

  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Writers.
      Rng rng(911 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t k = rng.Next() >> 8;
        index.Insert(k, k + 1);
      }
    });
  }
  threads.emplace_back([&] {  // Eraser over its own key space.
    Rng rng(919);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const uint64_t k = rng.Next() >> 8;
      index.Insert(k, k + 1);
      index.Erase(k);
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Point readers over bulk keys.
      Rng rng(929 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t j = rng.NextBounded(keys.size());
        const auto got = index.Find(keys[j]);
        // Bulk keys are overwritten (k -> k+1) but never erased here, so a
        // miss or an unexpected value is a torn read.
        if (!got.has_value() || (*got != j && *got != keys[j] + 1)) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Range scanner.
    Rng rng(937);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t lo = keys[rng.NextBounded(keys.size())];
      std::vector<std::pair<uint64_t, uint64_t>> out;
      index.RangeScan(lo, lo + (1ull << 40), &out);
      for (size_t i = 1; i < out.size(); ++i) {
        if (out[i - 1].first >= out[i].first) bad_reads.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&] {  // Concurrent structural checker.
    while (!stop.load(std::memory_order_relaxed)) {
      index.CheckInvariants();
    }
  });

  // First three threads are the bounded writers/eraser; join them, then
  // stop the unbounded readers/checker.
  for (int t = 0; t < 3; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(bad_reads.load(), 0u);
  index.CheckInvariants();
}

// Drives the benchmark throughput harness itself with a mixed workload, so
// the TSan leg covers the exact thread-spawning path the benchmarks use.
TEST(StressTest, ThroughputHarnessMixedReadersWriters) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 10000, 941);
  Index index(XIndexOptions(/*num_shards=*/8, /*delta_limit=*/256));
  index.BulkLoad(keys, Ranks(keys.size()));

  std::atomic<size_t> misses{0};
  const double mops = bench::MeasureThroughputMops(
      /*num_threads=*/4, /*batch_size=*/64, /*total_ops=*/40000,
      [&](size_t start, size_t count) {
        for (size_t j = 0; j < count; ++j) {
          const size_t op = start + j;
          const uint64_t k = keys[op % keys.size()];
          switch (op % 4) {
            case 0:
              index.Insert(k + 1, op);
              break;
            case 1:
              // Guard: k + 1 may itself be a bulk key if two bulk keys are
              // adjacent; never erase those.
              if (!std::binary_search(keys.begin(), keys.end(), k + 1)) {
                index.Erase(k + 1);
              }
              break;
            default:
              if (!index.Find(k).has_value()) misses.fetch_add(1);
          }
        }
      });
  EXPECT_GT(mops, 0.0);
  // Bulk keys are never erased (only k+1 shadows churn), so every Find
  // must hit.
  EXPECT_EQ(misses.load(), 0u);
  index.CheckInvariants();
}

// Many checkers in parallel: CheckInvariants must be reentrant and must not
// write anything (epoch pins only).
TEST(StressTest, ParallelInvariantCheckers) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 947);
  Index index(XIndexOptions());
  index.BulkLoad(keys, Ranks(keys.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) index.CheckInvariants();
    });
  }
  for (auto& t : threads) t.join();
}

TEST(StressTest, ThreadPoolConcurrentClients) {
  // Several client threads drive ParallelFor / ParallelSort on the shared
  // pool at once — the work-sharing protocol (atomic chunk claims, condvar
  // completion) must hold under contention and TSan.
  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<size_t> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &failures] {
      Rng rng(1000 + c);
      for (int round = 0; round < 10; ++round) {
        std::vector<uint64_t> data(20'000);
        for (uint64_t& v : data) v = rng.Next();
        std::vector<uint64_t> expected = data;
        std::sort(expected.begin(), expected.end());
        ParallelSort(4, &data);
        if (data != expected) failures.fetch_add(1);
        std::atomic<size_t> covered{0};
        ParallelForIndex(4, 10'000, [&](size_t) { covered.fetch_add(1); });
        if (covered.load() != 10'000) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

// Batched AMAC lookups racing structural invariant checkers on the
// immutable learned indexes. Both sides are logically read-only, so any
// TSan report means hidden shared mutable state — a stats counter, lazily
// materialized structure, or the SIMD dispatch table's first-use
// initialization (several threads hit the function-local static at once
// here).
TEST(StressTest, LookupBatchConcurrentWithInvariantCheckers) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 50000, 953);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i + 1;
  Rmi<uint64_t, uint64_t> rmi;
  rmi.Build(keys, values);
  PgmIndex<uint64_t, uint64_t> pgm;
  pgm.Build(keys, values);
  RadixSpline<uint64_t, uint64_t> rs;
  rs.Build(keys, values);

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Batched readers.
      Rng rng(961 + t);
      std::vector<uint64_t> queries(256);
      std::vector<uint64_t> out(queries.size());
      for (int round = 0; round < 200; ++round) {
        for (auto& q : queries) {
          const size_t j = rng.NextBounded(keys.size());
          q = (rng.Next() % 4 == 0) ? keys[j] + 1 : keys[j];
        }
        rmi.LookupBatch(queries.data(), queries.size(), out.data());
        for (size_t i = 0; i < queries.size(); ++i) {
          if (out[i] != rmi.Find(queries[i]).value_or(0)) bad_reads.fetch_add(1);
        }
        pgm.LookupBatch(queries.data(), queries.size(), out.data());
        for (size_t i = 0; i < queries.size(); ++i) {
          if (out[i] != pgm.Find(queries[i]).value_or(0)) bad_reads.fetch_add(1);
        }
        rs.LookupBatch(queries.data(), queries.size(), out.data());
        for (size_t i = 0; i < queries.size(); ++i) {
          if (out[i] != rs.Find(queries[i]).value_or(0)) bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Structural checkers.
    while (!stop.load(std::memory_order_relaxed)) {
      rmi.CheckInvariants();
      pgm.CheckInvariants();
      rs.CheckInvariants();
    }
  });

  for (int t = 0; t < 2; ++t) threads[t].join();
  stop.store(true);
  threads[2].join();
  EXPECT_EQ(bad_reads.load(), 0u);
}

TEST(StressTest, LsmBackgroundCompactionChurn) {
  // The client thread floods the tree with puts/gets/deletes/invariant
  // checks while pool workers flush and compact underneath — the TSan
  // probe for the layout snapshot-and-install protocol from the writer's
  // side. (LsmWriterRacesReaders adds reader threads.)
  LsmTree<uint64_t, uint64_t>::Options opts;
  opts.memtable_limit = 128;
  opts.l0_run_limit = 2;
  opts.level_size_factor = 4;
  opts.background_compaction = true;
  LsmTree<uint64_t, uint64_t> lsm(opts);
  Rng rng(7777);
  for (uint64_t k = 0; k < 30'000; ++k) {
    const uint64_t key = rng.Next() | 1u;
    lsm.Put(key, k);
    if (k % 3 == 0) lsm.Get(key);
    if (k % 97 == 0) lsm.Delete(key);
    if (k % 512 == 0) lsm.CheckInvariants();
  }
  lsm.Flush();
  lsm.WaitForCompactions();
  lsm.CheckInvariants();
}

// Readers on three threads race one ingesting thread and the background
// compactions it triggers — the TSan probe for the epoch-published run
// layout. Every version of a key carries the same value, so a reader sees
// either that value or (for a key a batch may delete) nothing; the base
// keys are never deleted and must always be found.
TEST(StressTest, DiskLsmReadersRaceIngestAndCompaction) {
  using Tree = storage::DiskLsmTree<uint64_t, uint64_t>;
  Tree::Options opts;
  opts.memtable_limit = 256;
  opts.l0_run_limit = 2;
  opts.level_size_factor = 4;
  opts.pool_frames = 64;
  opts.background_compaction = true;
  const std::string path =
      std::string(::testing::TempDir()) + "lidx_stress_disk_lsm";
  std::remove(path.c_str());
  Tree tree(path, opts);
  constexpr uint64_t kKeys = 16000;
  const auto value_of = [](uint64_t key) { return key * 3 + 1; };
  const auto is_base = [](uint64_t key) { return key % 4 == 0; };
  std::vector<Tree::KV> base;
  for (uint64_t key = 0; key < kKeys; key += 4) {
    base.emplace_back(key, RunEntry<uint64_t>{value_of(key), false});
  }
  tree.Ingest(std::move(base));

  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // The ingesting thread.
    Rng rng(1039);
    for (int b = 0; b < 300; ++b) {
      // Mostly L0-sized batches; every 25th is past the memtable limit
      // and merges straight into the levels.
      const size_t n = b % 25 == 24 ? 1000 : 1 + rng.NextBounded(256);
      std::map<uint64_t, RunEntry<uint64_t>> batch;
      while (batch.size() < n) {
        const uint64_t key = rng.NextBounded(kKeys);
        const bool erase = !is_base(key) && rng.NextBounded(3) == 0;
        batch[key] = RunEntry<uint64_t>{erase ? 0 : value_of(key), erase};
      }
      tree.Ingest(std::vector<Tree::KV>(batch.begin(), batch.end()));
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Point readers.
      Rng rng(1049 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = rng.NextBounded(kKeys);
        const std::optional<uint64_t> got = tree.Get(key);
        if (got.has_value() ? *got != value_of(key) : is_base(key)) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Range scanner.
    Rng rng(1051);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t lo = rng.NextBounded(kKeys - 400);
      std::vector<std::pair<uint64_t, uint64_t>> out;
      tree.RangeScan(lo, lo + 399, &out);
      size_t base_seen = 0;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0 && out[i - 1].first >= out[i].first) bad_reads.fetch_add(1);
        if (out[i].second != value_of(out[i].first)) bad_reads.fetch_add(1);
        if (is_base(out[i].first)) ++base_seen;
      }
      if (base_seen != 100) bad_reads.fetch_add(1);
    }
  });

  threads[0].join();  // The bounded ingester.
  stop.store(true);
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
  tree.WaitForCompactions();
  tree.CheckInvariants();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(tree.background_compactions(), 0u);
  for (uint64_t key = 0; key < kKeys; key += 4) {
    ASSERT_EQ(tree.Get(key), std::optional<uint64_t>(value_of(key))) << key;
  }
}

// Sharded serving engine under a full mixed load: writers, an eraser on a
// private key range, point readers, a cross-shard range scanner, and a
// structural checker, with background drains rebuilding snapshots on the
// shared pool throughout. This is the TSan probe for the epoch pin/retire
// protocol and the release-published append buffers.
TEST(StressTest, ShardedIndexMixedOpsWithBackgroundDrains) {
  using Sharded = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 20000, 907);
  Sharded::Options opts;
  opts.num_shards = 8;
  opts.buffer_capacity = 32;     // Constant seal/drain churn.
  opts.rebuild_min_delta = 512;  // Frequent snapshot rebuilds.
  opts.background_drain = true;
  Sharded index(opts);
  index.BulkLoad(keys, Ranks(keys.size()));

  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Writers over the bulk keys.
      Rng rng(911 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t k = keys[rng.NextBounded(keys.size())];
        index.Insert(k, k + 1);
      }
    });
  }
  threads.emplace_back([&] {  // Eraser over its own fresh key space.
    Rng rng(919);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const uint64_t k = keys.back() + 1 + rng.NextBounded(1u << 20);
      index.Insert(k, k + 1);
      index.Erase(k);
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Point readers over bulk keys.
      Rng rng(929 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t j = rng.NextBounded(keys.size());
        const auto got = index.Find(keys[j]);
        // Bulk keys are overwritten (k -> k+1) but never erased here, so
        // a miss or an unexpected value is a torn read.
        if (!got.has_value() || (*got != j && *got != keys[j] + 1)) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Cross-shard range scanner.
    Rng rng(937);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t lo = keys[rng.NextBounded(keys.size())];
      std::vector<std::pair<uint64_t, uint64_t>> out;
      index.RangeScan(lo, lo + (1ull << 40), &out);
      for (size_t i = 1; i < out.size(); ++i) {
        if (out[i - 1].first >= out[i].first) bad_reads.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&] {  // Concurrent structural checker.
    while (!stop.load(std::memory_order_relaxed)) {
      index.CheckInvariants();
    }
  });

  // First three threads are the bounded writers/eraser; join them, then
  // stop the unbounded readers/scanner/checker.
  for (int t = 0; t < 3; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();

  index.WaitForDrains();
  EXPECT_EQ(bad_reads.load(), 0u);
  index.CheckInvariants();
  EpochManager::Shared().ReclaimSome();
}

// One writer cycles overwrites through a set of fresh keys in one shard
// with 4-entry buffers, so every few writes seal a buffer and a background
// drain re-marks the delta's filter or rebuilds the snapshot. After each
// Insert it publishes the write's sequence number as a high-water mark.
// Readers that see the mark must find every key at or below it with its
// latest value or a newer one: a missing filter mark in a buffer or the
// delta shows up as a miss or a stale value from an older level.
TEST(StressTest, ShardedReadersSeeEveryPublishedWrite) {
  using Sharded = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;
  constexpr uint64_t kLoaded = 4096;  // Keys 0, 2, ..., 8190.
  constexpr uint64_t kHot = 512;      // Write w goes to key 2 * (w % kHot) + 1.
  constexpr uint64_t kWrites = 20000;
  Sharded::Options opts;
  opts.num_shards = 4;  // Shard 0 holds [0, 2048): every hot key.
  opts.buffer_capacity = 4;
  opts.rebuild_min_delta = 256;
  opts.rebuild_fraction = 0;
  opts.background_drain = true;
  Sharded index(opts);
  std::vector<uint64_t> keys(kLoaded);
  for (uint64_t i = 0; i < kLoaded; ++i) keys[i] = 2 * i;
  index.BulkLoad(keys, Ranks(kLoaded));

  std::atomic<uint64_t> mark{0};  // Writes [0, mark) are published.
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::atomic<size_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(941 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t m = mark.load(std::memory_order_acquire);
        const uint64_t j = rng.NextBounded(kHot);
        if (m > j) {
          // The latest write to hot key j at or below the mark.
          const uint64_t latest = m - 1 - (m - 1 - j) % kHot;
          const auto got = index.Find(2 * j + 1);
          if (!got.has_value() || *got < latest || *got % kHot != j) {
            bad_reads.fetch_add(1);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
        const uint64_t i = rng.NextBounded(kLoaded);
        if (index.Find(keys[i]) != std::optional<uint64_t>(i)) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t w = 0; w < kWrites; ++w) {
    index.Insert(2 * (w % kHot) + 1, w);
    mark.store(w + 1, std::memory_order_release);
    // Left alone, the writer outruns the pool and each drain merges
    // dozens of sealed buffers, re-filtering the delta from scratch.
    // Catching up every 8 seals keeps drains small, so most of them carry
    // the previous delta's filter forward and re-mark only their buffers.
    if (w % 32 == 31) index.WaitForDrains();
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();

  index.WaitForDrains();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_GT(index.GetStats().rebuilds, 0u);
  for (uint64_t j = 0; j < kHot; ++j) {
    const uint64_t last = kWrites - 1 - (kWrites - 1 - j) % kHot;
    EXPECT_EQ(index.Find(2 * j + 1), std::optional<uint64_t>(last)) << j;
  }
  index.CheckInvariants();
  EpochManager::Shared().ReclaimSome();
}

// Writers update loaded keys in place while a thread forces shard
// rebuilds in a loop. A rebuild copies the snapshot's value column, so a
// store that landed after the copy would be lost; a drain that may rebuild
// turns in-place writes off at its capture and back on at its publish, so
// writes in between go to the buffers. Each writer owns half the keys and
// writes each key's versions in increasing order, publishing every write's
// version per key; readers (Find, FindBatch and RangeScan) that see a
// published version must read that version or a newer one.
TEST(StressTest, ShardedInPlaceUpdatesRaceForcedRebuilds) {
  using Sharded = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;
  static_assert(Sharded::kUpdatesInPlace);
  constexpr uint64_t kLoaded = 2048;  // Keys 0, 3, ..., 6141.
  // Each writer runs rounds (version v writes all its keys at v) until it
  // has run kMinRounds and kMinRebuilds rebuilds have happened.
  constexpr uint64_t kMinRounds = 8;
  constexpr uint64_t kMinRebuilds = 64;
  Sharded::Options opts;
  opts.num_shards = 4;
  opts.buffer_capacity = 8;
  opts.rebuild_min_delta = size_t{1} << 20;  // Only the forced rebuilds.
  opts.background_drain = true;
  Sharded index(opts);
  // Value of version v of key i: v * kLoaded + i, so a read names both.
  std::vector<uint64_t> keys(kLoaded);
  for (uint64_t i = 0; i < kLoaded; ++i) keys[i] = 3 * i;
  index.BulkLoad(keys, Ranks(kLoaded));
  std::vector<std::atomic<uint64_t>> published(kLoaded);  // Versions.

  std::atomic<size_t> writers_left{2};
  uint64_t last_round[2] = {0, 0};  // Read after the writers are joined.
  std::atomic<size_t> bad_reads{0};
  std::atomic<size_t> checked{0};
  // A read of key i is good when it names key i at the published version
  // or a newer one.
  const auto good = [&](uint64_t i, uint64_t version,
                        std::optional<uint64_t> got) {
    checked.fetch_add(1, std::memory_order_relaxed);
    return got.has_value() && *got % kLoaded == i &&
           *got / kLoaded >= version;
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Writer t owns the keys i % 2 == t.
      Rng rng(971 + t);
      std::vector<uint64_t> mine;
      for (uint64_t i = t; i < kLoaded; i += 2) mine.push_back(i);
      uint64_t v = 0;
      while (v < kMinRounds || index.GetStats().rebuilds < kMinRebuilds) {
        ++v;
        for (size_t j = mine.size(); j > 1; --j) {
          std::swap(mine[j - 1], mine[rng.NextBounded(j)]);
        }
        for (const uint64_t i : mine) {
          index.Insert(keys[i], v * kLoaded + i);
          published[i].store(v, std::memory_order_release);
        }
      }
      last_round[t] = v;
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {  // Forced rebuilds, one shard after another.
    for (size_t s = 0; writers_left.load() > 0; ++s) {
      index.RequestShardRebuild(s % opts.num_shards);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {  // Find.
    Rng rng(977);
    while (writers_left.load(std::memory_order_relaxed) > 0) {
      const uint64_t i = rng.NextBounded(kLoaded);
      const uint64_t version = published[i].load(std::memory_order_acquire);
      if (!good(i, version, index.Find(keys[i]))) bad_reads.fetch_add(1);
    }
  });
  threads.emplace_back([&] {  // FindBatch over keys of every shard.
    Rng rng(983);
    constexpr size_t kBatch = 32;
    std::vector<uint64_t> ids(kBatch);
    std::vector<uint64_t> versions(kBatch);
    std::vector<uint64_t> batch(kBatch);
    std::vector<uint64_t> out(kBatch);
    while (writers_left.load(std::memory_order_relaxed) > 0) {
      for (size_t j = 0; j < kBatch; ++j) {
        ids[j] = rng.NextBounded(kLoaded);
        versions[j] = published[ids[j]].load(std::memory_order_acquire);
        batch[j] = keys[ids[j]];
      }
      index.FindBatch(batch.data(), kBatch, out.data());
      for (size_t j = 0; j < kBatch; ++j) {
        if (!good(ids[j], versions[j], out[j])) bad_reads.fetch_add(1);
      }
    }
  });
  threads.emplace_back([&] {  // RangeScan across shard boundaries.
    Rng rng(991);
    constexpr uint64_t kSpan = 64;
    std::vector<uint64_t> versions(kSpan);
    std::vector<std::pair<uint64_t, uint64_t>> rows;
    while (writers_left.load(std::memory_order_relaxed) > 0) {
      const uint64_t first = rng.NextBounded(kLoaded - kSpan);
      for (uint64_t j = 0; j < kSpan; ++j) {
        versions[j] = published[first + j].load(std::memory_order_acquire);
      }
      rows.clear();
      index.RangeScan(keys[first], keys[first + kSpan - 1], &rows);
      if (rows.size() != kSpan) {
        bad_reads.fetch_add(1);
        continue;
      }
      for (uint64_t j = 0; j < kSpan; ++j) {
        if (rows[j].first != keys[first + j] ||
            !good(first + j, versions[j], rows[j].second)) {
          bad_reads.fetch_add(1);
        }
      }
    }
  });
  for (std::thread& t : threads) t.join();

  index.WaitForDrains();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  const auto stats = index.GetStats();
  EXPECT_GT(stats.in_place_writes, 0u);
  EXPECT_GT(stats.rebuilds, 0u);
  for (uint64_t i = 0; i < kLoaded; ++i) {
    const uint64_t last = last_round[i % 2] * kLoaded + i;
    EXPECT_EQ(index.Find(keys[i]), std::optional<uint64_t>(last)) << i;
  }
  index.CheckInvariants();
  EpochManager::Shared().ReclaimSome();
}

// The full adaptation loop under fire: a ShardedAdaptor ticking on its own
// thread (skew sensing -> rebalance / forced shard rebuilds) while
// an explicit rebalancer cycles the shard count and writers, readers, and
// a structural checker hammer the index. This is the TSan / epoch-validator
// probe for the table-swap protocol: the seq_cst drain/rebalance handshake,
// writer retry on a swapped table, and epoch-retired Tables.
TEST(StressTest, AdaptShardedRebalanceUnderMixedLoad) {
  using Sharded = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 20000, 941);
  Sharded::Options opts;
  opts.num_shards = 8;
  opts.buffer_capacity = 32;
  opts.rebuild_min_delta = 512;
  opts.background_drain = true;
  opts.collect_shard_stats = true;
  Sharded index(opts);
  index.BulkLoad(keys, Ranks(keys.size()));

  ShardedAdaptor<Sharded>::Options aopts;
  aopts.tick_period = std::chrono::milliseconds(2);
  // Rebalance holds every shard's lock at once, and TSan's deadlock
  // detector tracks at most 64 locks held by one thread.
  aopts.max_shards = 64;
  ShardedAdaptor<Sharded> adaptor(&index, aopts);
  adaptor.Start();

  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Writers over the bulk keys.
      Rng rng(947 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t k = keys[rng.NextBounded(keys.size())];
        index.Insert(k, k + 1);
      }
    });
  }
  threads.emplace_back([&] {  // Rebalancer cycling the shard count.
    for (const size_t shards : {16u, 4u, 12u, 8u}) {
      index.Rebalance(shards);  // May lose to the adaptor: fine.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  threads.emplace_back([&] {  // Forced shard-rebuild churn.
    Rng rng(953);
    for (int i = 0; i < 64; ++i) {
      index.RequestShardRebuild(rng.NextBounded(16));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Skewed point readers (feeds the adaptor).
      Rng rng(967 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t j = rng.NextBounded(keys.size() / 8);  // Hot prefix.
        const auto got = index.Find(keys[j]);
        if (!got.has_value() || (*got != j && *got != keys[j] + 1)) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Concurrent structural checker.
    while (!stop.load(std::memory_order_relaxed)) {
      index.CheckInvariants();
    }
  });

  // Bounded writers/rebalancer/rebuilder first, then stop the rest.
  for (int t = 0; t < 4; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  adaptor.Stop();

  index.WaitForDrains();
  EXPECT_EQ(bad_reads.load(), 0u);
  index.CheckInvariants();
  for (size_t j = 0; j < keys.size(); j += 331) {
    const auto got = index.Find(keys[j]);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == j || *got == keys[j] + 1);
  }
  EpochManager::Shared().ReclaimSome();
}

// The self-retraining RMI — ShardedIndex<Rmi> driven by a ShardedAdaptor —
// under concurrent lookups, inserts, background drains and direct ticks:
// snapshot rebuilds and adaptor re-cuts publish through the epoch while
// readers probe the snapshot models and record their position errors into
// the padded monitor counters. TSan probe for that publish/retire path.
TEST(StressTest, AdaptiveRmiAdaptMaintenanceChurn) {
  struct SixteenModelRmi : Rmi<uint64_t, uint64_t> {
    void Build(std::vector<uint64_t> keys, std::vector<uint64_t> values) {
      Rmi::Options options;
      options.num_models = 16;
      Rmi::Build(std::move(keys), std::move(values), options);
    }
  };
  using Learned = ShardedIndex<SixteenModelRmi>;
  const auto keys = GenerateKeys(KeyDistribution::kClustered, 20000, 971);
  Learned::Options opts;
  opts.num_shards = 1;
  opts.buffer_capacity = 64;
  opts.rebuild_min_delta = 256;
  opts.collect_shard_stats = true;
  Learned index(opts);
  index.BulkLoad(keys, Ranks(keys.size()));
  ShardedAdaptor<Learned>::Options aopts;
  aopts.controller = AdaptController::Options();  // Position units.
  aopts.max_shards = 64;  // TSan's held-lock limit, as above.
  ShardedAdaptor<Learned> adaptor(&index, aopts);

  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Inserters on disjoint fresh ranges.
      const uint64_t base =
          keys.back() + 1 + static_cast<uint64_t>(t) * (1u << 24);
      for (int i = 0; i < kOpsPerThread; ++i) {
        index.Insert(base + static_cast<uint64_t>(i), static_cast<uint64_t>(i));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Readers over the immutable bulk keys.
      Rng rng(977 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t j = rng.NextBounded(keys.size());
        const auto got = index.Find(keys[j]);
        if (got != std::optional<uint64_t>(j)) bad_reads.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {  // Maintenance kicker: the one ticker.
    for (int i = 0; i < 32; ++i) {
      adaptor.Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < 2; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();
  index.WaitForDrains();

  EXPECT_EQ(bad_reads.load(), 0u);
  index.CheckInvariants();
  for (size_t j = 0; j < keys.size(); j += 331) {
    ASSERT_EQ(index.Find(keys[j]), std::optional<uint64_t>(j));
  }
  for (int t = 0; t < 2; ++t) {
    const uint64_t base =
        keys.back() + 1 + static_cast<uint64_t>(t) * (1u << 24);
    for (int i = 0; i < kOpsPerThread; i += 97) {
      ASSERT_EQ(index.Find(base + static_cast<uint64_t>(i)),
                std::optional<uint64_t>(static_cast<uint64_t>(i)));
    }
  }
  EpochManager::Shared().ReclaimSome();
}

// TieredIndex under its concurrency contract: one writer driving constant
// background migrations (seal the hot tier -> ingest it as a compressed L0
// run -> clear the sealed cell, with leveled compactions on the pool)
// while point readers and range scanners race the swaps. The
// seal/publish protocol makes every key visible in some tier at all
// times, so a reader miss on a never-erased key is a protocol bug; TSan
// additionally vets the hot-tier lock and the epoch-retired sealed tiers
// and run layouts.
TEST(StressTest, TieredIndexMigrationsRacingReaders) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 1013);
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = 512;  // Constant migration churn.
  opts.cold_run_limit = 2;
  opts.pool_frames = 64;
  opts.codec = storage::PageCodec::kDelta;
  opts.background_migration = true;
  const std::string path =
      std::string(::testing::TempDir()) + "lidx_stress_tiered";
  std::remove(path.c_str());  // Stale pages from a previous run poison the pool.
  TieredIndex<uint64_t, uint64_t> tiered(path, opts);
  tiered.BulkLoad(keys, Ranks(keys.size()));

  // Keys with rank % 5 == 4 are the eraser's; the rest always map to
  // their rank, so readers can detect torn or lost reads exactly.
  constexpr int kWriterOps = 12000;
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // The single writer.
    Rng rng(1019);
    for (int i = 0; i < kWriterOps; ++i) {
      const size_t j = rng.NextBounded(keys.size());
      if (j % 5 == 4 && rng.NextBounded(2) == 0) {
        tiered.Delete(keys[j]);
      } else {
        tiered.Insert(keys[j], j);
      }
    }
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {  // Point readers.
      Rng rng(1021 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t j = rng.NextBounded(keys.size());
        const auto got = tiered.Find(keys[j]);
        if (j % 5 == 4) {
          // May be erased; when present the value must be the rank.
          if (got.has_value() && *got != j) bad_reads.fetch_add(1);
        } else if (!got.has_value() || *got != j) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // Range scanner across tier boundaries.
    Rng rng(1031);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t j = rng.NextBounded(keys.size() - 600);
      std::vector<std::pair<uint64_t, uint64_t>> out;
      tiered.RangeScan(keys[j], keys[j + 500], &out);
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0 && out[i - 1].first >= out[i].first) bad_reads.fetch_add(1);
        // Stable keys carry their rank; erasable keys are unchecked.
        const auto it =
            std::lower_bound(keys.begin(), keys.end(), out[i].first);
        const size_t rank = static_cast<size_t>(it - keys.begin());
        if (rank % 5 != 4 && out[i].second != rank) bad_reads.fetch_add(1);
      }
    }
  });

  threads[0].join();  // The bounded writer.
  stop.store(true);
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();

  tiered.WaitForCompactions();
  tiered.Flush();
  tiered.CheckInvariants();
  EXPECT_EQ(bad_reads.load(), 0u);
  // Stable keys survived the churn with their rank values.
  for (size_t j = 0; j < keys.size(); j += 97) {
    if (j % 5 == 4) continue;
    ASSERT_EQ(tiered.Find(keys[j]), std::optional<uint64_t>(j)) << j;
  }
}

// One writer (Put/Delete over a 256-entry memtable, so it seals and
// flushes constantly) races point readers, a range scanner and, on the
// paged store, a GetBatch reader with its own engine. Every key maps to
// its rank. Even ranks are ingested up front; those with rank % 10 == 4
// are the writer's to delete and re-put, the rest stay. Odd ranks are
// fresh: the writer puts each once, in shuffled order, and publishes how
// many it has put, so a reader knows which fresh keys must be visible.
// A fresh key exists nowhere but in the component the flush is moving it
// through, so a seal or flush that hides it for a moment is a missed read.
// Returns the bad reads.
template <typename Tree>
size_t RaceLsmWriterAgainstReaders(Tree& tree,
                                   const std::vector<uint64_t>& keys) {
  std::vector<typename Tree::KV> base;
  std::vector<size_t> fresh;  // Ranks in put order.
  for (size_t j = 0; j < keys.size(); ++j) {
    if (j % 2 == 0) {
      base.emplace_back(keys[j], RunEntry<uint64_t>{j, false});
    } else {
      fresh.push_back(j);
    }
  }
  tree.Ingest(std::move(base));
  Rng shuffle(1061);
  for (size_t i = fresh.size(); i > 1; --i) {
    std::swap(fresh[i - 1], fresh[shuffle.NextBounded(i)]);
  }
  std::vector<size_t> put_order(keys.size());  // Rank -> index in fresh.
  for (size_t i = 0; i < fresh.size(); ++i) put_order[fresh[i]] = i;
  std::atomic<size_t> published{0};  // Fresh keys put so far.
  // Whether rank j must be found, given a `published` read before the
  // lookup; a key that may be missing must still carry its rank if found.
  const auto must_exist = [&](size_t j, size_t put) {
    return j % 2 == 0 ? j % 10 != 4 : put_order[j] < put;
  };
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_reads{0};
  const auto check = [&](size_t j, size_t put,
                         const std::optional<uint64_t>& got) {
    if (got.has_value() ? *got != j : must_exist(j, put)) {
      bad_reads.fetch_add(1);
    }
  };
  // Half the probes go to the most recently put fresh keys, the ones a
  // seal or flush is moving.
  const auto pick = [&](Rng& rng, size_t put) {
    if (put == 0 || rng.NextBounded(2) == 0) {
      return static_cast<size_t>(rng.NextBounded(keys.size()));
    }
    const size_t window = std::min<size_t>(put, 512);
    return fresh[put - 1 - rng.NextBounded(window)];
  };
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // The single writer.
    Rng rng(1063);
    for (int i = 0; i < 12000; ++i) {
      const size_t put = published.load(std::memory_order_relaxed);
      if (i % 3 != 2 && put < fresh.size()) {
        tree.Put(keys[fresh[put]], fresh[put]);
        published.store(put + 1, std::memory_order_release);
        continue;
      }
      const size_t j = rng.NextBounded(keys.size() / 10) * 10 + 4;
      if (rng.NextBounded(2) == 0) {
        tree.Delete(keys[j]);
      } else {
        tree.Put(keys[j], j);
      }
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // Point readers.
      Rng rng(1069 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t put = published.load(std::memory_order_acquire);
        const size_t j = pick(rng, put);
        check(j, put, tree.Get(keys[j]));
      }
    });
  }
  threads.emplace_back([&] {  // Range scanner across component boundaries.
    Rng rng(1087);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t put = published.load(std::memory_order_acquire);
      const size_t j = rng.NextBounded(keys.size() - 600);
      std::vector<std::pair<uint64_t, uint64_t>> out;
      tree.RangeScan(keys[j], keys[j + 500], &out);
      size_t found = 0;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0 && out[i - 1].first >= out[i].first) bad_reads.fetch_add(1);
        const auto it =
            std::lower_bound(keys.begin(), keys.end(), out[i].first);
        if (it == keys.end() || *it != out[i].first) {
          bad_reads.fetch_add(1);
          continue;
        }
        const size_t rank = static_cast<size_t>(it - keys.begin());
        check(rank, put, out[i].second);
        found += must_exist(rank, put);
      }
      size_t want = 0;
      for (size_t r = j; r <= j + 500; ++r) want += must_exist(r, put);
      if (found != want) bad_reads.fetch_add(1);
    }
  });
  if constexpr (requires { tree.io_engine(); }) {
    threads.emplace_back([&] {  // Batched reader with its own engine.
      auto engine =
          storage::AsyncReadEngine::Create(storage::IoBackend::kAuto, 8);
      Rng rng(1091);
      std::vector<uint64_t> probes(64);
      std::vector<size_t> ranks(probes.size());
      std::vector<std::optional<uint64_t>> got(probes.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t put = published.load(std::memory_order_acquire);
        for (size_t i = 0; i < probes.size(); ++i) {
          ranks[i] = pick(rng, put);
          probes[i] = keys[ranks[i]];
        }
        tree.GetBatch(engine.get(), probes.data(), probes.size(), got.data());
        for (size_t i = 0; i < probes.size(); ++i) {
          check(ranks[i], put, got[i]);
        }
      }
    });
  }
  threads[0].join();  // The bounded writer.
  stop.store(true);
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
  tree.Flush();
  tree.WaitForCompactions();
  tree.CheckInvariants();
  EXPECT_EQ(tree.MemtableSize(), 0u);
  const size_t put = published.load();
  for (size_t j = 0; j < keys.size(); ++j) check(j, put, tree.Get(keys[j]));
  return bad_reads.load();
}

// LsmTree's write path under its concurrency contract, on both run stores
// and in both flush modes: inline flushes race the readers from the
// writer thread, background ones from pool workers.
TEST(StressTest, LsmWriterRacesReaders) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 1093);
  for (const bool background : {false, true}) {
    SCOPED_TRACE(background ? "background" : "inline");
    {
      LsmTree<uint64_t, uint64_t>::Options opts;
      opts.memtable_limit = 256;
      opts.l0_run_limit = 2;
      opts.level_size_factor = 4;
      opts.background_compaction = background;
      LsmTree<uint64_t, uint64_t> tree(opts);
      EXPECT_EQ(RaceLsmWriterAgainstReaders(tree, keys), 0u) << "memory";
    }
    {
      using Tree = storage::DiskLsmTree<uint64_t, uint64_t>;
      Tree::Options opts;
      opts.memtable_limit = 256;
      opts.l0_run_limit = 2;
      opts.level_size_factor = 4;
      opts.pool_frames = 64;
      opts.background_compaction = background;
      const std::string path =
          std::string(::testing::TempDir()) + "lidx_stress_lsm_writer";
      std::remove(path.c_str());
      Tree tree(path, opts);
      EXPECT_EQ(RaceLsmWriterAgainstReaders(tree, keys), 0u) << "disk";
    }
  }
}

}  // namespace
}  // namespace lidx
