// Serving-layer tests: epoch-based reclamation protocol, ShardedIndex
// correctness fuzz against a reference map (point/range/erase equality
// across shard counts and drain modes), and the YCSB workload driver.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/btree.h"
#include "common/epoch.h"
#include "common/random.h"
#include "datasets/generators.h"
#include "one_d/alex.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/lipp.h"
#include "one_d/pgm.h"
#include "one_d/rmi.h"
#include "serving/sharded_index.h"
#include "serving/workload.h"

#if defined(__SANITIZE_ADDRESS__)
#define LIDX_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LIDX_TEST_ASAN 1
#endif
#endif

namespace lidx {
namespace {

// ---------------------------------------------------------------------
// EpochManager protocol
// ---------------------------------------------------------------------

TEST(EpochTest, RetireFreesAfterQuiescence) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  mgr.Retire([&] { freed.store(true); });
  EXPECT_EQ(mgr.RetiredCount(), 1u);
  mgr.DrainRetired();
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(mgr.RetiredCount(), 0u);
  EXPECT_EQ(mgr.FreedCount(), 1u);
}

TEST(EpochTest, PinnedReaderBlocksReclamation) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> release_reader{false};
  std::thread reader([&] {
    EpochManager::Guard guard = mgr.Pin();
    reader_pinned.store(true);
    while (!release_reader.load()) std::this_thread::yield();
  });
  while (!reader_pinned.load()) std::this_thread::yield();

  // Retired while the reader is pinned in the retire epoch: no amount of
  // reclaiming may run the deleter until the reader unpins.
  mgr.Retire([&] { freed.store(true); });
  for (int i = 0; i < 10; ++i) mgr.ReclaimSome();
  EXPECT_FALSE(freed.load());
  EXPECT_EQ(mgr.PinnedThreads(), 1u);

  release_reader.store(true);
  reader.join();
  mgr.DrainRetired();
  EXPECT_TRUE(freed.load());
}

TEST(EpochTest, NestedPinsCountAsOne) {
  EpochManager mgr;
  {
    EpochManager::Guard outer = mgr.Pin();
    EXPECT_EQ(mgr.PinnedThreads(), 1u);
    {
      EpochManager::Guard inner = mgr.Pin();
      EXPECT_EQ(mgr.PinnedThreads(), 1u);
    }
    // Inner guard gone; outer still pins.
    EXPECT_EQ(mgr.PinnedThreads(), 1u);
  }
  EXPECT_EQ(mgr.PinnedThreads(), 0u);
}

TEST(EpochTest, CrossManagerNestedPins) {
  EpochManager a;
  EpochManager b;
  {
    EpochManager::Guard ga = a.Pin();
    {
      EpochManager::Guard gb = b.Pin();  // Transient slot on b.
      EXPECT_EQ(a.PinnedThreads(), 1u);
      EXPECT_EQ(b.PinnedThreads(), 1u);
    }
    EXPECT_EQ(a.PinnedThreads(), 1u);
    EXPECT_EQ(b.PinnedThreads(), 0u);
  }
  EXPECT_EQ(a.PinnedThreads(), 0u);
}

TEST(EpochTest, EpochAdvancesPastUnpinnedReaders) {
  EpochManager mgr;
  const uint64_t e0 = mgr.GlobalEpoch();
  { EpochManager::Guard guard = mgr.Pin(); }
  mgr.ReclaimSome();
  mgr.ReclaimSome();
  EXPECT_GE(mgr.GlobalEpoch(), e0 + 1);
}

TEST(EpochTest, MultithreadedChurnFreesEverything) {
  EpochManager mgr;
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 2000;
  std::atomic<int> live{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        EpochManager::Guard guard = mgr.Pin();
        live.fetch_add(1);
        mgr.Retire([&live] { live.fetch_sub(1); });
      }
    });
  }
  for (std::thread& w : workers) w.join();
  mgr.DrainRetired();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(mgr.FreedCount(), uint64_t{kThreads} * kItersPerThread);
}

TEST(EpochTest, RetireDeleteRunsDestructor) {
  EpochManager mgr;
  struct Tracked {
    explicit Tracked(std::atomic<int>* c) : counter(c) {}
    ~Tracked() { counter->fetch_sub(1); }
    std::atomic<int>* counter;
  };
  std::atomic<int> live{1};
  mgr.RetireDelete(new Tracked(&live));
  mgr.DrainRetired();
  EXPECT_EQ(live.load(), 0);
}

#ifdef LIDX_TEST_ASAN
// Reading a retired object after reclamation is exactly the bug the epoch
// scheme exists to prevent; under ASan the stale load must abort. The
// inverse property — a *pinned* read of a retired object is safe — is
// what PinnedReaderBlocksReclamation checks.
TEST(EpochDeathTest, UseAfterReclaimIsCaughtByAsan) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        EpochManager mgr;
        int* stale = new int(42);
        mgr.RetireDelete(stale);
        mgr.DrainRetired();  // No pins: the object is freed.
        int v = *stale;      // Use-after-retire without a pin.
        asm volatile("" : : "r"(v) : "memory");
      },
      "");
}
#endif

// ---------------------------------------------------------------------
// ShardedIndex correctness (typed over the wrappable inner indexes)
// ---------------------------------------------------------------------

template <typename Inner>
class ShardedIndexTest : public ::testing::Test {};

// PgmIndex and Rmi are build-only: they take the Build(keys, values)
// branch of the bulk-load adapter and serve FindBatch through their own
// LookupBatch. Rmi is also the inner whose reads record position error.
using InnerTypes =
    ::testing::Types<DynamicPgm<uint64_t, uint64_t>,
                     AlexIndex<uint64_t, uint64_t>,
                     LippIndex<uint64_t, uint64_t>,
                     BPlusTree<uint64_t, uint64_t>,
                     PgmIndex<uint64_t, uint64_t>,
                     Rmi<uint64_t, uint64_t>>;
TYPED_TEST_SUITE(ShardedIndexTest, InnerTypes);

using Reference = std::map<uint64_t, uint64_t>;

template <typename Index>
void ExpectMatchesReference(const Index& index, const Reference& ref,
                            const std::vector<uint64_t>& probe_keys) {
  for (const uint64_t k : probe_keys) {
    const auto it = ref.find(k);
    const std::optional<uint64_t> got = index.Find(k);
    if (it == ref.end()) {
      EXPECT_FALSE(got.has_value()) << "key " << k;
    } else {
      ASSERT_TRUE(got.has_value()) << "key " << k;
      EXPECT_EQ(*got, it->second) << "key " << k;
    }
  }
}

template <typename Index>
void ExpectRangeMatches(const Index& index, const Reference& ref, uint64_t lo,
                        uint64_t hi) {
  std::vector<std::pair<uint64_t, uint64_t>> got;
  index.RangeScan(lo, hi, &got);
  std::vector<std::pair<uint64_t, uint64_t>> want;
  for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
       ++it) {
    want.emplace_back(it->first, it->second);
  }
  EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << "]";
}

// Mixed upsert/erase/find/scan fuzz against std::map, across shard counts
// and both drain modes. Small buffers force constant seal/drain/rebuild
// traffic through every level of the shard (active -> sealed -> delta ->
// snapshot).
TYPED_TEST(ShardedIndexTest, FuzzMatchesReferenceMap) {
  using Engine = ShardedIndex<TypeParam>;
  for (const size_t num_shards : {size_t{1}, size_t{5}, size_t{16}}) {
    for (const bool background : {false, true}) {
      typename Engine::Options opts;
      opts.num_shards = num_shards;
      opts.buffer_capacity = 8;
      opts.rebuild_min_delta = 64;
      opts.background_drain = background;
      Engine index(opts);

      const auto keys = GenerateKeys(KeyDistribution::kLognormal, 3000,
                                     1234 + num_shards);
      std::vector<uint64_t> values(keys.size());
      Reference ref;
      for (size_t i = 0; i < keys.size(); ++i) {
        values[i] = keys[i] ^ 0x9E3779B9u;
        ref[keys[i]] = values[i];
      }
      index.BulkLoad(keys, values);

      Rng rng(99 + num_shards * 7 + (background ? 1 : 0));
      const uint64_t max_key = keys.back() + 1000;
      for (int step = 0; step < 4000; ++step) {
        const double r = rng.NextDouble();
        const uint64_t k = rng.NextBounded(max_key);
        if (r < 0.45) {
          index.Insert(k, k + step);
          ref[k] = k + step;
        } else if (r < 0.65) {
          const bool got = index.Erase(k);
          const bool want = ref.erase(k) > 0;
          if (!background) {
            // Racy-by-design under background drains (check-then-act),
            // deterministic inline.
            EXPECT_EQ(got, want) << "erase " << k;
          }
        } else if (r < 0.9) {
          const auto it = ref.find(k);
          const std::optional<uint64_t> got = index.Find(k);
          EXPECT_EQ(got.has_value(), it != ref.end()) << "find " << k;
          if (got.has_value() && it != ref.end()) {
            EXPECT_EQ(*got, it->second);
          }
        } else {
          const uint64_t span = rng.NextBounded(2000) + 1;
          ExpectRangeMatches(index, ref, k,
                             k > UINT64_MAX - span ? UINT64_MAX : k + span);
        }
      }
      if (!background) {
        // Newest-wins on the scan path: a handful of keys rewritten and
        // erased over and over, so one 8-entry buffer holds several
        // versions of a key and every seal drains them over older ones.
        // Scans run after every op, so each seal is checked too.
        const uint64_t hot = keys[keys.size() / 2];
        const uint64_t seals_before = index.GetStats().seals;
        for (int step = 0; step < 400; ++step) {
          const uint64_t k = hot + rng.NextBounded(6);
          if (rng.NextBounded(4) == 0) {
            index.Erase(k);
            ref.erase(k);
          } else {
            index.Insert(k, k * 7 + static_cast<uint64_t>(step));
            ref[k] = k * 7 + static_cast<uint64_t>(step);
          }
          ExpectRangeMatches(index, ref, hot, hot + 5);
        }
        EXPECT_GE(index.GetStats().seals - seals_before, 40u);
      }
      index.FlushAll();
      index.CheckInvariants();

      std::vector<uint64_t> probes;
      for (const auto& [k, v] : ref) probes.push_back(k);
      for (int i = 0; i < 500; ++i) probes.push_back(rng.NextBounded(max_key));
      ExpectMatchesReference(index, ref, probes);
      ExpectRangeMatches(index, ref, 0, UINT64_MAX);
      EXPECT_EQ(index.size(), ref.size());
    }
  }
  EpochManager::Shared().ReclaimSome();
}

// Keys on and around every learned shard boundary, plus outside the
// loaded key range: routing must agree with a single unsharded reference.
TYPED_TEST(ShardedIndexTest, BoundaryKeysRouteCorrectly) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 7;
  opts.buffer_capacity = 4;
  opts.background_drain = false;
  Engine index(opts);

  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t k = 100; k < 5100; k += 5) {
    keys.push_back(k);
    values.push_back(k * 2);
  }
  Reference ref;
  for (size_t i = 0; i < keys.size(); ++i) ref[keys[i]] = values[i];
  index.BulkLoad(keys, values);

  // Probe lowest/highest representable keys, below/above the loaded
  // range, and every key +-2 around each loaded key (hits each boundary).
  std::vector<uint64_t> probes = {0, 1, 50, 99, 5101, 6000, UINT64_MAX};
  for (const uint64_t k : keys) {
    for (const int64_t d : {-2, -1, 0, 1, 2}) {
      probes.push_back(k + static_cast<uint64_t>(d));
    }
  }
  ExpectMatchesReference(index, ref, probes);

  // Upserts landing exactly on boundaries must stay findable.
  for (const uint64_t k : {100u, 1500u, 3000u, 5095u}) {
    index.Insert(k, 777);
    ref[k] = 777;
  }
  index.FlushAll();
  index.CheckInvariants();
  ExpectMatchesReference(index, ref, probes);
}

TYPED_TEST(ShardedIndexTest, FindBatchMatchesFind) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 5;
  opts.buffer_capacity = 16;
  opts.background_drain = false;
  Engine index(opts);

  const auto keys = GenerateKeys(KeyDistribution::kClustered, 5000, 77);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = keys[i] + 1;
  index.BulkLoad(keys, values);
  // Buffered writes on top of the snapshot, including a tombstone.
  index.Insert(keys[10], 999);
  index.Erase(keys[20]);
  index.Insert(keys.back() + 5, 1000);

  Rng rng(5);
  std::vector<uint64_t> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(rng.NextDouble() < 0.8
                          ? keys[rng.NextBounded(keys.size())]
                          : rng.NextBounded(keys.back() + 100));
  }
  queries.push_back(keys[10]);
  queries.push_back(keys[20]);
  queries.push_back(keys.back() + 5);

  std::vector<uint64_t> batch_out(queries.size());
  index.FindBatch(queries.data(), queries.size(), batch_out.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch_out[i], index.Find(queries[i]).value_or(0))
        << "query " << queries[i];
  }
}

TYPED_TEST(ShardedIndexTest, EmptyIndexSupportsAllOps) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 3;
  opts.buffer_capacity = 4;
  opts.background_drain = false;
  Engine index(opts);

  EXPECT_FALSE(index.Find(42).has_value());
  EXPECT_FALSE(index.Erase(42));
  index.Insert(7, 70);
  index.Insert(9, 90);
  EXPECT_EQ(index.Find(7).value_or(0), 70u);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  index.RangeScan(0, 100, &out);
  EXPECT_EQ(out.size(), 2u);
  index.FlushAll();
  index.CheckInvariants();
  EXPECT_EQ(index.Find(9).value_or(0), 90u);
}

TYPED_TEST(ShardedIndexTest, DrainsRebuildSnapshot) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 2;
  opts.buffer_capacity = 8;
  opts.rebuild_min_delta = 16;  // Tiny: every drain rebuilds.
  opts.background_drain = false;
  Engine index(opts);

  const auto keys = GenerateKeys(KeyDistribution::kUniform, 2000, 3);
  std::vector<uint64_t> values(keys.size(), 1);
  index.BulkLoad(keys, values);
  Reference ref;
  for (const uint64_t k : keys) ref[k] = 1;

  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.NextBounded(keys.back() + 500);
    index.Insert(k, k);
    ref[k] = k;
  }
  index.FlushAll();
  const auto stats = index.GetStats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.drains, 0u);
  EXPECT_GT(stats.rebuilds, 0u);
  std::vector<uint64_t> probes;
  for (const auto& [k, v] : ref) probes.push_back(k);
  ExpectMatchesReference(index, ref, probes);
}

// A forced shard rebuild over updates, tombstones and fresh keys (some
// beyond either end of the snapshot) leaves an index that matches std::map
// and is exactly as large as a fresh bulk load of the same contents: the
// columns the rebuild merges into are sized to the live count, so an inner
// index that keeps them holds no slack.
TYPED_TEST(ShardedIndexTest, ShardRebuildIsAsCompactAsABulkLoad) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 1;  // One shard: both indexes share its boundaries.
  opts.buffer_capacity = 16;
  opts.rebuild_min_delta = size_t{1} << 30;  // Only the forced rebuild.
  opts.background_drain = false;
  Engine index(opts);
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 5000, 29);
  std::vector<uint64_t> values(keys.size());
  Reference ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    values[i] = i;
    ref[keys[i]] = i;
  }
  index.BulkLoad(keys, values);

  Rng rng(31);
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t loaded = keys[rng.NextBounded(keys.size())];
    switch (rng.NextBounded(3)) {
      case 0:
        index.Insert(loaded, i);
        ref[loaded] = i;
        break;
      case 1:
        EXPECT_EQ(index.Erase(loaded), ref.erase(loaded) > 0) << loaded;
        break;
      default: {
        const uint64_t k = rng.NextBounded(keys.back() + 1000);
        index.Insert(k, i);
        ref[k] = i;
      }
    }
  }
  // Fresh keys below and above the snapshot's range, and tombstones on its
  // first and last keys: the rebuild's merge starts before the snapshot's
  // first row, ends after its last, and drops both.
  ASSERT_GT(keys.front(), 3u);
  for (uint64_t j = 1; j <= 3; ++j) {
    index.Insert(keys.front() - j, j);
    ref[keys.front() - j] = j;
    index.Insert(keys.back() + j, j);
    ref[keys.back() + j] = j;
  }
  for (const uint64_t edge : {keys.front(), keys.back()}) {
    index.Insert(edge, 0);
    EXPECT_TRUE(index.Erase(edge)) << edge;
    ref.erase(edge);
  }
  index.FlushAll();
  EXPECT_EQ(index.GetStats().rebuilds, 0u);
  index.RequestShardRebuild(0);
  index.WaitForDrains();
  EXPECT_EQ(index.GetStats().rebuilds, 1u);
  index.CheckInvariants();

  std::vector<uint64_t> probes(keys.begin(), keys.end());
  for (const auto& [k, v] : ref) probes.push_back(k);
  ExpectMatchesReference(index, ref, probes);
  ExpectRangeMatches(index, ref, 0, UINT64_MAX);
  EXPECT_EQ(index.size(), ref.size());

  std::vector<uint64_t> live_keys;
  std::vector<uint64_t> live_values;
  for (const auto& [k, v] : ref) {
    live_keys.push_back(k);
    live_values.push_back(v);
  }
  Engine fresh(opts);
  fresh.BulkLoad(live_keys, live_values);
  EXPECT_EQ(index.SizeBytes(), fresh.SizeBytes());
}

// The delta is rewritten by every drain: overwrites and tombstones on a
// small key set must keep the newest version per key across dozens of
// drains before any rebuild, and across the forced rebuilds after them.
// Half the hot keys are loaded: an update of one goes in place until a
// tombstone or a filter false positive first sends it to a buffer, and
// from then on the delta holds it, so every later write of it is buffered.
TYPED_TEST(ShardedIndexTest, DeltaKeepsNewestAcrossDrains) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 3;
  opts.buffer_capacity = 8;
  opts.rebuild_min_delta = size_t{1} << 20;  // Only the forced rebuilds.
  opts.background_drain = false;
  Engine index(opts);

  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  Reference ref;
  for (uint64_t k = 0; k < 3000; k += 10) {
    keys.push_back(k);
    values.push_back(k + 1);
    ref[k] = k + 1;
  }
  index.BulkLoad(keys, values);

  // 48 hot keys below 240, loaded and fresh: all in the first shard.
  std::vector<uint64_t> probes;
  for (uint64_t k = 0; k < 240; k += 5) probes.push_back(k);
  for (uint64_t k = 235; k < 3100; k += 97) probes.push_back(k);
  const auto check = [&] {
    ExpectMatchesReference(index, ref, probes);
    std::vector<uint64_t> batch(probes.size());
    index.FindBatch(probes.data(), probes.size(), batch.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto it = ref.find(probes[i]);
      EXPECT_EQ(batch[i], it == ref.end() ? 0 : it->second) << probes[i];
    }
    ExpectRangeMatches(index, ref, 0, UINT64_MAX);
  };

  Rng rng(23);
  std::set<uint64_t> buffered;  // Distinct keys of every buffered write.
  std::set<uint64_t> drained;   // Distinct keys of every drained write.
  std::optional<uint64_t> last;  // The newest buffered write stays active.
  for (int step = 0; step < 600; ++step) {
    const auto before = index.GetStats();
    const uint64_t k = rng.NextBounded(48) * 5;
    const bool erase = rng.NextBounded(4) == 0;
    if (erase) {
      EXPECT_EQ(index.Erase(k), ref.erase(k) > 0) << k;
    } else {
      index.Insert(k, k * 1000 + static_cast<uint64_t>(step));
      ref[k] = k * 1000 + static_cast<uint64_t>(step);
    }
    const auto after = index.GetStats();
    const bool in_place = after.in_place_writes != before.in_place_writes;
    // Never in place: a tombstone, a fresh key (k % 10 != 0), a key a
    // buffer or the delta holds, or any write when the inner lends no
    // columns.
    if (erase || k % 10 != 0 || buffered.count(k) != 0 ||
        !Engine::kUpdatesInPlace) {
      EXPECT_FALSE(in_place) << "step " << step;
    }
    if (!in_place) {
      if (last.has_value()) drained.insert(*last);
      last = k;
      buffered.insert(k);
    }
    if (after.drains == before.drains) continue;
    const auto stats = index.TakeShardStats();
    EXPECT_EQ(stats.shards[0].delta, drained.size()) << "step " << step;
    for (size_t s = 1; s < stats.shards.size(); ++s) {
      EXPECT_EQ(stats.shards[s].delta + stats.shards[s].buffered, 0u);
    }
    check();
  }
  EXPECT_GE(index.GetStats().drains, 50u);
  EXPECT_EQ(index.GetStats().rebuilds, 0u);
  EXPECT_EQ(index.GetStats().in_place_writes > 0, Engine::kUpdatesInPlace);

  for (size_t s = 0; s < index.num_shards(); ++s) index.RequestShardRebuild(s);
  EXPECT_GT(index.GetStats().rebuilds, 0u);
  EXPECT_EQ(index.TakeShardStats().shards[0].delta, 0u);
  index.CheckInvariants();
  check();
}

// Point reads behind the newer levels' filters. Updates and tombstones sit
// in the snapshot, the delta and the active buffer at once, and present,
// absent and erased keys at every level must read as std::map says, via
// Find and FindBatch. The delta grows over dozens of inline drains, so its
// filter is both carried forward (copied and re-marked) and rebuilt larger.
// Where the inner lends columns, updates of keys only the snapshot holds
// go in place, so the delta holds the keys of the other writes only.
TYPED_TEST(ShardedIndexTest, PointReadsSeeEveryLevelBehindFilters) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 2;
  opts.buffer_capacity = 8;
  opts.rebuild_min_delta = size_t{1} << 20;  // Only the forced rebuilds.
  opts.rebuild_fraction = 0;
  opts.background_drain = false;
  Engine index(opts);

  // Snapshot: 0, 10, ..., 1990; shard 1 starts at the median key, 1000.
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  Reference ref;
  for (uint64_t k = 0; k < 2000; k += 10) {
    keys.push_back(k);
    values.push_back(k + 1);
    ref[k] = k + 1;
  }
  index.BulkLoad(keys, values);
  std::set<uint64_t> written;
  const auto put = [&](uint64_t k, uint64_t v) {
    index.Insert(k, v);
    ref[k] = v;
    written.insert(k);
  };
  const auto erase = [&](uint64_t k) {
    EXPECT_EQ(index.Erase(k), ref.erase(k) > 0) << k;
    written.insert(k);
  };
  // Every loaded and written key, the absent key above each, a sweep of
  // mostly absent keys, and keys past the loaded range.
  const auto check = [&] {
    std::vector<uint64_t> probes = {2001, 100000, UINT64_MAX};
    for (const uint64_t k : keys) probes.push_back(k);
    for (const uint64_t k : written) {
      probes.push_back(k);
      probes.push_back(k + 1);
    }
    for (uint64_t k = 1; k < 2000; k += 7) probes.push_back(k);
    ExpectMatchesReference(index, ref, probes);
    std::vector<uint64_t> batch(probes.size());
    index.FindBatch(probes.data(), probes.size(), batch.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto it = ref.find(probes[i]);
      EXPECT_EQ(batch[i], it == ref.end() ? 0 : it->second) << probes[i];
    }
  };

  // Snapshot level: updates, erases and fresh keys folded in by forced
  // rebuilds.
  for (uint64_t k = 0; k < 2000; k += 40) put(k, k * 3);
  for (uint64_t k = 20; k < 2000; k += 80) erase(k);
  for (uint64_t k = 5; k < 2000; k += 100) put(k, k * 5);
  index.FlushAll();
  for (size_t s = 0; s < index.num_shards(); ++s) index.RequestShardRebuild(s);
  for (const auto& shard : index.TakeShardStats().shards) {
    EXPECT_EQ(shard.delta + shard.buffered, 0u);
  }
  check();

  // Delta level: updates, tombstones and fresh keys, drained every eight
  // buffered writes per shard.
  Rng rng(31);
  std::set<uint64_t> delta_keys;  // Keys of the buffered writes.
  for (int step = 0; step < 400; ++step) {
    const uint64_t k = rng.NextBounded(400) * 5;
    const uint64_t in_place_before = index.GetStats().in_place_writes;
    if (rng.NextBounded(4) == 0) {
      erase(k);
    } else {
      put(k, k * 7 + static_cast<uint64_t>(step));
    }
    if (index.GetStats().in_place_writes == in_place_before) {
      delta_keys.insert(k);
    }
    if (step % 25 == 0) check();
  }
  index.FlushAll();
  for (const auto& shard : index.TakeShardStats().shards) {
    EXPECT_EQ(shard.buffered, 0u);
    EXPECT_GT(shard.delta, 64u);
  }
  EXPECT_GE(index.GetStats().drains, 40u);
  EXPECT_EQ(index.GetStats().in_place_writes > 0, Engine::kUpdatesInPlace);
  check();

  // Active buffers: per shard, an update and a tombstone over live delta
  // keys, a tombstone over a live snapshot-only key, and a fresh key — four
  // writes, fewer than a buffer holds.
  for (const uint64_t base : {uint64_t{0}, uint64_t{1000}}) {
    std::vector<uint64_t> live_delta;
    uint64_t snapshot_only = 0;
    bool found_snapshot_only = false;
    for (uint64_t k = base; k < base + 1000; ++k) {
      if (ref.count(k) == 0) continue;
      if (delta_keys.count(k) != 0) {
        live_delta.push_back(k);
      } else if (!found_snapshot_only) {
        snapshot_only = k;
        found_snapshot_only = true;
      }
    }
    ASSERT_GE(live_delta.size(), 2u);
    ASSERT_TRUE(found_snapshot_only);
    put(live_delta[0], 77);
    erase(live_delta[1]);
    erase(snapshot_only);
    put(base + 3, 33);
  }
  for (const auto& shard : index.TakeShardStats().shards) {
    EXPECT_EQ(shard.buffered, 4u);
    EXPECT_GT(shard.delta, 0u);
    EXPECT_GT(shard.snapshot, 0u);
  }
  check();
  index.CheckInvariants();
}

// A scan merges four levels per shard. With the shared pool's workers
// parked, one sealed buffer per shard stays undrained, so the newest
// version of distinct keys sits in each level — active buffer, sealed
// buffer, delta, snapshot — and each newer level holds a tombstone over an
// older level's key. Scans that take the direct snapshot path, see only a
// tombstone, straddle the shard boundary or append to a non-empty output
// must all match std::map, before and after the levels drain. The two
// updates of keys only the snapshot holds go in place where the inner
// lends columns, so those scans read the snapshot's updated column.
TYPED_TEST(ShardedIndexTest, RangeScanSeesEveryLevel) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 2;
  opts.buffer_capacity = 4;
  opts.rebuild_min_delta = size_t{1} << 20;  // Drains keep the delta.
  opts.rebuild_fraction = 0;
  opts.background_drain = true;
  Engine index(opts);

  // Snapshot: 0, 10, ..., 990; shard 1 starts at the median key, 500.
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  Reference ref;
  for (uint64_t k = 0; k < 1000; k += 10) {
    keys.push_back(k);
    values.push_back(k + 1);
    ref[k] = k + 1;
  }
  index.BulkLoad(keys, values);
  std::set<uint64_t> written;
  const auto put = [&](uint64_t k, uint64_t v) {
    index.Insert(k, v);
    ref[k] = v;
    written.insert(k);
  };
  const auto erase = [&](uint64_t k) {
    EXPECT_EQ(index.Erase(k), ref.erase(k) > 0) << k;
    written.insert(k);
  };

  // Delta: drained inline before the workers park.
  put(15, 1500);
  put(20, 2000);  // Over the snapshot: in place if it can be.
  erase(30);      // Tombstone over the snapshot.
  put(45, 4500);
  put(65, 6500);
  put(515, 5150);
  erase(520);
  index.FlushAll();

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
  // (EXPECT, not ASSERT, until the release: an early return would leave
  // the workers parked.)

  // Sealed buffers: four buffered writes fill each shard's buffer, and the
  // shard's next buffered write seals it and queues a drain that cannot
  // run. In shard 1, where put(510) goes in place, put(535) fills the
  // buffer and erase(600) seals it.
  put(25, 2500);
  erase(45);      // Tombstone over the delta.
  put(65, 6501);  // Over the delta.
  put(75, 7500);
  put(505, 5050);
  put(510, 5100);  // Over the snapshot: in place if it can be.
  erase(515);      // Tombstone over the delta.
  put(525, 5250);
  // Active buffers.
  put(35, 3500);
  erase(75);   // Tombstone over the sealed buffer.
  erase(300);  // Tombstone over the snapshot, alone in [295, 330].
  put(15, 1501);
  put(535, 5350);
  erase(600);

  // put(20) and put(510) are the only writes of a key the snapshot holds
  // that no newer level holds.
  const size_t in_place = Engine::kUpdatesInPlace ? 1 : 0;
  EXPECT_EQ(index.GetStats().in_place_writes, 2 * in_place);
  const auto stats = index.TakeShardStats();
  EXPECT_EQ(stats.shards[0].snapshot, 50u);
  EXPECT_EQ(stats.shards[0].delta, 5u - in_place);
  EXPECT_EQ(stats.shards[0].buffered, 8u);
  EXPECT_EQ(stats.shards[1].delta, 2u);
  EXPECT_EQ(stats.shards[1].buffered, 6u - in_place);

  const auto check_scans = [&] {
    ExpectRangeMatches(index, ref, 0, UINT64_MAX);
    ExpectRangeMatches(index, ref, 100, 290);  // Snapshot only.
    ExpectRangeMatches(index, ref, 295, 330);  // Only a tombstone is newer.
    ExpectRangeMatches(index, ref, 450, 560);  // Across the boundary.
    for (const uint64_t k : written) {
      ExpectRangeMatches(index, ref, k - 5, k + 5);
      ExpectRangeMatches(index, ref, k, k);
    }
    // Appending: rows already in the output survive, in place.
    const std::vector<std::pair<uint64_t, uint64_t>> prefix = {{7, 7}, {1, 1}};
    for (const auto& [lo, hi] : {std::pair<uint64_t, uint64_t>{100, 290},
                                 {0, 100}, {450, 560}}) {
      std::vector<std::pair<uint64_t, uint64_t>> got = prefix;
      index.RangeScan(lo, hi, &got);
      std::vector<std::pair<uint64_t, uint64_t>> want = prefix;
      for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
           ++it) {
        want.emplace_back(it->first, it->second);
      }
      EXPECT_EQ(got, want) << "append to [" << lo << ", " << hi << "]";
    }
  };
  check_scans();
  index.CheckInvariants();

  gate->release.store(true);
  index.WaitForDrains();
  index.FlushAll();
  const auto drained = index.TakeShardStats();
  EXPECT_EQ(drained.shards[0].buffered + drained.shards[1].buffered, 0u);
  check_scans();
  index.CheckInvariants();
}

// The same inner index template over another value type.
template <typename Inner, typename V>
struct WithValue;
template <template <typename, typename> class Inner, typename K, typename V0,
          typename V>
struct WithValue<Inner<K, V0>, V> {
  using type = Inner<K, V>;
};

// Three words: wider than any Value that goes in place (common/value_slot.h).
struct WideValue {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  bool operator==(const WideValue&) const = default;
};
static_assert(!InPlaceStorable<WideValue>());

// The in-place rule. An update of a key only the snapshot holds goes in
// place where the inner lends columns: it bumps in_place_writes and adds
// no buffered entry. An update of a key that a buffered tombstone, an older
// buffered value or a delta entry may hold takes the buffer path and reads
// newest-wins, as does every write to an inner without columns (ALEX,
// LIPP, B+-tree) or of a Value too wide to store in place.
TYPED_TEST(ShardedIndexTest, UpdatesGoInPlaceOnlyWhenNothingShadowsThem) {
  using Engine = ShardedIndex<TypeParam>;
  typename Engine::Options opts;
  opts.num_shards = 1;
  opts.buffer_capacity = 64;
  opts.rebuild_min_delta = size_t{1} << 20;  // No rebuild.
  opts.background_drain = false;
  Engine index(opts);
  // Snapshot: 0, 10, ..., 9990.
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  Reference ref;
  for (uint64_t k = 0; k < 10000; k += 10) {
    keys.push_back(k);
    values.push_back(k + 1);
    ref[k] = k + 1;
  }
  index.BulkLoad(keys, values);
  constexpr uint64_t kInPlace = Engine::kUpdatesInPlace ? 1 : 0;
  const auto in_place = [&] { return index.GetStats().in_place_writes; };
  const auto buffered = [&] {
    return index.TakeShardStats().shards[0].buffered;
  };
  const auto put = [&](uint64_t k, uint64_t v) {
    index.Insert(k, v);
    ref[k] = v;
  };
  const auto check = [&](uint64_t k) {
    EXPECT_EQ(index.Find(k), std::optional<uint64_t>(ref.at(k))) << k;
    uint64_t batch = 0;
    index.FindBatch(&k, 1, &batch);
    EXPECT_EQ(batch, ref.at(k)) << k;
    ExpectRangeMatches(index, ref, k - 10, k + 10);
  };

  // A key only the snapshot holds, twice.
  put(100, 1);
  put(100, 2);
  EXPECT_EQ(in_place(), 2 * kInPlace);
  EXPECT_EQ(buffered(), 2 * (1 - kInPlace));
  check(100);
  const size_t base = buffered();

  // Shadowed by a buffered tombstone.
  EXPECT_TRUE(index.Erase(200));
  put(200, 3);
  EXPECT_EQ(in_place(), 2 * kInPlace);
  EXPECT_EQ(buffered(), base + 2);
  check(200);

  // Shadowed by a delta entry.
  index.FlushAll();
  EXPECT_GT(index.TakeShardStats().shards[0].delta, 0u);
  put(200, 4);
  EXPECT_EQ(in_place(), 2 * kInPlace);
  EXPECT_EQ(buffered(), 1u);
  check(200);

  // Shadowed by an older buffered value alone. A filter false positive is
  // what buffers an update of a key only the snapshot holds, so fill the
  // active buffer with fresh keys and update loaded keys until one is
  // buffered; then update that key again.
  for (uint64_t k = 5001; k < 5600; k += 10) put(k, k);
  const size_t filled = buffered();
  std::optional<uint64_t> shadowed;
  for (uint64_t k = 6000; k < 10000 && !shadowed.has_value(); k += 10) {
    const uint64_t before = in_place();
    put(k, 5);
    if (in_place() == before) shadowed = k;
  }
  ASSERT_TRUE(shadowed.has_value());
  EXPECT_EQ(buffered(), filled + 1);
  const uint64_t before = in_place();
  put(*shadowed, 6);
  EXPECT_EQ(in_place(), before);
  EXPECT_EQ(buffered(), filled + 2);
  check(*shadowed);

  index.FlushAll();
  index.CheckInvariants();
  ExpectRangeMatches(index, ref, 0, UINT64_MAX);

  // A Value too wide to store in place never goes in place, whatever the
  // inner.
  using WideEngine =
      ShardedIndex<typename WithValue<TypeParam, WideValue>::type, uint64_t,
                   WideValue>;
  static_assert(!WideEngine::kUpdatesInPlace);
  typename WideEngine::Options wide_opts;
  wide_opts.num_shards = 1;
  wide_opts.background_drain = false;
  WideEngine wide(wide_opts);
  std::vector<WideValue> wide_values;
  for (const uint64_t k : keys) wide_values.push_back(WideValue{k, 1, 2});
  wide.BulkLoad(keys, wide_values);
  wide.Insert(100, WideValue{7, 8, 9});
  EXPECT_EQ(wide.GetStats().in_place_writes, 0u);
  EXPECT_EQ(wide.TakeShardStats().shards[0].buffered, 1u);
  EXPECT_EQ(wide.Find(100), std::optional<WideValue>(WideValue{7, 8, 9}));
  EXPECT_EQ(wide.Find(110), std::optional<WideValue>(WideValue{110, 1, 2}));
}

// Concurrent smoke: readers and a checker run against writers on a live
// index; every read of a never-erased key must return a valid version.
TEST(ShardedIndexConcurrencyTest, ReadersSeeConsistentValues) {
  using Engine = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;
  Engine::Options opts;
  opts.num_shards = 4;
  opts.buffer_capacity = 32;
  opts.rebuild_min_delta = 256;
  Engine index(opts);

  constexpr uint64_t kStableKeys = 2000;
  std::vector<uint64_t> keys(kStableKeys);
  std::vector<uint64_t> values(kStableKeys);
  for (uint64_t i = 0; i < kStableKeys; ++i) {
    keys[i] = i * 10;
    values[i] = 1;  // Version counter; writers only increase it.
  }
  index.BulkLoad(keys, values);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  std::thread writer([&] {
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t k = keys[rng.NextBounded(kStableKeys)];
      index.Insert(k, 1 + static_cast<uint64_t>(i));
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load()) {
        const uint64_t k = keys[rng.NextBounded(kStableKeys)];
        const std::optional<uint64_t> v = index.Find(k);
        // Stable keys are never erased: a miss or a zero version means a
        // reader saw a torn state.
        if (!v.has_value() || *v == 0) bad_reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  index.WaitForDrains();
  EXPECT_EQ(bad_reads.load(), 0u);
  index.CheckInvariants();
  EpochManager::Shared().ReclaimSome();
}

// ---------------------------------------------------------------------
// YCSB workload driver
// ---------------------------------------------------------------------

TEST(WorkloadDriverTest, MixesProduceExpectedOpTypes) {
  using serving::WorkloadOptions;
  using serving::YcsbMix;
  const auto spec_a = serving::YcsbSpec(YcsbMix::kA, 0.0, 100);
  EXPECT_DOUBLE_EQ(spec_a.read_fraction, 0.5);
  EXPECT_DOUBLE_EQ(spec_a.update_fraction, 0.5);
  const auto spec_e = serving::YcsbSpec(YcsbMix::kE, 0.99, 100);
  EXPECT_DOUBLE_EQ(spec_e.scan_fraction, 0.95);
  EXPECT_DOUBLE_EQ(spec_e.insert_fraction, 0.05);
  EXPECT_DOUBLE_EQ(spec_e.zipf_theta, 0.99);
}

TEST(WorkloadDriverTest, RunYcsbReportsSaneResults) {
  using Engine = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;
  Engine::Options opts;
  opts.num_shards = 2;
  Engine index(opts);
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 20000, 11);
  std::vector<uint64_t> values(keys.size(), 7);
  index.BulkLoad(keys, values);
  std::vector<uint64_t> pool;
  for (uint64_t i = 0; i < 4000; ++i) pool.push_back(keys.back() + 1 + i);

  serving::WorkloadOptions wopts;
  wopts.mix = serving::YcsbMix::kA;
  wopts.n_threads = 2;
  wopts.ops_per_thread = 5000;
  const serving::WorkloadResult r = serving::RunYcsb(&index, keys, pool, wopts);
  index.WaitForDrains();

  EXPECT_EQ(r.total_ops, 10000u);
  EXPECT_GT(r.mops, 0.0);
  // ~50% reads and ~50% updates, all against loaded keys: every read hits.
  EXPECT_GT(r.read.count, r.total_ops / 3);
  EXPECT_GT(r.insert.count, r.total_ops / 3);
  EXPECT_EQ(r.found, r.read.count);
  EXPECT_GT(r.read.p50_ns, 0.0);
  EXPECT_GE(r.read.p999_ns, r.read.p50_ns);
  index.CheckInvariants();
}

}  // namespace
}  // namespace lidx
