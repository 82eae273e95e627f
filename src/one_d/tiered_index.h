#ifndef LIDX_ONE_D_TIERED_INDEX_H_
#define LIDX_ONE_D_TIERED_INDEX_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/shadow.h"
#include "common/epoch.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "lsm/merge.h"
#include "lsm/run.h"
#include "one_d/dynamic_pgm.h"
#include "storage/buffer_pool.h"
#include "storage/disk_lsm_tree.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page_codec.h"

namespace lidx {

// Hybrid DRAM/disk tiered index: a hot in-memory updatable tier absorbs
// all inserts and erases, and cold spans migrate into compressed
// disk-resident learned runs (storage/disk_run.h with a packed page codec)
// kept by one storage::DiskLsmTree. This is the serve-much-more-than-RAM
// shape the disk-learned-index line of work converges on — an updatable
// structure in memory in front of immutable model-fronted runs on disk —
// with compression multiplying how many keys each 4 KiB page (and each
// buffer-pool frame) carries. The cold side is a configuration of the LSM
// tree, not a storage engine of its own: the tree owns the page file,
// buffer pool, run builds and leveled compaction.
//
// Tiers and probe order (newest to oldest):
//   1. `active` hot tier — a DynamicPgm storing RunEntry<Value>, so
//      tombstones shadow older versions of a key in colder tiers.
//   2. `sealed` hot tier — the previous active, frozen while a migration
//      ingests it into the tree; readers still probe it so sealing never
//      loses visibility.
//   3. The tree's runs (L0 newest first, then the levels) — each with its
//      own PLA model, fence keys, and Bloom filter, so a cold probe
//      usually costs one page pin and an ε-window slice decode.
//
// Concurrency: single writer, any number of readers. The active tier sits
// under a reader/writer lock; the sealed tier is published through an
// epoch-protected ShadowCell on the tree's own epoch manager, so a reader
// pins once for the sealed tier and the tree's layout. The seal step
// publishes the sealed tier *while holding the writer lock*, and a
// migration ingests it into the tree before clearing the cell, which makes
// the reader protocol (probe active under the shared lock, then pin and
// probe sealed, then the tree) exhaustive: a key missing from the active
// tier at probe time is either in the sealed tier the reader acquired or
// already in the tree — there is no interleaving that hides it.
// Migrations are single-flighted by the cell's build latch and run on
// ThreadPool::Shared() in background mode; the tree compacts inline in the
// migration.
//
// RangeScan merges a per-tier snapshot and is not atomic with concurrent
// writes (a scan overlapping an update may reflect it in some keys and
// not others) — same contract as the library's other concurrent readers.
template <typename Key, typename Value>
class TieredIndex {
  using HotTier = DynamicPgm<Key, RunEntry<Value>>;
  using ColdTree = storage::DiskLsmTree<Key, Value>;

 public:
  using Run = typename ColdTree::Run;
  using KV = std::pair<Key, RunEntry<Value>>;

  struct Options {
    // Active-tier entries (live + tombstone) that trigger a migration; the
    // tree's memtable_limit, so one migration is one L0 run.
    size_t hot_limit = size_t{1} << 16;
    // L0 runs tolerated before the tree compacts them into the levels.
    size_t cold_run_limit = 4;
    size_t learned_epsilon = 16;
    double bloom_bits_per_key = 10.0;
    size_t pool_frames = 1024;  // Buffer-pool size (4 KiB frames).
    bool simd = true;
    // Page codec for the cold runs (storage/page_codec.h). kDelta is the
    // sorted-key mode; per-page plain fallback still applies.
    storage::PageCodec codec = storage::PageCodec::kDelta;
    // Run migrations on ThreadPool::Shared() instead of inline on the
    // writer. Readers are unaffected either way; inline mode makes tests
    // and single-threaded benches deterministic.
    bool background_migration = false;
    // Threads for run builds and compactions.
    size_t build_threads = 1;
  };

  // `path` names the cold tier's page file; created if absent. The index
  // owns the tree, and with it the file and buffer pool.
  explicit TieredIndex(const std::string& path,
                       const Options& options = Options())
      : options_(options),
        cold_(path, TreeOptions(options)),
        sealed_(&cold_.epoch()) {}

  ~TieredIndex() {
    WaitForMigration();
    // Member destruction order does the rest: sealed_ before cold_, whose
    // epoch manager frees the retired sealed tiers and layouts while its
    // page file and pool are still alive.
  }

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  // Bulk-loads sorted strictly-increasing keys straight into the tree,
  // bypassing the hot tier. Exclusive: call before sharing the index.
  void BulkLoad(const std::vector<Key>& keys,
                const std::vector<Value>& values) {
    LIDX_CHECK(keys.size() == values.size());
    std::vector<KV> entries;
    entries.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      LIDX_DCHECK(i == 0 || keys[i - 1] < keys[i]);
      entries.emplace_back(keys[i], RunEntry<Value>{values[i], false});
    }
    cold_.Ingest(std::move(entries));
  }

  void Insert(const Key& key, const Value& value) {
    Upsert(key, RunEntry<Value>{value, false});
  }

  // Erase is an anti-entry: the hot tier records a tombstone that shadows
  // any older version in the sealed tier or the tree until a compaction
  // drops it at the bottom.
  void Erase(const Key& key) { Upsert(key, RunEntry<Value>{Value{}, true}); }

  std::optional<Value> Find(const Key& key,
                            storage::DiskIoStats* io = nullptr) const {
    {
      ReaderMutexLock lock(hot_mu_);
      if (const std::optional<RunEntry<Value>> e = active_.Find(key)) {
        return LiveValue(*e);
      }
    }
    const EpochManager::Guard guard = cold_.epoch().Pin();
    if (const HotTier* sealed = sealed_.Acquire()) {
      if (const std::optional<RunEntry<Value>> e = sealed->Find(key)) {
        return LiveValue(*e);
      }
    }
    return cold_.Get(key, io);
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Live entries with lo <= key <= hi, newest version per key, tombstones
  // elided. Snapshot semantics (see class comment).
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out,
                 storage::DiskIoStats* io = nullptr) const {
    std::vector<std::vector<KV>> sources(3);  // Active, sealed, tree.
    {
      ReaderMutexLock lock(hot_mu_);
      active_.RangeScan(lo, hi, &sources[0]);
    }
    std::vector<std::pair<Key, Value>> cold;
    {
      const EpochManager::Guard guard = cold_.epoch().Pin();
      if (const HotTier* sealed = sealed_.Acquire()) {
        sealed->RangeScan(lo, hi, &sources[1]);
      }
      cold_.RangeScan(lo, hi, &cold, io);
    }
    sources[2].reserve(cold.size());
    for (const auto& [key, value] : cold) {
      sources[2].emplace_back(key, RunEntry<Value>{value, false});
    }
    MergeLive(std::move(sources), out);
  }

  // Forces the current hot tier to disk and waits for the migration (and
  // any compaction it triggers) to finish. Test/benchmark hook.
  void FlushHot() {
    Migrate();
    WaitForMigration();
  }

  // Blocks until no migration is in flight.
  void WaitForMigration() const {
    MutexLock lock(mig_mu_);
    while (pending_migrations_ > 0) mig_cv_.Wait(mig_mu_);
  }

  size_t HotSize() const {
    ReaderMutexLock lock(hot_mu_);
    return active_.size();
  }

  // Entries across cold runs, tombstones and shadowed duplicates included.
  size_t ColdSize() const { return cold_.NumRunEntries(); }

  // Snapshot of the cold runs in probe order (newest first); the
  // shared_ptrs keep the runs (and their pages) alive.
  std::vector<std::shared_ptr<const Run>> ColdRuns() const {
    return cold_.Runs();
  }

  const storage::FileManager* file() const { return &cold_.file(); }
  storage::BufferPool* pool() { return &cold_.pool(); }
  const storage::BufferPool& pool() const { return cold_.pool(); }

  // In-memory footprint: hot tiers plus the tree's (its buffer pool and
  // the runs' models, fences and filters — the records are on disk).
  size_t SizeBytes() const {
    size_t total = sizeof(*this) + cold_.SizeBytes();
    {
      ReaderMutexLock lock(hot_mu_);
      total += active_.SizeBytes();
    }
    const EpochManager::Guard guard = cold_.epoch().Pin();
    if (const HotTier* sealed = sealed_.Acquire()) {
      total += sealed->SizeBytes();
    }
    return total;
  }

  // Structural invariants of every tier plus the storage engine under
  // them. Aborts on violation. Test hook; not concurrent with writes.
  void CheckInvariants() const {
    {
      ReaderMutexLock lock(hot_mu_);
      active_.CheckInvariants();
    }
    {
      const EpochManager::Guard guard = cold_.epoch().Pin();
      if (const HotTier* sealed = sealed_.Acquire()) sealed->CheckInvariants();
    }
    cold_.CheckInvariants();
  }

 private:
  static typename ColdTree::Options TreeOptions(const Options& options) {
    typename ColdTree::Options tree;
    tree.memtable_limit = options.hot_limit;
    tree.l0_run_limit = options.cold_run_limit;
    tree.level_codec = options.codec;
    tree.compaction_threads = options.build_threads;
    tree.pool_frames = options.pool_frames;
    tree.learned_epsilon = options.learned_epsilon;
    tree.bloom_bits_per_key = options.bloom_bits_per_key;
    tree.simd = options.simd;
    return tree;
  }

  // DynamicPgm::Insert overwrites, so one insert serves keys old and new.
  void Upsert(const Key& key, const RunEntry<Value>& e) {
    bool trigger;
    {
      WriterMutexLock lock(hot_mu_);
      active_.Insert(key, e);
      trigger = active_.size() >= options_.hot_limit;
    }
    if (trigger) Migrate();
  }

  // Seal-and-migrate, single-flighted by the cell's build latch (a caller
  // that loses the race skips; the in-flight migration is already doing
  // the work). The seal — publishing the active tier as the sealed one and
  // starting a fresh active — happens under the writer lock, which is
  // what makes the reader protocol exhaustive (class comment).
  void Migrate() {
    if (!sealed_.TryBeginBuild()) return;
    const HotTier* sealed;
    {
      WriterMutexLock lock(hot_mu_);
      if (active_.size() == 0) {
        sealed_.EndBuild();
        return;
      }
      sealed = new HotTier(std::move(active_));
      active_ = HotTier();
      sealed_.Publish(sealed);
    }
    {
      MutexLock lock(mig_mu_);
      ++pending_migrations_;
    }
    if (options_.background_migration) {
      ThreadPool::Shared().Submit([this, sealed] { RunMigration(sealed); });
    } else {
      RunMigration(sealed);
    }
  }

  // Ingests the sealed tier into the tree, then clears the cell; the tree
  // publishes the new run before readers stop probing the sealed tier.
  // Runs on the writer thread (inline mode) or a pool worker. `sealed`
  // stays valid until the cell is cleared: only this migration retires it.
  void RunMigration(const HotTier* sealed) {
    std::vector<KV> entries;
    sealed->RangeScan(std::numeric_limits<Key>::lowest(),
                      std::numeric_limits<Key>::max(), &entries);
    cold_.Ingest(std::move(entries));
    sealed_.Publish(nullptr);
    // Free the sealed tier now rather than every 64 retires (see
    // LsmTree::Install).
    cold_.epoch().ReclaimSome();
    cold_.epoch().ReclaimSome();
    sealed_.EndBuild();
    {
      MutexLock lock(mig_mu_);
      LIDX_DCHECK(pending_migrations_ > 0);
      --pending_migrations_;
      mig_cv_.NotifyAll();
    }
  }

  Options options_;
  ColdTree cold_;
  // Shares cold_'s epoch manager; declared after cold_ so it is destroyed
  // first.
  ShadowCell<HotTier> sealed_;  // lidx: epoch-protected

  mutable SharedMutex hot_mu_;
  HotTier active_ LIDX_GUARDED_BY(hot_mu_);

  mutable Mutex mig_mu_;
  mutable CondVar mig_cv_;
  mutable size_t pending_migrations_ LIDX_GUARDED_BY(mig_mu_) = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_TIERED_INDEX_H_
