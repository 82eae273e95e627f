#ifndef LIDX_ONE_D_TIERED_INDEX_H_
#define LIDX_ONE_D_TIERED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/shadow.h"
#include "common/epoch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "lsm/merge.h"
#include "lsm/run.h"
#include "one_d/dynamic_pgm.h"
#include "storage/buffer_pool.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace lidx {

// Hybrid DRAM/disk tiered index: a hot in-memory updatable tier absorbs
// all inserts and erases, and cold spans migrate in the background into
// compressed disk-resident learned runs (storage/disk_run.h with a packed
// page codec). This is the serve-much-more-than-RAM shape the
// disk-learned-index line of work converges on — an updatable structure
// in memory over immutable model-fronted runs on disk — with compression
// multiplying how many keys each 4 KiB page (and each buffer-pool frame)
// carries.
//
// Tiers and probe order (newest to oldest):
//   1. `active` hot tier — any updatable index with the library's
//      Insert/Erase/Find/RangeScan surface (DynamicPgm by default, ALEX
//      works too) storing RunEntry<Value> so tombstones shadow older
//      versions of a key in colder tiers.
//   2. `sealed` hot tier — the previous active, frozen while a migration
//      drains it to disk; readers still probe it so sealing never loses
//      visibility.
//   3. Cold compressed runs, newest first — each with its own PLA model,
//      fence keys, and Bloom filter, so a cold probe usually costs one
//      page pin and an ε-window slice decode.
//
// Concurrency: single writer, any number of readers. The active tier sits
// under a reader/writer lock; the sealed tier and the run list live in an
// immutable ColdState published through an epoch-protected ShadowCell, so
// readers beyond the hot tier are lock-free. The seal step publishes the
// sealed-bearing state *while holding the writer lock*, which makes the
// reader protocol (probe active under the shared lock, then pin and probe
// the cold state) exhaustive: a key missing from the active tier at probe
// time is either in the acquired state's sealed tier or already in its
// runs — there is no interleaving that hides it. Migrations are
// single-flighted by the cell's build latch and run on ThreadPool::Shared()
// in background mode; once runs exceed Options::cold_run_limit the
// migration merges them all (newest wins, tombstones drop at the bottom).
//
// RangeScan merges a per-tier snapshot and is not atomic with concurrent
// writes (a scan overlapping an update may reflect it in some keys and
// not others) — same contract as the library's other concurrent readers.
template <typename Key, typename Value,
          typename HotTier = DynamicPgm<Key, RunEntry<Value>>>
class TieredIndex {
 public:
  using Run = storage::DiskRun<Key, Value>;
  using KV = std::pair<Key, RunEntry<Value>>;

  struct Options {
    // Active-tier entries (live + tombstone) that trigger a migration.
    size_t hot_limit = size_t{1} << 16;
    // Cold runs tolerated before a migration merges them all into one.
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
    // Threads for run builds and merge-all compactions.
    size_t build_threads = 1;
  };

  // `path` names the cold tier's page file; created if absent. The index
  // owns the file and buffer pool.
  explicit TieredIndex(const std::string& path,
                       const Options& options = Options())
      : options_(options),
        file_(path),
        pool_(&file_, options.pool_frames),
        cold_(&epoch_) {
    {
      WriterMutexLock lock(hot_mu_);
      active_ = std::make_unique<HotTier>();
    }
    cold_.Publish(new ColdState());  // Acquire() never sees null.
  }

  ~TieredIndex() {
    WaitForMigration();
    // Member destruction order does the rest: cold_ (current state), then
    // epoch_ (frees every retired state, and with it the runs), both
    // before pool_ and file_ — so run destructors can still invalidate
    // their cached pages.
  }

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  // Bulk-loads sorted strictly-increasing keys straight into a cold run,
  // bypassing the hot tier. Exclusive: call before sharing the index.
  void BulkLoad(const std::vector<Key>& keys,
                const std::vector<Value>& values) {
    LIDX_CHECK(keys.size() == values.size());
    if (keys.empty()) return;
    std::vector<KV> entries;
    entries.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      LIDX_DCHECK(i == 0 || keys[i - 1] < keys[i]);
      entries.emplace_back(keys[i], RunEntry<Value>{values[i], false});
    }
    const EpochManager::Guard guard = epoch_.Pin();
    auto* next = new ColdState(*cold_.Acquire());
    next->runs.insert(next->runs.begin(), MakeRun(std::move(entries)));
    cold_.Publish(next);
  }

  void Insert(const Key& key, const Value& value) {
    Upsert(key, RunEntry<Value>{value, false});
  }

  // Erase is an anti-entry: the hot tier records a tombstone that shadows
  // any older version in the sealed tier or the cold runs until a
  // merge-all drops it at the bottom.
  void Erase(const Key& key) { Upsert(key, RunEntry<Value>{Value{}, true}); }

  std::optional<Value> Find(const Key& key,
                            storage::DiskIoStats* io = nullptr) const {
    {
      ReaderMutexLock lock(hot_mu_);
      if (const std::optional<RunEntry<Value>> e = active_->Find(key)) {
        return LiveValue(*e);
      }
    }
    const EpochManager::Guard guard = epoch_.Pin();
    const ColdState* cold = cold_.Acquire();
    if (cold->sealed != nullptr) {
      if (const std::optional<RunEntry<Value>> e = cold->sealed->Find(key)) {
        return LiveValue(*e);
      }
    }
    for (const std::shared_ptr<Run>& run : cold->runs) {
      if (const std::optional<RunEntry<Value>> e = run->Get(key, io)) {
        return LiveValue(*e);
      }
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Live entries with lo <= key <= hi, newest version per key, tombstones
  // elided. Snapshot semantics (see class comment).
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out,
                 storage::DiskIoStats* io = nullptr) const {
    std::vector<std::vector<KV>> sources;  // Newest first.
    {
      ReaderMutexLock lock(hot_mu_);
      std::vector<KV> hot;
      active_->RangeScan(lo, hi, &hot);
      sources.push_back(std::move(hot));
    }
    {
      const EpochManager::Guard guard = epoch_.Pin();
      const ColdState* cold = cold_.Acquire();
      if (cold->sealed != nullptr) {
        std::vector<KV> s;
        cold->sealed->RangeScan(lo, hi, &s);
        sources.push_back(std::move(s));
      }
      for (const std::shared_ptr<Run>& run : cold->runs) {
        sources.push_back(run->Scan(lo, hi, io));
      }
    }
    MergeLive(std::move(sources), out);
  }

  // Forces the current hot tier to disk and waits for the migration (and
  // any merge it triggers) to finish. Test/benchmark hook.
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
    return active_->size();
  }

  // Entries across cold runs, tombstones and shadowed duplicates included.
  size_t ColdSize() const {
    size_t total = 0;
    for (const auto& run : ColdRuns()) total += run->size();
    return total;
  }

  // Snapshot of the cold runs, newest first; the shared_ptrs keep the
  // runs (and their pages) alive after the internal epoch guard drops.
  std::vector<std::shared_ptr<const Run>> ColdRuns() const {
    const EpochManager::Guard guard = epoch_.Pin();
    const ColdState* cold = cold_.Acquire();
    return {cold->runs.begin(), cold->runs.end()};
  }

  storage::FileManager* file() { return &file_; }
  storage::BufferPool* pool() { return &pool_; }
  const storage::BufferPool& pool() const { return pool_; }

  // In-memory footprint: hot tiers plus the runs' navigational state
  // (models, fences, filters, directories) — the records are on disk.
  size_t SizeBytes() const {
    size_t total = sizeof(*this) + pool_.SizeBytes();
    {
      ReaderMutexLock lock(hot_mu_);
      total += active_->SizeBytes();
    }
    const EpochManager::Guard guard = epoch_.Pin();
    const ColdState* cold = cold_.Acquire();
    if (cold->sealed != nullptr) total += cold->sealed->SizeBytes();
    for (const auto& run : cold->runs) total += run->SizeBytes();
    return total;
  }

  // Structural invariants of every tier plus the storage engine under
  // them. Aborts on violation. Test hook; not concurrent with writes.
  void CheckInvariants() const {
    {
      ReaderMutexLock lock(hot_mu_);
      active_->CheckInvariants();
    }
    std::shared_ptr<HotTier> sealed;
    std::vector<std::shared_ptr<const Run>> runs;
    {
      const EpochManager::Guard guard = epoch_.Pin();
      const ColdState* cold = cold_.Acquire();
      sealed = cold->sealed;
      runs.assign(cold->runs.begin(), cold->runs.end());
    }
    if (sealed != nullptr) sealed->CheckInvariants();
    for (const auto& run : runs) {
      run->CheckInvariants();
      LIDX_INVARIANT(run->codec() == options_.codec,
                     "tiered: cold runs use the configured codec");
    }
    pool_.CheckInvariants();
    file_.CheckInvariants();
  }

 private:
  // Immutable cold snapshot published through the ShadowCell. `sealed` is
  // non-null only while a migration is draining it.
  struct ColdState {
    std::shared_ptr<HotTier> sealed;
    std::vector<std::shared_ptr<Run>> runs;  // Newest first.
  };

  // Hot-tier upsert over the two Insert contracts in the library:
  // DynamicPgm's Insert overwrites and reports prior existence; ALEX's
  // rejects duplicates. Erase-then-insert converges both to overwrite.
  void Upsert(const Key& key, const RunEntry<Value>& e) {
    bool trigger;
    {
      WriterMutexLock lock(hot_mu_);
      if (!active_->Insert(key, e)) {
        active_->Erase(key);
        LIDX_CHECK(active_->Insert(key, e));
      }
      trigger = active_->size() >= options_.hot_limit;
    }
    if (trigger) Migrate();
  }

  std::shared_ptr<Run> MakeRun(std::vector<KV> entries) {
    typename Run::Options opts;
    opts.learned_epsilon = options_.learned_epsilon;
    opts.bloom_bits_per_key = options_.bloom_bits_per_key;
    opts.build_threads = options_.build_threads;
    opts.simd = options_.simd;
    opts.codec = options_.codec;
    return std::make_shared<Run>(std::move(entries), &file_, &pool_, opts);
  }

  // Seal-and-migrate, single-flighted by the cell's build latch (a caller
  // that loses the race skips; the in-flight migration is already doing
  // the work). The seal — moving the active tier into the published cold
  // state and installing a fresh active — happens under the writer lock,
  // which is what makes the reader protocol exhaustive (class comment).
  void Migrate() {
    if (!cold_.TryBeginBuild()) return;
    std::shared_ptr<HotTier> sealed;
    {
      WriterMutexLock lock(hot_mu_);
      if (active_->size() == 0) {
        cold_.EndBuild();
        return;
      }
      sealed = std::shared_ptr<HotTier>(active_.release());
      active_ = std::make_unique<HotTier>();
      const EpochManager::Guard guard = epoch_.Pin();
      auto* next = new ColdState(*cold_.Acquire());
      next->sealed = sealed;
      cold_.Publish(next);
    }
    {
      MutexLock lock(mig_mu_);
      ++pending_migrations_;
    }
    if (options_.background_migration) {
      // Move the capture: once RunMigration drops its argument, the task
      // object must not keep a second reference alive past the "done"
      // signal (see the release ordering note in RunMigration).
      ThreadPool::Shared().Submit(
          [this, s = std::move(sealed)]() mutable { RunMigration(std::move(s)); });
    } else {
      RunMigration(std::move(sealed));
    }
  }

  // Drains the sealed tier into a compressed run and publishes the
  // sealed-free state; merges all runs once past cold_run_limit. Runs on
  // the writer thread (inline mode) or a pool worker. Only the migration
  // in flight mutates the run list, so the read-modify-publish below has
  // no competing writer.
  void RunMigration(std::shared_ptr<HotTier> sealed) {
    std::vector<KV> entries;
    sealed->RangeScan(std::numeric_limits<Key>::lowest(),
                      std::numeric_limits<Key>::max(), &entries);
    std::vector<std::shared_ptr<Run>> older;
    {
      const EpochManager::Guard guard = epoch_.Pin();
      older = cold_.Acquire()->runs;
    }
    if (older.size() + 1 > options_.cold_run_limit) {
      std::vector<std::vector<KV>> streams;
      streams.reserve(older.size() + 1);
      streams.push_back(std::move(entries));  // Newest first.
      for (const auto& run : older) streams.push_back(run->Drain());
      entries = MergeStreams(std::move(streams), options_.build_threads);
      older.clear();
    }
    // With no older run left, the new run is the bottom of the tree.
    if (older.empty()) DropTombstones(&entries);
    auto* next = new ColdState();
    if (!entries.empty()) next->runs.push_back(MakeRun(std::move(entries)));
    next->runs.insert(next->runs.end(), older.begin(), older.end());
    cold_.Publish(next);
    cold_.EndBuild();
    // Release every run/tier reference held by this frame *before*
    // signalling completion. The destructor returns from
    // WaitForMigration the instant the counter hits zero and then tears
    // down cold_/epoch_/pool_/file_; if this worker still held a
    // shared_ptr here, dropping it after the decrement could run the
    // *last* ~DiskRun against an already-destroyed pool.
    older.clear();
    sealed.reset();
    {
      MutexLock lock(mig_mu_);
      LIDX_DCHECK(pending_migrations_ > 0);
      --pending_migrations_;
      mig_cv_.NotifyAll();
    }
  }

  Options options_;
  storage::FileManager file_;
  mutable storage::BufferPool pool_;
  // Declared after file_/pool_ so it is destroyed first: its teardown
  // frees every retired ColdState (and the runs inside) while the pool
  // and file are still alive.
  mutable EpochManager epoch_;
  ShadowCell<ColdState> cold_;

  mutable SharedMutex hot_mu_;
  std::unique_ptr<HotTier> active_ LIDX_GUARDED_BY(hot_mu_);

  mutable Mutex mig_mu_;
  mutable CondVar mig_cv_;
  mutable size_t pending_migrations_ LIDX_GUARDED_BY(mig_mu_) = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_TIERED_INDEX_H_
