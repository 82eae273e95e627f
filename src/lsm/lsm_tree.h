#ifndef LIDX_LSM_LSM_TREE_H_
#define LIDX_LSM_LSM_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bloom.h"
#include "baselines/skiplist.h"
#include "common/batch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "lsm/merge.h"
#include "lsm/run.h"

namespace lidx {

// Run store of the in-memory tree: every run is a SortedRun in DRAM,
// searched by binary search or by its per-run learned model
// (Options::search_mode). storage::DiskRunStore is the paged counterpart.
//
// A run store supplies the tree's run type and stats type, builds runs
// (MakeRun), and reports the footprint and invariants of whatever it owns
// besides the runs. The tree holds everything else — memtable, leveled
// compaction, scheduling, newest-wins reads — once for both stores.
template <typename Key, typename Value>
class MemRunStore {
 public:
  using Run = SortedRun<Key, Value>;
  using Stats = LsmStats;
  static constexpr bool kPaged = false;

  struct Options {
    RunSearchMode search_mode = RunSearchMode::kLearned;
  };

  // Builds the run for `level` (0 = a memtable flush); in memory every
  // level is built alike.
  template <typename TreeOptions>
  std::shared_ptr<Run> MakeRun(
      std::vector<std::pair<Key, RunEntry<Value>>> entries, size_t /*level*/,
      const TreeOptions& options) const {
    typename Run::Options opts;
    opts.search_mode = options.search_mode;
    opts.learned_epsilon = options.learned_epsilon;
    opts.bloom_bits_per_key = options.bloom_bits_per_key;
    opts.build_threads = options.compaction_threads;
    opts.simd = options.simd;
    return std::make_shared<Run>(std::move(entries), opts);
  }

  size_t SizeBytes() const { return 0; }
  void CheckInvariants() const {}
};

// Mini log-structured merge tree: skip-list memtable, immutable sorted runs,
// leveled compaction. This is the substrate for the BOURBON experiment
// (Dai et al., OSDI 2020; tutorial §4.2, §5.6): each immutable run can be
// searched either by binary search (WiscKey-style baseline) or through a
// per-run learned index — runs are rebuilt wholesale by compaction, which
// is exactly the regime where cheap-to-build learned models pay off.
//
// Where runs live is the Store's choice: MemRunStore keeps SortedRuns in
// memory; storage::DiskRunStore (storage/disk_lsm_tree.h) writes DiskRuns
// into one page file read through a buffer pool. Query results are
// identical for the same operation sequence on either store.
//
// Keys are uint64-compatible integers; deletes are tombstones that are
// dropped when a compaction reaches the deepest occupied level.
//
// Compaction runs in one of two modes:
//  - synchronous (default): a flush that trips the L0 trigger merges
//    inline on the writing thread, exactly as before — deterministic and
//    single-threaded.
//  - background (Options::background_compaction): the merge is handed to
//    the shared thread pool and the writer returns immediately; runs are
//    reference-counted so in-flight reads keep old runs alive while the
//    worker installs the merged levels. Writers only stall when the
//    uncompacted-L0 backlog exceeds a bounded queue, which is the
//    insert-stall fix: Put latency no longer includes multi-level merges.
// In both modes the merge itself can use Options::compaction_threads
// workers: the k-way merge partitions by key range (byte-identical to the
// serial merge) and the new run's learned model trains blockwise.
//
// Thread-safety contract: one client thread issues Put/Delete/Get/scans;
// background mode adds internal synchronization between that client and
// the pool worker, not support for concurrent clients.
template <typename Key, typename Value,
          typename Store = MemRunStore<Key, Value>>
class LsmTree {
 public:
  // The shared tree fields plus the store's own (search_mode for memory;
  // pool, async-read engine and level codec for disk).
  struct Options : Store::Options {
    size_t memtable_limit = 4096;   // Entries before flush.
    size_t l0_run_limit = 4;        // L0 runs before compacting into L1.
    size_t level_size_factor = 8;   // Level i holds factor^i * base entries.
    size_t learned_epsilon = 16;    // ε of each run's PLA model.
    double bloom_bits_per_key = 10.0;
    // Threads for major compactions (range-partitioned merge + blocked
    // model training). 1 = fully serial, byte-identical by construction.
    size_t compaction_threads = 1;
    // Passed through to every run (see SortedRun/DiskRun::Options::simd).
    bool simd = true;
    // Off-thread flush-triggered merges (see class comment).
    bool background_compaction = false;
    // Backlog allowance in background mode: writers stall once L0 holds
    // more than l0_run_limit * (max_pending_compactions + 1) runs, which
    // bounds both memory and the staleness a compaction must absorb.
    size_t max_pending_compactions = 2;
  };

  explicit LsmTree(const Options& options = Options())
    requires(!Store::kPaged)
      : options_(options) {}

  // `path` names the page file; it is created if absent and extended as
  // runs are written. The tree owns the file and buffer pool.
  explicit LsmTree(const std::string& path, const Options& options = Options())
    requires Store::kPaged
      : options_(options), store_(path, options) {}

  ~LsmTree() { WaitForCompactions(); }

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  void Put(const Key& key, const Value& value) {
    memtable_.Insert(key, RunEntry<Value>{value, false});
    MaybeFlush();
  }

  void Delete(const Key& key) {
    memtable_.Insert(key, RunEntry<Value>{Value{}, true});
    MaybeFlush();
  }

  std::optional<Value> Get(const Key& key) const {
    // Memtable is newest (only the client thread touches it).
    if (const auto hit = memtable_.Find(key); hit.has_value()) {
      return LiveValue(*hit);
    }
    if (!options_.background_compaction) {
      return GetSingleThreaded(key);
    }
    // Snapshot the run pointers under the lock; the runs themselves are
    // immutable, so probing outside the lock is safe even while a worker
    // installs a new level layout.
    std::vector<RunPtr> l0;
    std::vector<RunPtr> levels;
    SnapshotComponents(&l0, &levels);
    return GetFromRuns(l0, levels, key);
  }

  // Batched point lookups with up to the engine's queue depth of page
  // reads in flight across the whole component stack: the AMAC group
  // scheduler (InterleavedIoRun) drives one cursor per key, and each
  // cursor probes the memtable synchronously, then chains through the
  // runs newest-first — the same order as Get — parking on a
  // PagePinStream ticket whenever a run's filter + model admit a page.
  // Results are identical to calling Get per key (both paths share
  // DiskRun's ResolveTarget/StepPage, and a cursor advances to the next
  // run only after the current run's page walk misses). This overload
  // lazily creates one engine from Options::io_backend / io_queue_depth,
  // owned by the client thread per the class's one-client contract;
  // out[] must hold n slots.
  void GetBatch(const Key* keys, size_t n, std::optional<Value>* out) const
    requires Store::kPaged
  {
    GetBatch(store_.EnsureEngine(options_), keys, n, out);
  }

  // Explicit-engine overload (a storage::AsyncReadEngine): concurrent
  // readers give each thread its own engine (engines are not thread-safe).
  // `engine` must be idle.
  template <typename Engine>
  void GetBatch(Engine* engine, const Key* keys, size_t n,
                std::optional<Value>* out) const
    requires Store::kPaged
  {
    // One snapshot serves the whole batch, probed in Get's order; the runs
    // themselves are immutable, so cursors probe them lock-free even while
    // a worker installs a new layout.
    const std::vector<RunPtr> runs = RunsNewestFirst();
    typename Store::Pool::PagePinStream stream(&store_.pool(), engine);
    const uint64_t reads_before = engine->stats().reads_submitted;
    struct Cursor {
      size_t i = 0;
      size_t run = 0;        // Component currently probed.
      uint64_t ticket = 0;
      bool pending = false;  // Ticket in flight for runs[run].
      typename Run::Target t;
    };
    // Walks runs[c.run..] until one admits a page (read submitted) or the
    // chain is exhausted (miss recorded).
    const auto submit_next = [&](Cursor& c, const Key& key) {
      for (; c.run < runs.size(); ++c.run) {
        const auto t = runs[c.run]->ResolveTarget(key, &stats_);
        if (!t.has_value()) continue;
        c.t = *t;
        ++stats_.pages_touched;
        c.ticket = stream.Begin(runs[c.run]->pages_[c.t.page]);
        c.pending = true;
        return;
      }
      out[c.i] = std::nullopt;
      c.pending = false;
    };
    InterleavedIoRun<Cursor>(
        n, engine->queue_depth(),
        [&](Cursor& c, size_t i) {
          c.i = i;
          c.run = 0;
          c.pending = false;
          if (const auto hit = memtable_.Find(keys[i]); hit.has_value()) {
            out[i] = LiveValue(*hit);
            return;
          }
          submit_next(c, keys[i]);
        },
        [&](Cursor& c) {
          if (!c.pending) return true;
          if (!stream.Ready(c.ticket)) return false;
          const typename Store::Pool::PageRef ref = stream.Take(c.ticket);
          const Run& run = *runs[c.run];
          std::optional<RunEntry<Value>> found;
          if (!run.StepPage(*ref, &c.t, keys[c.i], &stats_, &found)) {
            ++stats_.pages_touched;
            c.ticket = stream.Begin(run.pages_[c.t.page]);
            return false;
          }
          if (found.has_value()) {
            out[c.i] = LiveValue(*found);
            c.pending = false;
            return true;
          }
          ++c.run;
          submit_next(c, keys[c.i]);
          return !c.pending;
        },
        [&] { stream.WaitAny(); });
    stats_.batched_lookups += n;
    stats_.async_page_reads += engine->stats().reads_submitted - reads_before;
  }

  // Backend actually serving the engine-less GetBatch overload (resolved
  // lazily on first use; nullptr before that).
  const auto* io_engine() const requires Store::kPaged {
    return store_.engine();
  }

  // Live entries with lo <= key <= hi, merged across all components.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    const std::vector<RunPtr> runs = RunsNewestFirst();
    // One sorted stream per component, newest first: memtable, then runs.
    std::vector<std::vector<KV>> streams(1);
    memtable_.RangeScan(lo, hi, &streams[0]);
    for (const RunPtr& run : runs) {
      streams.push_back(run->Scan(lo, hi, &stats_));
    }
    MergeLive(std::move(streams), out);
  }

  // Forces the memtable into run form (tests / benchmarks).
  void Flush() {
    if (memtable_.empty()) return;
    std::vector<KV> entries;
    memtable_.DrainSorted(&entries);
    RunPtr run = store_.MakeRun(std::move(entries), 0, options_);
    memtable_ = SkipList<Key, RunEntry<Value>>();
    if (!options_.background_compaction) {
      InstallFlushSingleThreaded(std::move(run));
      return;
    }
    MutexLock lock(mu_);
    l0_.push_back(std::move(run));
    if (l0_.size() > options_.l0_run_limit) ScheduleCompactionLocked();
  }

  // Blocks until no background compaction is in flight (no-op in
  // synchronous mode). The destructor calls this, so a tree never dies —
  // and a page file never closes — while a pool worker still uses it.
  void WaitForCompactions() {
    if (!options_.background_compaction) return;
    MutexLock lock(mu_);
    while (compaction_inflight_) cv_.Wait(mu_);
  }

  size_t NumRuns() const { return RunsNewestFirst().size(); }

  size_t NumLevels() const {
    MutexLockMaybe lock(&mu_, options_.background_compaction);
    return levels_.size();
  }

  // Compaction passes merged inline on the writer thread vs. on the pool.
  // Deterministic test hooks for the two modes.
  size_t inline_compactions() const {
    MutexLockMaybe lock(&mu_, options_.background_compaction);
    return inline_compactions_;
  }
  size_t background_compactions() const {
    MutexLockMaybe lock(&mu_, options_.background_compaction);
    return background_compactions_;
  }

  const typename Store::Stats& stats() const { return stats_; }
  void ResetStats() const { stats_ = typename Store::Stats{}; }

  // The disk store's page file and buffer pool.
  const auto& file() const requires Store::kPaged { return store_.file(); }
  auto& pool() requires Store::kPaged { return store_.pool(); }
  const auto& pool() const requires Store::kPaged { return store_.pool(); }

  // In-memory footprint: memtable, each run's in-memory state (all of a
  // SortedRun; a DiskRun's fences, model and filter — its records are on
  // disk), plus whatever the store owns (the disk store's buffer pool).
  size_t SizeBytes() const {
    size_t total =
        sizeof(*this) + memtable_.SizeBytes() + store_.SizeBytes();
    for (const RunPtr& run : RunsNewestFirst()) total += run->SizeBytes();
    return total;
  }

  // Structural invariants: memtable below its flush threshold, the L0 run
  // count within its compaction trigger (or, in background mode, within
  // the bounded backlog a scheduled compaction is allowed to absorb),
  // every run internally consistent (sorted, Bloom/ε contracts; a disk
  // run re-reads and CRC-checks its pages), level sizes respecting the
  // leveled capacity schedule — each occupied level fits its capacity
  // except the deepest, which absorbs overflow when the tree is full —
  // and the store's own contracts (the disk store's page allocator and
  // buffer-pool table). Aborts on violation. Test hook.
  void CheckInvariants() const {
    MutexLockMaybe lock(&mu_, options_.background_compaction);
    memtable_.CheckInvariants();
    LIDX_INVARIANT(memtable_.size() < options_.memtable_limit ||
                       options_.memtable_limit == 0,
                   "lsm: memtable below flush threshold");
    const size_t l0_bound = options_.background_compaction
                                ? BacklogBound() + 1
                                : options_.l0_run_limit;
    LIDX_INVARIANT(l0_.size() <= l0_bound,
                   "lsm: L0 run count within compaction trigger");
    for (const auto& run : l0_) {
      LIDX_INVARIANT(run != nullptr, "lsm: L0 run allocated");
      run->CheckInvariants();
      LIDX_INVARIANT(run->size() <= options_.memtable_limit,
                     "lsm: L0 run no larger than one memtable flush");
    }
    LIDX_INVARIANT(levels_.size() <= kMaxLevels, "lsm: level count bound");
    for (size_t level = 0; level < levels_.size(); ++level) {
      if (levels_[level] == nullptr) continue;
      levels_[level]->CheckInvariants();
      LIDX_INVARIANT(
          levels_[level]->size() <= LevelCapacity(level) ||
              level + 1 >= kMaxLevels,
          "lsm: level sizes follow the leveled capacity schedule");
    }
    store_.CheckInvariants();
  }

  // Total learned-model bytes across runs (0 in binary-search mode).
  size_t ModelSizeBytes() const {
    size_t total = 0;
    for (const RunPtr& run : RunsNewestFirst()) total += run->ModelSizeBytes();
    return total;
  }

 private:
  using Run = typename Store::Run;
  // Shared (not unique) so background compaction can replace the level
  // layout while concurrent reads keep probing the old runs — and so a
  // disk run's pages are freed only after its last reader is gone.
  using RunPtr = std::shared_ptr<Run>;
  using KV = std::pair<Key, RunEntry<Value>>;

  void MaybeFlush() {
    if (memtable_.size() >= options_.memtable_limit) Flush();
  }

  size_t LevelCapacity(size_t level) const {
    size_t cap = options_.memtable_limit * options_.l0_run_limit;
    for (size_t i = 0; i <= level; ++i) cap *= options_.level_size_factor;
    return cap;
  }

  size_t BacklogBound() const {
    return options_.l0_run_limit * (options_.max_pending_compactions + 1);
  }

  void SnapshotComponents(std::vector<RunPtr>* l0,
                          std::vector<RunPtr>* levels) const {
    MutexLock lock(mu_);
    *l0 = l0_;
    *levels = levels_;
  }

  // Synchronous-mode fast paths: the class contract says one client thread
  // and no background workers, so the component fields cannot be contended
  // and the lock is skipped. AssertHeld() tells the analysis the guarded
  // fields are safe here; these sites are allowlisted in
  // docs/STATIC_ANALYSIS.md.
  std::optional<Value> GetSingleThreaded(const Key& key) const {
    mu_.AssertHeld();
    return GetFromRuns(l0_, levels_, key);
  }

  void CopyComponentsSingleThreaded(std::vector<RunPtr>* l0,
                                    std::vector<RunPtr>* levels) const {
    mu_.AssertHeld();
    *l0 = l0_;
    *levels = levels_;
  }

  // Every run in probe order — L0 newest-first, then L1, L2, ... — from a
  // snapshot taken under the lock in background mode.
  std::vector<RunPtr> RunsNewestFirst() const {
    std::vector<RunPtr> l0;
    std::vector<RunPtr> levels;
    if (options_.background_compaction) {
      SnapshotComponents(&l0, &levels);
    } else {
      CopyComponentsSingleThreaded(&l0, &levels);
    }
    std::vector<RunPtr> runs(l0.rbegin(), l0.rend());
    for (RunPtr& run : levels) {
      if (run != nullptr) runs.push_back(std::move(run));
    }
    return runs;
  }

  void InstallFlushSingleThreaded(RunPtr run) {
    mu_.AssertHeld();
    l0_.push_back(std::move(run));
    MaybeCompact();
  }

  std::optional<Value> GetFromRuns(const std::vector<RunPtr>& l0,
                                   const std::vector<RunPtr>& levels,
                                   const Key& key) const {
    // L0 runs newest-first, then deeper levels.
    for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
      if (const auto found = (*it)->Get(key, &stats_); found.has_value()) {
        return LiveValue(*found);
      }
    }
    for (const auto& run : levels) {
      if (run == nullptr) continue;
      if (const auto found = run->Get(key, &stats_); found.has_value()) {
        return LiveValue(*found);
      }
    }
    return std::nullopt;
  }

  // Synchronous-mode compaction: merge inline on the caller's thread.
  void MaybeCompact() LIDX_REQUIRES(mu_) {
    if (l0_.size() <= options_.l0_run_limit) return;
    std::vector<RunPtr> batch = std::move(l0_);
    l0_.clear();
    levels_ = CompactIntoLevels(batch, std::move(levels_));
    ++inline_compactions_;
  }

  // Schedules (or piggybacks on) the single background worker. Called with
  // mu_ held; may release it (inside cv_.Wait) while waiting out the
  // backlog bound.
  void ScheduleCompactionLocked() LIDX_REQUIRES(mu_) {
    if (!compaction_inflight_) {
      compaction_inflight_ = true;
      ThreadPool::Shared().Submit([this] { BackgroundCompact(); });
      return;
    }
    // A worker is already draining L0 and will keep looping until it is
    // back under the trigger; only stall the writer when it has outrun
    // compaction by the whole backlog allowance (the bounded queue).
    const size_t bound = BacklogBound();
    while (l0_.size() > bound && compaction_inflight_) cv_.Wait(mu_);
    if (!compaction_inflight_ && l0_.size() > options_.l0_run_limit) {
      compaction_inflight_ = true;
      ThreadPool::Shared().Submit([this] { BackgroundCompact(); });
    }
  }

  // Pool-worker body: repeatedly snapshot the L0 batch plus levels, merge
  // outside the lock, and install the result. The merge reads only
  // immutable runs and options_ (a disk run drains through positional
  // reads and new pages come from the thread-safe allocator, so neither
  // pollutes the cache nor races foreground reads). New runs flushed while
  // merging append behind the snapshot, so erasing the batch prefix
  // afterwards is exact.
  void BackgroundCompact() {
    mu_.Lock();
    while (l0_.size() > options_.l0_run_limit) {
      const std::vector<RunPtr> batch(l0_.begin(), l0_.end());
      std::vector<RunPtr> levels = levels_;
      mu_.Unlock();
      std::vector<RunPtr> next = CompactIntoLevels(batch, std::move(levels));
      mu_.Lock();
      l0_.erase(l0_.begin(),
                l0_.begin() + static_cast<std::ptrdiff_t>(batch.size()));
      levels_ = std::move(next);
      ++background_compactions_;
      cv_.NotifyAll();  // Writers stalled on the backlog bound.
    }
    compaction_inflight_ = false;
    cv_.NotifyAll();  // WaitForCompactions / re-schedulers.
    mu_.Unlock();
  }

  // Merges an L0 batch into a copy of the levels and returns the new
  // layout. Old runs stay alive (a disk run's pages stay allocated) until
  // the caller swaps the layout and the last shared_ptr drops, so this is
  // safe on a pool thread while the tree keeps serving from the old runs.
  std::vector<RunPtr> CompactIntoLevels(const std::vector<RunPtr>& l0_batch,
                                        std::vector<RunPtr> levels) {
    std::vector<std::vector<KV>> runs;
    runs.reserve(l0_batch.size());
    // Newest first so MergeStreams keeps the freshest version per key.
    for (auto it = l0_batch.rbegin(); it != l0_batch.rend(); ++it) {
      runs.push_back((*it)->Drain());
    }
    PushIntoLevel(0, MergeStreams(std::move(runs), options_.compaction_threads),
                  &levels);
    return levels;
  }

  void PushIntoLevel(size_t level, std::vector<KV> entries,
                     std::vector<RunPtr>* levels) {
    while (levels->size() <= level) levels->push_back(nullptr);
    if ((*levels)[level] != nullptr) {
      std::vector<std::vector<KV>> runs;
      runs.push_back(std::move(entries));         // Newer.
      runs.push_back((*levels)[level]->Drain());  // Older.
      (*levels)[level] = nullptr;
      entries = MergeStreams(std::move(runs), options_.compaction_threads);
    }
    if (entries.size() > LevelCapacity(level) && level + 1 < kMaxLevels) {
      PushIntoLevel(level + 1, std::move(entries), levels);
      return;
    }
    // Bottom = nothing older below. A cascade that emptied the deepest
    // slot leaves it as nullptr, so look for occupied levels rather than
    // trusting the vector's length.
    const bool is_bottom =
        entries.size() <= LevelCapacity(level) &&
        std::all_of(levels->begin() + static_cast<std::ptrdiff_t>(level) + 1,
                    levels->end(),
                    [](const RunPtr& run) { return run == nullptr; });
    if (is_bottom) DropTombstones(&entries);
    if (!entries.empty()) {
      (*levels)[level] =
          store_.MakeRun(std::move(entries), level + 1, options_);
    }
  }

  static constexpr size_t kMaxLevels = 8;

  Options options_;
  // Declared before the run vectors: members destroy in reverse order, so
  // every run (a DiskRun frees its pages through the store) dies first.
  [[no_unique_address]] Store store_;
  SkipList<Key, RunEntry<Value>> memtable_;
  // mu_ guards the components and counters (in synchronous mode it is
  // skipped at runtime via MutexLockMaybe/AssertHeld — single client
  // thread by contract); the memtable and stats stay client-thread-only in
  // both modes.
  mutable Mutex mu_;
  mutable CondVar cv_;
  bool compaction_inflight_ LIDX_GUARDED_BY(mu_) = false;
  size_t inline_compactions_ LIDX_GUARDED_BY(mu_) = 0;
  size_t background_compactions_ LIDX_GUARDED_BY(mu_) = 0;
  std::vector<RunPtr> l0_ LIDX_GUARDED_BY(mu_);
  // levels_[i] = L(i+1), single run each.
  std::vector<RunPtr> levels_ LIDX_GUARDED_BY(mu_);
  mutable typename Store::Stats stats_;
};

}  // namespace lidx

#endif  // LIDX_LSM_LSM_TREE_H_
