#ifndef LIDX_LSM_LSM_TREE_H_
#define LIDX_LSM_LSM_TREE_H_

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
#include "baselines/bloom.h"
#include "common/batch.h"
#include "common/epoch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "lsm/merge.h"
#include "lsm/run.h"
#include "one_d/dynamic_pgm.h"

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

  // Builds a run (a memtable flush or a compacted level).
  template <typename TreeOptions>
  std::shared_ptr<Run> MakeRun(
      std::vector<std::pair<Key, RunEntry<Value>>> entries,
      const TreeOptions& options) const {
    typename Run::Options opts;
    opts.search_mode = options.search_mode;
    opts.learned_epsilon = options.learned_epsilon;
    opts.bloom_bits_per_key = options.bloom_bits_per_key;
    opts.build_threads = options.compaction_threads;
    return std::make_shared<Run>(std::move(entries), opts);
  }

  size_t SizeBytes() const { return 0; }
  void CheckInvariants() const {}
};

// Mini log-structured merge tree: a learned memtable, immutable sorted runs,
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
// Memtable: a DynamicPgm of RunEntry<Value>, so a tombstone shadows older
// versions in the runs. Put and Delete write the `active` memtable under a
// reader/writer lock. A flush seals it: under the writer lock the active
// memtable becomes the `sealed` one, published through an epoch-protected
// ShadowCell on the tree's epoch manager, and a fresh active starts. The
// flush then ingests the sealed memtable as an L0 run and only afterwards
// clears the cell. At most one memtable is sealed at a time, so a flush
// first waits out the one still landing.
//
// Flushes and compactions run in one of two modes:
//  - synchronous (default): the writer that fills the memtable flushes it
//    inline, and a flush that trips the L0 trigger merges inline too —
//    deterministic and single-threaded.
//  - background (Options::background_compaction): flushes and the merges
//    they trigger run on the shared thread pool and the writer returns
//    immediately. A writer stalls only when it fills the memtable while
//    the previous flush is still landing; a flush stalls when the
//    uncompacted-L0 backlog exceeds a bounded queue. That is the
//    insert-stall fix: Put latency no longer includes multi-level merges.
// In both modes the merge itself can use Options::compaction_threads
// workers: the k-way merge partitions by key range (byte-identical to the
// serial merge) and the new run's learned model trains blockwise.
//
// Read protocol: a read probes the active memtable under the shared lock,
// then pins the tree's epoch manager once for the sealed memtable and the
// run layout (L0 plus levels) — one immutable Layout published through an
// epoch-protected ShadowCell. The seal publishes the sealed memtable while
// holding the writer lock, and a flush publishes its run before clearing
// the cell, so a key missing from the active memtable at probe time is in
// the sealed memtable the reader acquires or already in the layout; no
// interleaving hides it. Every layout change (flush, ingest, compaction)
// builds a new Layout and publishes it, and the replaced one — with any
// run only it held — is freed, like a landed sealed memtable, once no
// reader can still see it.
//
// Thread-safety contract: one thread at a time writes (Put, Delete, Flush,
// Ingest). Get, GetBatch (each thread with its own engine), RangeScan and
// the size/invariant accessors run on any thread, concurrently with the
// writer and with flushes and compactions. RangeScan merges a
// per-component snapshot and is not atomic with concurrent writes (a scan
// overlapping an update may reflect it in some keys and not others).
template <typename Key, typename Value,
          typename Store = MemRunStore<Key, Value>>
class LsmTree {
 public:
  using Run = typename Store::Run;
  using Stats = typename Store::Stats;
  using KV = std::pair<Key, RunEntry<Value>>;

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
    // Off-thread flushes and flush-triggered merges (see class comment).
    bool background_compaction = false;
    // Backlog allowance in background mode: flushes stall once L0 holds
    // more than l0_run_limit * (max_pending_compactions + 1) runs, which
    // bounds both memory and the staleness a compaction must absorb.
    size_t max_pending_compactions = 2;
  };

  explicit LsmTree(const Options& options = Options())
    requires(!Store::kPaged)
      : options_(options) {
    layout_.Publish(new Layout());  // Acquire() never sees null.
  }

  // `path` names the page file; it is created if absent and extended as
  // runs are written. The tree owns the file and buffer pool.
  explicit LsmTree(const std::string& path, const Options& options = Options())
    requires Store::kPaged
      : options_(options), store_(path, options) {
    layout_.Publish(new Layout());
  }

  ~LsmTree() { WaitForCompactions(); }

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  void Put(const Key& key, const Value& value) {
    Write(key, RunEntry<Value>{value, false});
  }

  void Delete(const Key& key) { Write(key, RunEntry<Value>{Value{}, true}); }

  // Probe counters accumulate into `stats` when given.
  std::optional<Value> Get(const Key& key, Stats* stats = nullptr) const {
    {
      ReaderMutexLock lock(mem_mu_);
      if (const auto hit = active_.Find(key); hit.has_value()) {
        return LiveValue(*hit);
      }
    }
    const EpochManager::Guard guard = epoch_.Pin();
    if (const Memtable* sealed = sealed_.Acquire()) {
      if (const auto hit = sealed->Find(key); hit.has_value()) {
        return LiveValue(*hit);
      }
    }
    const Layout& layout = *layout_.Acquire();
    // L0 runs newest-first, then deeper levels.
    for (auto it = layout.l0.rbegin(); it != layout.l0.rend(); ++it) {
      if (const auto found = (*it)->Get(key, stats); found.has_value()) {
        return LiveValue(*found);
      }
    }
    for (const RunPtr& run : layout.levels) {
      if (run == nullptr) continue;
      if (const auto found = run->Get(key, stats); found.has_value()) {
        return LiveValue(*found);
      }
    }
    return std::nullopt;
  }

  // Batched point lookups with up to the engine's queue depth of page
  // reads in flight across the whole component stack: the memtables are
  // probed first (every key in the active one, then in the sealed one —
  // Get's order), then the AMAC group scheduler (InterleavedIoRun) drives
  // one cursor per remaining key, chaining through the runs newest-first
  // and parking on a PagePinStream ticket whenever a run's filter + model
  // admit a page. Results are identical to calling Get per key (both paths
  // share DiskRun's ResolveTarget/StepPage, and a cursor advances to the
  // next run only after the current run's page walk misses). This overload
  // lazily creates one engine from Options::io_backend / io_queue_depth,
  // owned by the client thread; out[] must hold n slots.
  void GetBatch(const Key* keys, size_t n, std::optional<Value>* out,
                Stats* stats = nullptr) const
    requires Store::kPaged
  {
    GetBatch(store_.EnsureEngine(options_), keys, n, out, stats);
  }

  // Explicit-engine overload (a storage::AsyncReadEngine): concurrent
  // readers give each thread its own engine (engines are not thread-safe).
  // `engine` must be idle.
  template <typename Engine>
  void GetBatch(Engine* engine, const Key* keys, size_t n,
                std::optional<Value>* out, Stats* stats = nullptr) const
    requires Store::kPaged
  {
    std::vector<bool> resolved(n);  // Answered by a memtable.
    ForEachMemtable([&](const Memtable& memtable) {
      for (size_t i = 0; i < n; ++i) {
        if (resolved[i]) continue;
        if (const auto hit = memtable.Find(keys[i]); hit.has_value()) {
          out[i] = LiveValue(*hit);
          resolved[i] = true;
        }
      }
    });
    // One run snapshot, taken after the memtable probes (Get's order),
    // serves the whole batch; the runs are immutable, so cursors probe them
    // even while a worker installs a new layout.
    const std::vector<RunRef> runs = Runs();
    Stats local;
    Stats& st = stats != nullptr ? *stats : local;
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
        const auto t = runs[c.run]->ResolveTarget(key, &st);
        if (!t.has_value()) continue;
        c.t = *t;
        ++st.pages_touched;
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
          if (!resolved[i]) submit_next(c, keys[i]);
        },
        [&](Cursor& c) {
          if (!c.pending) return true;
          if (!stream.Ready(c.ticket)) return false;
          const typename Store::Pool::PageRef ref = stream.Take(c.ticket);
          const Run& run = *runs[c.run];
          std::optional<RunEntry<Value>> found;
          if (!run.StepPage(*ref, &c.t, keys[c.i], &st, &found)) {
            ++st.pages_touched;
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
    st.batched_lookups += n;
    st.async_page_reads += engine->stats().reads_submitted - reads_before;
  }

  // Backend actually serving the engine-less GetBatch overload (resolved
  // lazily on first use; nullptr before that).
  const auto* io_engine() const requires Store::kPaged {
    return store_.engine();
  }

  // Live entries with lo <= key <= hi, merged across all components.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out,
                 Stats* stats = nullptr) const {
    // One sorted stream per component, newest first: the memtables, then
    // the runs (snapshotted after the memtables, Get's order). MergeLive
    // borrows them and appends the live rows straight to *out.
    std::vector<std::vector<KV>> streams;
    ForEachMemtable([&](const Memtable& memtable) {
      memtable.RangeScan(lo, hi, &streams.emplace_back());
    });
    for (const RunRef& run : Runs()) {
      streams.push_back(run->Scan(lo, hi, stats));
    }
    std::vector<EntrySpan<Key, Value>> spans(streams.begin(), streams.end());
    MergeLive<Key, Value>(spans, {}, out);
  }

  // Forces the memtable into run form: waits out a flush in flight, seals
  // what the memtable holds now, and returns once that flush has landed
  // (in background mode a compaction it triggers may still be running).
  void Flush() {
    Seal();
    WaitForFlush();
  }

  // Adds `entries` — sorted, unique keys, newer than everything in the
  // tree — as one flush would, after flushing the (older) memtable. A
  // batch of at most memtable_limit entries becomes an L0 run and then
  // meets the usual compaction trigger; a larger one is merged with L0
  // into the levels on the calling thread, so it lands at the shallowest
  // level that holds it (bulk loads, or a caller's buffer that outgrew
  // the memtable limit).
  void Ingest(std::vector<KV> entries) {
    Flush();
    Land(std::move(entries));
  }

  // Blocks until no background flush or compaction is in flight (they
  // never are in synchronous mode). The destructor calls this, so a tree
  // never dies — and a page file never closes — while a pool worker still
  // uses it.
  void WaitForCompactions() {
    MutexLock lock(mu_);
    while (flush_inflight_ || compaction_inflight_) cv_.Wait(mu_);
  }

  // Every run in probe order — L0 newest first, then L1, L2, ... — from
  // the current layout. The shared_ptrs keep the runs (and a disk run's
  // pages) alive after the layout is replaced.
  std::vector<std::shared_ptr<const Run>> Runs() const {
    const EpochManager::Guard guard = epoch_.Pin();
    const Layout& layout = *layout_.Acquire();
    std::vector<RunRef> runs(layout.l0.rbegin(), layout.l0.rend());
    for (const RunPtr& run : layout.levels) {
      if (run != nullptr) runs.push_back(run);
    }
    return runs;
  }

  // Entries (live and tombstone) not yet in a run: the active memtable plus
  // a sealed one still landing.
  size_t MemtableSize() const {
    size_t total = 0;
    ForEachMemtable(
        [&](const Memtable& memtable) { total += memtable.size(); });
    return total;
  }

  size_t NumRuns() const { return Runs().size(); }

  size_t NumLevels() const { return Snapshot().levels.size(); }

  // Entries across all runs, tombstones and shadowed versions included.
  size_t NumRunEntries() const {
    size_t total = 0;
    for (const RunRef& run : Runs()) total += run->size();
    return total;
  }

  // Compaction passes merged inline on the ingesting thread vs. on the
  // pool. Deterministic test hooks for the two modes.
  size_t inline_compactions() const {
    MutexLock lock(mu_);
    return inline_compactions_;
  }
  size_t background_compactions() const {
    MutexLock lock(mu_);
    return background_compactions_;
  }

  // The disk store's page file and buffer pool.
  const auto& file() const requires Store::kPaged { return store_.file(); }
  auto& pool() requires Store::kPaged { return store_.pool(); }
  const auto& pool() const requires Store::kPaged { return store_.pool(); }

  // In-memory footprint: memtables, each run's in-memory state (all of a
  // SortedRun; a DiskRun's fences, model and filter — its records are on
  // disk), plus whatever the store owns (the disk store's buffer pool).
  size_t SizeBytes() const {
    size_t total = sizeof(*this) + store_.SizeBytes();
    ForEachMemtable(
        [&](const Memtable& memtable) { total += memtable.SizeBytes(); });
    for (const RunRef& run : Runs()) total += run->SizeBytes();
    return total;
  }

  // Structural invariants: memtables internally consistent and within the
  // flush threshold, the L0 run count within its compaction trigger (or,
  // in background mode, within the bounded backlog a scheduled compaction
  // is allowed to absorb), every run internally consistent (sorted,
  // Bloom/ε contracts; a disk run re-reads and CRC-checks its pages), level
  // sizes respecting the leveled capacity schedule — each occupied level
  // fits its capacity except the deepest, which absorbs overflow when the
  // tree is full — and the store's own contracts (the disk store's page
  // allocator and buffer-pool table). Aborts on violation. Test hook;
  // checks one layout, so it may run beside the writer, readers, flushes
  // and compactions.
  void CheckInvariants() const {
    // A Put that fills the memtable seals it right after releasing the
    // lock, so a concurrent check may see it exactly full.
    ForEachMemtable([&](const Memtable& memtable) {
      memtable.CheckInvariants();
      LIDX_INVARIANT(memtable.size() <= options_.memtable_limit ||
                         options_.memtable_limit == 0,
                     "lsm: memtable within its flush threshold");
    });
    const Layout layout = Snapshot();
    const size_t l0_bound = options_.background_compaction
                                ? BacklogBound() + 1
                                : options_.l0_run_limit;
    LIDX_INVARIANT(layout.l0.size() <= l0_bound,
                   "lsm: L0 run count within compaction trigger");
    for (const auto& run : layout.l0) {
      LIDX_INVARIANT(run != nullptr, "lsm: L0 run allocated");
      run->CheckInvariants();
      LIDX_INVARIANT(run->size() <= options_.memtable_limit,
                     "lsm: L0 run no larger than one memtable flush");
    }
    LIDX_INVARIANT(layout.levels.size() <= kMaxLevels,
                   "lsm: level count bound");
    for (size_t level = 0; level < layout.levels.size(); ++level) {
      if (layout.levels[level] == nullptr) continue;
      layout.levels[level]->CheckInvariants();
      LIDX_INVARIANT(
          layout.levels[level]->size() <= LevelCapacity(level) ||
              level + 1 >= kMaxLevels,
          "lsm: level sizes follow the leveled capacity schedule");
    }
    store_.CheckInvariants();
  }

  // Total learned-model bytes across runs (0 in binary-search mode).
  size_t ModelSizeBytes() const {
    size_t total = 0;
    for (const RunRef& run : Runs()) total += run->ModelSizeBytes();
    return total;
  }

 private:
  // Shared (not unique): successive layouts share the runs they did not
  // rewrite, and a run — with a disk run's pages — is freed only when the
  // last layout or snapshot holding it is gone.
  using RunPtr = std::shared_ptr<Run>;
  using RunRef = std::shared_ptr<const Run>;

  // The memtable: default options, so its layout is reproducible outside
  // the tree (perfbench replays the tiered shape's hot tier with one).
  using Memtable = DynamicPgm<Key, RunEntry<Value>>;

  // One immutable run layout, published whole.
  struct Layout {
    std::vector<RunPtr> l0;      // Oldest first.
    std::vector<RunPtr> levels;  // levels[i] = L(i+1), single run or null.
  };

  // Calls `f` on the active memtable under the shared lock, then on the
  // sealed one (if any) under an epoch pin: the order every read probes.
  template <typename F>
  void ForEachMemtable(F&& f) const {
    {
      ReaderMutexLock lock(mem_mu_);
      f(active_);
    }
    const EpochManager::Guard guard = epoch_.Pin();
    if (const Memtable* sealed = sealed_.Acquire()) f(*sealed);
  }

  // Memtable::Insert overwrites, so one insert serves keys old and new.
  void Write(const Key& key, const RunEntry<Value>& entry) {
    bool full;
    {
      WriterMutexLock lock(mem_mu_);
      active_.Insert(key, entry);
      full = active_.size() >= options_.memtable_limit;
    }
    if (full) Seal();
  }

  // Seals the active memtable (a no-op when it is empty) and lands it as a
  // flush, inline or on the pool. At most one memtable is sealed, so a
  // flush still landing is waited out first; in background mode that is
  // where a writer that outruns its flushes stalls. The seal publishes the
  // sealed memtable under the writer lock, which is what makes the read
  // protocol exhaustive (class comment). Writer thread only.
  void Seal() {
    WaitForFlush();
    const Memtable* sealed;
    {
      WriterMutexLock lock(mem_mu_);
      if (active_.empty()) return;
      sealed = new Memtable(std::move(active_));
      active_ = Memtable();
      sealed_.Publish(sealed);
    }
    {
      MutexLock lock(mu_);
      flush_inflight_ = true;
    }
    if (options_.background_compaction) {
      ThreadPool::Shared().Submit([this, sealed] { LandFlush(sealed); });
    } else {
      LandFlush(sealed);
    }
  }

  // Ingests the sealed memtable, then clears the cell: the run is published
  // before readers stop probing the sealed memtable. `sealed` stays valid
  // until the cell is cleared, which only this flush does.
  void LandFlush(const Memtable* sealed) {
    std::vector<KV> entries;
    sealed->RangeScan(std::numeric_limits<Key>::lowest(),
                      std::numeric_limits<Key>::max(), &entries);
    Land(std::move(entries));
    MutexLock lock(mu_);
    sealed_.Publish(nullptr);
    // Free the sealed memtable now rather than every 64 retires (Install).
    epoch_.ReclaimSome();
    epoch_.ReclaimSome();
    flush_inflight_ = false;
    cv_.NotifyAll();  // WaitForFlush / WaitForCompactions.
  }

  void WaitForFlush() {
    MutexLock lock(mu_);
    while (flush_inflight_) cv_.Wait(mu_);
  }

  // Adds a sorted batch newer than every run (Ingest's contract): an L0 run,
  // or a merge into the levels for a batch past the memtable limit.
  void Land(std::vector<KV> entries) {
    if (entries.empty()) return;
    std::vector<KV> deep;  // A batch that skips L0.
    RunPtr run;
    if (entries.size() > options_.memtable_limit) {
      deep = std::move(entries);
    } else {
      run = store_.MakeRun(std::move(entries), options_);
    }
    MutexLock lock(mu_);
    // A deep batch merges L0 too, so it waits out a worker draining L0.
    while (!deep.empty() && compaction_inflight_) cv_.Wait(mu_);
    Layout next = Snapshot();
    if (run != nullptr) next.l0.push_back(std::move(run));
    if (!deep.empty() || (!options_.background_compaction &&
                          next.l0.size() > options_.l0_run_limit)) {
      next.levels =
          CompactIntoLevels(std::move(deep), next.l0, std::move(next.levels));
      next.l0.clear();
      ++inline_compactions_;
    }
    // Only background mode leaves L0 past its trigger.
    const bool trigger = next.l0.size() > options_.l0_run_limit;
    Install(std::move(next));
    if (trigger) ScheduleCompactionLocked();
  }

  size_t LevelCapacity(size_t level) const {
    size_t cap = options_.memtable_limit * options_.l0_run_limit;
    for (size_t i = 0; i <= level; ++i) cap *= options_.level_size_factor;
    return cap;
  }

  size_t BacklogBound() const {
    return options_.l0_run_limit * (options_.max_pending_compactions + 1);
  }

  // A copy of the current layout; its shared_ptrs keep the runs alive
  // after the pin drops.
  Layout Snapshot() const {
    const EpochManager::Guard guard = epoch_.Pin();
    return *layout_.Acquire();
  }

  // Publishes `next` and reclaims at once rather than every 64 retires:
  // with no reader pinned, two epoch advances free the layout just
  // replaced and every run only it held (a disk run's pages return to the
  // file's free list).
  void Install(Layout next) LIDX_REQUIRES(mu_) {
    layout_.Publish(new Layout(std::move(next)));
    epoch_.ReclaimSome();
    epoch_.ReclaimSome();
  }

  // Background mode, L0 past its trigger: starts the worker, or — when
  // one is already draining L0 — stalls the writer while it has outrun
  // compaction by the whole backlog allowance (the bounded queue). May
  // release mu_ inside cv_.Wait.
  void ScheduleCompactionLocked() LIDX_REQUIRES(mu_) {
    const size_t bound = BacklogBound();
    while (compaction_inflight_ && Snapshot().l0.size() > bound) {
      cv_.Wait(mu_);
    }
    if (!compaction_inflight_ &&
        Snapshot().l0.size() > options_.l0_run_limit) {
      compaction_inflight_ = true;
      ThreadPool::Shared().Submit([this] { BackgroundCompact(); });
    }
  }

  // Pool-worker body: repeatedly snapshot the layout, merge its L0 batch
  // into the levels outside the lock, and install the result. The merge
  // reads only immutable runs and options_ (a disk run drains through
  // positional reads and new pages come from the thread-safe allocator,
  // so neither pollutes the cache nor races foreground reads). Runs
  // flushed while merging append behind the batch, and nothing else
  // rewrites the levels while a worker is in flight, so replacing the
  // batch prefix and the levels afterwards is exact.
  void BackgroundCompact() {
    mu_.Lock();
    for (Layout batch = Snapshot(); batch.l0.size() > options_.l0_run_limit;
         batch = Snapshot()) {
      mu_.Unlock();
      std::vector<RunPtr> levels =
          CompactIntoLevels({}, batch.l0, std::move(batch.levels));
      mu_.Lock();
      Layout next = Snapshot();
      next.l0.erase(next.l0.begin(),
                    next.l0.begin() +
                        static_cast<std::ptrdiff_t>(batch.l0.size()));
      next.levels = std::move(levels);
      Install(std::move(next));
      ++background_compactions_;
      cv_.NotifyAll();  // Writers stalled on the backlog bound.
    }
    compaction_inflight_ = false;
    cv_.NotifyAll();  // WaitForCompactions / re-schedulers / deep ingests.
    mu_.Unlock();
  }

  // Merges `newest` (may be empty) and an L0 batch into a copy of the
  // levels and returns the new levels. Old runs stay alive (a disk run's
  // pages stay allocated) until the caller installs the result and the
  // last reference drops, so this is safe off the lock while the tree
  // keeps serving from the old runs.
  std::vector<RunPtr> CompactIntoLevels(std::vector<KV> newest,
                                        const std::vector<RunPtr>& l0_batch,
                                        std::vector<RunPtr> levels) {
    std::vector<std::vector<KV>> runs;
    runs.reserve(l0_batch.size() + 1);
    // Newest first so MergeStreams keeps the freshest version per key.
    if (!newest.empty()) runs.push_back(std::move(newest));
    for (auto it = l0_batch.rbegin(); it != l0_batch.rend(); ++it) {
      runs.push_back((*it)->Drain());
    }
    PushIntoLevel(0, Merge(std::move(runs)), &levels);
    return levels;
  }

  // Merges drained newest-first runs; MergeStreams borrows them as spans,
  // and a lone run needs no merge.
  std::vector<KV> Merge(std::vector<std::vector<KV>> runs) const {
    if (runs.size() == 1) return std::move(runs.front());
    const std::vector<EntrySpan<Key, Value>> spans(runs.begin(), runs.end());
    return MergeStreams<Key, Value>(spans, options_.compaction_threads);
  }

  void PushIntoLevel(size_t level, std::vector<KV> entries,
                     std::vector<RunPtr>* levels) {
    while (levels->size() <= level) levels->push_back(nullptr);
    if ((*levels)[level] != nullptr) {
      std::vector<std::vector<KV>> runs;
      runs.push_back(std::move(entries));         // Newer.
      runs.push_back((*levels)[level]->Drain());  // Older.
      (*levels)[level] = nullptr;
      entries = Merge(std::move(runs));
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
          store_.MakeRun(std::move(entries), options_);
    }
  }

  static constexpr size_t kMaxLevels = 8;

  Options options_;
  // Declared before the epoch manager and the layout cell: members destroy
  // in reverse order, so the current layout and every retired one free
  // their runs (a DiskRun frees its pages through the store) first.
  [[no_unique_address]] Store store_;
  mutable EpochManager epoch_;
  ShadowCell<Layout> layout_{&epoch_};      // lidx: epoch-protected
  ShadowCell<Memtable> sealed_{&epoch_};    // lidx: epoch-protected
  mutable SharedMutex mem_mu_;
  Memtable active_ LIDX_GUARDED_BY(mem_mu_);
  // mu_ serialises layout publishers and guards the scheduler state.
  mutable Mutex mu_;
  mutable CondVar cv_;
  bool flush_inflight_ LIDX_GUARDED_BY(mu_) = false;
  bool compaction_inflight_ LIDX_GUARDED_BY(mu_) = false;
  size_t inline_compactions_ LIDX_GUARDED_BY(mu_) = 0;
  size_t background_compactions_ LIDX_GUARDED_BY(mu_) = 0;
};

}  // namespace lidx

#endif  // LIDX_LSM_LSM_TREE_H_
