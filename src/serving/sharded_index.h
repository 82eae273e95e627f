#ifndef LIDX_SERVING_SHARDED_INDEX_H_
#define LIDX_SERVING_SHARDED_INDEX_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "adapt/error_monitor.h"
#include "common/epoch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/search.h"
#include "common/thread_annotations.h"
#include "common/value_slot.h"
#include "lsm/merge.h"
#include "lsm/run.h"

namespace lidx {

namespace serving_detail {

// Uniform bulk-load adapter over the heterogeneous index constructors:
// (keys, values) BulkLoad (ALEX, LIPP, DynamicPgm), (keys, values) Build
// (PgmIndex, RMI-style frozen indexes), and pair-vector BulkLoad (B+-tree).
template <typename Index, typename Key, typename Value>
void BulkLoadInto(Index* index, std::vector<Key> keys,
                  std::vector<Value> values) {
  if constexpr (requires { index->BulkLoad(keys, values); }) {
    index->BulkLoad(std::move(keys), std::move(values));
  } else if constexpr (requires {
                         index->Build(std::move(keys), std::move(values));
                       }) {
    index->Build(std::move(keys), std::move(values));
  } else {
    std::vector<std::pair<Key, Value>> pairs(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      pairs[i] = {keys[i], values[i]};
    }
    index->BulkLoad(pairs);
  }
}

// The index that keeps an inner index's rows as whole sorted key and value
// columns, which a rebuild reads in place and an update of a held key
// writes in place: PgmIndex and Rmi are their own, DynamicPgm's is its sole
// component while it is one bulk-loaded component (every snapshot a
// ShardedIndex builds), nullptr otherwise. The indexes that keep no
// columns (ALEX, LIPP, B+-tree) do not satisfy LendsColumns.
template <typename Index>
const auto* ColumnarOf(const Index& index) {
  if constexpr (requires { index.SoleComponent(); }) {
    return index.SoleComponent();
  } else {
    return &index;
  }
}

template <typename Index, typename Key>
concept LendsColumns = requires(const Index& index, const Key& key) {
  ColumnarOf(index)->keys();
  ColumnarOf(index)->values();
  { ColumnarOf(index)->LowerBound(key) } -> std::convertible_to<size_t>;
};

// The columns ColumnarOf lends, as spans; nullopt when there are none.
template <typename Key, typename Value, typename Index>
std::optional<std::pair<std::span<const Key>, std::span<const Value>>>
ColumnsOf(const Index& index) {
  if constexpr (LendsColumns<Index, Key>) {
    if (const auto* columnar = ColumnarOf(index)) {
      return std::pair<std::span<const Key>, std::span<const Value>>(
          columnar->keys(), columnar->values());
    }
  }
  return std::nullopt;
}

template <typename Index, typename Key, typename Value>
concept HasLookupBatch = requires(const Index& index, const Key* k, size_t n,
                                  Value* out) {
  index.LookupBatch(k, n, out);
};

// An inner index whose snapshot can report its own observed position error
// (today Rmi): the read monitor records |PredictPosition - LowerBound| for
// it instead of probe depth.
template <typename Index, typename Key>
concept HasPositionError = requires(const Index& index, const Key& key) {
  { index.PredictPosition(key) } -> std::convertible_to<size_t>;
  { index.LowerBound(key) } -> std::convertible_to<size_t>;
};

template <typename Index>
concept HasSizeBytes = requires(const Index& index) {
  { index.SizeBytes() } -> std::convertible_to<size_t>;
};

}  // namespace serving_detail

// Range-sharded concurrent serving layer over any of the repo's 1-D
// indexes (tutorial §6.5: concurrency as a first-class citizen; design
// informed by *Are Updatable Learned Indexes Ready?*, PAPERS.md).
//
// Layout. Keys are range-partitioned across shards whose boundaries are
// quantiles of a sample CDF taken at BulkLoad, so shards stay balanced
// under skewed key distributions. The shard array and its boundaries live
// in an immutable, epoch-protected Table so the partitioning itself can be
// re-learned at runtime (Rebalance) without ever blocking readers. Each
// shard is a small multi-version structure:
//
//   active buffer  -> sealed buffers -> sorted delta -> snapshot index
//   (append-only)     (immutable)       (immutable)     (immutable Index)
//
//  * Writers take a per-shard writer mutex (writers contend only within a
//    shard). Updates go in place, inserts through the delta (XIndex's
//    split; the tutorial's in-place and delta-buffer strategies, §4.4): a
//    write of a key the snapshot holds live, that no newer level can
//    shadow (every buffer's and the delta's filter rules it out), stores
//    its value straight into the snapshot's value column when the inner
//    lends its columns (PgmIndex, Rmi, a bulk-loaded DynamicPgm) and
//    std::atomic_ref holds a Value lock-free (kUpdatesInPlace). Every
//    other write (a fresh key, a tombstone, a key a newer level may hold,
//    any write to another inner) appends a {key, value, tombstone} entry
//    to the shard's active buffer. A full buffer is *sealed* — moved
//    intact onto the sealed list, O(1) — and replaced by a fresh one, so
//    writer latency has no rebuild cliff: the p999 insert is a seal, not a
//    retrain.
//  * A drain task on the shared ThreadPool merges sealed buffers into the
//    sorted delta (newest-wins, tombstone-preserving, via lsm/merge.h
//    MergeStreams — the shard-local memtable draining through shared
//    compaction; the published delta is borrowed as a span, not copied)
//    and, when the delta outgrows `rebuild_fraction` of the snapshot,
//    rebuilds the snapshot index from scratch via the index's own bulk
//    load. The rebuild reads the snapshot's own key and value columns in
//    place (DynamicPgm, PgmIndex and Rmi keep them; ALEX, LIPP and the
//    B+-tree are scanned and split into two first), and lsm/merge.h
//    MergeColumns gallops the delta into them, block-copying the
//    untouched stretches into new columns sized to the live count. The
//    bulk load keeps those columns and trains its model over them. All
//    heavy work happens on immutable inputs, off the writer path: a drain
//    that may rebuild turns in-place writes off when it captures its
//    inputs, and its publish turns them back on, so no store lands in a
//    value column after the rebuild has copied it (XIndex's two-phase
//    compaction solves the same problem).
//  * Readers never block and take no locks. A read pins an epoch
//    (common/epoch.h), loads the table, routes, loads the shard's current
//    State pointer, and probes newest-to-oldest: active buffer (backwards
//    linear scan), sealed buffers, delta (binary search), snapshot
//    (learned lookup). Every buffer and the delta carry a two-probe
//    membership bitmap (~8 bits per entry they are sized for, at most
//    0.03 B per key on the perfbench serve workloads), so a read hashes
//    its key once and skips each newer level that cannot hold it; most
//    reads under writes go straight to the snapshot. Epoch reclamation
//    guarantees the Table, the State and everything they reference stay
//    alive until the reader unpins.
//  * A scan pins once and borrows each overlapping shard's levels instead
//    of copying them: the delta is sliced in place and only the buffers'
//    in-range entries are gathered. With no buffered or delta entry in
//    range the snapshot appends straight into the caller's rows; otherwise
//    lsm/merge.h MergeLive merges the levels newest-wins into them.
//
// Over PgmIndex snapshots with 64 shards, 1024-entry buffers,
// rebuild_min_delta 1024, rebuild_fraction 0 and inline drains, this is
// the XIndex-style index (Tang et al., PPoPP 2020) that E13 measures.
//
// Adaptation hooks (the serving-side "sense" and "act" surface used by
// src/adapt/):
//  * With Options::collect_shard_stats, every read records one observation
//    into the table's ErrorMonitor (one padded segment per shard, relaxed
//    counters): the snapshot model's position error for an inner index
//    with PredictPosition/LowerBound, probe depth for every other inner.
//    TakeShardStats() snapshots the monitor together with per-level entry
//    counts — the signal a controller turns into capacity / skew /
//    staleness decisions.
//  * Rebalance(new_num_shards) re-learns the partitioning online: it
//    collects every live entry, recomputes boundaries as *traffic-weighted*
//    quantiles (pure data quantiles when stats are off), bulk-loads fresh
//    per-shard snapshots, and release-publishes a new Table; the old one
//    is epoch-retired. Readers keep probing the old table under their
//    pins; writers stall on the shard mutexes and retry against the new
//    table.
//  * RequestShardRebuild(s) force-drains one shard down to a freshly
//    bulk-loaded snapshot even when the delta is below the rebuild
//    threshold — the "retrain this model now" action.
//
// Memory-order contract (kept in sync with common/epoch.h):
//  * `table_` and Shard::state are published with release stores and read
//    with acquire loads; Tables and States are immutable after publication
//    (the active Buffer's append tail, the read monitor's counters and the
//    snapshot's value column are the exceptions, governed by Buffer::size,
//    relaxed atomics and std::atomic_ref respectively).
//  * Buffer entries are published by a release store of Buffer::size;
//    readers acquire-load size and may then read slots [0, size). Slots
//    are append-only — a published entry is never overwritten. A writer
//    marks the buffer's filter before that store, so a reader that sees
//    an entry also sees its filter bits.
//  * A snapshot's value column is the one published data a writer
//    overwrites: an in-place update stores under write_mu through
//    std::atomic_ref (relaxed), and every read of a value column an inner
//    with columns serves (Find, LookupBatch, RangeScan) loads through it
//    (common/value_slot.h), so a reader sees the old or the new value,
//    never a torn one. A rebuild copies the column with plain reads; no
//    store races that copy, because in-place writes are off from the
//    rebuilding drain's capture to its publish, both under write_mu, and
//    Rebalance holds every write_mu while it collects.
//  * Old Tables/States are unlinked (store) *before* EpochManager::Retire,
//    and freed only at quiescence; components shared between consecutive
//    States (snapshot, delta, buffers) are refcounted via shared_ptr,
//    whose count is only manipulated by writers/drainers, never readers.
//  * The drain/rebalance handshake (drains_paused_, pending_drains_) uses
//    seq_cst: TryScheduleDrain registers in pending_drains_ and *then*
//    re-checks drains_paused_ and the table identity, while Rebalance
//    stores drains_paused_ and *then* reads pending_drains_. The seq_cst
//    total order makes the classic store/load (Dekker) race impossible:
//    either the drain backs off, or the rebalance waits for it — so no
//    drain task ever holds a Table pointer across that table's retirement.
template <typename Index, typename Key = uint64_t, typename Value = uint64_t>
class ShardedIndex {
 public:
  struct Options {
    size_t num_shards = 16;
    // Active write-buffer capacity (entries). Smaller buffers mean
    // cheaper read-side scans but more frequent seals. A shard seals once
    // per buffer_capacity writes to it, so a capacity below 1000 puts
    // seals (the slowest insert path) inside the p999 write latency.
    size_t buffer_capacity = 128;
    // The snapshot is rebuilt when the merged delta exceeds
    // max(rebuild_min_delta, rebuild_fraction * snapshot entries).
    size_t rebuild_min_delta = 4096;
    double rebuild_fraction = 0.25;
    // Drain on the shared thread pool (true) or inline on the writer
    // thread after each seal (false; deterministic, used by fuzz tests).
    bool background_drain = true;
    // Threads used to bulk-load the per-shard snapshots.
    size_t build_threads = 1;
    // Record every read into a per-shard ErrorMonitor segment (relaxed
    // counters on a shard-private cache line). Off by default so read
    // scaling benchmarks are unaffected; the adaptation layer turns it on
    // to sense model error, read amplification and skew.
    bool collect_shard_stats = false;
  };

  // Whether an update of a key the snapshot holds can go in place: the
  // inner lends its columns and std::atomic_ref holds a word-sized Value
  // lock-free (common/value_slot.h). See the class comment for the rest of
  // the rule.
  static constexpr bool kUpdatesInPlace =
      serving_detail::LendsColumns<Index, Key> && InPlaceStorable<Value>();

  explicit ShardedIndex(const Options& options = Options(),
                        EpochManager* epoch = &EpochManager::Shared())
      : options_(options), epoch_(epoch) {
    LIDX_CHECK(options_.num_shards >= 1);
    LIDX_CHECK(options_.buffer_capacity >= 1);
    Table* table = new Table(options_.num_shards, options_.collect_shard_stats);
    table->version = next_table_version_.fetch_add(1, std::memory_order_relaxed);
    table->boundaries.assign(options_.num_shards, Key{});
    for (size_t s = 0; s < options_.num_shards; ++s) {
      table->shards[s].state.store(EmptyState(), std::memory_order_relaxed);
    }
    table_.store(table, std::memory_order_release);
  }

  ~ShardedIndex() {
    WaitForDrains();
    // lidx-lint: allow(epoch-guard): destructor — readers are gone.
    delete table_.load(std::memory_order_relaxed);
    // Retired Tables/States self-contain their payloads (shared_ptr), so
    // they may outlive this index; nudge the collector anyway.
    epoch_->ReclaimSome();
  }

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  // Bulk-loads sorted strictly-increasing keys. Shard boundaries are the
  // quantiles of an evenly spaced key sample (the empirical CDF), so each
  // shard receives ~n/num_shards keys regardless of key-space skew. Not
  // thread-safe; call before sharing the index. Resets the shard count to
  // Options::num_shards and the stat counters to zero.
  void BulkLoad(const std::vector<Key>& keys,
                const std::vector<Value>& values) {
    LIDX_CHECK(keys.size() == values.size());
    WaitForDrains();
    const size_t n = keys.size();
    const size_t shards_n = options_.num_shards;
    std::vector<Key> boundaries(shards_n, n == 0 ? Key{} : keys.front());
    if (n > 0) {
      // Sample the CDF: up to kBoundarySample evenly spaced (key, rank)
      // points, then place boundary s at the sample's s/num_shards
      // quantile. With sorted input the sample quantile converges on the
      // exact rank quantile as the sample grows.
      const size_t sample_n = std::min(kBoundarySample, n);
      for (size_t s = 1; s < shards_n; ++s) {
        const size_t sample_rank = s * sample_n / shards_n;
        boundaries[s] =
            keys[sample_rank * (n - 1) / (sample_n - 1 + (sample_n == 1))];
      }
    }
    NormalizeBoundaries(&boundaries);
    Table* table = BuildTable(keys, values, std::move(boundaries));
    Table* old = table_.exchange(table, std::memory_order_acq_rel);
    retired_in_place_writes_.fetch_add(InPlaceWrites(*old),
                                      std::memory_order_relaxed);
    delete old;  // BulkLoad is not concurrent with readers by contract.
  }

  // Lock-free point lookup; never blocks on writers, drains or rebalances.
  std::optional<Value> Find(const Key& key) const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    const size_t s = Route(*table, key);
    const State* state = table->shards[s].state.load(std::memory_order_acquire);
    epoch_->AssertProtected(state);
    size_t depth = 0;
    const Index* probed = nullptr;
    std::optional<Value> result;
    if (std::optional<std::optional<Value>> hit =
            ProbeBuffersAndDelta(*state, key, &depth)) {
      result = *hit;
    } else if (state->snapshot != nullptr) {
      depth += 2;  // Model traversal plus last-mile search.
      probed = state->snapshot.get();
      result = probed->Find(key);
    }
    if (options_.collect_shard_stats) RecordRead(*table, s, probed, key, depth);
    return result;
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Batched lookups routed per shard under a single epoch pin. Each key
  // is routed once, the batch is grouped by shard with one counting pass,
  // and keys that fall through every newer level of a shard are resolved
  // against its snapshot via the snapshot's own LookupBatch (AMAC prefetch
  // interleaving) when it has one. Contract matches the 1-D indexes:
  // out[i] = Value{} for absent keys.
  void FindBatch(const Key* keys, size_t count, Value* out) const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    const size_t num_shards = table->num_shards;
    std::vector<size_t> shard_of(count);
    std::vector<size_t> offsets(num_shards + 1, 0);
    for (size_t i = 0; i < count; ++i) {
      shard_of[i] = Route(*table, keys[i]);
      ++offsets[shard_of[i] + 1];
    }
    for (size_t s = 0; s < num_shards; ++s) offsets[s + 1] += offsets[s];
    // Bucketing advances offsets[s] from the start of shard s's group to
    // its end, so afterwards shard s spans [offsets[s - 1], offsets[s]).
    std::vector<size_t> order(count);
    for (size_t i = 0; i < count; ++i) order[offsets[shard_of[i]]++] = i;
    std::vector<Key> batch_keys;
    std::vector<Value> batch_out;
    const bool stats = options_.collect_shard_stats;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t begin = s == 0 ? 0 : offsets[s - 1];
      const size_t end = offsets[s];
      if (begin == end) continue;
      const State* state =
          table->shards[s].state.load(std::memory_order_acquire);
      epoch_->AssertProtected(state);
      // Keys left for the snapshot are compacted to the group's front.
      size_t pending_end = begin;
      for (size_t j = begin; j < end; ++j) {
        const size_t i = order[j];
        size_t depth = 0;
        const Index* probed = nullptr;
        if (std::optional<std::optional<Value>> hit =
                ProbeBuffersAndDelta(*state, keys[i], &depth)) {
          out[i] = hit->has_value() ? **hit : Value{};
        } else if (state->snapshot != nullptr) {
          order[pending_end++] = i;
          depth += 2;
          probed = state->snapshot.get();
        } else {
          out[i] = Value{};
        }
        if (stats) RecordRead(*table, s, probed, keys[i], depth);
      }
      if (pending_end == begin) continue;
      const Index& snapshot = *state->snapshot;
      if constexpr (serving_detail::HasLookupBatch<Index, Key, Value>) {
        batch_keys.clear();
        for (size_t j = begin; j < pending_end; ++j) {
          batch_keys.push_back(keys[order[j]]);
        }
        batch_out.resize(batch_keys.size());
        snapshot.LookupBatch(batch_keys.data(), batch_keys.size(),
                             batch_out.data());
        for (size_t j = begin; j < pending_end; ++j) {
          out[order[j]] = batch_out[j - begin];
        }
      } else {
        for (size_t j = begin; j < pending_end; ++j) {
          out[order[j]] = snapshot.Find(keys[order[j]]).value_or(Value{});
        }
      }
    }
  }

  void Insert(const Key& key, const Value& value) {
    Upsert(key, value, /*tombstone=*/false);
  }

  // Blind tombstone write plus a pre-read for the return value (the
  // existence answer is racy under concurrent writers, like any
  // check-then-act; the tombstone itself is always correct).
  bool Erase(const Key& key) {
    const bool existed = Find(key).has_value();
    Upsert(key, Value{}, /*tombstone=*/true);
    return existed;
  }

  // Merged scan across every level of every overlapping shard. Bounds are
  // inclusive, matching the 1-D indexes.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    if (hi < lo) return;
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    const size_t first = Route(*table, lo);
    for (size_t s = first; s < table->num_shards; ++s) {
      if (s > first && table->boundaries[s] > hi) break;
      CollectShardRange(*table, s, lo, hi, out);
    }
  }

  // Live entry count (full merge walk; O(n), intended for tests).
  size_t size() const {
    std::vector<std::pair<Key, Value>> all;
    RangeScan(std::numeric_limits<Key>::lowest(),
              std::numeric_limits<Key>::max(), &all);
    return all.size();
  }

  size_t SizeBytes() const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    size_t total = sizeof(*this) + sizeof(Table) +
                   table->boundaries.capacity() * sizeof(Key) +
                   table->num_shards * sizeof(Shard);
    for (size_t s = 0; s < table->num_shards; ++s) {
      const State* state =
          table->shards[s].state.load(std::memory_order_acquire);
      epoch_->AssertProtected(state);
      total += sizeof(State) + state->active->SizeBytes();
      for (const auto& b : state->sealed) total += b->SizeBytes();
      if (state->delta != nullptr) {
        // Entries, not capacity: the merge that built the delta reserved
        // its inputs' sum, so the slack is one drain's duplicate keys.
        total += state->delta->run.size() * sizeof(typename Run::value_type) +
                 state->delta->filter.SizeBytes();
      }
      if (state->snapshot != nullptr) {
        if constexpr (serving_detail::HasSizeBytes<Index>) {
          total += state->snapshot->SizeBytes();
        }
      }
    }
    return total;
  }

  // Blocks until no drain task is queued or running, lending the calling
  // thread to the shared pool meanwhile (so a wait on a small pool cannot
  // deadlock behind its own queued drain). Writers should be quiesced
  // first or drains may keep re-arming.
  void WaitForDrains() const {
    while (pending_drains_.load() != 0) {
      if (!ThreadPool::Shared().TryRunOne()) std::this_thread::yield();
    }
  }

  // Forces every shard's buffered writes down into delta/snapshot (used
  // by tests to reach a deterministic fully-drained state). Retries if a
  // concurrent Rebalance swaps the table mid-flush.
  void FlushAll() {
    for (;;) {
      while (drains_paused_.load()) std::this_thread::yield();
      EpochManager::Guard guard = epoch_->Pin();
      Table* table = table_.load(std::memory_order_acquire);
      epoch_->AssertProtected(table);
      bool retry = false;
      for (size_t s = 0; s < table->num_shards; ++s) {
        Shard& shard = table->shards[s];
        {
          MutexLock lock(shard.write_mu);
          if (table_.load(std::memory_order_acquire) != table) {
            retry = true;
            break;
          }
          State* state = shard.state.load(std::memory_order_relaxed);
          if (state->active->size.load(std::memory_order_relaxed) > 0) {
            SealLocked(&shard, state);
          }
        }
        TryScheduleDrain(table, s, /*force_inline=*/true);
      }
      WaitForDrains();
      if (!retry && !drains_paused_.load() &&
          table_.load(std::memory_order_acquire) == table) {
        return;
      }
    }
  }

  // Rebuilds the entire shard table online: collects every live entry
  // under the shard writer locks, recomputes boundaries as
  // traffic-weighted quantiles of the observed per-shard lookup counts
  // (pure data quantiles when collect_shard_stats is off or counters are
  // flat), bulk-loads fresh per-shard snapshots and atomically publishes
  // the new table. `new_num_shards == 0` keeps the current shard count.
  //
  // Readers are never blocked: in-flight readers finish against the old
  // table under their epoch pins, and the old table is retired, not
  // freed. Writers block on the shard mutexes for the duration and then
  // retry against the new table. Returns false if another rebalance was
  // already in flight. Safe to call from a pool worker (the drain wait
  // participates in the pool).
  bool Rebalance(size_t new_num_shards = 0) {
    if (rebalance_inflight_.exchange(true, std::memory_order_acq_rel)) {
      return false;
    }
    // Stop new drains from registering, then wait out (or run) the ones
    // already registered — after this, no drain task holds a pointer into
    // the live table. See the seq_cst handshake note in the class comment.
    drains_paused_.store(true);
    WaitForDrains();
    {
      EpochManager::Guard guard = epoch_->Pin();
      Table* table = table_.load(std::memory_order_acquire);
      epoch_->AssertProtected(table);
      const size_t old_n = table->num_shards;
      const size_t new_n = new_num_shards == 0 ? old_n : new_num_shards;
      LockAllShards(table);
      // With every writer lock held the shard contents are frozen.
      // Collect per-shard live entries (shards are key-ordered, so their
      // concatenation is globally sorted) plus per-shard traffic weights.
      std::vector<Key> keys;
      std::vector<Value> values;
      std::vector<size_t> shard_ends(old_n, 0);
      std::vector<uint64_t> weights(old_n, 0);
      std::vector<std::pair<Key, Value>> pairs;
      const ErrorMonitor::Snapshot reads = table->monitor.TakeSnapshot();
      for (size_t s = 0; s < old_n; ++s) {
        pairs.clear();
        CollectShardRange(*table, s, std::numeric_limits<Key>::lowest(),
                          std::numeric_limits<Key>::max(), &pairs);
        for (const auto& [k, v] : pairs) {
          keys.push_back(k);
          values.push_back(v);
        }
        shard_ends[s] = keys.size();
        // +1 smoothing: with stats disabled every shard weighs the same
        // and the boundaries fall back to pure data quantiles.
        weights[s] = reads.segments[s].ops + 1;
      }
      std::vector<Key> boundaries =
          WeightedBoundaries(keys, shard_ends, weights, new_n);
      Table* next = BuildTable(keys, values, std::move(boundaries));
      retired_in_place_writes_.fetch_add(InPlaceWrites(*table),
                                         std::memory_order_relaxed);
      table_.store(next, std::memory_order_release);
      UnlockAllShards(table);
      // Unlink-then-retire: blocked writers still hold references to the
      // old table's mutexes, so it must stay alive until they (and any
      // pinned readers) move on — exactly what epoch retirement gives us.
      epoch_->RetireDelete(table);
      rebalance_count_.fetch_add(1, std::memory_order_relaxed);
    }
    drains_paused_.store(false);
    rebalance_inflight_.store(false, std::memory_order_release);
    return true;
  }

  // Forces shard `s` of the current table through a drain that rebuilds
  // its snapshot even when the delta is below the rebuild threshold — the
  // "retrain this shard's model now" adaptation action. No-op if `s` is
  // out of range or a rebalance swallows the request (the rebalance
  // rebuilds every snapshot anyway).
  void RequestShardRebuild(size_t s) {
    EpochManager::Guard guard = epoch_->Pin();
    Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    if (s >= table->num_shards) return;
    table->shards[s].force_rebuild.store(true, std::memory_order_release);
    TryScheduleDrain(table, s, /*force_inline=*/false);
  }

  struct Stats {
    uint64_t seals;
    uint64_t drains;
    uint64_t rebuilds;
    uint64_t rebalances;
    uint64_t in_place_writes;  // Updates stored into a snapshot's column.
  };
  Stats GetStats() const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    return Stats{seal_count_.load(std::memory_order_relaxed),
                 drain_count_.load(std::memory_order_relaxed),
                 rebuild_count_.load(std::memory_order_relaxed),
                 rebalance_count_.load(std::memory_order_relaxed),
                 retired_in_place_writes_.load(std::memory_order_relaxed) +
                     InPlaceWrites(*table)};
  }

  // Per-shard sensing snapshot for the adaptation layer. The read monitor
  // is cumulative for the lifetime of the current table (it restarts at
  // zero after a Rebalance — the table version tells consumers when that
  // happened), so a window is reads.DeltaSince(earlier.reads) within one
  // version.
  struct ShardStat {
    uint64_t lookups = 0;      // reads.segments[s].ops.
    uint64_t probe_depth = 0;  // reads.segments[s].error_sum.
    size_t buffered = 0;       // Entries in active + sealed buffers.
    size_t delta = 0;          // Entries in the sorted delta.
    size_t snapshot = 0;       // Entries in the snapshot index.
  };
  struct ShardStatsSnapshot {
    uint64_t table_version = 0;
    ErrorMonitor::Snapshot reads;  // One segment per shard.
    std::vector<ShardStat> shards;
  };
  ShardStatsSnapshot TakeShardStats() const {
    ShardStatsSnapshot out;
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    out.table_version = table->version;
    out.reads = table->monitor.TakeSnapshot();
    out.shards.resize(table->num_shards);
    for (size_t s = 0; s < table->num_shards; ++s) {
      ShardStat& stat = out.shards[s];
      stat.lookups = out.reads.segments[s].ops;
      stat.probe_depth = out.reads.segments[s].error_sum;
      const State* state =
          table->shards[s].state.load(std::memory_order_acquire);
      epoch_->AssertProtected(state);
      stat.buffered = state->active->size.load(std::memory_order_acquire);
      for (const auto& b : state->sealed) {
        stat.buffered += b->size.load(std::memory_order_acquire);
      }
      if (state->delta != nullptr) stat.delta = state->delta->run.size();
      stat.snapshot = state->snapshot_size;
    }
    return out;
  }

  size_t num_shards() const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    return table->num_shards;
  }

  uint64_t table_version() const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    return table->version;
  }

  // Structural invariants over every published shard state: non-decreasing
  // boundaries, buffers within capacity, a sorted unique delta, every
  // buffered and delta key passing its level's filter, and every buffered,
  // delta and snapshot key routing back to its shard. Lock-free
  // and safe to run concurrently with readers, writers, drains and
  // rebalances. Aborts on violation.
  void CheckInvariants() const {
    EpochManager::Guard guard = epoch_->Pin();
    const Table* table = table_.load(std::memory_order_acquire);
    epoch_->AssertProtected(table);
    const size_t num_shards = table->num_shards;
    LIDX_INVARIANT(table->boundaries.size() == num_shards,
                   "sharded: boundary per shard");
    invariants::CheckSorted(table->boundaries,
                            "sharded: boundaries non-decreasing");
    for (size_t s = 0; s < num_shards; ++s) {
      const State* state =
          table->shards[s].state.load(std::memory_order_acquire);
      epoch_->AssertProtected(state);
      const size_t active_n =
          state->active->size.load(std::memory_order_acquire);
      LIDX_INVARIANT(active_n <= state->active->capacity,
                     "sharded: active buffer within capacity");
      const auto check_buffer = [&](const Buffer& b) {
        const size_t n = b.size.load(std::memory_order_acquire);
        LIDX_INVARIANT(n <= b.capacity, "sharded: buffer within capacity");
        for (size_t i = 0; i < n; ++i) {
          LIDX_INVARIANT(b.filter.MayContain(FilterHash(b.slots[i].key)),
                         "sharded: buffered key passes its buffer's filter");
          LIDX_INVARIANT(num_shards == 1 || Route(*table, b.slots[i].key) == s,
                         "sharded: buffered key routes to its shard");
        }
      };
      check_buffer(*state->active);
      for (const auto& b : state->sealed) check_buffer(*b);
      if (state->delta != nullptr) {
        const Run& d = state->delta->run;
        const Filter& filter = state->delta->filter;
        for (size_t i = 0; i < d.size(); ++i) {
          LIDX_INVARIANT(i == 0 || d[i - 1].first < d[i].first,
                         "sharded: delta sorted unique");
          LIDX_INVARIANT(filter.MayContain(FilterHash(d[i].first)),
                         "sharded: delta key passes the delta's filter");
          LIDX_INVARIANT(num_shards == 1 || Route(*table, d[i].first) == s,
                         "sharded: delta key routes to its shard");
        }
      }
      if (state->snapshot != nullptr) {
        if constexpr (HasCheckInvariants<Index>) {
          state->snapshot->CheckInvariants();
        }
        if (num_shards > 1) {
          std::vector<std::pair<Key, Value>> rows;
          state->snapshot->RangeScan(std::numeric_limits<Key>::lowest(),
                                     std::numeric_limits<Key>::max(), &rows);
          for (const auto& row : rows) {
            LIDX_INVARIANT(Route(*table, row.first) == s,
                           "sharded: snapshot key routes to its shard");
          }
        }
      }
    }
  }

 private:
  // CDF sample BulkLoad learns shard boundaries from. Exact rank quantiles
  // (boundary s at keys[s * n / num_shards]) balance no better, and on 2M
  // keys in 16 shards they doubled perfbench's bulk-load time: at those
  // shard sizes glibc's adaptive mmap/trim thresholds return each shard's
  // buffers to the kernel and the next build faults them back in (fixed
  // thresholds close the gap).
  static constexpr size_t kBoundarySample = 8192;

  struct Entry {
    Key key;
    Value value;
    bool tombstone;
  };

  // The one 64-bit mix of a key that both probes of every level's Filter
  // come from (murmur3's finalizer over std::hash), so a read hashes once.
  static uint64_t FilterHash(const Key& key) {
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  // Two-probe membership bitmap over one newer level: about 8 bits per
  // entry it is sized for, rounded up to a power-of-two word count. The
  // probes are the low and high halves of FilterHash. No false negatives;
  // a false positive costs only the probe it failed to skip. The words are
  // relaxed atomics because a buffer's filter is marked while readers test
  // it; marks come from one writer at a time, and a buffer publishes them
  // with the release store of `size` that follows.
  class Filter {
   public:
    explicit Filter(size_t entries)
        : num_words_(std::bit_ceil(std::max<size_t>(1, (entries + 7) / 8))),
          words_(std::make_unique<std::atomic<uint64_t>[]>(num_words_)) {}
    Filter(const Filter& other) : Filter(other.capacity()) {
      for (size_t w = 0; w < num_words_; ++w) {
        words_[w].store(other.words_[w].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      }
    }
    Filter(Filter&&) = default;

    // Entries the filter holds at its sizing of ~8 bits each.
    size_t capacity() const { return num_words_ * 8; }
    size_t SizeBytes() const { return num_words_ * sizeof(uint64_t); }

    void Mark(uint64_t hash) {
      Set(hash);
      Set(hash >> 32);
    }
    bool MayContain(uint64_t hash) const {
      return Test(hash) && Test(hash >> 32);
    }

   private:
    size_t Bit(uint64_t h) const {
      return static_cast<size_t>(h) & (num_words_ * 64 - 1);
    }
    void Set(uint64_t h) {
      const size_t bit = Bit(h);
      std::atomic<uint64_t>& word = words_[bit / 64];
      const uint64_t old = word.load(std::memory_order_relaxed);
      word.store(old | (uint64_t{1} << (bit % 64)), std::memory_order_relaxed);
    }
    bool Test(uint64_t h) const {
      const size_t bit = Bit(h);
      return (words_[bit / 64].load(std::memory_order_relaxed) >> (bit % 64)) &
             1;
    }

    size_t num_words_;
    std::unique_ptr<std::atomic<uint64_t>[]> words_;
  };

  // Append-only write buffer. Entries [0, size) are immutable and
  // published by the release store of `size`, together with their marks
  // in `filter`; see the class comment.
  struct Buffer {
    explicit Buffer(size_t cap)
        : slots(std::make_unique<Entry[]>(cap)), capacity(cap), filter(cap) {}
    size_t SizeBytes() const {
      return capacity * sizeof(Entry) + filter.SizeBytes();
    }
    std::unique_ptr<Entry[]> slots;
    size_t capacity;
    Filter filter;
    std::atomic<size_t> size{0};
  };

  // Sorted stream of one level, the input of lsm/merge.h newest-wins
  // merges (drains and scans alike). The delta level — the drained form of
  // sealed buffers — is one such run: sorted, unique, tombstone-carrying,
  // and immutable once published.
  using Run = std::vector<std::pair<Key, RunEntry<Value>>>;

  // The delta level and its filter, published together by the drain that
  // merged them and dropped together by a rebuild or a Rebalance.
  struct Delta {
    Run run;
    Filter filter;
  };

  // One immutable version of a shard. Never mutated after its release
  // publication (the active Buffer's append tail is the one exception,
  // governed by Buffer::size).
  struct State {
    std::shared_ptr<const Index> snapshot;
    size_t snapshot_size = 0;
    std::shared_ptr<const Delta> delta;
    std::vector<std::shared_ptr<Buffer>> sealed;  // Oldest -> newest.
    std::shared_ptr<Buffer> active;
  };

  struct alignas(64) Shard {
    // Readers must hold an EpochManager::Guard to dereference the loaded
    // pointer; writers load/publish it under write_mu.
    std::atomic<State*> state{nullptr};  // lidx: epoch-protected
    Mutex write_mu;
    // Bumped under write_mu; a per-shard count keeps concurrent writers to
    // different shards off one shared cache line.
    std::atomic<uint64_t> in_place_writes{0};
    // Off from the capture of a drain that may rebuild to its publish.
    bool in_place LIDX_GUARDED_BY(write_mu) = true;
    std::atomic<bool> drain_scheduled{false};
    std::atomic<bool> force_rebuild{false};

    ~Shard() {
      // lidx-lint: allow(epoch-guard): table/shard teardown runs at
      // epoch quiescence (or single-threaded) — readers are gone.
      delete state.load(std::memory_order_relaxed);
    }
  };

  // The whole partitioning — boundaries plus the shard array — as one
  // immutable, epoch-protected unit, so Rebalance can swap it atomically.
  struct Table {
    Table(size_t n, bool stats)
        : num_shards(n),
          shards(std::make_unique<Shard[]>(n)),
          monitor(n, stats) {}

    uint64_t version = 0;
    size_t num_shards;
    std::vector<Key> boundaries;  // boundaries[s] = first key of shard s.
    std::unique_ptr<Shard[]> shards;
    // Read sensing (Options::collect_shard_stats), segment s = shard s. Its
    // padded slots keep reader stat bumps off the lines that hold `state`.
    ErrorMonitor monitor;
  };

  State* EmptyState() {
    State* state = new State();
    state->active = std::make_shared<Buffer>(options_.buffer_capacity);
    return state;
  }

  // Duplicate boundaries (collapsed quantiles on tiny datasets) mark
  // empty shards; keep them non-decreasing so Route can normalize.
  static void NormalizeBoundaries(std::vector<Key>* boundaries) {
    for (size_t s = 1; s < boundaries->size(); ++s) {
      if ((*boundaries)[s] < (*boundaries)[s - 1]) {
        (*boundaries)[s] = (*boundaries)[s - 1];
      }
    }
  }

  // Routing within one immutable table: lock-free. The first shard of a
  // duplicate-boundary run owns the whole range, so normalize to it —
  // otherwise keys above the duplicated boundary would route to a shard
  // that never received the snapshot data.
  static size_t Route(const Table& table, const Key& key) {
    const std::vector<Key>& boundaries = table.boundaries;
    const size_t lb =
        BinarySearchLowerBound(boundaries, key, 0, boundaries.size());
    size_t s;
    if (lb < boundaries.size() && boundaries[lb] == key) {
      s = lb;
    } else {
      s = lb == 0 ? 0 : lb - 1;
    }
    while (s > 0 && boundaries[s] == boundaries[s - 1]) --s;
    return s;
  }

  // Builds a fully-loaded table from globally sorted (keys, values) and
  // normalized boundaries. The result is private to the caller until it
  // publishes the pointer.
  Table* BuildTable(const std::vector<Key>& keys,
                    const std::vector<Value>& values,
                    std::vector<Key> boundaries) {
    Table* table = new Table(boundaries.size(), options_.collect_shard_stats);
    table->version = next_table_version_.fetch_add(1, std::memory_order_relaxed);
    table->boundaries = std::move(boundaries);
    const size_t n = keys.size();
    std::vector<size_t> starts(table->num_shards + 1, 0);
    for (size_t s = 1; s < table->num_shards; ++s) {
      starts[s] = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), table->boundaries[s]) -
          keys.begin());
    }
    starts[table->num_shards] = n;
    // Route sends a duplicate-boundary run's keys to the run's first
    // shard, so that shard owns them: walking down, every later shard of
    // the run starts where its successor starts and stays empty.
    for (size_t s = table->num_shards; s-- > 1;) {
      if (table->boundaries[s] == table->boundaries[s - 1]) {
        starts[s] = starts[s + 1];
      }
    }
    ParallelForIndex(options_.build_threads, table->num_shards, [&](size_t s) {
      const size_t begin = starts[s];
      const size_t end = starts[s + 1];
      State* state = new State();
      state->active = std::make_shared<Buffer>(options_.buffer_capacity);
      if (begin < end) {
        auto index = std::make_shared<Index>();
        serving_detail::BulkLoadInto<Index, Key, Value>(
            index.get(),
            std::vector<Key>(keys.begin() + begin, keys.begin() + end),
            std::vector<Value>(values.begin() + begin, values.begin() + end));
        state->snapshot = std::move(index);
        state->snapshot_size = end - begin;
      }
      table->shards[s].state.store(state, std::memory_order_relaxed);
    });
    return table;
  }

  // Boundaries for `new_n` shards over globally sorted `keys`, weighting
  // each source shard's key range by its observed lookup traffic so hot
  // ranges get narrower shards. `shard_ends[s]` is the exclusive end of
  // shard s's slice of `keys`; flat weights reduce to data quantiles.
  static std::vector<Key> WeightedBoundaries(
      const std::vector<Key>& keys, const std::vector<size_t>& shard_ends,
      const std::vector<uint64_t>& weights, size_t new_n) {
    std::vector<Key> boundaries(new_n, keys.empty() ? Key{} : keys.front());
    if (keys.empty() || new_n <= 1) return boundaries;
    // Per-key weight = the source shard's traffic spread evenly over its
    // keys; empty source shards contribute nothing.
    std::vector<double> per_key(keys.size(), 0.0);
    double total = 0.0;
    size_t begin = 0;
    for (size_t s = 0; s < shard_ends.size(); ++s) {
      const size_t end = shard_ends[s];
      if (end > begin) {
        const double w = static_cast<double>(weights[s]) /
                         static_cast<double>(end - begin);
        for (size_t i = begin; i < end; ++i) per_key[i] = w;
        total += static_cast<double>(weights[s]);
      }
      begin = end;
    }
    // Boundary j starts where cumulative traffic crosses j/new_n of the
    // total. A single scorching key can absorb several quantiles; the
    // resulting duplicate boundaries collapse into empty shards, which
    // Route handles.
    double acc = 0.0;
    size_t j = 1;
    for (size_t i = 0; i + 1 < keys.size() && j < new_n; ++i) {
      acc += per_key[i];
      while (j < new_n &&
             acc >= total * static_cast<double>(j) / static_cast<double>(new_n)) {
        boundaries[j++] = keys[i + 1];
      }
    }
    NormalizeBoundaries(&boundaries);
    return boundaries;
  }

  static uint64_t InPlaceWrites(const Table& table) {
    uint64_t total = 0;
    for (size_t s = 0; s < table.num_shards; ++s) {
      total += table.shards[s].in_place_writes.load(std::memory_order_relaxed);
    }
    return total;
  }

  static void LockAllShards(Table* table) LIDX_NO_THREAD_SAFETY_ANALYSIS {
    // Runtime-sized lock set; always acquired in shard order and only by
    // the single-flight Rebalance, so there is no ordering cycle.
    // Allowlisted in docs/STATIC_ANALYSIS.md.
    for (size_t s = 0; s < table->num_shards; ++s) {
      table->shards[s].write_mu.Lock();
    }
  }

  static void UnlockAllShards(Table* table) LIDX_NO_THREAD_SAFETY_ANALYSIS {
    for (size_t s = 0; s < table->num_shards; ++s) {
      table->shards[s].write_mu.Unlock();
    }
  }

  // Records one read of shard `s`: for an inner index with a position
  // error, the error of the snapshot that answered it (`probed`; zero when
  // a buffer or the delta answered), otherwise the probe depth.
  static void RecordRead(const Table& table, size_t s, const Index* probed,
                         const Key& key, size_t depth) {
    if constexpr (serving_detail::HasPositionError<Index, Key>) {
      size_t error = 0;
      if (probed != nullptr) {
        const size_t predicted = probed->PredictPosition(key);
        const size_t actual = probed->LowerBound(key);
        error = predicted > actual ? predicted - actual : actual - predicted;
      }
      table.monitor.Record(s, static_cast<double>(error));
    } else {
      table.monitor.Record(s, static_cast<double>(depth));
    }
  }

  // Newest matching entry in a buffer, or nullptr. Backwards scan so a
  // later upsert of the same key wins; skipped when the filter, tested
  // after the acquire load of `size`, rules the key out.
  static const Entry* ProbeBuffer(const Buffer& buffer, const Key& key,
                                  uint64_t hash) {
    const size_t n = buffer.size.load(std::memory_order_acquire);
    if (n == 0 || !buffer.filter.MayContain(hash)) return nullptr;
    for (size_t i = n; i-- > 0;) {
      if (buffer.slots[i].key == key) return &buffer.slots[i];
    }
    return nullptr;
  }

  // Probes buffers + delta, counting probed structures into *depth (the
  // read-amplification signal; a level its filter skips still counts).
  // Outer nullopt: not present at these levels (fall through to
  // snapshot). Inner nullopt: tombstoned (definitely absent).
  std::optional<std::optional<Value>> ProbeBuffersAndDelta(
      const State& state, const Key& key, size_t* depth) const {
    const auto hit = [](bool tombstone, const Value& value) {
      return std::optional<std::optional<Value>>(
          tombstone ? std::nullopt : std::optional<Value>(value));
    };
    const uint64_t hash = FilterHash(key);
    ++*depth;
    if (const Entry* e = ProbeBuffer(*state.active, key, hash)) {
      return hit(e->tombstone, e->value);
    }
    for (auto it = state.sealed.rbegin(); it != state.sealed.rend(); ++it) {
      ++*depth;
      if (const Entry* e = ProbeBuffer(**it, key, hash)) {
        return hit(e->tombstone, e->value);
      }
    }
    if (state.delta != nullptr) {
      ++*depth;
      if (!state.delta->filter.MayContain(hash)) return std::nullopt;
      const Run& d = state.delta->run;
      const auto it = std::lower_bound(
          d.begin(), d.end(), key,
          [](const auto& e, const Key& k) { return e.first < k; });
      if (it != d.end() && it->first == key) {
        return hit(it->second.deleted, it->second.value);
      }
    }
    return std::nullopt;
  }

  // Stores `value` over the snapshot's row of `key` when the snapshot holds
  // it live and no newer level can shadow it: every buffer's and the
  // delta's filter rules the key out, and filters have no false negatives.
  // Returns false, having written nothing, otherwise.
  // REQUIRES: the shard's write_mu, with in-place writes on.
  static bool StoreInPlace(const State& state, const Key& key, uint64_t hash,
                           const Value& value) {
    if constexpr (kUpdatesInPlace) {
      if (state.snapshot == nullptr || state.active->filter.MayContain(hash)) {
        return false;
      }
      for (const auto& b : state.sealed) {
        if (b->filter.MayContain(hash)) return false;
      }
      if (state.delta != nullptr && state.delta->filter.MayContain(hash)) {
        return false;
      }
      const auto* columnar = serving_detail::ColumnarOf(*state.snapshot);
      if (columnar == nullptr) return false;
      const size_t pos = columnar->LowerBound(key);
      if (pos == columnar->keys().size() || !(columnar->keys()[pos] == key)) {
        return false;
      }
      // The snapshot was made non-const (std::make_shared<Index>), and its
      // value column is the one part of it written after publication.
      StoreValue(const_cast<Value&>(columnar->values()[pos]), value);
      return true;
    } else {
      return false;
    }
  }

  void Upsert(const Key& key, const Value& value, bool tombstone) {
    for (;;) {
      EpochManager::Guard guard = epoch_->Pin();
      Table* table = table_.load(std::memory_order_acquire);
      epoch_->AssertProtected(table);
      const size_t s = Route(*table, key);
      Shard& shard = table->shards[s];
      bool sealed = false;
      bool done = false;
      {
        MutexLock lock(shard.write_mu);
        // A Rebalance may have swapped the table while we waited for the
        // lock; the pin keeps `table` alive, but its shards are no longer
        // the live ones. Re-check and retry against the new table.
        if (table_.load(std::memory_order_acquire) == table) {
          // Writers are serialized by write_mu, so a relaxed load sees
          // the latest state (any prior publisher held this mutex).
          State* state = shard.state.load(std::memory_order_relaxed);
          const uint64_t hash = FilterHash(key);
          if (!tombstone && shard.in_place &&
              StoreInPlace(*state, key, hash, value)) {
            shard.in_place_writes.store(
                shard.in_place_writes.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
          } else {
            Buffer* buffer = state->active.get();
            size_t n = buffer->size.load(std::memory_order_relaxed);
            if (n == buffer->capacity) {
              SealLocked(&shard, state);
              state = shard.state.load(std::memory_order_relaxed);
              buffer = state->active.get();
              n = 0;
              sealed = true;
            }
            buffer->filter.Mark(hash);
            buffer->slots[n] = Entry{key, value, tombstone};
            // Release-publish the appended entry and its filter marks
            // (paired with the acquire load in ProbeBuffer).
            buffer->size.store(n + 1, std::memory_order_release);
          }
          done = true;
        }
      }
      if (!done) continue;
      if (sealed) TryScheduleDrain(table, s, /*force_inline=*/false);
      return;
    }
  }

  // Moves the full active buffer onto the sealed list. O(1): no sort, no
  // copy — this is the entire slow path a writer can hit, which is what
  // keeps insert p999 within a small factor of p50.
  void SealLocked(Shard* shard, State* state)
      LIDX_REQUIRES(shard->write_mu) {
    State* next = new State(*state);
    next->sealed.push_back(state->active);
    next->active = std::make_shared<Buffer>(options_.buffer_capacity);
    shard->state.store(next, std::memory_order_release);
    // Unlink-then-retire: `state` is unreachable to new readers; epoch
    // reclamation frees it once in-flight readers unpin.
    epoch_->RetireDelete(state);
    seal_count_.fetch_add(1, std::memory_order_relaxed);
  }

  bool NeedsDrain(const Shard& shard) const {
    EpochManager::Guard guard = epoch_->Pin();
    const State* state = shard.state.load(std::memory_order_acquire);
    epoch_->AssertProtected(state);
    return !state->sealed.empty();
  }

  bool WantsDrain(const Shard& shard) const {
    return shard.force_rebuild.load(std::memory_order_acquire) ||
           NeedsDrain(shard);
  }

  // REQUIRES: the caller holds an epoch Guard protecting `table` (every
  // call site pins before loading the table it passes here).
  void TryScheduleDrain(Table* table, size_t s, bool force_inline) {
    epoch_->AssertPinned();
    Shard& shard = table->shards[s];
    if (!WantsDrain(shard)) return;
    if (drains_paused_.load()) return;  // Rebalance folds the buffers in.
    if (shard.drain_scheduled.exchange(true, std::memory_order_acq_rel)) {
      return;  // A drain is already queued or running; it will re-check.
    }
    // Register, then re-check (seq_cst, see class comment): if a
    // rebalance started after the pause check above, either we observe
    // its pause/swap here and back off — its collect subsumes the drain —
    // or it observes our registration and waits for this drain. Without
    // this, a drain task could outlive the table it points into.
    pending_drains_.fetch_add(1);
    if (drains_paused_.load() ||
        table_.load(std::memory_order_acquire) != table) {
      shard.drain_scheduled.store(false, std::memory_order_release);
      pending_drains_.fetch_sub(1);
      return;
    }
    if (options_.background_drain && !force_inline) {
      ThreadPool::Shared().Submit(
          [this, shard_ptr = &shard] { DrainShard(shard_ptr); });
    } else {
      DrainShard(&shard);
    }
  }

  // Runs on a pool worker (or inline). Merges sealed buffers into the
  // delta and rebuilds the snapshot when the delta outgrows it (or a
  // rebuild was forced). At most one drain per shard runs at a time
  // (drain_scheduled), which is what makes the sealed-prefix removal in
  // the publish step sound. The shard (and its table) stay alive for the
  // whole call: pending_drains_ was incremented before scheduling, and
  // Rebalance waits for it to hit zero before retiring the table.
  void DrainShard(Shard* shard) {
    for (;;) {
      DrainOnce(shard);
      shard->drain_scheduled.store(false, std::memory_order_release);
      // A rebalance is waiting to collect; leave the rest to it.
      if (drains_paused_.load()) break;
      // Re-arm if writers sealed more buffers (or a rebuild was forced)
      // while we merged. The exchange closes the race with a concurrent
      // TryScheduleDrain.
      if (!WantsDrain(*shard)) break;
      if (shard->drain_scheduled.exchange(true, std::memory_order_acq_rel)) {
        break;  // Someone else claimed the next round.
      }
    }
    epoch_->ReclaimSome();
    pending_drains_.fetch_sub(1);
  }

  void DrainOnce(Shard* shard) {
    const bool force =
        shard->force_rebuild.exchange(false, std::memory_order_acq_rel);
    // Capture the inputs under the writer lock; the shared_ptr copies keep
    // them alive after unlocking, so the heavy merge below runs without
    // blocking writers or readers. A drain that may rebuild (forced, or
    // the delta and sealed buffers together reach the threshold) turns
    // in-place writes off before it unlocks, so every store into the
    // snapshot's value column is ordered before the rebuild copies it.
    std::shared_ptr<const Index> snapshot;
    size_t snapshot_size = 0;
    std::shared_ptr<const Delta> delta;
    std::vector<std::shared_ptr<Buffer>> sealed;
    size_t rebuild_threshold = 0;
    {
      MutexLock lock(shard->write_mu);
      const State* state = shard->state.load(std::memory_order_relaxed);
      snapshot = state->snapshot;
      snapshot_size = state->snapshot_size;
      delta = state->delta;
      sealed = state->sealed;
      if (sealed.empty() &&
          (!force || (delta == nullptr && snapshot == nullptr))) {
        return;  // Nothing sealed, or a forced rebuild of an empty shard.
      }
      rebuild_threshold = std::max(
          options_.rebuild_min_delta,
          static_cast<size_t>(options_.rebuild_fraction *
                              static_cast<double>(snapshot_size)));
      size_t merged_bound = delta == nullptr ? 0 : delta->run.size();
      for (const auto& b : sealed) {
        merged_bound += b->size.load(std::memory_order_relaxed);
      }
      if (force || merged_bound >= rebuild_threshold) shard->in_place = false;
    }
    const size_t merged_count = sealed.size();

    // Newest-first streams for the shared LSM merge: each sealed buffer
    // becomes a sorted run (newest entry per key wins within a buffer),
    // and the published delta, borrowed in place, is the oldest stream. A
    // forced rebuild with no sealed buffer reads the delta as it is.
    Run merged;
    EntrySpan<Key, Value> merged_view;
    if (merged_count > 0) {
      std::vector<Run> buffered;
      buffered.reserve(merged_count);
      for (auto it = sealed.rbegin(); it != sealed.rend(); ++it) {
        buffered.push_back(BufferToRun(**it));
      }
      std::vector<EntrySpan<Key, Value>> streams(buffered.begin(),
                                                 buffered.end());
      if (delta != nullptr) streams.emplace_back(delta->run);
      merged = MergeStreams<Key, Value>(streams, /*threads=*/1);
      merged_view = merged;
    } else if (delta != nullptr) {
      merged_view = delta->run;
    }

    std::shared_ptr<const Index> new_snapshot = snapshot;
    size_t new_snapshot_size = snapshot_size;
    std::shared_ptr<const Delta> new_delta;
    if (force || merged_view.size() >= rebuild_threshold) {
      RebuildSnapshot(merged_view, &new_snapshot, &new_snapshot_size);
      rebuild_count_.fetch_add(1, std::memory_order_relaxed);
    } else if (!merged.empty()) {
      new_delta = MakeDelta(std::move(merged), delta.get(), sealed);
    }

    // Publish: splice the merged result in under the writer lock, keeping
    // whatever sealed buffers and active appends arrived meanwhile.
    {
      MutexLock lock(shard->write_mu);
      State* current = shard->state.load(std::memory_order_relaxed);
      State* next = new State();
      next->snapshot = std::move(new_snapshot);
      next->snapshot_size = new_snapshot_size;
      next->delta = std::move(new_delta);
      next->sealed.assign(current->sealed.begin() +
                              static_cast<ptrdiff_t>(merged_count),
                          current->sealed.end());
      next->active = current->active;
      shard->state.store(next, std::memory_order_release);
      shard->in_place = true;
      epoch_->RetireDelete(current);
    }
    drain_count_.fetch_add(1, std::memory_order_relaxed);
  }

  // The delta level for a drain's merged run. Between rebuilds the delta
  // only grows, so while the run fits the previous delta's filter, a copy
  // of that filter marked with the drained buffers' keys is exact. A run
  // that outgrows it is filtered afresh at its own size, which at least
  // doubles the sizing; filter work stays amortised O(drained entries).
  static std::shared_ptr<const Delta> MakeDelta(
      Run merged, const Delta* previous,
      const std::vector<std::shared_ptr<Buffer>>& drained) {
    if (previous != nullptr && merged.size() <= previous->filter.capacity()) {
      Filter filter(previous->filter);
      for (const auto& b : drained) {
        const size_t n = b->size.load(std::memory_order_acquire);
        for (size_t i = 0; i < n; ++i) {
          filter.Mark(FilterHash(b->slots[i].key));
        }
      }
      return std::make_shared<const Delta>(
          Delta{std::move(merged), std::move(filter)});
    }
    Filter filter(merged.size());
    for (const auto& [key, entry] : merged) filter.Mark(FilterHash(key));
    return std::make_shared<const Delta>(
        Delta{std::move(merged), std::move(filter)});
  }

  // Appends the buffer's entries in [lo, hi] to *run, newest first.
  static void GatherBuffer(const Buffer& buffer, const Key& lo, const Key& hi,
                           Run* run) {
    const size_t n = buffer.size.load(std::memory_order_acquire);
    for (size_t i = n; i-- > 0;) {
      const Entry& e = buffer.slots[i];
      if (e.key < lo || hi < e.key) continue;
      run->emplace_back(e.key, RunEntry<Value>{e.value, e.tombstone});
    }
  }

  // Sorts entries gathered newest first into a sorted newest-wins run.
  static void SortNewestWins(Run* run) {
    std::stable_sort(run->begin(), run->end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    // The stable sort keeps each equal-key group newest first.
    run->erase(std::unique(run->begin(), run->end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               run->end());
  }

  // Sorted newest-wins run of an append-ordered buffer's entries.
  static Run BufferToRun(const Buffer& buffer) {
    Run run;
    run.reserve(buffer.size.load(std::memory_order_acquire));
    GatherBuffer(buffer, std::numeric_limits<Key>::lowest(),
                 std::numeric_limits<Key>::max(), &run);
    SortNewestWins(&run);
    return run;
  }

  // Merges the delta into the rows of *snapshot (*size live entries) and
  // replaces both with a freshly bulk-loaded index. Tombstones die here:
  // the shard owns its whole key range, so a tombstone surviving to the
  // bottom level deletes nothing below.
  void RebuildSnapshot(EntrySpan<Key, Value> delta,
                       std::shared_ptr<const Index>* snapshot, size_t* size) {
    // An inner index that keeps its columns lends them in place; the rows
    // of one that keeps none are scanned and split into two columns.
    std::span<const Key> keys;
    std::span<const Value> values;
    RowColumns<Key, Value> scanned;
    if (*snapshot != nullptr) {
      if (auto lent = serving_detail::ColumnsOf<Key, Value>(**snapshot)) {
        std::tie(keys, values) = *lent;
      } else {
        std::vector<std::pair<Key, Value>> rows;
        rows.reserve(*size);
        (*snapshot)->RangeScan(std::numeric_limits<Key>::lowest(),
                               std::numeric_limits<Key>::max(), &rows);
        scanned.keys.reserve(rows.size());
        scanned.values.reserve(rows.size());
        for (const auto& [key, value] : rows) {
          scanned.keys.push_back(key);
          scanned.values.push_back(value);
        }
        keys = scanned.keys;
        values = scanned.values;
      }
    }
    // DynamicPgm, PgmIndex and Rmi keep the columns they are bulk-loaded
    // from, capacity included, so MergeColumns sizes them to the live
    // count.
    RowColumns<Key, Value> live = MergeColumns<Key, Value>(delta, keys, values);
    scanned = {};  // Freed before the bulk load.
    if (live.keys.empty()) {
      snapshot->reset();
      *size = 0;
      return;
    }
    auto index = std::make_shared<Index>();
    *size = live.keys.size();
    serving_detail::BulkLoadInto<Index, Key, Value>(
        index.get(), std::move(live.keys), std::move(live.values));
    *snapshot = std::move(index);
  }

  // Appends the live entries of shard `s` in [lo, hi] to *out, borrowing
  // every level it can. The delta slice is a span of the published delta.
  // The buffers, the one unsorted level, are gathered into one small
  // newest-wins run, which allocates only when an entry falls in range.
  // With neither in range the snapshot scans straight into *out; otherwise
  // its rows go into one scratch vector and lsm/merge.h MergeLive merges
  // the run, the slice and the rows newest-wins into *out.
  // REQUIRES: the caller holds an epoch Guard protecting `table` (RangeScan
  // and Rebalance pin once for every shard they visit).
  void CollectShardRange(const Table& table, size_t s, const Key& lo,
                         const Key& hi,
                         std::vector<std::pair<Key, Value>>* out) const {
    epoch_->AssertPinned();
    const State* state = table.shards[s].state.load(std::memory_order_acquire);
    epoch_->AssertProtected(state);
    Run buffered;
    GatherBuffer(*state->active, lo, hi, &buffered);
    for (auto it = state->sealed.rbegin(); it != state->sealed.rend(); ++it) {
      GatherBuffer(**it, lo, hi, &buffered);
    }
    SortNewestWins(&buffered);
    EntrySpan<Key, Value> delta;
    if (state->delta != nullptr) {
      const Run& d = state->delta->run;
      const auto first = std::lower_bound(
          d.begin(), d.end(), lo,
          [](const auto& e, const Key& k) { return e.first < k; });
      auto last = first;
      while (last != d.end() && !(hi < last->first)) ++last;
      delta = EntrySpan<Key, Value>(first, last);
    }
    if (buffered.empty() && delta.empty()) {
      if (state->snapshot != nullptr) state->snapshot->RangeScan(lo, hi, out);
      return;
    }
    std::vector<std::pair<Key, Value>> rows;
    if (state->snapshot != nullptr) state->snapshot->RangeScan(lo, hi, &rows);
    std::array<EntrySpan<Key, Value>, 2> streams = {buffered, delta};
    MergeLive<Key, Value>(streams, rows, out);
  }

  Options options_;
  EpochManager* epoch_;
  // The live partitioning. Swapped by BulkLoad (exclusive by contract)
  // and Rebalance (epoch-retired swap, single-flight).
  std::atomic<Table*> table_{nullptr};  // lidx: epoch-protected
  std::atomic<uint64_t> next_table_version_{1};
  // Drain/rebalance handshake; seq_cst (defaulted orders), see the class
  // comment.
  mutable std::atomic<size_t> pending_drains_{0};
  std::atomic<bool> drains_paused_{false};
  std::atomic<bool> rebalance_inflight_{false};
  std::atomic<uint64_t> seal_count_{0};
  std::atomic<uint64_t> drain_count_{0};
  std::atomic<uint64_t> rebuild_count_{0};
  std::atomic<uint64_t> rebalance_count_{0};
  // In-place writes counted by the shards of tables BulkLoad and Rebalance
  // replaced.
  std::atomic<uint64_t> retired_in_place_writes_{0};
};

}  // namespace lidx

#endif  // LIDX_SERVING_SHARDED_INDEX_H_
