#ifndef LIDX_LSM_MERGE_H_
#define LIDX_LSM_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"
#include "lsm/run.h"

namespace lidx {

// Newest-wins merges shared by LsmTree (over either run store, and so
// TieredIndex) and ShardedIndex. Streams are sorted by key, unique within a
// stream, and ordered newest first; on a key collision the entry from the
// newest stream survives (tombstones included — dropping them is a
// compaction policy decision, not a merge one; see DropTombstones).
//
// Both sides borrow their streams as spans. Drains and compactions produce
// a new run: MergeStreams (over MergeRange) reads slices of published runs,
// drained vectors or a drain's sorted buffers and returns the merged run.
// Reads produce rows: MergeLive appends only the live rows straight into
// the caller's output, with no intermediate run. Rebuilds produce columns:
// MergeColumns merges a delta over a snapshot's own key and value columns
// into new columns sized to the live count.

// A borrowed sorted stream of tombstone-carrying entries.
template <typename Key, typename Value>
using EntrySpan = std::span<const std::pair<Key, RunEntry<Value>>>;

// Merges the borrowed newest-first `runs` into one owned run. Consumes
// `runs` (each span is advanced past what it merged).
template <typename Key, typename Value>
std::vector<std::pair<Key, RunEntry<Value>>> MergeRange(
    std::span<EntrySpan<Key, Value>> runs) {
  std::vector<std::pair<Key, RunEntry<Value>>> merged;
  size_t total = 0;
  for (const EntrySpan<Key, Value>& run : runs) total += run.size();
  merged.reserve(total);
  for (;;) {
    // The smallest head; on a tie the newest run's, found first.
    const std::pair<Key, RunEntry<Value>>* next = nullptr;
    for (const EntrySpan<Key, Value>& run : runs) {
      if (!run.empty() &&
          (next == nullptr || run.front().first < next->first)) {
        next = &run.front();
      }
    }
    if (next == nullptr) break;
    const Key key = next->first;
    merged.push_back(*next);
    for (EntrySpan<Key, Value>& run : runs) {
      if (!run.empty() && run.front().first == key) run = run.subspan(1);
    }
  }
  return merged;
}

// Merges borrowed newest-first sorted streams keeping the newest entry per
// key. With threads > 1 the key space is split at pivots sampled from the
// largest run and each range merges independently; equal keys always land
// in the same range (both range bounds use lower_bound on the same
// pivots), so the concatenated output is byte-identical to the serial
// merge for every thread count.
template <typename Key, typename Value>
std::vector<std::pair<Key, RunEntry<Value>>> MergeStreams(
    std::type_identity_t<std::span<const EntrySpan<Key, Value>>> runs,
    size_t threads) {
  using KV = std::pair<Key, RunEntry<Value>>;
  static constexpr size_t kMinParallelMerge = size_t{1} << 14;
  size_t total = 0;
  size_t largest = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (runs[r].size() > runs[largest].size()) largest = r;
  }
  const size_t parts =
      (threads <= 1 || runs.empty() || total < kMinParallelMerge ||
       runs[largest].empty())
          ? 1
          : threads;
  if (parts <= 1) {
    std::vector<EntrySpan<Key, Value>> whole(runs.begin(), runs.end());
    return MergeRange<Key, Value>(whole);
  }
  const EntrySpan<Key, Value> big = runs[largest];
  std::vector<Key> pivots;
  for (size_t p = 1; p < parts; ++p) {
    const Key k = big[p * big.size() / parts].first;
    if (pivots.empty() || pivots.back() < k) pivots.push_back(k);
  }
  const size_t num_ranges = pivots.size() + 1;
  const auto key_lower = [](const KV& e, const Key& k) {
    return e.first < k;
  };
  std::vector<std::vector<KV>> out(num_ranges);
  ParallelForIndex(threads, num_ranges, [&](size_t g) {
    std::vector<EntrySpan<Key, Value>> slices;
    slices.reserve(runs.size());
    for (const EntrySpan<Key, Value>& run : runs) {
      const auto lo_it =
          (g == 0) ? run.begin()
                   : std::lower_bound(run.begin(), run.end(), pivots[g - 1],
                                      key_lower);
      const auto hi_it =
          (g + 1 == num_ranges)
              ? run.end()
              : std::lower_bound(run.begin(), run.end(), pivots[g], key_lower);
      slices.emplace_back(lo_it, hi_it);
    }
    out[g] = MergeRange<Key, Value>(slices);
  });
  std::vector<KV> merged;
  merged.reserve(total);
  for (std::vector<KV>& part : out) {
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  return merged;
}

// Read side: merges the borrowed newest-first `streams` over `rows`, an
// optional oldest stream of plain live rows (an index snapshot's scan, never
// re-wrapped into entries), and appends the live rows — newest version per
// key, tombstones elided — to `out`: a vector of rows, or any sink with
// emplace_back(key, value). Consumes `streams` (each span is advanced past
// what it merged) and allocates nothing beyond `out`'s growth. `rows` must
// not alias `out`.
template <typename Key, typename Value, typename Out>
void MergeLive(
    std::type_identity_t<std::span<EntrySpan<Key, Value>>> streams,
    std::type_identity_t<std::span<const std::pair<Key, Value>>> rows,
    Out* out) {
  const auto row_below = [](const std::pair<Key, Value>& row, const Key& k) {
    return row.first < k;
  };
  const auto append_rows = [out](auto first, auto last) {
    if constexpr (requires { out->insert(out->end(), first, last); }) {
      out->insert(out->end(), first, last);
    } else {
      for (; first != last; ++first) {
        out->emplace_back(first->first, first->second);
      }
    }
  };
  for (;;) {
    // The smallest head; on a tie the newest stream's, found first.
    const std::pair<Key, RunEntry<Value>>* next = nullptr;
    for (const EntrySpan<Key, Value>& stream : streams) {
      if (!stream.empty() &&
          (next == nullptr || stream.front().first < next->first)) {
        next = &stream.front();
      }
    }
    if (next == nullptr) break;
    const Key& key = next->first;
    // Rows below the entry pass through; a row at its key is shadowed.
    const auto below =
        std::lower_bound(rows.begin(), rows.end(), key, row_below);
    append_rows(rows.begin(), below);
    rows = rows.subspan(static_cast<size_t>(below - rows.begin()));
    if (!rows.empty() && rows.front().first == key) rows = rows.subspan(1);
    if (!next->second.deleted) out->emplace_back(key, next->second.value);
    for (EntrySpan<Key, Value>& stream : streams) {
      if (!stream.empty() && stream.front().first == key) {
        stream = stream.subspan(1);
      }
    }
  }
  append_rows(rows.begin(), rows.end());
}

// Key and value columns of sorted unique live rows.
template <typename Key, typename Value>
struct RowColumns {
  std::vector<Key> keys;
  std::vector<Value> values;
};

// Rebuild side: merges the newest-wins `delta` over the sorted unique rows
// held as the parallel columns `keys` and `values` (an index snapshot's own
// columns, read in place) and returns the live rows as new columns whose
// capacity is exactly their size. A live entry replaces the row at its key
// or lands between rows; a tombstone drops the row it shadows.
//
// A first pass gallops each delta entry to its position in `keys`, which
// also gives the exact live count. The second copies the untouched
// stretches of both columns between those positions as blocks, so the
// work beyond the copy is O(delta · log(rows / delta)).
template <typename Key, typename Value>
RowColumns<Key, Value> MergeColumns(
    EntrySpan<Key, Value> delta,
    std::type_identity_t<std::span<const Key>> keys,
    std::type_identity_t<std::span<const Value>> values) {
  LIDX_DCHECK(keys.size() == values.size());
  const size_t n = keys.size();
  std::vector<size_t> at(delta.size());
  size_t live = n;
  size_t lo = 0;  // Every row below lo sorts below the current entry.
  for (size_t i = 0; i < delta.size(); ++i) {
    const Key& key = delta[i].first;
    size_t bound = 1;
    while (lo + bound <= n && keys[lo + bound - 1] < key) {
      lo += bound;
      bound *= 2;
    }
    const size_t hi = std::min(n, lo + bound - 1);
    lo = static_cast<size_t>(
        std::lower_bound(keys.begin() + static_cast<ptrdiff_t>(lo),
                         keys.begin() + static_cast<ptrdiff_t>(hi), key) -
        keys.begin());
    at[i] = lo;
    const bool replaces = lo < n && keys[lo] == key;
    if (delta[i].second.deleted && replaces) --live;
    if (!delta[i].second.deleted && !replaces) ++live;
  }
  RowColumns<Key, Value> out;
  out.keys.reserve(live);
  out.values.reserve(live);
  size_t next = 0;  // The first row neither copied nor shadowed yet.
  const auto copy_rows = [&](size_t end) {
    out.keys.insert(out.keys.end(),
                    keys.begin() + static_cast<ptrdiff_t>(next),
                    keys.begin() + static_cast<ptrdiff_t>(end));
    out.values.insert(out.values.end(),
                      values.begin() + static_cast<ptrdiff_t>(next),
                      values.begin() + static_cast<ptrdiff_t>(end));
    next = end;
  };
  for (size_t i = 0; i < delta.size(); ++i) {
    const auto& [key, entry] = delta[i];
    copy_rows(at[i]);
    if (next < n && keys[next] == key) ++next;
    if (!entry.deleted) {
      out.keys.push_back(key);
      out.values.push_back(entry.value);
    }
  }
  copy_rows(n);
  LIDX_DCHECK(out.keys.size() == live);
  return out;
}

// Compaction side: a merged run that becomes the bottom of its tree has
// nothing older left to shadow, so its tombstones can go.
template <typename Key, typename Value>
void DropTombstones(std::vector<std::pair<Key, RunEntry<Value>>>* entries) {
  entries->erase(std::remove_if(entries->begin(), entries->end(),
                                [](const auto& e) { return e.second.deleted; }),
                 entries->end());
}

}  // namespace lidx

#endif  // LIDX_LSM_MERGE_H_
