#ifndef LIDX_LSM_MERGE_H_
#define LIDX_LSM_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "lsm/run.h"

namespace lidx {

// Newest-wins merges shared by LsmTree (over either run store, and so
// TieredIndex) and ShardedIndex. Streams are sorted by key, unique within a
// stream, and ordered newest first; on a key collision the entry from the
// newest stream survives (tombstones included — dropping them is a
// compaction policy decision, not a merge one; see DropTombstones).
//
// Two sides use them. Drains and compactions produce a new run, so
// MergeStreams (over MergeRange) owns its inputs and returns the merged
// run. Reads produce rows: MergeLive borrows its streams as spans — slices
// of published runs, a scan's scratch rows — and appends only the live
// rows straight into the caller's output, with no intermediate run.

// A borrowed sorted stream of tombstone-carrying entries.
template <typename Key, typename Value>
using EntrySpan = std::span<const std::pair<Key, RunEntry<Value>>>;

// Merges runs[r][bounds[r].first, bounds[r].second) across all streams.
template <typename Key, typename Entry>
std::vector<std::pair<Key, Entry>> MergeRange(
    const std::vector<std::vector<std::pair<Key, Entry>>>& runs,
    const std::vector<std::pair<size_t, size_t>>& bounds) {
  std::vector<std::pair<Key, Entry>> merged;
  std::vector<size_t> pos(runs.size());
  size_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    pos[r] = bounds[r].first;
    total += bounds[r].second - bounds[r].first;
  }
  merged.reserve(total);
  while (true) {
    int best = -1;
    for (size_t r = 0; r < runs.size(); ++r) {
      if (pos[r] >= bounds[r].second) continue;
      if (best < 0 || runs[r][pos[r]].first < runs[best][pos[best]].first) {
        best = static_cast<int>(r);
      }
    }
    if (best < 0) break;
    const Key k = runs[best][pos[best]].first;
    merged.push_back(runs[best][pos[best]]);
    for (size_t r = 0; r < runs.size(); ++r) {
      while (pos[r] < bounds[r].second && runs[r][pos[r]].first == k) {
        ++pos[r];
      }
    }
  }
  return merged;
}

// Merges newest-first sorted streams keeping the newest entry per key.
// With threads > 1 the key space is split at pivots sampled from the
// largest run and each range merges independently; equal keys always land
// in the same range (both range bounds use lower_bound on the same
// pivots), so the concatenated output is byte-identical to the serial
// merge for every thread count.
template <typename Key, typename Entry>
std::vector<std::pair<Key, Entry>> MergeStreams(
    std::vector<std::vector<std::pair<Key, Entry>>> runs, size_t threads) {
  using KV = std::pair<Key, Entry>;
  static constexpr size_t kMinParallelMerge = size_t{1} << 14;
  if (runs.size() == 1) return std::move(runs.front());  // Nothing to merge.
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
    std::vector<std::pair<size_t, size_t>> bounds;
    bounds.reserve(runs.size());
    for (const auto& r : runs) bounds.emplace_back(0, r.size());
    return MergeRange(runs, bounds);
  }
  const std::vector<KV>& big = runs[largest];
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
    std::vector<std::pair<size_t, size_t>> bounds(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const auto begin = runs[r].begin();
      const auto lo_it =
          (g == 0) ? begin
                   : std::lower_bound(begin, runs[r].end(), pivots[g - 1],
                                      key_lower);
      const auto hi_it =
          (g + 1 == num_ranges)
              ? runs[r].end()
              : std::lower_bound(begin, runs[r].end(), pivots[g], key_lower);
      bounds[r] = {static_cast<size_t>(lo_it - begin),
                   static_cast<size_t>(hi_it - begin)};
    }
    out[g] = MergeRange(runs, bounds);
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
