#ifndef LIDX_ONE_D_DYNAMIC_PGM_H_
#define LIDX_ONE_D_DYNAMIC_PGM_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "baselines/bloom.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "one_d/pgm.h"

namespace lidx {

// Dynamic PGM-index: the PGM paper's fully-dynamic construction via the
// logarithmic method (Bentley & Saxe). A small sorted *insert buffer*
// absorbs writes; when full it is pushed as a run into up to log2(n)
// static PGM components of doubling capacities, merging all occupied slots
// below the first slot that fits. Deletes insert tombstones that
// annihilate older entries during merges. Large components except the
// oldest carry a Bloom filter so point reads skip components that cannot
// contain the key (see BuildSlot for why the oldest has none).
//
// This is the tutorial's representative of the *delta-buffer* insertion
// strategy (§4.4), in contrast to ALEX's in-place gapped arrays: inserts
// are cheap buffer appends plus periodic merges/retrains, while lookups
// must consult multiple components.
//
// Taxonomy position: one-dimensional / mutable / fixed layout / pure /
// delta-buffer.
template <typename Key, typename Value>
class DynamicPgm {
 public:
  struct Options {
    size_t epsilon = 64;
    size_t epsilon_internal = 8;
    // Insert-buffer capacity; slot i holds up to
    // base << ((i + 1) * size_factor_log2) entries.
    size_t base_capacity = 256;
    // log2 of the per-slot growth factor. 1 = classic doubling (minimal
    // space slack); 2 = 4x growth (roughly half the merge work per entry,
    // fewer components to read, more slack) — the LSM fanout trade-off.
    unsigned size_factor_log2 = 2;
    double bloom_bits_per_key = 10.0;
    // Threads used when (re)building a slot's PGM component — large slots
    // are rebuilt wholesale by cascade merges, which is where the parallel
    // data-level segmentation pays off. 1 = fully serial.
    size_t build_threads = 1;
  };

  explicit DynamicPgm(const Options& options = Options())
      : options_(options) {
    LIDX_CHECK(options_.base_capacity >= 1);
  }

  // Bulk-loads sorted unique keys into the smallest slot that fits.
  void BulkLoad(std::vector<Key> keys, std::vector<Value> values) {
    LIDX_CHECK(keys.size() == values.size());
    slots_.clear();
    buffer_.clear();
    size_ = 0;
    if (keys.empty()) return;
    const size_t slot = SlotForCount(keys.size());
    EnsureSlots(slot + 1);
    std::vector<Entry> entries;
    entries.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      entries.push_back({keys[i], values[i], false});
    }
    size_ = entries.size();
    BuildSlot(slot, std::move(entries), /*oldest=*/true);
  }

  bool Insert(const Key& key, const Value& value) {
    const bool existed = Contains(key);
    UpsertBuffer({key, value, false});
    if (!existed) ++size_;
    return !existed;
  }

  // Logical delete via tombstone. Returns true if the key was present.
  bool Erase(const Key& key) {
    if (!Contains(key)) return false;
    UpsertBuffer({key, Value{}, true});
    --size_;
    return true;
  }

  std::optional<Value> Find(const Key& key) const {
    // Buffer first (newest), then slots newest-first; the first entry found
    // (live or tombstone) wins. Bloom filters skip most components.
    const auto it =
        std::lower_bound(buffer_.begin(), buffer_.end(), key, KeyBelow);
    if (it != buffer_.end() && it->key == key) {
      if (it->deleted) return std::nullopt;
      return it->value;
    }
    for (const Slot& slot : slots_) {
      if (slot.index.empty()) continue;
      if (slot.bloom != nullptr &&
          !slot.bloom->MayContain(static_cast<uint64_t>(key))) {
        continue;
      }
      const size_t pos = slot.index.LowerBound(key);
      if (pos < slot.index.size() && slot.index.keys()[pos] == key) {
        const Entry& e = slot.index.values()[pos];
        if (e.deleted) return std::nullopt;
        return e.value;
      }
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Merges live entries from the buffer and all slots in key order.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    struct Cursor {
      const Entry* data;
      size_t size;
      size_t pos;
      size_t age;  // Lower = newer.
    };
    // One cursor per component: the buffer plus at most kMaxSlots slots.
    std::array<Cursor, kMaxSlots + 1> cursor_array;
    size_t num_cursors = 0;
    {
      const size_t pos =
          std::lower_bound(buffer_.begin(), buffer_.end(), lo, KeyBelow) -
          buffer_.begin();
      if (pos < buffer_.size()) {
        cursor_array[num_cursors++] = {buffer_.data(), buffer_.size(), pos, 0};
      }
    }
    for (size_t s = 0; s < slots_.size(); ++s) {
      const auto& index = slots_[s].index;
      if (index.empty()) continue;
      const size_t pos = index.LowerBound(lo);
      if (pos < index.size()) {
        cursor_array[num_cursors++] = {index.values().data(), index.size(),
                                       pos, s + 1};
      }
    }
    const std::span<Cursor> cursors(cursor_array.data(), num_cursors);
    if (cursors.size() == 1) {  // One component: nothing to select between.
      const Cursor& c = cursors.front();
      for (size_t i = c.pos; i < c.size && c.data[i].key <= hi; ++i) {
        const Entry& e = c.data[i];
        if (!e.deleted) out->emplace_back(e.key, e.value);
      }
      return;
    }
    while (true) {
      const Cursor* best = nullptr;
      for (const Cursor& c : cursors) {
        if (c.pos >= c.size) continue;
        const Key& ck = c.data[c.pos].key;
        if (ck > hi) continue;
        if (best == nullptr || ck < best->data[best->pos].key ||
            (ck == best->data[best->pos].key && c.age < best->age)) {
          best = &c;
        }
      }
      if (best == nullptr) break;
      const Key k = best->data[best->pos].key;
      const Entry& e = best->data[best->pos];
      if (!e.deleted) out->emplace_back(k, e.value);
      for (Cursor& c : cursors) {
        while (c.pos < c.size && c.data[c.pos].key == k) ++c.pos;
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t NumComponents() const {
    size_t n = buffer_.empty() ? 0 : 1;
    for (const Slot& s : slots_) {
      if (!s.index.empty()) ++n;
    }
    return n;
  }

  // Components carrying a Bloom filter (the large ones except the oldest).
  size_t NumFilters() const {
    return std::count_if(slots_.begin(), slots_.end(),
                         [](const Slot& s) { return s.bloom != nullptr; });
  }

  size_t SizeBytes() const {
    size_t total = sizeof(*this) + buffer_.capacity() * sizeof(Entry);
    for (const Slot& s : slots_) {
      total += s.index.SizeBytes();
      if (s.bloom != nullptr) total += s.bloom->SizeBytes();
    }
    return total;
  }

  size_t ModelSizeBytes() const {
    size_t total = sizeof(*this);
    for (const Slot& s : slots_) total += s.index.ModelSizeBytes();
    return total;
  }

  // Structural invariants of the logarithmic method: sorted unique insert
  // buffer below its spill threshold, every component within its slot
  // capacity and internally consistent (including the PGM ε-guarantee and
  // the Bloom filter's no-false-negative contract), filters on exactly the
  // large components but the oldest, and the live-entry count matching
  // size_ after tombstone shadowing. Aborts on violation.
  void CheckInvariants() const {
    LIDX_INVARIANT(buffer_.size() < options_.base_capacity,
                   "dpgm: buffer below spill threshold");
    for (size_t i = 1; i < buffer_.size(); ++i) {
      LIDX_INVARIANT(buffer_[i - 1].key < buffer_[i].key,
                     "dpgm: buffer sorted unique");
    }
    size_t live = 0;
    std::vector<Key> seen;  // Keys already resolved by a newer component.
    auto absorb = [&](const Entry* data, size_t n) {
      std::vector<Key> fresh;
      for (size_t i = 0; i < n; ++i) {
        const Key& k = data[i].key;
        if (!std::binary_search(seen.begin(), seen.end(), k)) {
          if (!data[i].deleted) ++live;
          fresh.push_back(k);
        }
      }
      std::vector<Key> merged;
      merged.reserve(seen.size() + fresh.size());
      std::merge(seen.begin(), seen.end(), fresh.begin(), fresh.end(),
                 std::back_inserter(merged));
      seen = std::move(merged);
    };
    absorb(buffer_.data(), buffer_.size());
    size_t oldest = 0;  // Highest occupied slot.
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (!slots_[s].index.empty()) oldest = s;
    }
    for (size_t s = 0; s < slots_.size(); ++s) {
      const Slot& slot = slots_[s];
      if (slot.index.empty()) continue;
      LIDX_INVARIANT(slot.index.size() <= SlotCapacity(s),
                     "dpgm: component within slot capacity");
      LIDX_INVARIANT((slot.bloom != nullptr) ==
                         (s != oldest && slot.index.size() >= kMinBloomEntries),
                     "dpgm: filters on large components but the oldest");
      slot.index.CheckInvariants();
      const auto& entries = slot.index.values();
      for (size_t i = 0; i < entries.size(); ++i) {
        LIDX_INVARIANT(entries[i].key == slot.index.keys()[i],
                       "dpgm: entry key mirrors index key");
        if (slot.bloom != nullptr) {
          LIDX_INVARIANT(
              slot.bloom->MayContain(static_cast<uint64_t>(entries[i].key)),
              "dpgm: bloom has no false negatives");
        }
      }
      absorb(entries.data(), entries.size());
    }
    LIDX_INVARIANT(live == size_, "dpgm: live-entry count matches size()");
  }

 private:
  static constexpr size_t kMinBloomEntries = 16384;
  // Slot i's capacity, base << ((i + 1) * size_factor_log2), needs a shift
  // below 64, so at most 64 slots exist; RangeScan sizes its cursors by it.
  static constexpr size_t kMaxSlots = 64;

  struct Entry {
    Key key;
    Value value;
    bool deleted;
  };

  static bool KeyBelow(const Entry& e, const Key& k) { return e.key < k; }

  struct Slot {
    PgmIndex<Key, Entry> index;
    std::unique_ptr<BloomFilter> bloom;
  };

  size_t SlotCapacity(size_t slot) const {
    return options_.base_capacity << ((slot + 1) * options_.size_factor_log2);
  }

  size_t SlotForCount(size_t count) const {
    size_t slot = 0;
    while (SlotCapacity(slot) < count) ++slot;
    return slot;
  }

  void EnsureSlots(size_t n) {
    LIDX_CHECK(n <= kMaxSlots);
    while (slots_.size() < n) slots_.emplace_back();
  }

  // Sorted upsert into the insert buffer; spills to the log structure when
  // the buffer reaches capacity.
  void UpsertBuffer(const Entry& entry) {
    const auto it =
        std::lower_bound(buffer_.begin(), buffer_.end(), entry.key, KeyBelow);
    if (it != buffer_.end() && it->key == entry.key) {
      *it = entry;
    } else {
      buffer_.insert(it, entry);
    }
    if (buffer_.size() >= options_.base_capacity) {
      PushRun(std::move(buffer_));
      buffer_.clear();
    }
  }

  // Pushes a sorted run of entries into the logarithmic structure.
  void PushRun(std::vector<Entry> run) {
    // Pick the target slot first and size the slot array once: growing
    // slots_ can reallocate and move the Slot objects, so any pointer into
    // a slot's storage taken before the growth would dangle.
    size_t total = run.size();
    size_t target = 0;
    while (true) {
      if (target < slots_.size()) total += slots_[target].index.size();
      if (total <= SlotCapacity(target)) break;
      ++target;
    }
    EnsureSlots(target + 1);
    // Runs are merged in place from the slots' own storage (no copies);
    // slots are only cleared after the merge consumed them. runs[0] must
    // stay newest, then slots in increasing (newer-first) order.
    std::vector<const std::vector<Entry>*> runs;
    runs.push_back(&run);
    for (size_t s = 0; s <= target; ++s) {
      if (!slots_[s].index.empty()) runs.push_back(&slots_[s].index.values());
    }
    std::vector<Entry> merged = MergeRuns(runs, total);
    for (size_t s = 0; s <= target; ++s) {
      slots_[s] = Slot{};
    }
    // Tombstones can be dropped once the merge reaches the oldest
    // occupied slot (nothing below them can be shadowed).
    bool is_oldest = true;
    for (size_t s = target + 1; s < slots_.size(); ++s) {
      if (!slots_[s].index.empty()) {
        is_oldest = false;
        break;
      }
    }
    if (is_oldest) {
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [](const Entry& e) { return e.deleted; }),
                   merged.end());
    }
    BuildSlot(target, std::move(merged), is_oldest);
  }

  // Multi-way merge keeping, per key, only the entry from the newest run
  // (runs[0] is newest; equal keys resolve to the lowest run index).
  static std::vector<Entry> MergeRuns(
      const std::vector<const std::vector<Entry>*>& runs, size_t total) {
    std::vector<Entry> merged;
    merged.reserve(total);
    std::vector<size_t> pos(runs.size(), 0);
    while (true) {
      int best = -1;
      for (size_t r = 0; r < runs.size(); ++r) {
        if (pos[r] >= runs[r]->size()) continue;
        if (best < 0 ||
            (*runs[r])[pos[r]].key < (*runs[best])[pos[best]].key) {
          best = static_cast<int>(r);
        }
      }
      if (best < 0) break;
      const Key k = (*runs[best])[pos[best]].key;
      merged.push_back((*runs[best])[pos[best]]);
      for (size_t r = 0; r < runs.size(); ++r) {
        while (pos[r] < runs[r]->size() && (*runs[r])[pos[r]].key == k) {
          ++pos[r];
        }
      }
    }
    return merged;
  }

  // Builds slot `slot`; `oldest` says no older (higher) slot is occupied.
  void BuildSlot(size_t slot, std::vector<Entry> entries, bool oldest) {
    if (entries.empty()) {
      slots_[slot] = Slot{};
      return;
    }
    std::vector<Key> keys;
    keys.reserve(entries.size());
    for (const Entry& e : entries) keys.push_back(e.key);
    // Blooms only on large slots: small slots rebuild on every cascade
    // merge (the filter rebuild would dominate insert cost) and are cheap
    // to probe directly, while large slots rebuild rarely and are exactly
    // where a skipped probe saves the most. None on the oldest slot: it is
    // the largest filter to build and rejects only keys its own search
    // rejects, while every present-key read reaching it pays the probes
    // (RocksDB's optimize_filters_for_hits, here the fixed rule). A slot
    // becomes or stops being the oldest only through a cascade that
    // rebuilds it, so the choice made here holds until then.
    if (!oldest && entries.size() >= kMinBloomEntries) {
      slots_[slot].bloom = std::make_unique<BloomFilter>(
          entries.size(), options_.bloom_bits_per_key);
      for (const Key& k : keys) {
        slots_[slot].bloom->Add(static_cast<uint64_t>(k));
      }
    }
    typename PgmIndex<Key, Entry>::Options opts;
    opts.epsilon = options_.epsilon;
    opts.epsilon_internal = options_.epsilon_internal;
    opts.build_threads = options_.build_threads;
    slots_[slot].index.Build(std::move(keys), std::move(entries), opts);
  }

  Options options_;
  std::vector<Entry> buffer_;  // Sorted by key, unique; newest data.
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_DYNAMIC_PGM_H_
