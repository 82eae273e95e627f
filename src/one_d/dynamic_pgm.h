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
#include "common/value_slot.h"
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
// Layout. The buffer and every component are columns: a component is a
// PgmIndex<Key, Value> over the key and value columns it was built from,
// plus a tombstone column that exists only while the component holds a
// tombstone (one bit per entry). The oldest component and a bulk load
// never hold one, so a bulk load keeps the two vectors it is handed and
// trains the PLA over them, and a cascade merges the buffer's and the
// slots' columns straight into the new component's columns.
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

  // Bulk-loads sorted unique keys into the smallest slot that fits. The
  // slot keeps both vectors; training its PLA is the only work.
  void BulkLoad(std::vector<Key> keys, std::vector<Value> values) {
    LIDX_CHECK(keys.size() == values.size());
    slots_.clear();
    buffer_ = Columns{};
    size_ = keys.size();
    if (keys.empty()) return;
    const size_t slot = SlotForCount(keys.size());
    EnsureSlots(slot + 1);
    BuildSlot(slot, Columns{std::move(keys), std::move(values), {}},
              /*oldest=*/true);
  }

  bool Insert(const Key& key, const Value& value) {
    const bool existed = Contains(key);
    UpsertBuffer(key, value, /*tombstone=*/false);
    if (!existed) ++size_;
    return !existed;
  }

  // Logical delete via tombstone. Returns true if the key was present.
  bool Erase(const Key& key) {
    if (!Contains(key)) return false;
    UpsertBuffer(key, Value{}, /*tombstone=*/true);
    --size_;
    return true;
  }

  std::optional<Value> Find(const Key& key) const {
    // Buffer first (newest), then slots newest-first; the first entry found
    // (live or tombstone) wins. Bloom filters skip most components.
    const std::vector<Key>& bk = buffer_.keys;
    const size_t b = static_cast<size_t>(
        std::lower_bound(bk.begin(), bk.end(), key) - bk.begin());
    if (b < bk.size() && bk[b] == key) {
      if (IsTombstone(buffer_.deleted, b)) return std::nullopt;
      return LoadValue(buffer_.values[b]);
    }
    for (const Slot& slot : slots_) {
      if (slot.index.empty()) continue;
      if (slot.bloom != nullptr &&
          !slot.bloom->MayContain(static_cast<uint64_t>(key))) {
        continue;
      }
      const size_t pos = slot.index.LowerBound(key);
      if (pos < slot.index.size() && slot.index.keys()[pos] == key) {
        if (IsTombstone(slot.deleted, pos)) return std::nullopt;
        return LoadValue(slot.index.values()[pos]);
      }
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Merges live entries from the buffer and all slots in key order.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    // One cursor per component, newest first: the buffer plus at most
    // kMaxSlots slots. On equal keys the first (newest) cursor wins.
    std::array<View, kMaxSlots + 1> cursor_array;
    size_t num_cursors = 0;
    const auto add = [&](View v, size_t pos) {
      if (pos < v.size) {
        v.pos = pos;
        cursor_array[num_cursors++] = v;
      }
    };
    add(BufferView(),
        static_cast<size_t>(std::lower_bound(buffer_.keys.begin(),
                                             buffer_.keys.end(), lo) -
                            buffer_.keys.begin()));
    for (const Slot& slot : slots_) {
      if (!slot.index.empty()) add(SlotView(slot), slot.index.LowerBound(lo));
    }
    const std::span<View> cursors(cursor_array.data(), num_cursors);
    if (cursors.size() == 1) {  // One component: nothing to select between.
      // Bound the rows first and test the tombstone column's emptiness
      // once, so the copy loop only loads and appends (a bulk-loaded
      // component, every ShardedIndex snapshot, has no tombstone column).
      const View& c = cursors.front();
      size_t end = c.pos;
      while (end < c.size && c.keys[end] <= hi) ++end;
      const bool live = c.deleted->empty();
      for (size_t i = c.pos; i < end; ++i) {
        if (live || !(*c.deleted)[i]) {
          out->emplace_back(c.keys[i], LoadValue(c.values[i]));
        }
      }
      return;
    }
    while (true) {
      const View* best = nullptr;
      for (const View& c : cursors) {
        if (c.pos >= c.size || c.keys[c.pos] > hi) continue;
        if (best == nullptr || c.keys[c.pos] < best->keys[best->pos]) {
          best = &c;
        }
      }
      if (best == nullptr) break;
      const Key k = best->keys[best->pos];
      if (!IsTombstone(*best->deleted, best->pos)) {
        out->emplace_back(k, LoadValue(best->values[best->pos]));
      }
      for (View& c : cursors) {
        if (c.pos < c.size && c.keys[c.pos] == k) ++c.pos;
      }
    }
  }

  // The component that holds the whole index when it is one
  // tombstone-free component and an empty buffer, the shape BulkLoad
  // leaves, so a caller can find and read every row in its key and value
  // columns; nullptr otherwise (an empty index included).
  const PgmIndex<Key, Value>* SoleComponent() const {
    if (!buffer_.keys.empty()) return nullptr;
    const Slot* sole = nullptr;
    for (const Slot& s : slots_) {
      if (s.index.empty()) continue;
      if (sole != nullptr) return nullptr;
      sole = &s;
    }
    if (sole == nullptr || !sole->deleted.empty()) return nullptr;
    return &sole->index;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t NumComponents() const {
    size_t n = buffer_.keys.empty() ? 0 : 1;
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

  // Tombstones held in the buffer and the components. Each shadows older
  // entries until a cascade reaches the oldest component and drops it.
  size_t NumTombstones() const {
    const auto count = [](const std::vector<bool>& deleted) {
      return static_cast<size_t>(
          std::count(deleted.begin(), deleted.end(), true));
    };
    size_t n = count(buffer_.deleted);
    for (const Slot& s : slots_) n += count(s.deleted);
    return n;
  }

  size_t SizeBytes() const {
    size_t total = sizeof(*this) +
                   buffer_.keys.capacity() * sizeof(Key) +
                   buffer_.values.capacity() * sizeof(Value) +
                   BitBytes(buffer_.deleted);
    for (const Slot& s : slots_) {
      total += s.index.SizeBytes() + BitBytes(s.deleted);
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
  // large components but the oldest, tombstone columns present only where
  // a tombstone is and never on the oldest component, and the live-entry
  // count matching size_ after tombstone shadowing. Aborts on violation.
  void CheckInvariants() const {
    const size_t buffered = buffer_.keys.size();
    LIDX_INVARIANT(buffered < options_.base_capacity,
                   "dpgm: buffer below spill threshold");
    LIDX_INVARIANT(buffer_.values.size() == buffered,
                   "dpgm: buffer columns parallel");
    LIDX_INVARIANT(
        buffer_.deleted.empty() || buffer_.deleted.size() == buffered,
        "dpgm: buffer tombstone column empty or buffer-sized");
    for (size_t i = 1; i < buffered; ++i) {
      LIDX_INVARIANT(buffer_.keys[i - 1] < buffer_.keys[i],
                     "dpgm: buffer sorted unique");
    }
    size_t live = 0;
    std::vector<Key> seen;  // Keys already resolved by a newer component.
    auto absorb = [&](const View& v) {
      std::vector<Key> fresh;
      for (size_t i = 0; i < v.size; ++i) {
        const Key& k = v.keys[i];
        if (!std::binary_search(seen.begin(), seen.end(), k)) {
          if (!IsTombstone(*v.deleted, i)) ++live;
          fresh.push_back(k);
        }
      }
      std::vector<Key> merged;
      merged.reserve(seen.size() + fresh.size());
      std::merge(seen.begin(), seen.end(), fresh.begin(), fresh.end(),
                 std::back_inserter(merged));
      seen = std::move(merged);
    };
    absorb(BufferView());
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
      LIDX_INVARIANT(slot.deleted.empty() ||
                         slot.deleted.size() == slot.index.size(),
                     "dpgm: tombstone column empty or component-sized");
      LIDX_INVARIANT(slot.deleted.empty() ||
                         std::find(slot.deleted.begin(), slot.deleted.end(),
                                   true) != slot.deleted.end(),
                     "dpgm: tombstone column only where a tombstone is");
      LIDX_INVARIANT(s != oldest || slot.deleted.empty(),
                     "dpgm: oldest component carries no tombstones");
      if (slot.bloom != nullptr) {
        for (const Key& k : slot.index.keys()) {
          LIDX_INVARIANT(slot.bloom->MayContain(static_cast<uint64_t>(k)),
                         "dpgm: bloom has no false negatives");
        }
      }
      absorb(SlotView(slot));
    }
    LIDX_INVARIANT(live == size_, "dpgm: live-entry count matches size()");
  }

 private:
  static constexpr size_t kMinBloomEntries = 16384;
  // Slot i's capacity, base << ((i + 1) * size_factor_log2), needs a shift
  // below 64, so at most 64 slots exist; RangeScan sizes its cursors by it.
  static constexpr size_t kMaxSlots = 64;

  // Rows of the buffer or of a merge in progress: parallel key and value
  // columns sorted by key and unique, and a tombstone column that stays
  // empty until the first tombstone arrives and holds one flag per row
  // from then on.
  struct Columns {
    std::vector<Key> keys;
    std::vector<Value> values;
    std::vector<bool> deleted;

    void Append(const Key& key, const Value& value, bool tombstone) {
      if (tombstone || !deleted.empty()) {
        deleted.resize(keys.size(), false);
        deleted.push_back(tombstone);
      }
      keys.push_back(key);
      values.push_back(value);
    }
  };

  struct Slot {
    PgmIndex<Key, Value> index;
    std::vector<bool> deleted;  // Columns::deleted of the rows it indexes.
    std::unique_ptr<BloomFilter> bloom;
  };

  // A read cursor over one component's columns.
  struct View {
    const Key* keys = nullptr;
    const Value* values = nullptr;
    const std::vector<bool>* deleted = nullptr;
    size_t size = 0;
    size_t pos = 0;
  };

  static bool IsTombstone(const std::vector<bool>& deleted, size_t i) {
    return !deleted.empty() && deleted[i];
  }

  static size_t BitBytes(const std::vector<bool>& bits) {
    return (bits.capacity() + 7) / 8;
  }

  View BufferView() const {
    return {buffer_.keys.data(), buffer_.values.data(), &buffer_.deleted,
            buffer_.keys.size()};
  }

  static View SlotView(const Slot& slot) {
    return {slot.index.keys().data(), slot.index.values().data(),
            &slot.deleted, slot.index.size()};
  }

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
  void UpsertBuffer(const Key& key, const Value& value, bool tombstone) {
    Columns& b = buffer_;
    const size_t pos = static_cast<size_t>(
        std::lower_bound(b.keys.begin(), b.keys.end(), key) - b.keys.begin());
    const bool flagged = tombstone || !b.deleted.empty();
    if (flagged) b.deleted.resize(b.keys.size(), false);
    if (pos < b.keys.size() && b.keys[pos] == key) {
      b.values[pos] = value;
      if (flagged) b.deleted[pos] = tombstone;
    } else {
      const auto at = static_cast<std::ptrdiff_t>(pos);
      b.keys.insert(b.keys.begin() + at, key);
      b.values.insert(b.values.begin() + at, value);
      if (flagged) b.deleted.insert(b.deleted.begin() + at, tombstone);
    }
    if (b.keys.size() >= options_.base_capacity) PushBuffer();
  }

  // Pushes the full buffer into the logarithmic structure.
  void PushBuffer() {
    // Pick the target slot first and size the slot array once: growing
    // slots_ can reallocate and move the Slot objects, so any pointer into
    // a slot's storage taken before the growth would dangle.
    size_t total = buffer_.keys.size();
    size_t target = 0;
    while (true) {
      if (target < slots_.size()) total += slots_[target].index.size();
      if (total <= SlotCapacity(target)) break;
      ++target;
    }
    EnsureSlots(target + 1);
    // Tombstones can be dropped once the merge reaches the oldest
    // occupied slot (nothing below them can be shadowed).
    const bool oldest = std::all_of(
        slots_.begin() + static_cast<std::ptrdiff_t>(target) + 1, slots_.end(),
        [](const Slot& s) { return s.index.empty(); });
    // The merge reads the buffer's and the slots' own columns (no copies);
    // they are only cleared after it consumed them. runs[0] must stay
    // newest, then slots in increasing (newer-first) order.
    std::vector<View> runs;
    runs.push_back(BufferView());
    for (size_t s = 0; s <= target; ++s) {
      if (!slots_[s].index.empty()) runs.push_back(SlotView(slots_[s]));
    }
    Columns merged = MergeRuns(runs, total, /*drop_tombstones=*/oldest);
    for (size_t s = 0; s <= target; ++s) slots_[s] = Slot{};
    buffer_.keys.clear();
    buffer_.values.clear();
    buffer_.deleted.clear();
    BuildSlot(target, std::move(merged), oldest);
  }

  // Multi-way merge keeping, per key, only the entry from the newest run
  // (runs[0] is newest; equal keys resolve to the lowest run index), and
  // with `drop_tombstones` not even that when it is a tombstone.
  static Columns MergeRuns(std::span<View> runs, size_t total,
                           bool drop_tombstones) {
    Columns merged;
    merged.keys.reserve(total);
    merged.values.reserve(total);
    while (true) {
      const View* best = nullptr;
      for (const View& r : runs) {
        if (r.pos < r.size &&
            (best == nullptr || r.keys[r.pos] < best->keys[best->pos])) {
          best = &r;
        }
      }
      if (best == nullptr) break;
      const Key k = best->keys[best->pos];
      const bool tombstone = IsTombstone(*best->deleted, best->pos);
      if (!(tombstone && drop_tombstones)) {
        merged.Append(k, best->values[best->pos], tombstone);
      }
      for (View& r : runs) {
        if (r.pos < r.size && r.keys[r.pos] == k) ++r.pos;
      }
    }
    return merged;
  }

  // Builds slot `slot` over `rows`, keeping their columns; `oldest` says no
  // older (higher) slot is occupied.
  void BuildSlot(size_t slot, Columns rows, bool oldest) {
    slots_[slot] = Slot{};
    if (rows.keys.empty()) return;
    Slot& s = slots_[slot];
    // Blooms only on large slots: small slots rebuild on every cascade
    // merge (the filter rebuild would dominate insert cost) and are cheap
    // to probe directly, while large slots rebuild rarely and are exactly
    // where a skipped probe saves the most. None on the oldest slot: it is
    // the largest filter to build and rejects only keys its own search
    // rejects, while every present-key read reaching it pays the probes
    // (RocksDB's optimize_filters_for_hits, here the fixed rule). A slot
    // becomes or stops being the oldest only through a cascade that
    // rebuilds it, so the choice made here holds until then.
    if (!oldest && rows.keys.size() >= kMinBloomEntries) {
      s.bloom = std::make_unique<BloomFilter>(rows.keys.size(),
                                              options_.bloom_bits_per_key);
      for (const Key& k : rows.keys) s.bloom->Add(static_cast<uint64_t>(k));
    }
    s.deleted = std::move(rows.deleted);
    typename PgmIndex<Key, Value>::Options opts;
    opts.epsilon = options_.epsilon;
    opts.epsilon_internal = options_.epsilon_internal;
    opts.build_threads = options_.build_threads;
    s.index.Build(std::move(rows.keys), std::move(rows.values), opts);
  }

  Options options_;
  Columns buffer_;  // Newest data.
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_DYNAMIC_PGM_H_
