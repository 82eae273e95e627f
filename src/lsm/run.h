#ifndef LIDX_LSM_RUN_H_
#define LIDX_LSM_RUN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/bloom.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/search.h"
#include "common/simd.h"
#include "models/pla_locator.h"

namespace lidx {

// Value wrapper inside LSM runs: tombstones travel with the data.
template <typename Value>
struct RunEntry {
  Value value{};
  bool deleted = false;
};

// What a lookup reports for the newest entry of a key: nullopt for a
// tombstone.
template <typename Value>
std::optional<Value> LiveValue(const RunEntry<Value>& entry) {
  if (entry.deleted) return std::nullopt;
  return entry.value;
}

enum class RunSearchMode {
  kBinarySearch,  // WiscKey-style baseline.
  kLearned        // BOURBON-style per-run piecewise-linear model.
};

// Counters accumulated across run probes (per-LsmTree, reset by caller).
struct LsmStats {
  uint64_t run_probes = 0;       // Runs actually searched.
  uint64_t bloom_rejects = 0;    // Probes short-circuited by the filter.
  uint64_t search_steps = 0;     // Binary-search iterations in runs.
};

// An immutable sorted run: the LSM analogue of an SSTable kept in memory.
// Each run owns a Bloom filter and, in learned mode, an ε-bounded PLA model
// over its keys (BOURBON trains exactly such per-run models at compaction
// time because runs are immutable until the next compaction).
template <typename Key, typename Value>
class SortedRun {
 public:
  struct Options {
    RunSearchMode search_mode = RunSearchMode::kLearned;
    size_t learned_epsilon = 16;
    double bloom_bits_per_key = 10.0;
    // Threads for the learned-model training pass (blocked PLA, seams
    // preserve ε). Large runs produced by deep compactions are where this
    // matters. 1 = fully serial.
    size_t build_threads = 1;
  };

  SortedRun(std::vector<std::pair<Key, RunEntry<Value>>> entries,
            const Options& options)
      : options_(options),
        bloom_(std::max<size_t>(1, entries.size()),
               options.bloom_bits_per_key) {
    keys_.reserve(entries.size());
    values_.reserve(entries.size());
    for (auto& [key, entry] : entries) {
      LIDX_DCHECK(keys_.empty() || keys_.back() < key);
      keys_.push_back(key);
      values_.push_back(entry);
      bloom_.Add(static_cast<uint64_t>(key));
    }
    if (options_.search_mode == RunSearchMode::kLearned) {
      locator_.Build(keys_, options_.learned_epsilon, options_.build_threads);
    }
  }

  std::optional<RunEntry<Value>> Get(const Key& key, LsmStats* stats) const {
    if (keys_.empty()) return std::nullopt;
    if (!bloom_.MayContain(static_cast<uint64_t>(key))) {
      if (stats != nullptr) ++stats->bloom_rejects;
      return std::nullopt;
    }
    if (stats != nullptr) ++stats->run_probes;
    size_t lo = 0, hi = keys_.size();
    if (options_.search_mode == RunSearchMode::kLearned) {
      const SearchWindow w = locator_.Window(key, keys_.size());
      lo = w.lo;
      hi = w.hi;
      // The ε-window is a handful of cache lines: one vectorized
      // count-less-than pass resolves it (counted as a single search step
      // in the E6 metric). At the kScalar level the window takes the
      // counted binary search below; the binary-search baseline mode
      // always does — it is the classic algorithm being compared against.
      if constexpr (simd::kEligible<std::vector<Key>, Key>) {
        if (simd::Vectorized()) {
          if (stats != nullptr) ++stats->search_steps;
          const size_t r =
              lo + simd::CountLess(keys_.data() + lo, hi - lo, key);
          if (r < keys_.size() && keys_[r] == key) return values_[r];
          return std::nullopt;
        }
      }
    }
    // Counted binary search (the metric E6 reports).
    while (lo < hi) {
      if (stats != nullptr) ++stats->search_steps;
      const size_t mid = lo + (hi - lo) / 2;
      if (keys_[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < keys_.size() && keys_[lo] == key) return values_[lo];
    return std::nullopt;
  }

  // Sorted entries with lo <= key <= hi. Nothing here is counted; the
  // stats slot matches DiskRun::Scan so a tree scans either run alike.
  std::vector<std::pair<Key, RunEntry<Value>>> Scan(
      const Key& lo, const Key& hi, LsmStats* /*stats*/ = nullptr) const {
    std::vector<std::pair<Key, RunEntry<Value>>> out;
    size_t i = std::lower_bound(keys_.begin(), keys_.end(), lo) -
               keys_.begin();
    for (; i < keys_.size() && keys_[i] <= hi; ++i) {
      out.emplace_back(keys_[i], values_[i]);
    }
    return out;
  }

  // Extracts all entries (used by compaction).
  std::vector<std::pair<Key, RunEntry<Value>>> Drain() const {
    std::vector<std::pair<Key, RunEntry<Value>>> out;
    out.reserve(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      out.emplace_back(keys_[i], values_[i]);
    }
    return out;
  }

  size_t size() const { return keys_.size(); }

  size_t SizeBytes() const {
    return sizeof(*this) + keys_.capacity() * sizeof(Key) +
           values_.capacity() * sizeof(RunEntry<Value>) + bloom_.SizeBytes() +
           ModelSizeBytes();
  }

  size_t ModelSizeBytes() const { return locator_.SizeBytes(); }

  size_t NumSegments() const { return locator_.NumSegments(); }

  // Structural invariants: strict key order, parallel key/value arrays,
  // Bloom filter with no false negatives, and in learned mode the PLA's
  // own invariants over the keys. Aborts on violation. Test hook.
  void CheckInvariants() const {
    LIDX_INVARIANT(keys_.size() == values_.size(), "run: parallel arrays");
    invariants::CheckStrictlySorted(keys_, "run: keys strictly sorted");
    for (const Key& k : keys_) {
      LIDX_INVARIANT(bloom_.MayContain(static_cast<uint64_t>(k)),
                     "run: bloom has no false negatives");
    }
    if (options_.search_mode == RunSearchMode::kLearned) {
      locator_.CheckInvariants(keys_);
    }
  }

 private:
  Options options_;
  std::vector<Key> keys_;
  std::vector<RunEntry<Value>> values_;
  BloomFilter bloom_;
  PlaLocator locator_;
};

}  // namespace lidx

#endif  // LIDX_LSM_RUN_H_
