#ifndef LIDX_PERFBENCH_ORACLE_H_
#define LIDX_PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

// Every value the benchmark stores, loaded or inserted, is derived from its
// key, so any answer can be checked without a reference index.
constexpr uint64_t kValueMask = 0x9E3779B9u;
inline uint64_t ValueOf(uint64_t key) { return key ^ kValueMask; }

// Answer oracle. `loaded` are the bulk-loaded keys, never erased; `pool`
// are the fresh keys inserts draw from. Both are sorted and disjoint.
class Oracle {
 public:
  Oracle(const std::vector<uint64_t>* loaded,
         const std::vector<uint64_t>* pool)
      : loaded_(loaded), pool_(pool) {}

  // A read of a key that is known to be present (loaded, or inserted
  // earlier by the same client) must return its value.
  static bool CheckPresent(uint64_t key, const std::optional<uint64_t>& got) {
    return got.has_value() && *got == ValueOf(key);
  }

  // Index of the first loaded key >= lo.
  size_t LoadedRank(uint64_t lo) const {
    return static_cast<size_t>(
        std::lower_bound(loaded_->begin(), loaded_->end(), lo) -
        loaded_->begin());
  }

  // A scan of [lo, hi] must return strictly increasing keys inside the
  // range, each with its value, every loaded key of the range, and no key
  // that was never loaded or drawn from the pool. Which pool keys appear
  // depends on concurrent inserts, so they are checked only for membership.
  // `first` is LoadedRank(lo), which a caller that picked lo from the
  // loaded keys already knows; the pool is searched only for rows that are
  // not loaded keys, so a scan of loaded keys is checked in O(rows).
  bool CheckScan(uint64_t lo, uint64_t hi, size_t first,
                 const std::vector<std::pair<uint64_t, uint64_t>>& rows) const {
    const std::vector<uint64_t>& loaded = *loaded_;
    size_t li = first;
    bool have_prev = false;
    uint64_t prev = 0;
    for (const auto& [key, value] : rows) {
      if (key < lo || key > hi) return false;
      if (have_prev && key <= prev) return false;
      if (value != ValueOf(key)) return false;
      have_prev = true;
      prev = key;
      if (li < loaded.size() && loaded[li] < key) return false;  // Skipped.
      if (li < loaded.size() && loaded[li] == key) {
        ++li;
        continue;
      }
      if (!std::binary_search(pool_->begin(), pool_->end(), key)) {
        return false;  // Invented.
      }
    }
    return li == loaded.size() || loaded[li] > hi;
  }

 private:
  const std::vector<uint64_t>* loaded_;
  const std::vector<uint64_t>* pool_;
};

// Ops attempted and ops whose answer the oracle rejected. Writes count as
// attempted; their effect is checked by the reads and scans that follow.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

}  // namespace perfbench

#endif  // LIDX_PERFBENCH_ORACLE_H_
