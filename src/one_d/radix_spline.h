#ifndef LIDX_ONE_D_RADIX_SPLINE_H_
#define LIDX_ONE_D_RADIX_SPLINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "common/search.h"
#include "models/plr.h"

namespace lidx {

// RadixSpline (Kipf et al., aiDM 2020): a single-pass learned index. A
// greedy error-bounded spline approximates the CDF; a radix table over key
// prefixes bounds the spline-knot search, so a lookup is: radix probe ->
// binary search over a handful of knots -> linear interpolation -> bounded
// last-mile search. Build is one streaming pass, which is why the paper
// positions it for LSM-style rebuild-heavy deployments.
//
// Taxonomy position: one-dimensional / immutable / fixed layout / pure.
template <typename Key, typename Value>
class RadixSpline {
  static_assert(std::is_unsigned_v<Key>,
                "RadixSpline's radix table requires unsigned integer keys");

 public:
  struct Options {
    size_t epsilon = 32;      // Spline interpolation error bound.
    int num_radix_bits = 18;  // Radix table size = 2^bits entries.
    // Threads for the spline pass (one greedy corridor per key block,
    // stitched at seams — see BuildSplineBlocked for the ε argument).
    // Parallel builds may place a few extra knots at block seams, so the
    // knot list is thread-count-dependent, but the interpolation guarantee
    // is unchanged. 1 = fully serial.
    size_t build_threads = 1;
  };

  RadixSpline() = default;

  void Build(std::vector<Key> keys, std::vector<Value> values,
             const Options& options = Options()) {
    LIDX_CHECK(keys.size() == values.size());
    keys_ = std::move(keys);
    values_ = std::move(values);
    epsilon_ = options.epsilon;
    num_radix_bits_ = options.num_radix_bits;
    knots_.clear();
    radix_table_.clear();
    if (keys_.empty()) return;

    // Feed every (key, rank) to the greedy corridor — one corridor per key
    // block when build_threads > 1, the classic single pass otherwise.
    knots_ = BuildSplineBlocked(keys_, static_cast<double>(epsilon_),
                                options.build_threads);

    // Radix table over (key - min) >> shift prefixes.
    min_key_ = keys_.front();
    const Key max_key = keys_.back();
    const uint64_t range = static_cast<uint64_t>(max_key - min_key_);
    int significant_bits = 64 - __builtin_clzll(range | 1);
    shift_ = std::max(0, significant_bits - num_radix_bits_);
    const size_t table_size = (range >> shift_) + 2;
    radix_table_.assign(table_size + 1, 0);
    size_t cursor = 0;
    for (size_t i = 0; i < knots_.size(); ++i) {
      const uint64_t prefix = PrefixOf(knots_[i].key);
      while (cursor <= prefix) radix_table_[cursor++] = i;
    }
    while (cursor < radix_table_.size()) {
      radix_table_[cursor++] = knots_.size();
    }
  }

  size_t LowerBound(const Key& key) const {
    const size_t n = keys_.size();
    if (n == 0) return 0;
    if (key <= min_key_) return 0;
    if (static_cast<double>(key) >= knots_.back().key) {
      // Beyond the last knot (== last key): answer is in the final stretch.
      return BinarySearchLowerBound(keys_, key, n - 1, n);
    }
    const uint64_t prefix = PrefixOf(static_cast<double>(key));
    const size_t begin = radix_table_[prefix];
    const size_t end = radix_table_[prefix + 1];
    // Last knot with knot.key <= key, confined to [begin, end].
    const size_t seg = SegmentFor(static_cast<double>(key), begin, end);
    const SplineKnot& a = knots_[seg];
    const SplineKnot& b = knots_[seg + 1];
    const double frac =
        (static_cast<double>(key) - a.key) / (b.key - a.key);
    const double predicted = a.pos + frac * (b.pos - a.pos);
    size_t pred = 0;
    if (predicted > 0.0) {
      pred = std::min(n - 1, static_cast<size_t>(predicted));
    }
    return WindowLowerBoundWithFixup(keys_, key, pred, epsilon_ + 1,
                                     epsilon_ + 1, n);
  }

  std::optional<Value> Find(const Key& key) const {
    const size_t pos = LowerBound(key);
    if (pos < keys_.size() && keys_[pos] == key) return values_[pos];
    return std::nullopt;
  }

  bool Contains(const Key& key) const {
    const size_t pos = LowerBound(key);
    return pos < keys_.size() && keys_[pos] == key;
  }

  // Batched point lookups (see Rmi::LookupBatch for the contract). The
  // radix table is the structure's only large routing array (2^bits
  // entries), so the first stage prefetches the two table slots, the
  // second the knot range they delimit, and the rest run the staged
  // last-mile search over the data array.
  template <size_t G = 16>
  void LookupBatch(const Key* keys, size_t count, Value* out) const {
    const size_t n = keys_.size();
    if (n == 0) {
      std::fill(out, out + count, Value{});
      return;
    }
    enum Stage { kRadix, kKnots, kSearch, kFetch };
    struct Cursor {
      Key key;
      size_t idx;
      uint64_t prefix;
      size_t begin;
      size_t end;
      size_t pos;
      Stage stage;
      WindowSearchCursor<Key> search;
    };
    InterleavedRun<G, Cursor>(
        count,
        [&](Cursor& c, size_t i) {
          c.idx = i;
          c.key = keys[i];
          // Mirror the LowerBound guard rails so results stay identical.
          if (c.key <= min_key_) {
            c.pos = 0;
            LIDX_PREFETCH_READ(&keys_[0]);
            LIDX_PREFETCH_READ(&values_[0]);
            c.stage = kFetch;
            return;
          }
          if (static_cast<double>(c.key) >= knots_.back().key) {
            c.pos = BinarySearchLowerBound(keys_, c.key, n - 1, n);
            if (c.pos < n) LIDX_PREFETCH_READ(&values_[c.pos]);
            c.stage = kFetch;
            return;
          }
          c.prefix = PrefixOf(static_cast<double>(c.key));
          LIDX_PREFETCH_READ(&radix_table_[c.prefix]);
          LIDX_PREFETCH_READ(&radix_table_[c.prefix + 1]);
          c.stage = kRadix;
        },
        [&](Cursor& c) -> bool {
          switch (c.stage) {
            case kRadix: {
              c.begin = radix_table_[c.prefix];
              c.end = radix_table_[c.prefix + 1];
              // Fetch the knot range SegmentFor will bisect (typically a
              // few knots; both ends cover the lines it can touch).
              size_t lo = c.begin > 0 ? c.begin - 1 : 0;
              const size_t hi = std::min(c.end + 1, knots_.size());
              LIDX_PREFETCH_READ(&knots_[lo]);
              if (hi > lo + 1) {
                LIDX_PREFETCH_READ(&knots_[(lo + hi) / 2]);
                LIDX_PREFETCH_READ(&knots_[hi - 1]);
              }
              c.stage = kKnots;
              return false;
            }
            case kKnots: {
              const size_t seg =
                  SegmentFor(static_cast<double>(c.key), c.begin, c.end);
              const SplineKnot& a = knots_[seg];
              const SplineKnot& b = knots_[seg + 1];
              const double frac =
                  (static_cast<double>(c.key) - a.key) / (b.key - a.key);
              const double predicted = a.pos + frac * (b.pos - a.pos);
              size_t pred = 0;
              if (predicted > 0.0) {
                pred = std::min(n - 1, static_cast<size_t>(predicted));
              }
              c.search.Begin(keys_, c.key, pred, epsilon_ + 1, epsilon_ + 1, n);
              c.stage = kSearch;
              return false;
            }
            case kSearch: {
              if (!c.search.Advance(keys_, c.key)) return false;
              c.pos = c.search.result();
              if (c.pos < n) LIDX_PREFETCH_READ(&values_[c.pos]);
              c.stage = kFetch;
              return false;
            }
            default:
              out[c.idx] = (c.pos < n && keys_[c.pos] == c.key)
                               ? values_[c.pos]
                               : Value{};
              return true;
          }
        });
  }

  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    for (size_t i = LowerBound(lo); i < keys_.size() && keys_[i] <= hi; ++i) {
      out->emplace_back(keys_[i], values_[i]);
    }
  }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  size_t NumKnots() const { return knots_.size(); }

  size_t ModelSizeBytes() const {
    return sizeof(*this) + knots_.capacity() * sizeof(SplineKnot) +
           radix_table_.capacity() * sizeof(size_t);
  }

  size_t SizeBytes() const {
    return ModelSizeBytes() + keys_.capacity() * sizeof(Key) +
           values_.capacity() * sizeof(Value);
  }

  const std::vector<Key>& keys() const { return keys_; }

  // Structural invariants: strict key order, a spline whose knots are
  // strictly increasing in key and non-decreasing in position with endpoints
  // pinned to the data, a monotone radix table bounded by the knot count,
  // and the ε interpolation guarantee re-verified at every indexed key.
  // Aborts on violation. Test hook.
  void CheckInvariants() const {
    LIDX_INVARIANT(keys_.size() == values_.size(), "rs: parallel arrays");
    invariants::CheckStrictlySorted(keys_, "rs: keys strictly sorted");
    if (keys_.empty()) return;
    const size_t n = keys_.size();
    LIDX_INVARIANT(!knots_.empty(), "rs: spline exists for non-empty data");
    for (size_t i = 1; i < knots_.size(); ++i) {
      LIDX_INVARIANT(knots_[i - 1].key < knots_[i].key,
                     "rs: knot keys strictly increasing");
      LIDX_INVARIANT(knots_[i - 1].pos <= knots_[i].pos,
                     "rs: knot positions non-decreasing");
    }
    LIDX_INVARIANT(knots_.front().key == static_cast<double>(keys_.front()),
                   "rs: first knot pinned to first key");
    LIDX_INVARIANT(knots_.back().key == static_cast<double>(keys_.back()),
                   "rs: last knot pinned to last key");
    LIDX_INVARIANT(radix_table_.size() >= 2, "rs: radix table allocated");
    for (size_t i = 0; i < radix_table_.size(); ++i) {
      LIDX_INVARIANT(radix_table_[i] <= knots_.size(),
                     "rs: radix entry within knot count");
      if (i > 0) {
        LIDX_INVARIANT(radix_table_[i - 1] <= radix_table_[i],
                       "rs: radix table monotone");
      }
    }
    // ε-guarantee: the covering spline segment's interpolation lands within
    // epsilon (+1 for the final size_t truncation) of every key's rank.
    size_t seg = 0;
    for (size_t i = 0; i < n && knots_.size() >= 2; ++i) {
      const double k = static_cast<double>(keys_[i]);
      while (seg + 2 < knots_.size() && knots_[seg + 1].key <= k) ++seg;
      const SplineKnot& a = knots_[seg];
      const SplineKnot& b = knots_[seg + 1];
      const double frac = (k - a.key) / (b.key - a.key);
      const double predicted = a.pos + frac * (b.pos - a.pos);
      const double err = predicted - static_cast<double>(i);
      LIDX_INVARIANT(err <= static_cast<double>(epsilon_) + 1.0 &&
                         -err <= static_cast<double>(epsilon_) + 1.0,
                     "rs: epsilon interpolation guarantee");
    }
  }

 private:
  uint64_t PrefixOf(double key) const {
    const uint64_t k = static_cast<uint64_t>(key);
    const uint64_t m = static_cast<uint64_t>(min_key_);
    return (k <= m) ? 0 : (k - m) >> shift_;
  }

  // Index of the last knot with key <= k, restricted to [begin, end]
  // (the radix table guarantees the answer lies there).
  size_t SegmentFor(double k, size_t begin, size_t end) const {
    size_t lo = begin;
    size_t hi = std::min(end + 1, knots_.size());
    if (lo > 0) --lo;  // The covering knot may precede the bucket start.
    // Binary search for first knot key > k, then step back.
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (knots_[mid].key <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    LIDX_DCHECK(lo > 0);
    const size_t seg = lo - 1;
    return std::min(seg, knots_.size() - 2);
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<SplineKnot> knots_;
  std::vector<size_t> radix_table_;
  Key min_key_{};
  size_t epsilon_ = 32;
  int num_radix_bits_ = 18;
  int shift_ = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_RADIX_SPLINE_H_
