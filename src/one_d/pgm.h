#ifndef LIDX_ONE_D_PGM_H_
#define LIDX_ONE_D_PGM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "common/search.h"
#include "common/serialize.h"
#include "common/value_slot.h"
#include "models/plr.h"

namespace lidx {

// PGM-index (Ferragina & Vinciguerra, VLDB 2020): a multi-level
// piecewise-linear index with a provable worst-case bound — every lookup
// does O(log n / log eps) predictions, each followed by a search over at
// most 2*eps + 3 slots. The tutorial presents it as the canonical
// delta-buffer-friendly, worst-case-guaranteed learned index (contrast
// with RMI's unbounded per-model error).
//
// Taxonomy position: one-dimensional / immutable / fixed layout / pure.
// (See DynamicPgm for the mutable delta-buffer construction on top.)
template <typename Key, typename Value>
class PgmIndex {
 public:
  struct Options {
    size_t epsilon = 64;           // Data-level error bound.
    size_t epsilon_internal = 8;   // Error bound for internal levels.
    // Threads for the data-level segmentation (one swing filter per key
    // block, stitched at seams — see BuildPlaBlocked for the ε argument).
    // Parallel builds may emit a few more segments at block seams than
    // the serial pass, so the layout is thread-count-dependent, but every
    // segment carries the same ε-guarantee. 1 = fully serial.
    size_t build_threads = 1;
  };

  PgmIndex() = default;

  void Build(std::vector<Key> keys, std::vector<Value> values,
             const Options& options = Options()) {
    LIDX_CHECK(keys.size() == values.size());
    keys_ = std::move(keys);
    values_ = std::move(values);
    epsilon_ = options.epsilon;
    epsilon_internal_ = options.epsilon_internal;
    levels_.clear();
    if (keys_.empty()) return;

    // Level 0 approximates the data keys; level l approximates the first
    // keys of level l-1's segments, until a level fits in one root scan.
    // Only level 0 is worth parallelizing: upper levels shrink by ~2ε per
    // step and are a vanishing fraction of build time.
    std::vector<PlaSegment> segs = BuildPlaBlocked(
        keys_, static_cast<double>(epsilon_), options.build_threads);
    while (true) {
      Level level;
      level.segments = std::move(segs);
      level.first_keys.reserve(level.segments.size());
      for (const PlaSegment& s : level.segments) {
        level.first_keys.push_back(s.first_key);
      }
      const size_t count = level.segments.size();
      levels_.push_back(std::move(level));
      if (count <= kRootFanout) break;
      segs = BuildPla(levels_.back().first_keys,
                      static_cast<double>(epsilon_internal_));
    }
  }

  // Position of the first key >= `key`.
  size_t LowerBound(const Key& key) const {
    const size_t n = keys_.size();
    if (n == 0) return 0;
    const double k = static_cast<double>(key);

    // Root level: plain binary search over at most kRootFanout segments.
    const Level& root = levels_.back();
    size_t seg = PredecessorSegment(root, k, /*hint=*/root.Size(),
                                    /*use_hint=*/false, 0);
    // Walk down: each level's segment predicts a position among the next
    // level's first keys.
    for (size_t l = levels_.size() - 1; l > 0; --l) {
      const Level& level = levels_[l];
      const Level& below = levels_[l - 1];
      const size_t pred = level.segments[seg].model.PredictClamped(
          k, below.Size());
      seg = PredecessorSegment(below, k, pred, /*use_hint=*/true,
                               epsilon_internal_);
    }
    // Data level: the found segment predicts the final position.
    const PlaSegment& s = levels_[0].segments[seg];
    const size_t pred = s.model.PredictClamped(k, n);
    return WindowLowerBoundWithFixup(keys_, key, pred, epsilon_ + 1,
                                     epsilon_ + 1, n);
  }

  std::optional<Value> Find(const Key& key) const {
    const size_t pos = LowerBound(key);
    if (pos < keys_.size() && keys_[pos] == key) {
      return LoadValue(values_[pos]);
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const {
    const size_t pos = LowerBound(key);
    return pos < keys_.size() && keys_[pos] == key;
  }

  // Batched point lookups (see Rmi::LookupBatch for the contract). The
  // cursor walks the same level cascade as LowerBound, one certified
  // window probe per scheduler pass, prefetching each level's segment row
  // and first-key probes before touching them. The root scan stays scalar
  // in the init stage: it covers at most kRootFanout segments that every
  // lookup shares, so it is resident after the first lookup of a batch.
  template <size_t G = 16>
  void LookupBatch(const Key* keys, size_t count, Value* out) const {
    const size_t n = keys_.size();
    if (n == 0) {
      std::fill(out, out + count, Value{});
      return;
    }
    enum Stage { kSegSearch, kSegReady, kDataSearch, kFetch };
    struct Cursor {
      Key key;
      double k;
      size_t idx;
      size_t level;  // Level whose first_keys seg_search is walking.
      size_t seg;
      size_t pos;
      Stage stage;
      WindowSearchCursor<double> seg_search;
      WindowSearchCursor<Key> data_search;
    };
    // Starts the descent from `level` (which has a resolved c.seg) into
    // the level below, or the data array when c.level == 0.
    auto descend = [&](Cursor& c) {
      if (c.level == 0) {
        const PlaSegment& s = levels_[0].segments[c.seg];
        const size_t pred = s.model.PredictClamped(c.k, n);
        c.data_search.Begin(keys_, c.key, pred, epsilon_ + 1, epsilon_ + 1, n);
        c.stage = kDataSearch;
        return;
      }
      const Level& below = levels_[c.level - 1];
      const size_t pred = levels_[c.level].segments[c.seg].model.PredictClamped(
          c.k, below.Size());
      c.seg_search.Begin(below.first_keys, c.k, pred, epsilon_internal_ + 1,
                         epsilon_internal_ + 1, below.Size());
      c.stage = kSegSearch;
    };
    InterleavedRun<G, Cursor>(
        count,
        [&](Cursor& c, size_t i) {
          c.idx = i;
          c.key = keys[i];
          c.k = static_cast<double>(c.key);
          const Level& root = levels_.back();
          c.seg = PredecessorSegment(root, c.k, root.Size(),
                                     /*use_hint=*/false, 0);
          c.level = levels_.size() - 1;
          descend(c);
        },
        [&](Cursor& c) -> bool {
          switch (c.stage) {
            case kSegSearch: {
              const Level& level = levels_[c.level - 1];
              if (!c.seg_search.Advance(level.first_keys, c.k)) return false;
              const size_t lb = c.seg_search.result();
              const auto& fk = level.first_keys;
              c.seg = (lb < fk.size() && fk[lb] == c.k)
                          ? lb
                          : (lb == 0 ? 0 : lb - 1);
              --c.level;
              // The next stage reads this level's segment row.
              LIDX_PREFETCH_READ(&levels_[c.level].segments[c.seg]);
              c.stage = kSegReady;
              return false;
            }
            case kSegReady:
              descend(c);
              return false;
            case kDataSearch: {
              if (!c.data_search.Advance(keys_, c.key)) return false;
              c.pos = c.data_search.result();
              if (c.pos < n) LIDX_PREFETCH_READ(&values_[c.pos]);
              c.stage = kFetch;
              return false;
            }
            default:
              out[c.idx] = (c.pos < n && keys_[c.pos] == c.key)
                               ? LoadValue(values_[c.pos])
                               : Value{};
              return true;
          }
        });
  }

  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    for (size_t i = LowerBound(lo); i < keys_.size() && keys_[i] <= hi; ++i) {
      out->emplace_back(keys_[i], LoadValue(values_[i]));
    }
  }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  size_t epsilon() const { return epsilon_; }
  size_t NumLevels() const { return levels_.size(); }
  size_t NumSegments() const {
    return levels_.empty() ? 0 : levels_[0].segments.size();
  }
  // Segments of level l (0 = the data level); requires l < NumLevels().
  size_t NumSegmentsAt(size_t l) const { return levels_[l].segments.size(); }

  size_t ModelSizeBytes() const {
    size_t total = sizeof(*this);
    for (const Level& l : levels_) {
      total += l.segments.capacity() * sizeof(PlaSegment) +
               l.first_keys.capacity() * sizeof(double);
    }
    return total;
  }

  size_t SizeBytes() const {
    return ModelSizeBytes() + keys_.capacity() * sizeof(Key) +
           values_.capacity() * sizeof(Value);
  }

  const std::vector<Key>& keys() const { return keys_; }
  const std::vector<Value>& values() const { return values_; }

  // Binary persistence (same-architecture; the "build offline, serve
  // online" path for immutable learned indexes). Requires trivially
  // copyable Key and Value. The image is CRC-framed (WriteImage), so byte
  // flips anywhere in the payload are rejected at load time.
  void SaveTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<Key>);
    static_assert(std::is_trivially_copyable_v<Value>);
    std::ostringstream payload;
    WritePod<uint64_t>(payload, epsilon_);
    WritePod<uint64_t>(payload, epsilon_internal_);
    WriteVector(payload, keys_);
    WriteVector(payload, values_);
    WritePod<uint64_t>(payload, levels_.size());
    for (const Level& level : levels_) {
      WriteVector(payload, level.segments);
      WriteVector(payload, level.first_keys);
    }
    WriteImage(out, kSerialMagic, kSerialVersion, payload.str());
  }

  // Returns false (leaving the index empty) on malformed input: wrong
  // magic/version, truncation, or a payload CRC mismatch.
  bool LoadFrom(std::istream& stream) {
    *this = PgmIndex();
    std::string bytes;
    if (!ReadImage(stream, kSerialMagic, kSerialVersion, &bytes)) {
      return false;
    }
    std::istringstream in(std::move(bytes));
    uint64_t eps = 0, eps_internal = 0;
    if (!ReadPod(in, &eps) || !ReadPod(in, &eps_internal)) return false;
    epsilon_ = eps;
    epsilon_internal_ = eps_internal;
    if (!ReadVector(in, &keys_) || !ReadVector(in, &values_)) return false;
    if (keys_.size() != values_.size()) return false;
    uint64_t num_levels = 0;
    if (!ReadPod(in, &num_levels) || num_levels > 64) return false;
    levels_.resize(num_levels);
    for (Level& level : levels_) {
      if (!ReadVector(in, &level.segments) ||
          !ReadVector(in, &level.first_keys)) {
        return false;
      }
      if (level.segments.size() != level.first_keys.size()) return false;
    }
    if (!keys_.empty() && levels_.empty()) return false;
    return true;
  }

  // Structural invariants: strict key order, parallel arrays, a root level
  // small enough for its scan, per-level segment/first-key consistency with
  // non-increasing level sizes going up, and the ε-guarantee re-verified
  // for every indexed key. Aborts on violation. Test hook.
  void CheckInvariants() const {
    LIDX_INVARIANT(keys_.size() == values_.size(), "pgm: parallel arrays");
    invariants::CheckStrictlySorted(keys_, "pgm: keys strictly sorted");
    if (keys_.empty()) {
      return;
    }
    LIDX_INVARIANT(!levels_.empty(), "pgm: levels exist for non-empty data");
    LIDX_INVARIANT(levels_.back().Size() <= kRootFanout,
                   "pgm: root level fits the root scan");
    for (size_t l = 0; l < levels_.size(); ++l) {
      const Level& level = levels_[l];
      LIDX_INVARIANT(level.Size() >= 1, "pgm: level non-empty");
      LIDX_INVARIANT(level.segments.size() == level.first_keys.size(),
                     "pgm: segment/first-key parallel arrays");
      invariants::CheckStrictlySorted(level.first_keys,
                                      "pgm: level first keys sorted");
      for (size_t s = 0; s < level.segments.size(); ++s) {
        LIDX_INVARIANT(level.segments[s].first_key == level.first_keys[s],
                       "pgm: first-key mirror matches segment");
      }
      if (l > 0) {
        LIDX_INVARIANT(level.Size() <= levels_[l - 1].Size(),
                       "pgm: level sizes non-increasing upward");
      }
    }
    CheckEpsilonInvariant();
  }

  // Verifies the ε-guarantee for every indexed key (test hook): the data
  // level segment covering key i must predict within epsilon of i.
  void CheckEpsilonInvariant() const {
    if (keys_.empty()) return;
    const Level& data_level = levels_[0];
    size_t seg = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      const double k = static_cast<double>(keys_[i]);
      while (seg + 1 < data_level.segments.size() &&
             data_level.first_keys[seg + 1] <= k) {
        ++seg;
      }
      const double pred = data_level.segments[seg].model.Predict(k);
      const double err = pred - static_cast<double>(i);
      LIDX_CHECK(err <= static_cast<double>(epsilon_) + 1.0);
      LIDX_CHECK(-err <= static_cast<double>(epsilon_) + 1.0);
    }
  }

 private:
  static constexpr size_t kRootFanout = 64;
  static constexpr uint32_t kSerialMagic = 0x504D4731;  // "PGM1".
  static constexpr uint32_t kSerialVersion = 2;  // 2: CRC-framed image.

  struct Level {
    std::vector<PlaSegment> segments;
    std::vector<double> first_keys;
    size_t Size() const { return segments.size(); }
  };

  // Index of the last segment whose first_key <= k (0 if k precedes all).
  // With use_hint, searches a certified window around `hint` first.
  static size_t PredecessorSegment(const Level& level, double k, size_t hint,
                                   bool use_hint, size_t epsilon) {
    const auto& fk = level.first_keys;
    const size_t n = fk.size();
    size_t lb;
    if (use_hint) {
      lb = WindowLowerBoundWithFixup(fk, k, hint, epsilon + 1, epsilon + 1, n);
    } else {
      lb = BinarySearchLowerBound(fk, k, 0, n);
    }
    // lb = first segment with first_key >= k; predecessor covers k.
    if (lb < n && fk[lb] == k) return lb;
    return lb == 0 ? 0 : lb - 1;
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<Level> levels_;
  size_t epsilon_ = 64;
  size_t epsilon_internal_ = 8;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_PGM_H_
