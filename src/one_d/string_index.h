#ifndef LIDX_ONE_D_STRING_INDEX_H_
#define LIDX_ONE_D_STRING_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/search.h"
#include "models/pla_locator.h"

namespace lidx {

// Learned string index in the SIndex / "bounding the last mile" lineage
// (Wang et al., APSys 2020; Spector et al. 2021): string keys resist
// learned indexing because models need numbers. The standard recipe,
// implemented here:
//
//  1. Strip the corpus-wide common prefix (URL corpora share "https://",
//     log keys share their date prefix, ...) — it carries zero ordering
//     information and would crowd the fingerprint.
//  2. Fingerprint each remaining key by its first 8 bytes, big-endian, so
//     integer order of fingerprints refines string order:
//     a < b  =>  fp(a) <= fp(b).
//  3. Learn an ε-bounded PLA over the fingerprints (fed first-occurrence
//     positions, as fingerprints may repeat).
//  4. A lookup predicts a position from the query's fingerprint and
//     certifies it with the window search *comparing actual strings* —
//     the model is only a hint, so collisions (deep shared prefixes
//     beyond 8 bytes) cost extra comparisons, never correctness.
//
// Full SIndex adds per-group prefix stripping below the root; corpora
// whose keys only diverge after byte 8+LCP degrade toward binary search
// here (measured in E16's "deep-prefix" row).
//
// Taxonomy position: one-dimensional (string keys) / immutable / fixed
// layout / pure.
template <typename Value>
class StringLearnedIndex {
 public:
  struct Options {
    size_t epsilon = 64;
  };

  StringLearnedIndex() = default;

  // Builds from sorted, unique keys and parallel values.
  void Build(std::vector<std::string> keys, std::vector<Value> values) {
    Build(std::move(keys), std::move(values), Options());
  }

  void Build(std::vector<std::string> keys, std::vector<Value> values,
             const Options& options) {
    LIDX_CHECK(keys.size() == values.size());
    keys_ = std::move(keys);
    values_ = std::move(values);
    epsilon_ = options.epsilon;
    fingerprints_.clear();
    locator_ = PlaLocator();
    if (keys_.empty()) return;

    // 1. Corpus-wide common prefix.
    common_prefix_len_ = CommonPrefixLength(keys_.front(), keys_.back());
    // (Sorted corpus: LCP(first, last) == LCP of the whole set.)

    // 2+3. Fingerprints and the ε-bounded model over them. The model
    // works in double space, so it trains on the high 53 bits (exact as
    // doubles), first occurrences only.
    fingerprints_.reserve(keys_.size());
    std::vector<uint64_t> high(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      LIDX_DCHECK(i == 0 || keys_[i - 1] < keys_[i]);
      fingerprints_.push_back(Fingerprint(keys_[i]));
      high[i] = fingerprints_[i] >> 11;
    }
    locator_.Build(high, epsilon_, /*threads=*/1);
  }

  // Position of the first key >= `key`. Search runs on the integer
  // fingerprint array (cheap comparisons) and falls back to string
  // comparisons only inside the query's equal-fingerprint run — the
  // "bounded last mile" for strings.
  size_t LowerBound(std::string_view key) const {
    const size_t n = keys_.size();
    if (n == 0) return 0;
    // Fingerprint order only refines string order for keys sharing the
    // corpus prefix; queries diverging inside it resolve directly.
    if (common_prefix_len_ > 0) {
      const std::string_view prefix(keys_.front().data(),
                                    common_prefix_len_);
      const size_t m = std::min(key.size(), common_prefix_len_);
      const int cmp = key.substr(0, m).compare(prefix.substr(0, m));
      if (cmp < 0) return 0;   // Below every stored key.
      if (cmp > 0) return n;   // Above every stored key.
      if (key.size() < common_prefix_len_) return 0;  // Proper prefix.
    }
    const uint64_t fp = Fingerprint(key);
    const size_t pred = locator_.PredictClamped(fp >> 11, n);
    // Certified integer search: first index with fingerprint >= fp.
    const size_t lb = WindowLowerBoundWithFixup(fingerprints_, fp, pred,
                                                epsilon_ + 1, epsilon_ + 1,
                                                n);
    if (lb >= n || fingerprints_[lb] != fp) {
      // No key shares the query's fingerprint: everything before lb has a
      // smaller fingerprint (hence smaller string) and everything from lb
      // a larger one (hence larger string).
      return lb;
    }
    // Equal-fingerprint run [lb, run_end): only here are string
    // comparisons needed.
    const size_t run_end =
        std::upper_bound(fingerprints_.begin() + lb, fingerprints_.end(),
                         fp) -
        fingerprints_.begin();
    const auto pos = std::lower_bound(keys_.begin() + lb,
                                      keys_.begin() + run_end, key);
    return static_cast<size_t>(pos - keys_.begin());
  }

  std::optional<Value> Find(std::string_view key) const {
    const size_t pos = LowerBound(key);
    if (pos < keys_.size() && keys_[pos] == key) return values_[pos];
    return std::nullopt;
  }

  bool Contains(std::string_view key) const {
    const size_t pos = LowerBound(key);
    return pos < keys_.size() && keys_[pos] == key;
  }

  // Appends all (key, value) pairs with lo <= key <= hi, in order.
  void RangeScan(std::string_view lo, std::string_view hi,
                 std::vector<std::pair<std::string, Value>>* out) const {
    for (size_t i = LowerBound(lo); i < keys_.size() && keys_[i] <= hi;
         ++i) {
      out->emplace_back(keys_[i], values_[i]);
    }
  }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  size_t NumSegments() const { return locator_.NumSegments(); }
  size_t common_prefix_len() const { return common_prefix_len_; }

  size_t ModelSizeBytes() const {
    return sizeof(*this) + locator_.SizeBytes() +
           fingerprints_.capacity() * sizeof(uint64_t);
  }

  size_t SizeBytes() const {
    size_t total = ModelSizeBytes() +
                   keys_.capacity() * sizeof(std::string) +
                   values_.capacity() * sizeof(Value);
    for (const std::string& k : keys_) total += k.capacity();
    return total;
  }

 private:
  static size_t CommonPrefixLength(std::string_view a, std::string_view b) {
    const size_t limit = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < limit && a[i] == b[i]) ++i;
    return i;
  }

  // First 8 post-prefix bytes, big-endian (zero-padded): integer order
  // refines string order on the stripped corpus.
  uint64_t Fingerprint(std::string_view key) const {
    uint64_t fp = 0;
    const size_t start = std::min(common_prefix_len_, key.size());
    for (size_t i = 0; i < 8; ++i) {
      fp <<= 8;
      const size_t j = start + i;
      if (j < key.size()) fp |= static_cast<unsigned char>(key[j]);
    }
    return fp;
  }

  std::vector<std::string> keys_;
  std::vector<Value> values_;
  std::vector<uint64_t> fingerprints_;
  PlaLocator locator_;
  size_t common_prefix_len_ = 0;
  size_t epsilon_ = 64;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_STRING_INDEX_H_
