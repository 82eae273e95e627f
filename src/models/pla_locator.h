#ifndef LIDX_MODELS_PLA_LOCATOR_H_
#define LIDX_MODELS_PLA_LOCATOR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/search.h"
#include "models/plr.h"

namespace lidx {

// ε-bounded learned lower bound over a sorted key array that may hold
// duplicates. The model is an ε-bounded PLA trained on first occurrences
// (BuildPlaDedupBlocked): a lookup finds the key's segment among the
// segment first keys, predicts a position, and finishes with the shared
// window-plus-fixup search, which widens past the ±(ε+1) window only when a
// duplicate run pushes the answer out of it. The locator does not own the
// keys; callers pass the array it was built on to every lookup.
//
// An empty model (never built, or built on no keys) answers with a plain
// binary search, so a caller may skip training on arrays too small to pay
// for a model.
class PlaLocator {
 public:
  template <typename Vec>
  void Build(const Vec& sorted_keys, size_t epsilon, size_t threads) {
    epsilon_ = epsilon;
    segments_ = BuildPlaDedupBlocked(sorted_keys,
                                     static_cast<double>(epsilon), threads);
    first_keys_.clear();
    first_keys_.reserve(segments_.size());
    for (const PlaSegment& s : segments_) first_keys_.push_back(s.first_key);
  }

  // First index i with sorted_keys[i] >= key.
  template <typename Vec, typename Key>
  size_t LowerBound(const Vec& sorted_keys, Key key) const {
    const size_t n = sorted_keys.size();
    if (segments_.empty()) {
      return BinarySearchLowerBound(sorted_keys, key, 0, n);
    }
    const double k = static_cast<double>(key);
    const auto it =
        std::upper_bound(first_keys_.begin(), first_keys_.end(), k);
    const size_t seg =
        it == first_keys_.begin()
            ? 0
            : static_cast<size_t>(it - first_keys_.begin()) - 1;
    const size_t pred = segments_[seg].PredictClamped(k, n);
    return WindowLowerBoundWithFixup(sorted_keys, key, pred, epsilon_ + 1,
                                     epsilon_ + 1, n);
  }

  size_t NumSegments() const { return segments_.size(); }

  // Heap bytes of the model (the segments and their first keys).
  size_t SizeBytes() const {
    return segments_.capacity() * sizeof(PlaSegment) +
           first_keys_.capacity() * sizeof(double);
  }

 private:
  size_t epsilon_ = 0;
  std::vector<PlaSegment> segments_;
  std::vector<double> first_keys_;
};

}  // namespace lidx

#endif  // LIDX_MODELS_PLA_LOCATOR_H_
