#ifndef LIDX_MODELS_PLA_LOCATOR_H_
#define LIDX_MODELS_PLA_LOCATOR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/invariants.h"
#include "common/search.h"
#include "models/plr.h"

namespace lidx {

// The flat ε-bounded PLA over a sorted key array that may hold duplicates,
// shared by every single-level PLA user (LSM and disk runs, the string
// and hash indexes, ZM/HM, the ML-index and Flood's columns). The model
// trains on first occurrences (BuildPlaDedupBlocked): a lookup finds the
// key's segment among the segment first keys, predicts a position, and
// finishes with the shared window-plus-fixup search, which widens past the
// ±(ε+1) window only when a duplicate run pushes the answer out of it. The
// locator does not own the keys; callers pass the array it was built on to
// every lookup.
//
// An empty model (never built, or built on no keys) answers LowerBound with
// a plain binary search, so a caller may skip training on arrays too small
// to pay for a model. Window and PredictClamped need a built model.
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
    return WindowLowerBoundWithFixup(sorted_keys, key, PredictClamped(key, n),
                                     epsilon_ + 1, epsilon_ + 1, n);
  }

  // The ±ε rank window that holds `key` if it is one of the n distinct
  // keys the model was trained on: what a point get searches.
  template <typename Key>
  SearchWindow Window(Key key, size_t n) const {
    return ClampSearchWindow(PredictClamped(key, n), epsilon_, epsilon_, n);
  }

  // Predicted rank of `key`, clamped to [0, n).
  template <typename Key>
  size_t PredictClamped(Key key, size_t n) const {
    const double k = static_cast<double>(key);
    return SegmentOf(k).PredictClamped(k, n);
  }

  // Predicted rank of `key`, unclamped; 0 on an empty model.
  template <typename Key>
  double Predict(Key key) const {
    if (segments_.empty()) return 0.0;
    const double k = static_cast<double>(key);
    return SegmentOf(k).model.Predict(k);
  }

  size_t NumSegments() const { return segments_.size(); }

  // Heap bytes of the model (the segments and their first keys).
  size_t SizeBytes() const {
    return segments_.capacity() * sizeof(PlaSegment) +
           first_keys_.capacity() * sizeof(double);
  }

  // Structural invariants against the keys the model was built on: keys
  // yield segments, the first-key mirror matches the segments, first keys
  // strictly increase, and every first occurrence's predicted rank is
  // within ε+1 of its rank. Aborts on violation. Test hook.
  template <typename Vec>
  void CheckInvariants(const Vec& sorted_keys) const {
    LIDX_INVARIANT(sorted_keys.size() == 0 || !segments_.empty(),
                   "pla: a model built on keys has segments");
    LIDX_INVARIANT(segments_.size() == first_keys_.size(),
                   "pla: segment/first-key parallel arrays");
    for (size_t s = 0; s < segments_.size(); ++s) {
      LIDX_INVARIANT(segments_[s].first_key == first_keys_[s],
                     "pla: first-key mirror matches segment");
      LIDX_INVARIANT(s == 0 || first_keys_[s - 1] < first_keys_[s],
                     "pla: segment first keys strictly increasing");
    }
    const double eps = static_cast<double>(epsilon_) + 1.0;
    for (size_t i = 0; i < sorted_keys.size(); ++i) {
      if (i > 0 && sorted_keys[i] == sorted_keys[i - 1]) continue;
      const double err = Predict(sorted_keys[i]) - static_cast<double>(i);
      LIDX_INVARIANT(err <= eps && -err <= eps,
                     "pla: epsilon guarantee at every first occurrence");
    }
  }

 private:
  // Last segment whose first key is <= k (the first segment if none is).
  const PlaSegment& SegmentOf(double k) const {
    const size_t after = static_cast<size_t>(
        std::upper_bound(first_keys_.begin(), first_keys_.end(), k) -
        first_keys_.begin());
    return segments_[after == 0 ? 0 : after - 1];
  }

  size_t epsilon_ = 0;
  std::vector<PlaSegment> segments_;
  std::vector<double> first_keys_;
};

}  // namespace lidx

#endif  // LIDX_MODELS_PLA_LOCATOR_H_
