#ifndef LIDX_COMMON_SEARCH_H_
#define LIDX_COMMON_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "common/macros.h"
#include "common/simd.h"

namespace lidx {

// Search kernels shared by every index in the library. All of them return the
// index of the first element >= key (a lower bound) within [lo, hi) of a
// sorted random-access range accessed through `data[i]`.

// Branch-reduced binary search. The classic "shrink the window by half"
// formulation compiles to conditional moves on x86, which is what the learned
// indexes rely on for their last-mile search.
template <typename Vec, typename Key>
size_t BinarySearchLowerBound(const Vec& data, Key key, size_t lo, size_t hi) {
  size_t n = hi - lo;
  size_t base = lo;
  while (n > 1) {
    const size_t half = n / 2;
    base = (data[base + half - 1] < key) ? base + half : base;
    n -= half;
  }
  if (n == 1 && base < hi && data[base] < key) ++base;
  return base;
}

// Lower bound over [lo, hi) that routes through the SIMD kernel layer when
// the range is contiguous uint64_t/double storage and simd::Vectorized();
// branch-reduced scalar binary search otherwise. Results are identical on
// every path: the lower bound of a sorted range is unique.
template <typename Vec, typename Key>
size_t BoundedLowerBound(const Vec& data, Key key, size_t lo, size_t hi) {
  if constexpr (simd::kEligible<Vec, Key>) {
    if (lo < hi && simd::Vectorized()) {
      return simd::LowerBound(std::data(data), lo, hi, key);
    }
  }
  return BinarySearchLowerBound(data, key, lo, hi);
}

// The ε-window every model-predicted search shares: predicted position ±
// recorded error, padded by one slot per side for the trunc/round slack,
// intersected with [0, n). Centralised so the scalar search, the SIMD
// kernels, the staged batch cursor, and the storage layer all clamp the
// same way. All arithmetic is overflow-safe: err_lo/err_hi may be huge
// (SIZE_MAX) and n may span the whole address space without wrapping.
// Requires n > 0.
struct SearchWindow {
  size_t lo;
  size_t hi;
};

inline SearchWindow ClampSearchWindow(size_t pred, size_t err_lo,
                                      size_t err_hi, size_t n) {
  if (pred >= n) pred = n - 1;
  SearchWindow w;
  // lo = max(0, pred - err_lo - 1) without underflow.
  w.lo = (pred >= 1 && pred - 1 > err_lo) ? pred - 1 - err_lo : 0;
  // hi = min(n, pred + err_hi + 2) without overflow.
  const size_t room = n - pred;
  w.hi = (room > 2 && err_hi < room - 2) ? pred + err_hi + 2 : n;
  return w;
}

// Exponential (galloping) search outward from a predicted position, then a
// binary search on the located window. This is the standard last-mile search
// for learned indexes whose prediction error is usually small but unbounded:
// cost is O(log err) instead of O(log n). All gallop arithmetic saturates,
// so predicted positions anywhere in [0, SIZE_MAX) and ranges ending near
// hi == SIZE_MAX cannot wrap.
template <typename Vec, typename Key>
size_t ExponentialSearchLowerBound(const Vec& data, Key key, size_t predicted,
                                   size_t lo, size_t hi) {
  if (lo >= hi) return lo;
  size_t pos = predicted;
  if (pos < lo) pos = lo;
  if (pos >= hi) pos = hi - 1;

  if (data[pos] < key) {
    // Gallop right: test pos + off for doubling off, saturating at the
    // range end so pos + off never exceeds hi - 1 (and never wraps).
    const size_t room = hi - pos;  // >= 1.
    size_t prev = pos;
    size_t off = 1;
    while (off < room && data[pos + off] < key) {
      prev = pos + off;
      off = (off <= room / 2) ? off << 1 : room;
    }
    const size_t right = (off < room) ? pos + off + 1 : hi;
    return BoundedLowerBound(data, key, prev + 1, right);
  }
  // Gallop left: widen pos - off until the left edge is < key, saturating
  // at lo.
  const size_t room = pos - lo;
  size_t off = 1;
  bool exhausted = (room == 0);
  while (!exhausted && !(data[pos - off] < key)) {
    if (off >= room) {
      exhausted = true;
      break;
    }
    off = (off <= room / 2) ? off << 1 : room;
  }
  const size_t left = exhausted ? lo : pos - off;
  return BoundedLowerBound(data, key, left, pos + 1);
}

// Bounded search in the clamped ε-window with a correctness fix-up: learned
// indexes record per-model error bounds that hold for *trained* keys, but a
// lookup key absent from the data can route to a neighboring model whose
// bounds do not cover it. If the windowed result cannot be certified as the
// global lower bound, fall back to exponential search (rare, so the common
// path stays tight).
template <typename Vec, typename Key>
size_t WindowLowerBoundWithFixup(const Vec& data, Key key, size_t pred,
                                 size_t err_lo, size_t err_hi, size_t n) {
  if (n == 0) return 0;
  const SearchWindow w = ClampSearchWindow(pred, err_lo, err_hi, n);
  const size_t r = BoundedLowerBound(data, key, w.lo, w.hi);
  const bool left_ok = (r > w.lo) || w.lo == 0 || data[w.lo - 1] < key;
  const bool right_ok = (r < w.hi) || w.hi == n;
  if (LIDX_LIKELY(left_ok && right_ok)) return r;
  return ExponentialSearchLowerBound(data, key, r, 0, n);
}

}  // namespace lidx

#endif  // LIDX_COMMON_SEARCH_H_
