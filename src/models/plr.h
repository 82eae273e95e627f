#ifndef LIDX_MODELS_PLR_H_
#define LIDX_MODELS_PLR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"
#include "models/linear_model.h"

namespace lidx {

// Piecewise-linear approximation (PLA) of a CDF with a hard error bound:
// for every input key, |segment.Predict(key) - true_position| <= epsilon.
// This is the core primitive behind the PGM-index family and
// FITing-tree-style delta indexes.

// One ε-bounded segment covering keys in [first_key, last_key].
struct PlaSegment {
  double first_key = 0.0;
  double last_key = 0.0;
  size_t first_pos = 0;   // Position of first covered key.
  LinearModel model;

  size_t PredictClamped(double key, size_t n) const {
    return model.PredictClamped(key, n);
  }
};

// Streaming "swing filter" segmentation. Maintains the interval of slopes
// [slope_lo, slope_hi] through the segment's origin that keep every covered
// point within ±epsilon; when the interval empties, the segment is emitted
// and a new one starts at the current point.
//
// The swing filter is not the minimum-segment-count optimal PLA (that is the
// O'Rourke/convex-hull construction used by the original PGM paper), but it
// is O(n), single-pass, and carries the identical ε-guarantee; it produces
// at most ~2x the optimal number of segments in practice, which only affects
// constant factors, not the invariants any caller relies on.
class SwingFilterBuilder {
 public:
  explicit SwingFilterBuilder(double epsilon) : epsilon_(epsilon) {
    LIDX_CHECK(epsilon >= 0.0);
  }

  // Keys must be fed in strictly increasing order; pos is the key's rank.
  void Add(double key, size_t pos) {
    LIDX_DCHECK(!active_ || key > last_key_);
    if (!active_) {
      StartSegment(key, pos);
      return;
    }
    const double dx = key - origin_key_;
    const double dy = static_cast<double>(pos) -
                      static_cast<double>(origin_pos_);
    // Slope interval admissible for this point alone.
    const double hi = (dy + epsilon_) / dx;
    const double lo = (dy - epsilon_) / dx;
    if (lo > slope_hi_ || hi < slope_lo_) {
      // No single slope covers all points: close out and restart here.
      EmitSegment();
      StartSegment(key, pos);
      return;
    }
    if (hi < slope_hi_) slope_hi_ = hi;
    if (lo > slope_lo_) slope_lo_ = lo;
    last_key_ = key;
    last_pos_ = pos;
  }

  // Closes the final segment and returns all segments.
  std::vector<PlaSegment> Finish() {
    if (active_) EmitSegment();
    active_ = false;
    return std::move(segments_);
  }

 private:
  void StartSegment(double key, size_t pos) {
    origin_key_ = key;
    origin_pos_ = pos;
    last_key_ = key;
    last_pos_ = pos;
    slope_lo_ = -std::numeric_limits<double>::infinity();
    slope_hi_ = std::numeric_limits<double>::infinity();
    active_ = true;
  }

  void EmitSegment() {
    PlaSegment seg;
    seg.first_key = origin_key_;
    seg.last_key = last_key_;
    seg.first_pos = origin_pos_;
    double slope;
    if (slope_lo_ == -std::numeric_limits<double>::infinity()) {
      slope = 0.0;  // Single-point segment.
    } else {
      slope = (slope_lo_ + slope_hi_) / 2.0;
    }
    seg.model.slope = slope;
    seg.model.intercept =
        static_cast<double>(origin_pos_) - slope * origin_key_;
    segments_.push_back(seg);
  }

  double epsilon_;
  bool active_ = false;
  double origin_key_ = 0.0;
  size_t origin_pos_ = 0;
  double last_key_ = 0.0;
  size_t last_pos_ = 0;
  double slope_lo_ = 0.0;
  double slope_hi_ = 0.0;
  std::vector<PlaSegment> segments_;
};

// Convenience: segment an entire sorted key array. The segments come back
// at exact capacity: callers keep the vector as their model, and model
// sizes count its capacity.
template <typename Vec>
std::vector<PlaSegment> BuildPla(const Vec& keys, double epsilon) {
  SwingFilterBuilder builder(epsilon);
  double prev = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < keys.size(); ++i) {
    const double k = static_cast<double>(keys[i]);
    LIDX_CHECK(k > prev);  // Keys must be strictly increasing.
    builder.Add(k, i);
    prev = k;
  }
  std::vector<PlaSegment> segments = builder.Finish();
  segments.shrink_to_fit();
  return segments;
}

// The one block loop behind every blocked builder: split [0, n) into at
// most `threads` contiguous blocks of at least kMinBlock keys, run
// `fit(lo, hi)` on each block (ranks stay global), and concatenate the
// per-block outputs in block order. Block boundaries depend only on
// (threads, n), so a given thread count reproduces bit-identical output on
// any machine.
template <typename Fit>
auto ConcatBlocks(size_t n, size_t threads, const Fit& fit) {
  static constexpr size_t kMinBlock = size_t{1} << 12;
  using Out = decltype(fit(size_t{0}, size_t{0}));
  const size_t blocks =
      (threads <= 1) ? 1
                     : std::min(threads, std::max<size_t>(1, n / kMinBlock));
  std::vector<Out> per_block(blocks);
  ParallelForIndex(threads, blocks, [&](size_t b) {
    per_block[b] = fit(b * n / blocks, (b + 1) * n / blocks);
  });
  Out out;
  for (Out& part : per_block) out.insert(out.end(), part.begin(), part.end());
  return out;
}

// One block of a blocked PLA: a swing filter over keys[lo, hi) with global
// ranks. Each trained key's double must exceed its predecessor's (checked
// across block seams too). With `dedup`, a key equal to its predecessor is
// skipped, so the model trains on first occurrences; on a sorted array that
// is the classic "skip if equal to the previously added key" loop, and the
// rule needs no cross-block state.
template <typename Vec>
std::vector<PlaSegment> FitPlaBlock(const Vec& keys, double epsilon,
                                    size_t lo, size_t hi, bool dedup) {
  SwingFilterBuilder builder(epsilon);
  for (size_t i = lo; i < hi; ++i) {
    const double k = static_cast<double>(keys[i]);
    if (i > 0) {
      if (dedup && keys[i] == keys[i - 1]) continue;
      LIDX_CHECK(k > static_cast<double>(keys[i - 1]));
    }
    builder.Add(k, i);
  }
  return builder.Finish();
}

// Blocked parallel segmentation: an independent swing filter per block,
// segment lists concatenated in block order.
//
// The seam argument for why ε is preserved: every segment is emitted by
// *some* block's swing filter, which certifies |predict(key) - rank| <= ε
// for exactly the keys it covered — the global ranks fed to it. A block
// boundary only forces the filter to restart, which can add up to one
// extra segment per seam, never loosen a bound. The span between a block's
// last key and the next block's first key contains no data keys, so no key
// is ever attributed to a segment trained without it. Lookups that binary
// search segment first-keys are therefore exactly as accurate; the only
// observable difference from the serial build is the (slightly larger)
// segment count.
//
// With threads <= 1 this is exactly BuildPla.
template <typename Vec>
std::vector<PlaSegment> BuildPlaBlocked(const Vec& keys, double epsilon,
                                        size_t threads) {
  if (threads <= 1) return BuildPla(keys, epsilon);
  return ConcatBlocks(keys.size(), threads, [&](size_t lo, size_t hi) {
    return FitPlaBlock(keys, epsilon, lo, hi, /*dedup=*/false);
  });
}

// BuildPlaBlocked for sorted keys *with duplicates*: the model trains on
// first occurrences only (duplicates are handled by the caller's fix-up
// search widening). On strictly increasing keys it emits exactly
// BuildPlaBlocked's segments.
template <typename Vec>
std::vector<PlaSegment> BuildPlaDedupBlocked(const Vec& keys, double epsilon,
                                             size_t threads) {
  return ConcatBlocks(keys.size(), threads, [&](size_t lo, size_t hi) {
    return FitPlaBlock(keys, epsilon, lo, hi, /*dedup=*/true);
  });
}

// ----- Greedy spline corridor (RadixSpline's CDF model) -----

// A spline knot: (key, position). Between consecutive knots, positions are
// linearly interpolated; the greedy corridor construction guarantees the
// interpolation error is <= epsilon at every input key.
struct SplineKnot {
  double key = 0.0;
  double pos = 0.0;
};

class GreedySplineBuilder {
 public:
  explicit GreedySplineBuilder(double epsilon) : epsilon_(epsilon) {
    LIDX_CHECK(epsilon >= 0.0);
  }

  void Add(double key, size_t pos) {
    const double y = static_cast<double>(pos);
    if (knots_.empty()) {
      knots_.push_back({key, y});
      have_prev_ = false;
      return;
    }
    if (!have_prev_) {
      // Second point of the current spline segment: initialize the corridor.
      prev_key_ = key;
      prev_pos_ = y;
      const double dx = key - knots_.back().key;
      upper_ = (y + epsilon_ - knots_.back().pos) / dx;
      lower_ = (y - epsilon_ - knots_.back().pos) / dx;
      have_prev_ = true;
      return;
    }
    const double base_key = knots_.back().key;
    const double base_pos = knots_.back().pos;
    const double dx = key - base_key;
    const double slope = (y - base_pos) / dx;
    if (slope > upper_ || slope < lower_) {
      // The line to this point leaves the corridor: the previous point
      // becomes a knot, and the corridor restarts from it through this point.
      knots_.push_back({prev_key_, prev_pos_});
      const double ndx = key - prev_key_;
      upper_ = (y + epsilon_ - prev_pos_) / ndx;
      lower_ = (y - epsilon_ - prev_pos_) / ndx;
      prev_key_ = key;
      prev_pos_ = y;
      return;
    }
    // Narrow the corridor with this point's admissible slopes.
    const double hi = (y + epsilon_ - base_pos) / dx;
    const double lo = (y - epsilon_ - base_pos) / dx;
    if (hi < upper_) upper_ = hi;
    if (lo > lower_) lower_ = lo;
    prev_key_ = key;
    prev_pos_ = y;
  }

  std::vector<SplineKnot> Finish() {
    if (have_prev_) knots_.push_back({prev_key_, prev_pos_});
    have_prev_ = false;
    return std::move(knots_);
  }

 private:
  double epsilon_;
  std::vector<SplineKnot> knots_;
  bool have_prev_ = false;
  double prev_key_ = 0.0;
  double prev_pos_ = 0.0;
  double upper_ = 0.0;
  double lower_ = 0.0;
};

// Blocked parallel spline construction, mirroring BuildPlaBlocked: an
// independent greedy corridor per contiguous key block (global ranks),
// knot lists concatenated in block order. Each block's spline starts with
// a knot pinned at its first key and ends with one pinned at its last key
// (GreedySplineBuilder::Finish), so the concatenation interpolates every
// in-block key within ε and every seam span [block b's last key, block
// b+1's first key] contains no data keys at all — the ε-guarantee holds
// vacuously there. Knot keys stay strictly increasing across the seam
// because the blocks partition a strictly sorted array. Serial path
// (threads <= 1) is the exact single-corridor pass.
template <typename Vec>
std::vector<SplineKnot> BuildSplineBlocked(const Vec& keys, double epsilon,
                                           size_t threads) {
  return ConcatBlocks(keys.size(), threads, [&](size_t lo, size_t hi) {
    GreedySplineBuilder builder(epsilon);
    for (size_t i = lo; i < hi; ++i) {
      LIDX_DCHECK(i == lo || static_cast<double>(keys[i - 1]) <
                                 static_cast<double>(keys[i]));
      builder.Add(static_cast<double>(keys[i]), i);
    }
    return builder.Finish();
  });
}

}  // namespace lidx

#endif  // LIDX_MODELS_PLR_H_
