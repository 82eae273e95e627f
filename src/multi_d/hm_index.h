#ifndef LIDX_MULTI_D_HM_INDEX_H_
#define LIDX_MULTI_D_HM_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "multi_d/projected_index.h"
#include "sfc/hilbert.h"
#include "sfc/morton.h"
#include "sfc/zrange.h"
#include "spatial/geometry.h"

namespace lidx {

// Hilbert-order learned index: the ZM-index recipe with the Hilbert curve
// as the projection (several taxonomy entries swap the curve this way —
// the tutorial's §5.1 presents the choice as a locality/compute
// trade-off). Hilbert has no cheap BIGMIN, so range queries decompose the
// rectangle into curve intervals up-front (aligned quadrants are
// contiguous stretches of the Hilbert curve) and re-enter the learned
// index once per interval; Hilbert's locality yields ~2x fewer intervals
// than Z-order for the same rectangle (E12), which A5 turns into an
// end-to-end comparison against the BIGMIN-driven ZM-index.
//
// Taxonomy position: multi-dimensional / immutable / pure / projected
// (Hilbert).
class HmIndex : public ProjectedIndex<Point2D> {
 public:
  struct Options {
    int bits_per_dim = 16;       // Hilbert order (codes < 2^(2*bits)).
    size_t epsilon = 64;
    size_t max_query_ranges = 256;  // Decomposition budget per query.
  };

  HmIndex() = default;

  void Build(const std::vector<Point2D>& points) {
    Build(points, Options());
  }

  void Build(const std::vector<Point2D>& points, const Options& options) {
    LIDX_CHECK(options.bits_per_dim >= 1 && options.bits_per_dim <= 26);
    options_ = options;
    BuildCodes(points, [this](const Point2D& p) { return Encode(p); },
               options.epsilon, /*threads=*/1);
  }

  std::vector<uint32_t> FindExact(const Point2D& p) const {
    return FindCode(Encode(p), p);
  }

  std::vector<uint32_t> RangeQuery(const RangeQuery2D& q) const {
    std::vector<uint32_t> out;
    if (entries_.empty()) return out;
    const sfc::ZRect rect{{Quantize(q.min_x), Quantize(q.min_y)},
                          {Quantize(q.max_x), Quantize(q.max_y)}};
    const auto intervals = sfc::DecomposeHilbertRanges(
        rect, options_.bits_per_dim, options_.max_query_ranges);
    for (const sfc::ZInterval& iv : intervals) {
      for (size_t i = LowerBound(iv.lo);
           i < entries_.size() && entries_[i].code <= iv.hi; ++i) {
        // Post-filter: budget coarsening and cell quantization both admit
        // candidates outside the true rectangle.
        if (q.Contains(entries_[i].point)) out.push_back(entries_[i].id);
      }
    }
    return out;
  }

 private:
  uint32_t Quantize(double v) const {
    return sfc::Quantize(v, options_.bits_per_dim);
  }

  uint64_t Encode(const Point2D& p) const {
    return sfc::HilbertEncode2D(Quantize(p.x), Quantize(p.y),
                                options_.bits_per_dim);
  }

  Options options_;
};

}  // namespace lidx

#endif  // LIDX_MULTI_D_HM_INDEX_H_
