#ifndef LIDX_MULTI_D_ZM_INDEX_H_
#define LIDX_MULTI_D_ZM_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "multi_d/projected_index.h"
#include "sfc/morton.h"
#include "sfc/zrange.h"
#include "spatial/geometry.h"

namespace lidx {

// ZM-index (Wang et al., MDM 2019): the canonical *projected-space* learned
// multi-dimensional index (tutorial §5.2, Approach 2). Points are mapped to
// Z-order (Morton) codes, sorted by code, and a learned one-dimensional
// model (ε-bounded PLA, as in the PGM data level) indexes the code array.
// Range queries scan the code order and leapfrog dead stretches with
// BIGMIN jumps (Tropf & Herzog), re-entering the learned index at each
// jump instead of walking a B-tree.
//
// The recipe is the same in every dimension; D = 2 indexes Point2D under
// RangeQuery2D and D = 3 indexes Point3D under BoxQuery3D. The
// curve-locality tax grows with D (a box shatters into more intervals),
// which is the scaling caveat §6.1 raises.
//
// Taxonomy position: multi-dimensional / immutable / pure / projected.
template <int D>
class ZmIndex
    : public ProjectedIndex<std::conditional_t<D == 2, Point2D, Point3D>> {
  static_assert(D == 2 || D == 3, "ZmIndex is 2-D or 3-D");

 public:
  using Point = std::conditional_t<D == 2, Point2D, Point3D>;
  using Box = std::conditional_t<D == 2, RangeQuery2D, BoxQuery3D>;

  struct Options {
    // Grid resolution for quantization. Build requires D * bits_per_dim
    // <= 53, so every code is exact as a double for the learned model.
    int bits_per_dim = D == 2 ? 20 : 16;
    size_t epsilon = 64;  // PLA error bound on the code array.
    // Threads for Build: encoding, the (code, id) sort and the PLA
    // segmentation all parallelize. Entries and codes are identical for
    // every thread count; only the PLA segment boundaries may differ at
    // block seams, with the same ε-guarantee. 1 = fully serial.
    size_t build_threads = 1;
  };

  ZmIndex() = default;

  void Build(const std::vector<Point>& points) { Build(points, Options()); }

  void Build(const std::vector<Point>& points, const Options& options) {
    LIDX_CHECK(options.bits_per_dim >= 1 && D * options.bits_per_dim <= 53);
    options_ = options;
    this->BuildCodes(points, [this](const Point& p) { return Encode(p); },
                     options.epsilon, options.build_threads);
  }

  // Ids of points exactly equal to `p`.
  std::vector<uint32_t> FindExact(const Point& p) const {
    return this->FindCode(Encode(p), p);
  }

  std::vector<uint32_t> RangeQuery(const Box& q) const {
    std::vector<uint32_t> out;
    const auto& entries = this->entries_;
    if (entries.empty()) return out;
    const auto [lo, hi] = Corners(q);
    const sfc::ZBox<D> box{Cell(lo), Cell(hi)};
    const uint64_t zmax = sfc::MortonEncode<D>(box.hi);

    size_t i = this->LowerBound(sfc::MortonEncode<D>(box.lo));
    while (i < entries.size() && entries[i].code <= zmax) {
      const uint64_t code = entries[i].code;
      if (sfc::ZCodeInBox(code, box)) {
        // Consume the whole duplicate-code run.
        for (; i < entries.size() && entries[i].code == code; ++i) {
          if (q.Contains(entries[i].point)) out.push_back(entries[i].id);
        }
        continue;
      }
      // Outside the box: leapfrog with BIGMIN and re-enter via the learned
      // index.
      const uint64_t next = sfc::BigMin(code, box);
      if (next == UINT64_MAX || next > zmax) break;
      LIDX_DCHECK(next > code);
      i = this->LowerBound(next);
    }
    return out;
  }

 private:
  static std::array<double, D> Coords(const Point& p) {
    if constexpr (D == 2) {
      return {p.x, p.y};
    } else {
      return {p.x, p.y, p.z};
    }
  }

  // The query's low and high corners.
  static std::array<Point, 2> Corners(const Box& q) {
    if constexpr (D == 2) {
      return {Point{q.min_x, q.min_y}, Point{q.max_x, q.max_y}};
    } else {
      return {Point{q.min_x, q.min_y, q.min_z},
              Point{q.max_x, q.max_y, q.max_z}};
    }
  }

  std::array<uint32_t, D> Cell(const Point& p) const {
    const std::array<double, D> coords = Coords(p);
    std::array<uint32_t, D> cell;
    for (int d = 0; d < D; ++d) {
      cell[d] = sfc::Quantize(coords[d], options_.bits_per_dim);
    }
    return cell;
  }

  uint64_t Encode(const Point& p) const {
    return sfc::MortonEncode<D>(Cell(p));
  }

  Options options_;
};

}  // namespace lidx

#endif  // LIDX_MULTI_D_ZM_INDEX_H_
