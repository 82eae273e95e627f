#ifndef LIDX_SFC_ZRANGE_H_
#define LIDX_SFC_ZRANGE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lidx::sfc {

// Range-query machinery on the Z-order curve. A box in space maps to many
// disjoint intervals on the curve; the two classic tools are:
//
//  * BIGMIN (Tropf & Herzog 1981): given a code outside the query box, jump
//    directly to the next code inside it. This lets an index scan a sorted
//    code array and skip dead stretches without materializing the interval
//    decomposition. One algorithm serves every dimension: the per-bit
//    dimension mask cycles with period D.
//  * Explicit decomposition of a 2-D rectangle into at most `max_ranges`
//    code intervals (over-covering when the budget is hit).

// A query box of grid cells in D dimensions (inclusive bounds). D = 2 or 3,
// the dimensions MortonEncode<D> interleaves.
template <int D>
struct ZBox {
  std::array<uint32_t, D> lo{};
  std::array<uint32_t, D> hi{};

  bool ContainsCell(const std::array<uint32_t, D>& cell) const {
    for (int d = 0; d < D; ++d) {
      if (cell[d] < lo[d] || cell[d] > hi[d]) return false;
    }
    return true;
  }
};

// The 2-D box: {{min_x, min_y}, {max_x, max_y}}.
using ZRect = ZBox<2>;

// True iff the cell encoded by `code` lies inside `box`.
template <int D>
bool ZCodeInBox(uint64_t code, const ZBox<D>& box);

// Smallest Z-code >= `code` that lies inside `box`; UINT64_MAX if the box
// has no code >= `code`. `code` is typically the first code found outside
// the box during a scan.
template <int D>
uint64_t BigMin(uint64_t code, const ZBox<D>& box);

// An inclusive interval [lo, hi] of Z-codes.
struct ZInterval {
  uint64_t lo;
  uint64_t hi;
};

// Decomposes `rect` into at most `max_ranges` sorted, disjoint Z-intervals
// that together cover every cell of the rectangle. When the budget forces
// coarsening, intervals may include codes outside the rectangle (callers
// must post-filter); with an unlimited budget the cover is exact.
std::vector<ZInterval> DecomposeZRanges(const ZRect& rect, size_t max_ranges);

// Same decomposition on the HILBERT curve of order `bits`: any
// power-of-two-aligned block is traversed contiguously by the Hilbert
// curve (it enters and leaves each quadrant exactly once), so a block of
// side s maps to one interval of s*s consecutive curve positions starting
// at the minimum of its corner encodings. Hilbert's better locality means
// the same rectangle needs ~2x fewer intervals than Z-order (E12/A5).
std::vector<ZInterval> DecomposeHilbertRanges(const ZRect& rect, int bits,
                                              size_t max_ranges);

}  // namespace lidx::sfc

#endif  // LIDX_SFC_ZRANGE_H_
