#include "sfc/zrange.h"

#include <algorithm>

#include "common/macros.h"
#include "sfc/hilbert.h"
#include "sfc/morton.h"

namespace lidx::sfc {

namespace {

// Bits of dimension 0 within a D-dimensional Morton code: 0, D, 2D, ...
// Dimension d owns the same pattern shifted left by d.
template <int D>
constexpr uint64_t Dim0Bits() {
  uint64_t mask = 0;
  for (int bit = 0; bit < 64; bit += D) mask |= 1ull << bit;
  return mask;
}

// The bits below `bit` that belong to the same dimension as `bit`.
template <int D>
uint64_t LowerBitsOfDim(int bit) {
  return ((1ull << bit) - 1) & (Dim0Bits<D>() << (bit % D));
}

// LOAD "10...0": set `bit`, clear all lower bits of the same dimension.
template <int D>
uint64_t LoadOneZeros(uint64_t v, int bit) {
  return (v | (1ull << bit)) & ~LowerBitsOfDim<D>(bit);
}

// LOAD "01...1": clear `bit`, set all lower bits of the same dimension.
template <int D>
uint64_t LoadZeroOnes(uint64_t v, int bit) {
  return (v & ~(1ull << bit)) | LowerBitsOfDim<D>(bit);
}

}  // namespace

template <int D>
bool ZCodeInBox(uint64_t code, const ZBox<D>& box) {
  return box.ContainsCell(MortonDecode<D>(code));
}

template <int D>
uint64_t BigMin(uint64_t code, const ZBox<D>& box) {
  uint64_t zmin = MortonEncode<D>(box.lo);
  uint64_t zmax = MortonEncode<D>(box.hi);
  uint64_t bigmin = UINT64_MAX;
  // The highest bit a code uses: 32 bits per dimension in 2-D, 21 in 3-D.
  constexpr int kTopBit = D * (64 / D) - 1;
  for (int bit = kTopBit; bit >= 0; --bit) {
    const unsigned z_bit = (code >> bit) & 1;
    const unsigned min_bit = (zmin >> bit) & 1;
    const unsigned max_bit = (zmax >> bit) & 1;
    const unsigned combo = (z_bit << 2) | (min_bit << 1) | max_bit;
    switch (combo) {
      case 0b000:
        break;
      case 0b001:
        bigmin = LoadOneZeros<D>(zmin, bit);
        zmax = LoadZeroOnes<D>(zmax, bit);
        break;
      case 0b011:
        // code's path is entirely below the box: the answer is zmin.
        return zmin;
      case 0b100:
        // code's path is entirely above the box: best seen so far.
        return bigmin;
      case 0b101:
        zmin = LoadOneZeros<D>(zmin, bit);
        break;
      case 0b111:
        break;
      default:
        // 0b010 / 0b110 mean zmin > zmax in this dimension: impossible for a
        // well-formed box.
        LIDX_CHECK(false);
    }
  }
  return bigmin;
}

template bool ZCodeInBox<2>(uint64_t, const ZBox<2>&);
template bool ZCodeInBox<3>(uint64_t, const ZBox<3>&);
template uint64_t BigMin<2>(uint64_t, const ZBox<2>&);
template uint64_t BigMin<3>(uint64_t, const ZBox<3>&);

namespace {

struct Block {
  uint32_t x0, y0;
  uint32_t size;  // Power of two; block is [x0, x0+size) x [y0, y0+size).
};

enum class Overlap { kDisjoint, kPartial, kContained };

Overlap Classify(const Block& b, const ZRect& rect) {
  const uint64_t bx1 = static_cast<uint64_t>(b.x0) + b.size - 1;
  const uint64_t by1 = static_cast<uint64_t>(b.y0) + b.size - 1;
  if (bx1 < rect.lo[0] || b.x0 > rect.hi[0] || by1 < rect.lo[1] ||
      b.y0 > rect.hi[1]) {
    return Overlap::kDisjoint;
  }
  if (b.x0 >= rect.lo[0] && bx1 <= rect.hi[0] && b.y0 >= rect.lo[1] &&
      by1 <= rect.hi[1]) {
    return Overlap::kContained;
  }
  return Overlap::kPartial;
}

// A power-of-two-aligned block of side s covers s*s contiguous Z-codes.
ZInterval BlockInterval(const Block& b) {
  const uint64_t lo = MortonEncode2D(b.x0, b.y0);
  const uint64_t count = static_cast<uint64_t>(b.size) * b.size;
  return {lo, lo + count - 1};
}

}  // namespace

std::vector<ZInterval> DecomposeZRanges(const ZRect& rect,
                                        size_t max_ranges) {
  LIDX_CHECK(max_ranges >= 1);
  LIDX_CHECK(rect.lo[0] <= rect.hi[0] && rect.lo[1] <= rect.hi[1]);

  // Smallest power-of-two block enclosing the rectangle's coordinates.
  uint32_t side = 1;
  const uint32_t needed = std::max(rect.hi[0], rect.hi[1]);
  while (side <= needed && side < (1u << 31)) side <<= 1;

  std::vector<ZInterval> result;
  // Depth-first in Z-order so emitted intervals come out sorted; `pending`
  // acts as an explicit stack holding blocks in reverse Z-order.
  std::vector<Block> stack;
  stack.push_back({0, 0, side});
  while (!stack.empty()) {
    const Block b = stack.back();
    stack.pop_back();
    const Overlap o = Classify(b, rect);
    if (o == Overlap::kDisjoint) continue;
    const bool must_emit =
        o == Overlap::kContained || b.size == 1 ||
        // Budget pressure: emitting this whole block (over-covering) keeps
        // the interval count bounded.
        result.size() + stack.size() + 4 > max_ranges;
    if (must_emit) {
      const ZInterval iv = BlockInterval(b);
      if (!result.empty() && result.back().hi + 1 == iv.lo) {
        result.back().hi = iv.hi;  // Coalesce adjacent intervals.
      } else {
        result.push_back(iv);
      }
      continue;
    }
    const uint32_t h = b.size / 2;
    // Push children in reverse Z-order so they pop in Z-order.
    stack.push_back({b.x0 + h, b.y0 + h, h});
    stack.push_back({b.x0, b.y0 + h, h});
    stack.push_back({b.x0 + h, b.y0, h});
    stack.push_back({b.x0, b.y0, h});
  }
  return result;
}

std::vector<ZInterval> DecomposeHilbertRanges(const ZRect& rect, int bits,
                                              size_t max_ranges) {
  LIDX_CHECK(max_ranges >= 1);
  LIDX_CHECK(bits >= 1 && bits <= 31);
  LIDX_CHECK(rect.lo[0] <= rect.hi[0] && rect.lo[1] <= rect.hi[1]);
  const uint32_t side = 1u << bits;
  LIDX_CHECK(rect.hi[0] < side && rect.hi[1] < side);

  // An aligned block of side s is one contiguous Hilbert stretch; its
  // start is the minimum corner encoding (the curve enters at a corner).
  const auto block_interval = [bits](const Block& b) -> ZInterval {
    const uint32_t x1 = b.x0 + b.size - 1;
    const uint32_t y1 = b.y0 + b.size - 1;
    uint64_t lo = HilbertEncode2D(b.x0, b.y0, bits);
    lo = std::min(lo, HilbertEncode2D(x1, b.y0, bits));
    lo = std::min(lo, HilbertEncode2D(b.x0, y1, bits));
    lo = std::min(lo, HilbertEncode2D(x1, y1, bits));
    const uint64_t count = static_cast<uint64_t>(b.size) * b.size;
    return {lo, lo + count - 1};
  };

  std::vector<ZInterval> result;
  std::vector<Block> stack;
  stack.push_back({0, 0, side});
  while (!stack.empty()) {
    const Block b = stack.back();
    stack.pop_back();
    const Overlap o = Classify(b, rect);
    if (o == Overlap::kDisjoint) continue;
    const bool must_emit =
        o == Overlap::kContained || b.size == 1 ||
        result.size() + stack.size() + 4 > max_ranges;
    if (must_emit) {
      result.push_back(block_interval(b));
      continue;
    }
    const uint32_t h = b.size / 2;
    stack.push_back({b.x0 + h, b.y0 + h, h});
    stack.push_back({b.x0, b.y0 + h, h});
    stack.push_back({b.x0 + h, b.y0, h});
    stack.push_back({b.x0, b.y0, h});
  }
  // Blocks were emitted in Z-scan order, not Hilbert order: sort and
  // coalesce adjacent intervals.
  std::sort(result.begin(), result.end(),
            [](const ZInterval& a, const ZInterval& b) { return a.lo < b.lo; });
  std::vector<ZInterval> merged;
  for (const ZInterval& iv : result) {
    if (!merged.empty() && merged.back().hi + 1 >= iv.lo) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

}  // namespace lidx::sfc
