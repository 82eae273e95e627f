#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sfc/hilbert.h"
#include "sfc/morton.h"
#include "sfc/zrange.h"

namespace lidx::sfc {
namespace {

// ----- Morton -----

TEST(MortonTest, KnownValues) {
  EXPECT_EQ(MortonEncode2D(0, 0), 0u);
  EXPECT_EQ(MortonEncode2D(1, 0), 1u);
  EXPECT_EQ(MortonEncode2D(0, 1), 2u);
  EXPECT_EQ(MortonEncode2D(1, 1), 3u);
  EXPECT_EQ(MortonEncode2D(2, 0), 4u);
  EXPECT_EQ(MortonEncode2D(7, 7), 63u);
}

TEST(MortonTest, RoundTrip2D) {
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.Next());
    const uint32_t y = static_cast<uint32_t>(rng.Next());
    const auto [dx, dy] = MortonDecode2D(MortonEncode2D(x, y));
    ASSERT_EQ(dx, x);
    ASSERT_EQ(dy, y);
  }
}

TEST(MortonTest, RoundTrip3D) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.NextBounded(1u << 21));
    const uint32_t y = static_cast<uint32_t>(rng.NextBounded(1u << 21));
    const uint32_t z = static_cast<uint32_t>(rng.NextBounded(1u << 21));
    uint32_t dx, dy, dz;
    MortonDecode3D(MortonEncode3D(x, y, z), &dx, &dy, &dz);
    ASSERT_EQ(dx, x);
    ASSERT_EQ(dy, y);
    ASSERT_EQ(dz, z);
  }
}

TEST(MortonTest, MonotoneInEachDimension) {
  // Growing one coordinate with the other fixed grows the code.
  for (uint32_t x = 0; x + 1 < 64; ++x) {
    EXPECT_LT(MortonEncode2D(x, 5), MortonEncode2D(x + 1, 5));
    EXPECT_LT(MortonEncode2D(5, x), MortonEncode2D(5, x + 1));
  }
}

TEST(QuantizeTest, BoundsAndMonotone) {
  EXPECT_EQ(Quantize(0.0, 16), 0u);
  EXPECT_EQ(Quantize(-5.0, 16), 0u);
  EXPECT_EQ(Quantize(1.0, 16), (1u << 16) - 1);
  EXPECT_EQ(Quantize(2.0, 16), (1u << 16) - 1);
  uint32_t prev = 0;
  for (double v = 0.0; v < 1.0; v += 0.001) {
    const uint32_t q = Quantize(v, 16);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(QuantizeTest, DequantizeInsideCell) {
  for (uint32_t q : {0u, 1u, 100u, 65535u}) {
    const double v = Dequantize(q, 16);
    EXPECT_EQ(Quantize(v, 16), q);
  }
}

// ----- Hilbert -----

TEST(HilbertTest, RoundTrip) {
  Rng rng(3);
  for (int bits : {4, 8, 16}) {
    for (int i = 0; i < 5000; ++i) {
      const uint32_t x = static_cast<uint32_t>(rng.NextBounded(1u << bits));
      const uint32_t y = static_cast<uint32_t>(rng.NextBounded(1u << bits));
      const uint64_t d = HilbertEncode2D(x, y, bits);
      const auto [dx, dy] = HilbertDecode2D(d, bits);
      ASSERT_EQ(dx, x);
      ASSERT_EQ(dy, y);
    }
  }
}

TEST(HilbertTest, BijectiveOnSmallGrid) {
  const int bits = 5;
  const uint32_t side = 1u << bits;
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < side; ++x) {
    for (uint32_t y = 0; y < side; ++y) {
      const uint64_t d = HilbertEncode2D(x, y, bits);
      ASSERT_LT(d, static_cast<uint64_t>(side) * side);
      ASSERT_TRUE(seen.insert(d).second) << "duplicate index " << d;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(side) * side);
}

TEST(HilbertTest, ConsecutiveIndicesAreAdjacentCells) {
  // The defining locality property: successive curve positions are unit
  // steps in space (this is what Z-order lacks).
  const int bits = 6;
  const uint64_t total = 1ull << (2 * bits);
  auto [px, py] = HilbertDecode2D(0, bits);
  for (uint64_t d = 1; d < total; ++d) {
    const auto [x, y] = HilbertDecode2D(d, bits);
    const uint32_t manhattan = (x > px ? x - px : px - x) +
                               (y > py ? y - py : py - y);
    ASSERT_EQ(manhattan, 1u) << "jump at d=" << d;
    px = x;
    py = y;
  }
}

TEST(HilbertTest, ZOrderHasJumpsHilbertDoesNot) {
  // Quantify: count non-unit steps along each curve on a 32x32 grid.
  const int bits = 5;
  const uint64_t total = 1ull << (2 * bits);
  size_t z_jumps = 0;
  auto [zx, zy] = MortonDecode2D(0);
  for (uint64_t d = 1; d < total; ++d) {
    const auto [x, y] = MortonDecode2D(d);
    const uint32_t manhattan = (x > zx ? x - zx : zx - x) +
                               (y > zy ? y - zy : zy - y);
    if (manhattan != 1) ++z_jumps;
    zx = x;
    zy = y;
  }
  EXPECT_GT(z_jumps, 0u);
}

// ----- BIGMIN -----

// Brute-force next code >= `code` inside rect.
uint64_t BruteBigMin(uint64_t code, const ZRect& rect) {
  uint64_t best = UINT64_MAX;
  for (uint32_t x = rect.lo[0]; x <= rect.hi[0]; ++x) {
    for (uint32_t y = rect.lo[1]; y <= rect.hi[1]; ++y) {
      const uint64_t z = MortonEncode2D(x, y);
      if (z >= code && z < best) best = z;
    }
  }
  return best;
}

TEST(BigMinTest, MatchesBruteForceExhaustiveSmallGrid) {
  // Every rect and probe code on an 8x8 grid.
  for (uint32_t x0 = 0; x0 < 8; x0 += 2) {
    for (uint32_t y0 = 0; y0 < 8; y0 += 3) {
      for (uint32_t x1 = x0; x1 < 8; x1 += 2) {
        for (uint32_t y1 = y0; y1 < 8; y1 += 2) {
          const ZRect rect{{x0, y0}, {x1, y1}};
          for (uint64_t code = 0; code < 64; ++code) {
            if (ZCodeInBox(code, rect)) continue;
            ASSERT_EQ(BigMin(code, rect), BruteBigMin(code, rect))
                << "rect (" << x0 << "," << y0 << ")-(" << x1 << "," << y1
                << ") code " << code;
          }
        }
      }
    }
  }
}

TEST(BigMinTest, RandomizedLargerGrid) {
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    ZRect rect;
    rect.lo[0] = static_cast<uint32_t>(rng.NextBounded(64));
    rect.lo[1] = static_cast<uint32_t>(rng.NextBounded(64));
    rect.hi[0] = rect.lo[0] + static_cast<uint32_t>(rng.NextBounded(16));
    rect.hi[1] = rect.lo[1] + static_cast<uint32_t>(rng.NextBounded(16));
    const uint64_t code = rng.NextBounded(128 * 128);
    if (ZCodeInBox(code, rect)) continue;
    ASSERT_EQ(BigMin(code, rect), BruteBigMin(code, rect));
  }
}

TEST(BigMinTest, BelowRectReturnsZMin) {
  const ZRect rect{{4, 4}, {7, 7}};
  EXPECT_EQ(BigMin(0, rect), MortonEncode2D(4, 4));
}

TEST(BigMinTest, AboveRectReturnsSentinel) {
  const ZRect rect{{0, 0}, {1, 1}};
  EXPECT_EQ(BigMin(MortonEncode2D(31, 31), rect), UINT64_MAX);
}

// ----- Z-range decomposition -----

TEST(ZRangeTest, ExactCoverWithUnlimitedBudget) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    ZRect rect;
    rect.lo[0] = static_cast<uint32_t>(rng.NextBounded(32));
    rect.lo[1] = static_cast<uint32_t>(rng.NextBounded(32));
    rect.hi[0] = rect.lo[0] + static_cast<uint32_t>(rng.NextBounded(8));
    rect.hi[1] = rect.lo[1] + static_cast<uint32_t>(rng.NextBounded(8));
    const auto intervals = DecomposeZRanges(rect, 1u << 20);

    // Intervals sorted and disjoint.
    for (size_t i = 1; i < intervals.size(); ++i) {
      ASSERT_GT(intervals[i].lo, intervals[i - 1].hi);
    }
    // Exact: union of intervals == set of codes in rect.
    std::set<uint64_t> covered;
    for (const ZInterval& iv : intervals) {
      for (uint64_t z = iv.lo; z <= iv.hi; ++z) covered.insert(z);
    }
    std::set<uint64_t> expected;
    for (uint32_t x = rect.lo[0]; x <= rect.hi[0]; ++x) {
      for (uint32_t y = rect.lo[1]; y <= rect.hi[1]; ++y) {
        expected.insert(MortonEncode2D(x, y));
      }
    }
    ASSERT_EQ(covered, expected);
  }
}

TEST(ZRangeTest, BudgetedCoverIsSupersetAndBounded) {
  Rng rng(9);
  for (size_t budget : {1u, 2u, 4u, 8u, 16u}) {
    for (int trial = 0; trial < 50; ++trial) {
      ZRect rect;
      rect.lo[0] = static_cast<uint32_t>(rng.NextBounded(200));
      rect.lo[1] = static_cast<uint32_t>(rng.NextBounded(200));
      rect.hi[0] = rect.lo[0] + static_cast<uint32_t>(rng.NextBounded(40));
      rect.hi[1] = rect.lo[1] + static_cast<uint32_t>(rng.NextBounded(40));
      const auto intervals = DecomposeZRanges(rect, budget);
      ASSERT_LE(intervals.size(), budget);
      // Every cell of the rect must be covered by some interval.
      for (uint32_t x = rect.lo[0]; x <= rect.hi[0]; ++x) {
        for (uint32_t y = rect.lo[1]; y <= rect.hi[1]; ++y) {
          const uint64_t z = MortonEncode2D(x, y);
          bool found = false;
          for (const ZInterval& iv : intervals) {
            if (z >= iv.lo && z <= iv.hi) {
              found = true;
              break;
            }
          }
          ASSERT_TRUE(found) << "uncovered cell " << x << "," << y;
        }
      }
    }
  }
}

TEST(ZRangeTest, SingleCell) {
  const ZRect rect{{5, 9}, {5, 9}};
  const auto intervals = DecomposeZRanges(rect, 100);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].lo, MortonEncode2D(5, 9));
  EXPECT_EQ(intervals[0].hi, MortonEncode2D(5, 9));
}

}  // namespace
}  // namespace lidx::sfc
