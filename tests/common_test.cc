#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/batch.h"
#include "common/random.h"
#include "common/search.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "datasets/generators.h"
#include "datasets/workload.h"

namespace lidx {
namespace {

// ----- Crc32 -----

// The byte-at-a-time table CRC the sliced Crc32 must reproduce.
uint32_t BytewiseCrc32(const unsigned char* bytes, size_t len, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32Test, MatchesBytewiseAtEveryOffsetAndLength) {
  // Every length 0..4100 (past one page, so every tail length meets many
  // block counts) at every offset 0..7, so the 8-byte blocks start at
  // every alignment; each case chains from the previous case's CRC.
  std::vector<unsigned char> buf(4100 + 8);
  Rng rng(20260519);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  uint32_t seed = 0;
  for (size_t len = 0; len <= 4100; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint32_t want = BytewiseCrc32(buf.data() + offset, len, seed);
      ASSERT_EQ(Crc32(buf.data() + offset, len, seed), want)
          << "len " << len << " offset " << offset;
      seed = want;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnRandomSlicesAndChains) {
  std::vector<unsigned char> buf(9000);
  Rng rng(77);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (int c = 0; c < 2000; ++c) {
    const size_t offset = rng.NextBounded(64);
    const size_t len = rng.NextBounded(buf.size() - offset + 1);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const unsigned char* p = buf.data() + offset;
    ASSERT_EQ(Crc32(p, len, seed), BytewiseCrc32(p, len, seed))
        << "case " << c;
    // Chaining: CRC(a ++ b) == CRC(b, CRC(a)) at a random split.
    const size_t split = len == 0 ? 0 : rng.NextBounded(len + 1);
    ASSERT_EQ(Crc32(p + split, len - split, Crc32(p, split, seed)),
              Crc32(p, len, seed))
        << "case " << c << " split " << split;
  }
}

// ----- Rng -----

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(ZipfTest, SkewsTowardSmallRanks) {
  ZipfGenerator zipf(1000, 0.9, 3);
  std::vector<uint64_t> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    ++counts[v];
  }
  // Rank 0 must dominate rank 500 heavily under theta=0.9.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfTest, UniformishForLowTheta) {
  ZipfGenerator zipf(100, 0.1, 3);
  std::vector<uint64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next()];
  EXPECT_LT(counts[0], counts[50] * 10);
}

// ----- Search kernels -----

class SearchKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SearchKernelTest, BinaryMatchesStdLowerBound) {
  const size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<uint64_t> data;
  for (size_t i = 0; i < n; ++i) data.push_back(rng.NextBounded(n * 4 + 10));
  std::sort(data.begin(), data.end());
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t key = rng.NextBounded(n * 4 + 20);
    const size_t expected =
        std::lower_bound(data.begin(), data.end(), key) - data.begin();
    EXPECT_EQ(BinarySearchLowerBound(data, key, 0, data.size()), expected);
  }
}

TEST_P(SearchKernelTest, ExponentialMatchesStdLowerBound) {
  const size_t n = GetParam();
  Rng rng(n + 2);
  std::vector<uint64_t> data;
  for (size_t i = 0; i < n; ++i) data.push_back(rng.NextBounded(n * 4 + 10));
  std::sort(data.begin(), data.end());
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t key = rng.NextBounded(n * 4 + 20);
    const size_t expected =
        std::lower_bound(data.begin(), data.end(), key) - data.begin();
    // Any starting hint must give the right answer.
    const size_t hint = rng.NextBounded(n);
    EXPECT_EQ(ExponentialSearchLowerBound(data, key, hint, 0, data.size()),
              expected);
  }
}

TEST_P(SearchKernelTest, WindowFixupMatchesStdLowerBound) {
  const size_t n = GetParam();
  Rng rng(n + 4);
  std::vector<uint64_t> data;
  for (size_t i = 0; i < n; ++i) data.push_back(rng.NextBounded(n * 4 + 10));
  std::sort(data.begin(), data.end());
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t key = rng.NextBounded(n * 4 + 20);
    const size_t expected =
        std::lower_bound(data.begin(), data.end(), key) - data.begin();
    // Wildly wrong predictions with tiny windows must still be fixed up.
    const size_t pred = rng.NextBounded(n);
    const size_t err = rng.NextBounded(8);
    EXPECT_EQ(WindowLowerBoundWithFixup(data, key, pred, err, err, n),
              expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SearchKernelTest,
                         ::testing::Values(1, 2, 3, 15, 64, 1000, 4096));

TEST(SearchKernelTest, EmptyRange) {
  std::vector<uint64_t> data;
  EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{5}, 0, 2, 2, 0), 0u);
  std::vector<uint64_t> one{10};
  EXPECT_EQ(BinarySearchLowerBound(one, uint64_t{5}, 0, 1), 0u);
  EXPECT_EQ(BinarySearchLowerBound(one, uint64_t{10}, 0, 1), 0u);
  EXPECT_EQ(BinarySearchLowerBound(one, uint64_t{11}, 0, 1), 1u);
}

TEST(SearchKernelTest, ExponentialEmptyAndSingleRanges) {
  std::vector<uint64_t> data{10, 20, 30};
  // Empty range [lo, hi) with lo >= hi returns lo regardless of the hint.
  EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{15}, 0, 2, 2), 2u);
  EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{15}, 5, 3, 1), 3u);
  // Single-element subrange, hint clamped into it from both sides.
  EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{15}, 0, 1, 2), 1u);
  EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{25}, 2, 1, 2), 2u);
}

TEST(SearchKernelTest, ExponentialKeyOutsideData) {
  std::vector<uint64_t> data{10, 20, 30, 40, 50};
  const size_t n = data.size();
  for (size_t hint = 0; hint < n + 2; ++hint) {
    // Key below every element: always position 0.
    EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{1}, hint, 0, n), 0u);
    // Key above every element: always position n (hint past hi is clamped).
    EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{99}, hint, 0, n), n);
  }
  // Exact boundary keys from boundary predictions.
  EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{10}, 0, 0, n), 0u);
  EXPECT_EQ(ExponentialSearchLowerBound(data, uint64_t{50}, n - 1, 0, n),
            n - 1);
}

TEST(SearchKernelTest, WindowFixupKeyOutsideData) {
  std::vector<uint64_t> data{10, 20, 30, 40, 50};
  const size_t n = data.size();
  // Key below / above all data, from every prediction (including out of
  // range) and a zero-width certified window: the fix-up must recover.
  for (size_t pred = 0; pred < n + 3; ++pred) {
    EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{1}, pred, 0, 0, n),
              0u);
    EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{99}, pred, 0, 0, n),
              n);
  }
}

TEST(SearchKernelTest, WindowFixupPredictionAtBoundary) {
  std::vector<uint64_t> data{10, 20, 30, 40, 50};
  const size_t n = data.size();
  // Prediction pinned at 0 / n-1 with the true position at the other end.
  EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{50}, 0, 0, 0, n), n - 1);
  EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{10}, n - 1, 0, 0, n),
            0u);
  // Window exactly covering the answer at both edges certifies directly.
  EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{25}, 2, 1, 1, n), 2u);
  EXPECT_EQ(WindowLowerBoundWithFixup(data, uint64_t{45}, 4, 1, 1, n), 4u);
}

// The staged cursor (common/batch.h) must return bit-identical positions
// to the scalar WindowLowerBoundWithFixup for every prediction/window
// combination, including the fallback path.
TEST_P(SearchKernelTest, WindowSearchCursorMatchesScalar) {
  const size_t n = GetParam();
  Rng rng(n + 5);
  std::vector<uint64_t> data;
  for (size_t i = 0; i < n; ++i) data.push_back(rng.NextBounded(n * 4 + 10));
  std::sort(data.begin(), data.end());
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t key = rng.NextBounded(n * 4 + 20);
    const size_t pred = rng.NextBounded(n + 2);
    const size_t err_lo = rng.NextBounded(8);
    const size_t err_hi = rng.NextBounded(8);
    const size_t scalar =
        WindowLowerBoundWithFixup(data, key, pred, err_lo, err_hi, n);
    WindowSearchCursor<uint64_t> cursor;
    cursor.Begin(data, key, pred, err_lo, err_hi, n);
    int steps = 0;
    while (!cursor.Advance(data, key)) {
      ASSERT_LT(++steps, 1000) << "staged search failed to terminate";
    }
    EXPECT_EQ(cursor.result(), scalar);
  }
}

TEST(SearchKernelTest, WindowSearchCursorEmptyData) {
  std::vector<uint64_t> data;
  WindowSearchCursor<uint64_t> cursor;
  cursor.Begin(data, uint64_t{5}, 0, 2, 2, 0);
  EXPECT_TRUE(cursor.Advance(data, uint64_t{5}));
  EXPECT_EQ(cursor.result(), 0u);
}

TEST(InterleavedRunTest, VisitsEveryLookupOnceAtAnyGroupSize) {
  struct Cursor {
    size_t idx;
    int stages_left;
  };
  const size_t n = 103;  // Not a multiple of any group size.
  auto run = [&](auto group_tag) {
    constexpr size_t G = decltype(group_tag)::value;
    std::vector<int> finished(n, 0);
    InterleavedRun<G, Cursor>(
        n,
        [&](Cursor& c, size_t i) {
          c.idx = i;
          c.stages_left = static_cast<int>(i % 5);  // Uneven chain lengths.
        },
        [&](Cursor& c) -> bool {
          if (c.stages_left-- > 0) return false;
          ++finished[c.idx];
          return true;
        });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(finished[i], 1) << i;
  };
  run(std::integral_constant<size_t, 1>{});
  run(std::integral_constant<size_t, 4>{});
  run(std::integral_constant<size_t, 16>{});
  run(std::integral_constant<size_t, 128>{});  // Group wider than the work.
}

// ----- Summary / TablePrinter -----

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_NEAR(s.Stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
}

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 0.0);
}

TEST(TablePrinterTest, Formatting) {
  EXPECT_EQ(TablePrinter::FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::FormatBytes(512), "512 B");
  EXPECT_EQ(TablePrinter::FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(TablePrinter::FormatBytes(3 << 20), "3.00 MiB");
  EXPECT_EQ(TablePrinter::FormatCount(950), "950");
  EXPECT_EQ(TablePrinter::FormatCount(1500), "1.5K");
  EXPECT_EQ(TablePrinter::FormatCount(2500000), "2.5M");
}

// ----- Key generators -----

class KeyGenTest : public ::testing::TestWithParam<KeyDistribution> {};

TEST_P(KeyGenTest, SortedUniqueExactCount) {
  const auto keys = GenerateKeys(GetParam(), 5000, 123);
  ASSERT_EQ(keys.size(), 5000u);
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]) << "at index " << i;
  }
}

TEST_P(KeyGenTest, DeterministicPerSeed) {
  EXPECT_EQ(GenerateKeys(GetParam(), 1000, 5), GenerateKeys(GetParam(), 1000, 5));
  EXPECT_NE(GenerateKeys(GetParam(), 1000, 5), GenerateKeys(GetParam(), 1000, 6));
}

TEST_P(KeyGenTest, SmallSizes) {
  EXPECT_EQ(GenerateKeys(GetParam(), 1).size(), 1u);
  EXPECT_EQ(GenerateKeys(GetParam(), 2).size(), 2u);
  EXPECT_EQ(GenerateKeys(GetParam(), 17).size(), 17u);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, KeyGenTest,
                         ::testing::ValuesIn(AllKeyDistributions()),
                         [](const auto& info) {
                           return KeyDistributionName(info.param);
                         });

TEST(KeyGenTest, DistributionsDiffer) {
  const auto uniform = GenerateKeys(KeyDistribution::kUniform, 1000);
  const auto step = GenerateKeys(KeyDistribution::kStep, 1000);
  EXPECT_NE(uniform, step);
}

// ----- Point generators -----

class PointGenTest : public ::testing::TestWithParam<PointDistribution> {};

TEST_P(PointGenTest, InUnitSquare) {
  const auto pts = GeneratePoints(GetParam(), 5000, 7);
  ASSERT_EQ(pts.size(), 5000u);
  for (const Point2D& p : pts) {
    ASSERT_GE(p.x, 0.0);
    ASSERT_LT(p.x, 1.0);
    ASSERT_GE(p.y, 0.0);
    ASSERT_LT(p.y, 1.0);
  }
}

TEST_P(PointGenTest, Deterministic) {
  EXPECT_EQ(GeneratePoints(GetParam(), 100, 5), GeneratePoints(GetParam(), 100, 5));
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, PointGenTest,
                         ::testing::ValuesIn(AllPointDistributions()),
                         [](const auto& info) {
                           auto name = PointDistributionName(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'),
                                      name.end());
                           return name;
                         });

// ----- Workloads -----

TEST(WorkloadTest, MixFractionsRespected) {
  const auto existing = GenerateKeys(KeyDistribution::kUniform, 10000);
  const auto pool = GenerateKeys(KeyDistribution::kLognormal, 10000, 99);
  MixedWorkloadSpec spec;
  spec.read_fraction = 0.7;
  spec.insert_fraction = 0.3;
  const auto ops = GenerateMixedWorkload(spec, 10000, existing, pool);
  ASSERT_EQ(ops.size(), 10000u);
  size_t reads = 0, inserts = 0;
  for (const Operation& op : ops) {
    reads += (op.type == OpType::kRead);
    inserts += (op.type == OpType::kInsert);
  }
  EXPECT_NEAR(static_cast<double>(reads) / 10000, 0.7, 0.03);
  EXPECT_NEAR(static_cast<double>(inserts) / 10000, 0.3, 0.03);
}

TEST(WorkloadTest, InsertKeysComeFromPoolInOrder) {
  const auto existing = GenerateKeys(KeyDistribution::kUniform, 100);
  const auto pool = GenerateKeys(KeyDistribution::kUniform, 500, 77);
  MixedWorkloadSpec spec;
  spec.read_fraction = 0.0;
  spec.insert_fraction = 1.0;
  const auto ops = GenerateMixedWorkload(spec, 500, existing, pool);
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(ops[i].type, OpType::kInsert);
    ASSERT_EQ(ops[i].key, pool[i]);
  }
}

TEST(WorkloadTest, LookupMissesAreAbsent) {
  const auto existing = GenerateKeys(KeyDistribution::kClustered, 5000);
  std::set<uint64_t> set(existing.begin(), existing.end());
  const auto lookups = GenerateLookupKeys(existing, 2000, 0.0, 1.0, 5);
  for (uint64_t k : lookups) {
    EXPECT_EQ(set.count(k), 0u) << k;
  }
}

TEST(WorkloadTest, LookupHitsAreMembers) {
  const auto existing = GenerateKeys(KeyDistribution::kStep, 5000);
  std::set<uint64_t> set(existing.begin(), existing.end());
  const auto lookups = GenerateLookupKeys(existing, 2000, 0.0, 0.0, 5);
  for (uint64_t k : lookups) {
    EXPECT_EQ(set.count(k), 1u) << k;
  }
}

TEST(WorkloadTest, ZipfLookupsSkew) {
  const auto existing = GenerateKeys(KeyDistribution::kUniform, 10000);
  const auto lookups = GenerateLookupKeys(existing, 20000, 0.99, 0.0, 5);
  std::set<uint64_t> distinct(lookups.begin(), lookups.end());
  // Heavy skew: far fewer distinct keys than lookups.
  EXPECT_LT(distinct.size(), lookups.size() / 2);
}

TEST(WorkloadTest, RangeQueriesWithinUnitSquareAndSized) {
  const auto pts = GeneratePoints(PointDistribution::kUniform2D, 10000);
  const auto queries = GenerateRangeQueries(pts, 100, 0.01, 3);
  ASSERT_EQ(queries.size(), 100u);
  for (const RangeQuery2D& q : queries) {
    EXPECT_LE(q.min_x, q.max_x);
    EXPECT_LE(q.min_y, q.max_y);
    EXPECT_GE(q.min_x, 0.0);
    EXPECT_LE(q.max_x, 1.0);
    const double area = (q.max_x - q.min_x) * (q.max_y - q.min_y);
    EXPECT_LE(area, 0.0101);
  }
}

TEST(WorkloadTest, RangeQueriesNonEmptyOnClusteredData) {
  const auto pts = GeneratePoints(PointDistribution::kGaussianClusters, 10000);
  const auto queries = GenerateRangeQueries(pts, 50, 0.001, 3);
  size_t nonempty = 0;
  for (const RangeQuery2D& q : queries) {
    for (const Point2D& p : pts) {
      if (q.Contains(p)) {
        ++nonempty;
        break;
      }
    }
  }
  // Centered on data points, so nearly all queries hit something.
  EXPECT_GE(nonempty, 48u);
}

}  // namespace
}  // namespace lidx
