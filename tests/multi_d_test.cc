#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "multi_d/airtree.h"
#include "multi_d/flood.h"
#include "multi_d/hm_index.h"
#include "multi_d/lisa.h"
#include "multi_d/ml_index.h"
#include "multi_d/qd_tree.h"
#include "multi_d/zm_index.h"
#include "spatial/geometry.h"
#include "spatial/grid.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"
#include "spatial/rtree.h"

namespace lidx {
namespace {

using Params = std::tuple<PointDistribution, size_t>;

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  std::string name = PointDistributionName(std::get<0>(info.param)) + "_" +
                     std::to_string(std::get<1>(info.param));
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name;
}

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Generic correctness battery over any spatial index exposing FindExact and
// RangeQuery. `index` must already contain exactly `points`.
template <typename Index>
void CheckSpatial(Index& index, const std::vector<Point2D>& points,
                  uint64_t seed) {
  // Exact point lookups (including duplicate handling).
  Rng rng(seed);
  for (int probe = 0; probe < 300; ++probe) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(points.size()));
    const Point2D& p = points[id];
    std::vector<uint32_t> expected;
    for (uint32_t j = 0; j < points.size(); ++j) {
      if (points[j] == p) expected.push_back(j);
    }
    ASSERT_EQ(Sorted(index.FindExact(p)), expected) << "id " << id;
  }
  // Guaranteed misses.
  for (int probe = 0; probe < 100; ++probe) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(points.size()));
    Point2D p = points[id];
    p.x = std::min(0.9999999, p.x + 1e-9);
    bool exists = false;
    for (const Point2D& q : points) {
      if (q == p) {
        exists = true;
        break;
      }
    }
    if (!exists) { ASSERT_TRUE(index.FindExact(p).empty()); }
  }
  // Range queries across selectivities vs brute force.
  for (double selectivity : {0.0001, 0.001, 0.01, 0.1}) {
    const auto queries =
        GenerateRangeQueries(points, 10, selectivity, seed + 1);
    for (const RangeQuery2D& q : queries) {
      const auto expected = Sorted(BruteForceRange(points, q));
      ASSERT_EQ(Sorted(index.RangeQuery(q)), expected)
          << "selectivity " << selectivity;
    }
  }
  // Degenerate queries.
  {
    RangeQuery2D whole{0.0, 0.0, 1.0, 1.0};
    ASSERT_EQ(index.RangeQuery(whole).size(), points.size());
    RangeQuery2D empty_q{0.45000001, 0.45000001, 0.45000002, 0.45000002};
    const auto expected = Sorted(BruteForceRange(points, empty_q));
    ASSERT_EQ(Sorted(index.RangeQuery(empty_q)), expected);
  }
}

// ----- R-tree -----

class RTreeParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(RTreeParamTest, BulkLoadCorrect) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 313);
  RTree tree;
  tree.BulkLoad(points);
  tree.CheckInvariants();
  CheckSpatial(tree, points, 317);
}

TEST_P(RTreeParamTest, KnnMatchesBruteForce) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 331);
  RTree tree;
  tree.BulkLoad(points);
  const auto queries = GenerateKnnQueries(points, 30, 337);
  for (const Point2D& q : queries) {
    for (size_t k : {1u, 10u, 50u}) {
      ASSERT_EQ(tree.Knn(q, k), BruteForceKnn(points, q, k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(RTreeTest, DynamicInsertMatchesBulk) {
  const auto points = GeneratePoints(PointDistribution::kGaussianClusters,
                                     5000, 347);
  RTree tree;
  for (uint32_t i = 0; i < points.size(); ++i) tree.Insert(points[i], i);
  tree.CheckInvariants();
  CheckSpatial(tree, points, 349);
}

TEST(RTreeTest, EraseRemovesExactlyOne) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 2000, 353);
  RTree tree;
  tree.BulkLoad(points);
  Rng rng(359);
  std::vector<bool> erased(points.size(), false);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(points.size()));
    const bool was_erased = erased[id];
    ASSERT_EQ(tree.Erase(points[id], id), !was_erased);
    erased[id] = true;
  }
  tree.CheckInvariants();
  for (uint32_t id = 0; id < points.size(); ++id) {
    const auto got = tree.FindExact(points[id]);
    const bool found = std::find(got.begin(), got.end(), id) != got.end();
    ASSERT_EQ(found, !erased[id]) << id;
  }
}

TEST(RTreeTest, EraseEverything) {
  const auto points = GeneratePoints(PointDistribution::kSkewedGrid, 1000, 367);
  RTree tree;
  tree.BulkLoad(points);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(tree.Erase(points[i], i)) << i;
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.RangeQuery({0, 0, 1, 1}).empty());
}

TEST(RTreeTest, QueryStatsCount) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 10000, 373);
  RTree tree;
  tree.BulkLoad(points);
  RTreeQueryStats stats;
  tree.FindExact(points[0], &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.leaves_visited, 0u);
  EXPECT_LE(stats.leaves_visited, stats.nodes_visited);
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_TRUE(tree.FindExact({0.5, 0.5}).empty());
  EXPECT_TRUE(tree.RangeQuery({0, 0, 1, 1}).empty());
  EXPECT_TRUE(tree.Knn({0.5, 0.5}, 3).empty());
  EXPECT_FALSE(tree.Erase({0.5, 0.5}, 0));
}

// ----- KdTree -----

class KdTreeParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(KdTreeParamTest, Correct) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 379);
  KdTree tree;
  tree.Build(points);
  CheckSpatial(tree, points, 383);
}

TEST_P(KdTreeParamTest, KnnMatchesBruteForce) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 389);
  KdTree tree;
  tree.Build(points);
  const auto queries = GenerateKnnQueries(points, 30, 397);
  for (const Point2D& q : queries) {
    for (size_t k : {1u, 10u, 50u}) {
      ASSERT_EQ(tree.Knn(q, k), BruteForceKnn(points, q, k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(KdTreeTest, KnnMoreThanNReturnsAll) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 20, 401);
  KdTree tree;
  tree.Build(points);
  EXPECT_EQ(tree.Knn({0.5, 0.5}, 100).size(), 20u);
}

// ----- QuadTree / UniformGrid -----

class QuadGridParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(QuadGridParamTest, QuadTreeCorrect) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 409);
  QuadTree tree;
  tree.Build(points);
  CheckSpatial(tree, points, 419);
}

TEST_P(QuadGridParamTest, GridCorrect) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 421);
  UniformGrid grid(32);
  grid.Build(points);
  CheckSpatial(grid, points, 431);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuadGridParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(QuadTreeTest, EraseWorks) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 1000, 433);
  QuadTree tree;
  tree.Build(points);
  ASSERT_TRUE(tree.Erase(points[10], 10));
  ASSERT_FALSE(tree.Erase(points[10], 10));
  EXPECT_TRUE(tree.FindExact(points[10]).empty() ||
              Sorted(tree.FindExact(points[10])) !=
                  std::vector<uint32_t>{10});
  EXPECT_EQ(tree.size(), 999u);
}

// ----- ZM-index -----

class ZmParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(ZmParamTest, Correct) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 439);
  ZmIndex<2> index;
  index.Build(points);
  CheckSpatial(index, points, 443);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZmParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(ZmTest, EpsilonControlsSegments) {
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, 50000, 449);
  ZmIndex<2> tight, loose;
  ZmIndex<2>::Options topts, lopts;
  topts.epsilon = 8;
  lopts.epsilon = 256;
  tight.Build(points, topts);
  loose.Build(points, lopts);
  EXPECT_GT(tight.NumSegments(), loose.NumSegments());
}

TEST(ZmTest, LowResolutionGridStillExact) {
  // Coarse quantization means many duplicate codes; results must remain
  // exact through the post-filter.
  const auto points = GeneratePoints(PointDistribution::kSkewedGrid, 5000, 457);
  ZmIndex<2> index;
  ZmIndex<2>::Options opts;
  opts.bits_per_dim = 6;
  index.Build(points, opts);
  CheckSpatial(index, points, 461);
}

TEST(ZmTest, BitsPerDimBoundFollowsFromD) {
  // Codes must stay exact as doubles: D * bits_per_dim <= 53.
  const std::vector<Point2D> points2 = {{0.25, 0.5}, {0.75, 0.125}};
  const std::vector<Point3D> points3 = {{0.25, 0.5, 0.75}};
  ZmIndex<2>::Options opts2;
  ZmIndex<3>::Options opts3;
  opts2.bits_per_dim = 27;
  EXPECT_DEATH(ZmIndex<2>().Build(points2, opts2), "LIDX_CHECK failed");
  opts3.bits_per_dim = 18;
  EXPECT_DEATH(ZmIndex<3>().Build(points3, opts3), "LIDX_CHECK failed");
  opts2.bits_per_dim = 0;
  EXPECT_DEATH(ZmIndex<2>().Build(points2, opts2), "LIDX_CHECK failed");

  opts2.bits_per_dim = 26;
  ZmIndex<2> zm2;
  zm2.Build(points2, opts2);
  EXPECT_EQ(zm2.FindExact(points2[1]), std::vector<uint32_t>{1});
  opts3.bits_per_dim = 17;
  ZmIndex<3> zm3;
  zm3.Build(points3, opts3);
  EXPECT_EQ(zm3.FindExact(points3[0]), std::vector<uint32_t>{0});
}

// Every learned code locator trains exactly as the hand-written loops it
// replaced: on a fixed seed, each index's segment count is pinned to the
// count those loops produced.
TEST(PlaLocatorTest, SegmentCountsPinnedOnAFixedSeed) {
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, 20000, 2718);
  ZmIndex<2> zm2;
  zm2.Build(points);
  EXPECT_EQ(zm2.NumSegments(), 62u);
  ZmIndex<2> zm2_blocked;
  ZmIndex<2>::Options blocked;
  blocked.build_threads = 4;  // Four PLA blocks, so three seams.
  zm2_blocked.Build(points, blocked);
  EXPECT_EQ(zm2_blocked.NumSegments(), 65u);

  std::vector<Point3D> points3(points.size());
  Rng rng(31);
  for (size_t i = 0; i < points.size(); ++i) {
    points3[i] = {points[i].x, points[i].y, rng.NextDouble()};
  }
  ZmIndex<3> zm3;
  zm3.Build(points3);
  EXPECT_EQ(zm3.NumSegments(), 62u);

  HmIndex hm;
  hm.Build(points);
  EXPECT_EQ(hm.NumSegments(), 60u);
  MlIndex ml;
  ml.Build(points);
  EXPECT_EQ(ml.NumSegments(), 135u);

  FloodIndex flood;
  FloodIndex::Options opts;
  opts.num_columns = 8;
  flood.Build(points, {}, opts);
  const std::vector<size_t> column_segments = {7, 10, 9, 11, 7, 11, 8, 9};
  ASSERT_EQ(flood.NumColumns(), column_segments.size());
  for (size_t c = 0; c < column_segments.size(); ++c) {
    EXPECT_EQ(flood.NumSegments(c), column_segments[c]) << "column " << c;
  }
}

// ----- Flood -----

class FloodParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(FloodParamTest, Correct) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 463);
  FloodIndex index;
  index.Build(points);
  CheckSpatial(index, points, 467);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FloodParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(FloodTest, TuningPicksACandidate) {
  const auto points =
      GeneratePoints(PointDistribution::kCorrelated, 20000, 479);
  const auto queries = GenerateRangeQueries(points, 30, 0.005, 487);
  FloodIndex index;
  FloodIndex::Options opts;
  opts.tuning_candidates = {8, 64, 256};
  index.Build(points, queries, opts);
  EXPECT_TRUE(index.NumColumns() == 8 || index.NumColumns() == 64 ||
              index.NumColumns() == 256);
  CheckSpatial(index, points, 491);
}

TEST(FloodTest, ExplicitColumnCount) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 5000, 499);
  FloodIndex index;
  FloodIndex::Options opts;
  opts.num_columns = 17;  // Deliberately odd.
  index.Build(points, {}, opts);
  EXPECT_EQ(index.NumColumns(), 17u);
  CheckSpatial(index, points, 503);
}

// ----- ML-index -----

class MlParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(MlParamTest, Correct) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 509);
  MlIndex index;
  index.Build(points);
  CheckSpatial(index, points, 521);
}

TEST_P(MlParamTest, KnnMatchesBruteForce) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 523);
  MlIndex index;
  index.Build(points);
  const auto queries = GenerateKnnQueries(points, 20, 541);
  for (const Point2D& q : queries) {
    for (size_t k : {1u, 10u, 50u}) {
      ASSERT_EQ(index.Knn(q, k), BruteForceKnn(points, q, k)) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MlParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(MlTest, PartitionCountRespected) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 5000, 547);
  MlIndex index;
  MlIndex::Options opts;
  opts.num_partitions = 4;
  index.Build(points, opts);
  EXPECT_EQ(index.NumPartitions(), 4u);
}

// ----- LISA -----

class LisaParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(LisaParamTest, Correct) {
  const auto [dist, n] = GetParam();
  const auto points = GeneratePoints(dist, n, 557);
  LisaIndex index;
  index.Build(points);
  index.CheckInvariants();
  CheckSpatial(index, points, 563);
}

TEST_P(LisaParamTest, InsertsAfterBuild) {
  const auto [dist, n] = GetParam();
  auto points = GeneratePoints(dist, n, 569);
  const size_t half = n / 2;
  std::vector<Point2D> initial(points.begin(), points.begin() + half);
  LisaIndex index;
  index.Build(initial);
  for (uint32_t i = static_cast<uint32_t>(half); i < points.size(); ++i) {
    index.Insert(points[i], i);
  }
  index.CheckInvariants();
  CheckSpatial(index, points, 571);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LisaParamTest,
    ::testing::Combine(::testing::ValuesIn(AllPointDistributions()),
                       ::testing::Values(500, 10000)),
    ParamName);

TEST(LisaTest, KnnMatchesBruteForce) {
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, 5000, 577);
  LisaIndex index;
  index.Build(points);
  const auto queries = GenerateKnnQueries(points, 20, 587);
  for (const Point2D& q : queries) {
    for (size_t k : {1u, 10u}) {
      ASSERT_EQ(index.Knn(q, k), BruteForceKnn(points, q, k));
    }
  }
}

TEST(LisaTest, ShardsSplitUnderInserts) {
  LisaIndex index;
  auto points = GeneratePoints(PointDistribution::kUniform2D, 1000, 593);
  index.Build(points);
  const size_t shards_before = index.NumShards();
  Rng rng(599);
  for (uint32_t i = 0; i < 20000; ++i) {
    index.Insert({rng.NextDouble(), rng.NextDouble()}, 1000 + i);
  }
  index.CheckInvariants();
  EXPECT_GT(index.NumShards(), shards_before);
  EXPECT_EQ(index.size(), 21000u);
}

TEST(LisaTest, EraseWorks) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 1000, 601);
  LisaIndex index;
  index.Build(points);
  ASSERT_TRUE(index.Erase(points[5], 5));
  ASSERT_FALSE(index.Erase(points[5], 5));
  EXPECT_EQ(index.size(), 999u);
  const auto got = index.FindExact(points[5]);
  EXPECT_TRUE(std::find(got.begin(), got.end(), 5u) == got.end());
}

// ----- AI+R-tree -----

TEST(AiRTreeTest, RouterMatchesRTree) {
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, 10000, 607);
  AiRTree air;
  air.BulkLoad(points);
  Rng rng(613);
  for (int probe = 0; probe < 500; ++probe) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(points.size()));
    ASSERT_EQ(Sorted(air.FindExact(points[id])),
              Sorted(air.rtree().FindExact(points[id])));
  }
  // Router path (not fallback) must have answered most queries.
  EXPECT_LT(air.fallbacks(), air.queries() / 10);
}

TEST(AiRTreeTest, StaleRouterFallsBackAfterInsert) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 1000, 617);
  AiRTree air;
  air.BulkLoad(points);
  air.Insert({0.123, 0.456}, 9999);
  const auto got = air.FindExact({0.123, 0.456});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 9999u);
}

TEST(AiRTreeTest, RetrainsAfterManyInserts) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 1000, 619);
  AiRTree air;
  air.BulkLoad(points);
  Rng rng(631);
  for (uint32_t i = 0; i < 500; ++i) {
    air.Insert({rng.NextDouble(), rng.NextDouble()}, 1000 + i);
  }
  air.RetrainRouter();
  air.ResetCounters();
  // After retraining, router answers without fallback again.
  for (int probe = 0; probe < 100; ++probe) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBounded(points.size()));
    air.FindExact(points[id]);
  }
  EXPECT_EQ(air.fallbacks(), 0u);
}

TEST(AiRTreeTest, RangeAndKnnDelegate) {
  const auto points = GeneratePoints(PointDistribution::kCorrelated, 5000, 641);
  AiRTree air;
  air.BulkLoad(points);
  const auto queries = GenerateRangeQueries(points, 20, 0.01, 643);
  for (const RangeQuery2D& q : queries) {
    ASSERT_EQ(Sorted(air.RangeQuery(q)), Sorted(BruteForceRange(points, q)));
  }
  const auto kqueries = GenerateKnnQueries(points, 10, 647);
  for (const Point2D& q : kqueries) {
    ASSERT_EQ(air.Knn(q, 5), BruteForceKnn(points, q, 5));
  }
}

// ----- Tiny inputs: every spatial index on 1- and 2-point data -----

TEST(TinySpatialTest, SinglePointEverywhere) {
  const std::vector<Point2D> one{{0.3, 0.7}};
  const RangeQuery2D hit{0.2, 0.6, 0.4, 0.8};
  const RangeQuery2D miss{0.8, 0.8, 0.9, 0.9};
  const std::vector<uint32_t> expect_hit{0};

  RTree rtree;
  rtree.BulkLoad(one);
  EXPECT_EQ(rtree.RangeQuery(hit), expect_hit);
  EXPECT_TRUE(rtree.RangeQuery(miss).empty());
  EXPECT_EQ(rtree.Knn({0.0, 0.0}, 5), expect_hit);

  KdTree kd;
  kd.Build(one);
  EXPECT_EQ(kd.RangeQuery(hit), expect_hit);
  EXPECT_EQ(kd.Knn({0.9, 0.9}, 1), expect_hit);

  QuadTree quad;
  quad.Build(one);
  EXPECT_EQ(quad.RangeQuery(hit), expect_hit);

  UniformGrid grid(8);
  grid.Build(one);
  EXPECT_EQ(grid.RangeQuery(hit), expect_hit);

  ZmIndex<2> zm;
  zm.Build(one);
  EXPECT_EQ(zm.RangeQuery(hit), expect_hit);
  EXPECT_TRUE(zm.RangeQuery(miss).empty());
  EXPECT_EQ(zm.FindExact(one[0]), expect_hit);

  FloodIndex flood;
  flood.Build(one);
  EXPECT_EQ(flood.RangeQuery(hit), expect_hit);
  EXPECT_EQ(flood.FindExact(one[0]), expect_hit);

  MlIndex ml;
  ml.Build(one);
  EXPECT_EQ(ml.RangeQuery(hit), expect_hit);
  EXPECT_EQ(ml.Knn({0.5, 0.5}, 3), expect_hit);

  LisaIndex lisa;
  lisa.Build(one);
  EXPECT_EQ(lisa.RangeQuery(hit), expect_hit);
  EXPECT_EQ(lisa.FindExact(one[0]), expect_hit);

  AiRTree air;
  air.BulkLoad(one);
  EXPECT_EQ(air.FindExact(one[0]), expect_hit);

  QdTree qd;
  qd.Build(one, {hit, miss});
  EXPECT_EQ(qd.RangeQuery(hit).ids, expect_hit);
  EXPECT_TRUE(qd.RangeQuery(miss).ids.empty());
}

TEST(TinySpatialTest, DuplicatePoints) {
  // Two identical points with distinct ids: both must always come back.
  const std::vector<Point2D> dup{{0.5, 0.5}, {0.5, 0.5}};
  const std::vector<uint32_t> both{0, 1};

  RTree rtree;
  rtree.BulkLoad(dup);
  EXPECT_EQ(Sorted(rtree.FindExact({0.5, 0.5})), both);

  ZmIndex<2> zm;
  zm.Build(dup);
  EXPECT_EQ(Sorted(zm.FindExact({0.5, 0.5})), both);

  FloodIndex flood;
  flood.Build(dup);
  EXPECT_EQ(Sorted(flood.FindExact({0.5, 0.5})), both);

  MlIndex ml;
  ml.Build(dup);
  EXPECT_EQ(Sorted(ml.FindExact({0.5, 0.5})), both);

  LisaIndex lisa;
  lisa.Build(dup);
  EXPECT_EQ(Sorted(lisa.FindExact({0.5, 0.5})), both);

  KdTree kd;
  kd.Build(dup);
  EXPECT_EQ(Sorted(kd.FindExact({0.5, 0.5})), both);

  QuadTree quad;
  quad.Build(dup);
  EXPECT_EQ(Sorted(quad.FindExact({0.5, 0.5})), both);
}

// ----- Qd-tree -----

TEST(QdTreeTest, PartitionInvariantAndCorrectness) {
  const auto points =
      GeneratePoints(PointDistribution::kSkewedGrid, 20000, 653);
  const auto workload = GenerateRangeQueries(points, 40, 0.005, 659);
  QdTree tree;
  tree.Build(points, workload);
  tree.CheckInvariants();
  EXPECT_GT(tree.NumLeaves(), 1u);
  for (const RangeQuery2D& q : workload) {
    const auto result = tree.RangeQuery(q);
    ASSERT_EQ(Sorted(result.ids), Sorted(BruteForceRange(points, q)));
    EXPECT_GT(result.blocks_scanned, 0u);
  }
  // Unseen queries still answered exactly.
  const auto fresh = GenerateRangeQueries(points, 20, 0.02, 661);
  for (const RangeQuery2D& q : fresh) {
    ASSERT_EQ(Sorted(tree.RangeQuery(q).ids),
              Sorted(BruteForceRange(points, q)));
  }
}

TEST(QdTreeTest, WorkloadAwareBeatsScanningEverything) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 20000, 673);
  const auto workload = GenerateRangeQueries(points, 30, 0.001, 677);
  QdTree tree;
  tree.Build(points, workload);
  size_t scanned = 0;
  for (const RangeQuery2D& q : workload) {
    scanned += tree.RangeQuery(q).records_scanned;
  }
  // Must scan far less than workload_size * n.
  EXPECT_LT(scanned, workload.size() * points.size() / 10);
}

TEST(QdTreeTest, EmptyWorkloadDegeneratesGracefully) {
  const auto points = GeneratePoints(PointDistribution::kUniform2D, 2000, 683);
  QdTree tree;
  tree.Build(points, {});
  tree.CheckInvariants();
  RangeQuery2D q{0.2, 0.2, 0.4, 0.4};
  ASSERT_EQ(Sorted(tree.RangeQuery(q).ids),
            Sorted(BruteForceRange(points, q)));
}

}  // namespace
}  // namespace lidx
