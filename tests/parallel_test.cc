// Parallel build engine: thread-pool primitives plus the build-equivalence
// contract every index promises — a build at N threads is either
// byte-identical to the serial build (RMI, ALEX, B+-tree, ZM entry arrays,
// Flood) or structurally different only in ways the invariants certify
// (PGM / RadixSpline / PLA seams, same ε-guarantee).

#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/btree.h"
#include "common/parallel.h"
#include "common/random.h"
#include "datasets/generators.h"
#include "models/linear_model.h"
#include "multi_d/flood.h"
#include "multi_d/zm_index.h"
#include "one_d/alex.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/pgm.h"
#include "one_d/radix_spline.h"
#include "one_d/rmi.h"

namespace lidx {
namespace {

// Thread counts every equivalence test exercises against the serial build.
const size_t kThreadCounts[] = {2, 8};

// ----- Pool primitives -----

TEST(ThreadPoolTest, SubmitRunsTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SharedPoolIsUsableAndSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  EXPECT_EQ(a.Submit([] { return 41 + 1; }).get(), 42);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    constexpr size_t kN = 10'000;
    std::vector<std::atomic<uint32_t>> hits(kN);
    ParallelForIndex(threads, kN,
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " at " << threads;
    }
  }
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // Inner ParallelFor calls run from pool workers; the caller-participates
  // design must finish even when every pool thread is itself inside a
  // ParallelFor.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 2'000;
  std::atomic<size_t> total{0};
  ParallelForIndex(8, kOuter, [&](size_t) {
    ParallelForIndex(8, kInner, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelSortTest, MatchesSerialSortForEveryThreadCount) {
  Rng rng(11);
  std::vector<uint64_t> base(100'000);
  for (uint64_t& v : base) v = rng.Next();
  std::vector<uint64_t> expected = base;
  std::sort(expected.begin(), expected.end());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    std::vector<uint64_t> got = base;
    ParallelSort(threads, &got);
    ASSERT_EQ(got, expected) << threads << " threads";
  }
}

TEST(ParallelReduceTest, FloatingPointSumsBitIdenticalAcrossThreads) {
  // The fixed-block decomposition makes the combine order independent of
  // the thread count, so double sums are bit-identical, not merely close.
  Rng rng(13);
  std::vector<double> xs(50'000);
  for (double& x : xs) {
    x = static_cast<double>(rng.Next() % (1u << 20)) * 1e-3;
  }
  const auto sum_with = [&](size_t threads) {
    return ParallelReduce<double>(
        threads, xs.size(), /*block=*/1 << 12, 0.0,
        [&](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_with(1);
  for (size_t threads : {size_t{2}, size_t{5}, size_t{8}}) {
    ASSERT_EQ(serial, sum_with(threads)) << threads << " threads";
  }
}

TEST(FitAccumulatorTest, MergedBlocksMatchSingleAccumulator) {
  Rng rng(17);
  std::vector<double> xs(10'000), ys(10'000);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i) + 0.25;
    ys[i] = static_cast<double>(rng.Next() % 1000);
  }
  FitAccumulator whole;
  for (size_t i = 0; i < xs.size(); ++i) whole.Add(xs[i] - xs[0], ys[i]);
  FitAccumulator merged;
  for (size_t b = 0; b < 10; ++b) {
    FitAccumulator part;
    for (size_t i = b * 1000; i < (b + 1) * 1000; ++i) {
      part.Add(xs[i] - xs[0], ys[i]);
    }
    merged.Merge(part);
  }
  const LinearModel a = whole.Solve(xs[0]);
  const LinearModel b = merged.Solve(xs[0]);
  EXPECT_DOUBLE_EQ(a.slope, b.slope);
  EXPECT_DOUBLE_EQ(a.intercept, b.intercept);
}

// ----- Per-index build equivalence -----

struct Dataset {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
};

Dataset MakeDataset(size_t n, uint64_t seed) {
  Dataset d;
  d.keys = GenerateKeys(KeyDistribution::kLognormal, n, seed);
  d.values.resize(d.keys.size());
  for (size_t i = 0; i < d.keys.size(); ++i) d.values[i] = i;
  return d;
}

TEST(BuildEquivalenceTest, RmiBuildsByteIdenticalIndex) {
  const Dataset d = MakeDataset(60'000, 101);
  const auto serialize = [&](size_t threads) {
    Rmi<uint64_t, uint64_t> index;
    Rmi<uint64_t, uint64_t>::Options opts;
    opts.build_threads = threads;
    index.Build(d.keys, d.values, opts);
    index.CheckInvariants();
    std::ostringstream out;
    index.SaveTo(out);
    return out.str();
  };
  const std::string serial = serialize(1);
  for (size_t threads : kThreadCounts) {
    ASSERT_EQ(serialize(threads), serial) << threads << " threads";
  }
}

TEST(BuildEquivalenceTest, PgmSeamsPreserveEpsilonAndLookups) {
  const Dataset d = MakeDataset(60'000, 103);
  PgmIndex<uint64_t, uint64_t> serial;
  serial.Build(d.keys, d.values);
  serial.CheckInvariants();
  for (size_t threads : kThreadCounts) {
    PgmIndex<uint64_t, uint64_t> parallel;
    PgmIndex<uint64_t, uint64_t>::Options opts;
    opts.build_threads = threads;
    parallel.Build(d.keys, d.values, opts);
    parallel.CheckInvariants();  // Includes the per-key ε certification.
    for (size_t i = 0; i < d.keys.size(); i += 7) {
      ASSERT_EQ(parallel.LowerBound(d.keys[i]), serial.LowerBound(d.keys[i]));
      ASSERT_EQ(parallel.Find(d.keys[i] + 1), serial.Find(d.keys[i] + 1));
    }
  }
}

TEST(BuildEquivalenceTest, RadixSplineSeamsPreserveEpsilonAndLookups) {
  const Dataset d = MakeDataset(60'000, 107);
  RadixSpline<uint64_t, uint64_t> serial;
  serial.Build(d.keys, d.values);
  serial.CheckInvariants();
  for (size_t threads : kThreadCounts) {
    RadixSpline<uint64_t, uint64_t> parallel;
    RadixSpline<uint64_t, uint64_t>::Options opts;
    opts.build_threads = threads;
    parallel.Build(d.keys, d.values, opts);
    parallel.CheckInvariants();
    for (size_t i = 0; i < d.keys.size(); i += 7) {
      ASSERT_EQ(parallel.LowerBound(d.keys[i]), serial.LowerBound(d.keys[i]));
      ASSERT_EQ(parallel.Find(d.keys[i] + 1), serial.Find(d.keys[i] + 1));
    }
  }
}

TEST(BuildEquivalenceTest, AlexBulkLoadIdenticalStructure) {
  const Dataset d = MakeDataset(60'000, 109);
  AlexIndex<uint64_t, uint64_t> serial;
  serial.BulkLoad(d.keys, d.values);
  serial.CheckInvariants();
  for (size_t threads : kThreadCounts) {
    AlexIndex<uint64_t, uint64_t>::Options opts;
    opts.build_threads = threads;
    AlexIndex<uint64_t, uint64_t> parallel(opts);
    parallel.BulkLoad(d.keys, d.values);
    parallel.CheckInvariants();
    for (size_t i = 0; i < d.keys.size(); i += 5) {
      ASSERT_EQ(parallel.Find(d.keys[i]), serial.Find(d.keys[i]));
      ASSERT_EQ(parallel.Find(d.keys[i] + 1), serial.Find(d.keys[i] + 1));
    }
  }
}

TEST(BuildEquivalenceTest, BtreeBulkLoadIdenticalStructure) {
  const Dataset d = MakeDataset(60'000, 113);
  std::vector<std::pair<uint64_t, uint64_t>> pairs(d.keys.size());
  for (size_t i = 0; i < d.keys.size(); ++i) {
    pairs[i] = {d.keys[i], d.values[i]};
  }
  BPlusTree<uint64_t, uint64_t> serial;
  serial.BulkLoad(pairs);
  serial.CheckInvariants();
  for (size_t threads : kThreadCounts) {
    BPlusTree<uint64_t, uint64_t> parallel;
    parallel.BulkLoad(pairs, /*fill_factor=*/1.0, threads);
    parallel.CheckInvariants();
    ASSERT_EQ(parallel.SizeBytes(), serial.SizeBytes());
    for (size_t i = 0; i < d.keys.size(); i += 5) {
      ASSERT_EQ(parallel.Find(d.keys[i]), serial.Find(d.keys[i]));
      ASSERT_EQ(parallel.Find(d.keys[i] + 1), serial.Find(d.keys[i] + 1));
    }
  }
}

TEST(BuildEquivalenceTest, DynamicPgmForwardsBuildThreads) {
  const Dataset d = MakeDataset(40'000, 127);
  for (size_t threads : kThreadCounts) {
    DynamicPgm<uint64_t, uint64_t>::Options opts;
    opts.build_threads = threads;
    DynamicPgm<uint64_t, uint64_t> index(opts);
    index.BulkLoad(d.keys, d.values);
    index.CheckInvariants();
    for (size_t i = 0; i < d.keys.size(); i += 9) {
      ASSERT_EQ(index.Find(d.keys[i]), std::optional<uint64_t>(i));
    }
  }
}

TEST(BuildEquivalenceTest, ZmIndexQueriesAgreeAcrossThreadCounts) {
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, 40'000, 131);
  ZmIndex<2> serial;
  serial.Build(points);
  for (size_t threads : kThreadCounts) {
    ZmIndex<2> parallel;
    ZmIndex<2>::Options opts;
    opts.build_threads = threads;
    parallel.Build(points, opts);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < points.size(); i += 97) {
      ASSERT_EQ(parallel.FindExact(points[i]), serial.FindExact(points[i]));
    }
    Rng rng(137);
    for (int q = 0; q < 50; ++q) {
      const double x = static_cast<double>(rng.NextBounded(1000)) / 1000.0;
      const double y = static_cast<double>(rng.NextBounded(1000)) / 1000.0;
      const RangeQuery2D query{x, y, std::min(1.0, x + 0.05),
                               std::min(1.0, y + 0.05)};
      auto a = parallel.RangeQuery(query);
      auto b = serial.RangeQuery(query);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b);
    }
  }
}

TEST(BuildEquivalenceTest, ZmIndex3dQueriesAgreeAcrossThreadCounts) {
  Rng rng(139);
  std::vector<Point3D> points(30'000);
  for (Point3D& p : points) {
    p = {static_cast<double>(rng.NextBounded(1u << 16)) / 65536.0,
         static_cast<double>(rng.NextBounded(1u << 16)) / 65536.0,
         static_cast<double>(rng.NextBounded(1u << 16)) / 65536.0};
  }
  ZmIndex<3> serial;
  serial.Build(points);
  for (size_t threads : kThreadCounts) {
    ZmIndex<3> parallel;
    ZmIndex<3>::Options opts;
    opts.build_threads = threads;
    parallel.Build(points, opts);
    for (size_t i = 0; i < points.size(); i += 97) {
      ASSERT_EQ(parallel.FindExact(points[i]), serial.FindExact(points[i]));
    }
  }
}

TEST(BuildEquivalenceTest, FloodBuildsByteIdenticalLayout) {
  const auto points =
      GeneratePoints(PointDistribution::kCorrelated, 40'000, 149);
  FloodIndex serial;
  FloodIndex::Options base;
  base.num_columns = 64;
  serial.Build(points, {}, base);
  for (size_t threads : kThreadCounts) {
    FloodIndex parallel;
    FloodIndex::Options opts = base;
    opts.build_threads = threads;
    parallel.Build(points, {}, opts);
    ASSERT_EQ(parallel.NumColumns(), serial.NumColumns());
    for (size_t i = 0; i < points.size(); i += 61) {
      ASSERT_EQ(parallel.FindExact(points[i]), serial.FindExact(points[i]));
    }
    Rng rng(151);
    for (int q = 0; q < 50; ++q) {
      const double x = static_cast<double>(rng.NextBounded(1000)) / 1000.0;
      const double y = static_cast<double>(rng.NextBounded(1000)) / 1000.0;
      const RangeQuery2D query{x, y, std::min(1.0, x + 0.1),
                               std::min(1.0, y + 0.1)};
      ASSERT_EQ(parallel.RangeQuery(query), serial.RangeQuery(query));
    }
  }
}

}  // namespace
}  // namespace lidx
