// E7 — Multi-dimensional point queries: learned vs traditional.
//
// Tutorial claim (§5): learned multi-dimensional indexes answer point
// queries faster and smaller than the R-tree by replacing tree descent
// with model evaluation; the AI+R-tree shows the hybrid route (learned
// leaf routing over an unchanged R-tree). Expected shape: ZM/Flood/ML
// beat the R-tree and quadtree on point lookups; the uniform grid is
// competitive on uniform data but degrades under skew, which is exactly
// the gap learned layouts close.
//
// Every answer of every index is checked against the exact id set of the
// query point; a mismatch exits non-zero after the JSON is written.
//
// Usage: bench_e07_point_2d [num_points]   (default 1M)

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "multi_d/airtree.h"
#include "multi_d/flood.h"
#include "multi_d/lisa.h"
#include "multi_d/ml_index.h"
#include "multi_d/zm_index.h"
#include "spatial/grid.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"
#include "spatial/rtree.h"

namespace lidx {
namespace {

constexpr size_t kNumQueries = 100'000;

std::vector<bench::JsonRow> g_json;
size_t g_mismatches = 0;

template <typename BuildFn, typename QueryFn, typename BytesFn>
void Run(TablePrinter* table, const std::string& dist,
         const std::string& name, const std::vector<Point2D>& queries,
         const std::vector<std::vector<uint32_t>>& truth, BuildFn build,
         QueryFn query, BytesFn bytes) {
  const double build_ms = bench::MeasureMs(build);
  uint64_t sink = 0;
  const double ns = bench::MeasureNsPerOp(kNumQueries, [&](size_t i) {
    sink += query(queries[i]).size();
  });
  DoNotOptimize(sink);
  const size_t mismatches = bench::CountMismatches(queries, truth, query);
  g_mismatches += mismatches;
  table->AddRow({dist, name, TablePrinter::FormatDouble(build_ms, 0),
                 TablePrinter::FormatDouble(ns, 0),
                 TablePrinter::FormatBytes(bytes()),
                 std::to_string(mismatches)});
  g_json.push_back({bench::JsonField::Str("dist", dist),
                    bench::JsonField::Str("index", name),
                    bench::JsonField::Num("build_ms", build_ms),
                    bench::JsonField::Num("ns_per_query", ns),
                    bench::JsonField::Num("size_bytes", bytes()),
                    bench::JsonField::Num("mismatches", mismatches)});
}

void RunDistribution(PointDistribution dist, size_t num_points,
                     TablePrinter* table) {
  const auto points = GeneratePoints(dist, num_points, 3333);
  // Queries: existing points (hits).
  std::vector<Point2D> queries;
  queries.reserve(kNumQueries);
  Rng rng(4444);
  for (size_t i = 0; i < kNumQueries; ++i) {
    queries.push_back(points[rng.NextBounded(points.size())]);
  }
  const auto truth = bench::ExactTruth(points, queries);
  const std::string dname = PointDistributionName(dist);

  {
    RTree index;
    Run(table, dname, "r-tree", queries, truth,
        [&] { index.BulkLoad(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    KdTree index;
    Run(table, dname, "kd-tree", queries, truth,
        [&] { index.Build(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    QuadTree index;
    Run(table, dname, "quadtree", queries, truth,
        [&] { index.Build(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    UniformGrid index(256);
    Run(table, dname, "uniform-grid", queries, truth,
        [&] { index.Build(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    ZmIndex<2> index;
    Run(table, dname, "zm-index", queries, truth,
        [&] { index.Build(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    FloodIndex index;
    FloodIndex::Options opts;
    opts.num_columns = 256;
    Run(table, dname, "flood", queries, truth,
        [&] { index.Build(points, {}, opts); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    MlIndex index;
    Run(table, dname, "ml-index", queries, truth,
        [&] { index.Build(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    LisaIndex index;
    Run(table, dname, "lisa", queries, truth,
        [&] { index.Build(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
  {
    AiRTree index;
    Run(table, dname, "ai+r-tree", queries, truth,
        [&] { index.BulkLoad(points); },
        [&](const Point2D& p) { return index.FindExact(p); },
        [&] { return index.SizeBytes(); });
  }
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_points = bench::ArgCount(argc, argv, 1, 1'000'000);
  bench::PrintHeader(
      "E7: 2-D point queries (" + std::to_string(num_points) +
          " points, 100K queries)",
      "learned multi-dimensional indexes beat R-tree/quadtree on point "
      "lookups; grids degrade under skew");
  TablePrinter table(
      {"dist", "index", "build_ms", "ns/query", "size", "mismatches"});
  for (PointDistribution dist :
       {PointDistribution::kUniform2D, PointDistribution::kGaussianClusters,
        PointDistribution::kSkewedGrid}) {
    RunDistribution(dist, num_points, &table);
  }
  table.Print();
  bench::ReportJson("e07_point_2d", g_json,
                    {bench::JsonField::Num("num_points", num_points),
                     bench::JsonField::Num("mismatches", g_mismatches)});
  bench::ExitOnMismatches("E7", g_mismatches);
  return 0;
}
