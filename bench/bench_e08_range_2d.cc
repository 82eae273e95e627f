// E8 — Range-query selectivity sweep: projected vs native space.
//
// Tutorial claim (§5.1, §6.1): the projected-space route (ZM-index) pays
// for the curve's locality loss — a rectangle shatters into many Z-order
// intervals — while native-space layouts (Flood) only pay edge-filtering.
// Expected shape: at low selectivity all indexes are fast; as selectivity
// grows, Flood and the R-tree scale with output size while the ZM-index's
// BIGMIN jumping keeps it competitive but behind on wide rectangles.
//
// Each row is the median of 5 timed passes over its 300 queries. Every
// answer of every index is checked against a brute-force scan; a mismatch
// exits non-zero after the JSON is written.
//
// Usage: bench_e08_range_2d [num_points]   (default 1M)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "multi_d/flood.h"
#include "multi_d/lisa.h"
#include "multi_d/zm_index.h"
#include "spatial/geometry.h"
#include "spatial/grid.h"
#include "spatial/rtree.h"

namespace lidx {
namespace {

constexpr size_t kNumQueries = 300;

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_points = bench::ArgCount(argc, argv, 1, 1'000'000);
  bench::PrintHeader(
      "E8: 2-D range queries, selectivity sweep (" +
          std::to_string(num_points) + " clustered points)",
      "native-space learned layout (Flood) vs projected space (ZM) vs "
      "traditional (R-tree, grid); crossover with selectivity");

  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, num_points, 5555);

  RTree rtree;
  rtree.BulkLoad(points);
  UniformGrid grid(256);
  grid.Build(points);
  ZmIndex<2> zm;
  zm.Build(points);
  const auto tuning = GenerateRangeQueries(points, 32, 0.001, 6666);
  FloodIndex flood;
  flood.Build(points, tuning);
  LisaIndex lisa;
  lisa.Build(points);

  TablePrinter table({"selectivity", "avg_results", "r-tree us", "grid us",
                      "zm us", "flood us", "lisa us"});
  std::vector<bench::JsonRow> json;
  size_t total_mismatches = 0;
  for (double selectivity : {0.00001, 0.0001, 0.001, 0.01, 0.1}) {
    const auto queries =
        GenerateRangeQueries(points, kNumQueries, selectivity, 7777);
    std::vector<std::vector<uint32_t>> truth;
    double total_results = 0;
    for (const RangeQuery2D& q : queries) {
      truth.push_back(BruteForceRange(points, q));
      total_results += static_cast<double>(truth.back().size());
    }
    const double avg_results =
        total_results / static_cast<double>(queries.size());
    std::vector<std::string> cells = {
        TablePrinter::FormatDouble(selectivity * 100, 4) + "%",
        TablePrinter::FormatDouble(avg_results, 0)};
    const auto measure = [&](const std::string& name, auto query) {
      const double us = bench::MedianUsPerQuery(queries, query);
      const size_t mismatches = bench::CountMismatches(queries, truth, query);
      total_mismatches += mismatches;
      cells.push_back(TablePrinter::FormatDouble(us, 1));
      json.push_back({bench::JsonField::Num("selectivity", selectivity),
                      bench::JsonField::Str("index", name),
                      bench::JsonField::Num("avg_results", avg_results),
                      bench::JsonField::Num("us_per_query", us),
                      bench::JsonField::Num("mismatches", mismatches)});
    };
    measure("r-tree",
            [&](const RangeQuery2D& q) { return rtree.RangeQuery(q); });
    measure("grid",
            [&](const RangeQuery2D& q) { return grid.RangeQuery(q); });
    measure("zm",
            [&](const RangeQuery2D& q) { return zm.RangeQuery(q); });
    measure("flood",
            [&](const RangeQuery2D& q) { return flood.RangeQuery(q); });
    measure("lisa",
            [&](const RangeQuery2D& q) { return lisa.RangeQuery(q); });
    table.AddRow(cells);
  }
  table.Print();
  std::printf("flood tuned columns: %zu\n", flood.NumColumns());
  bench::ReportJson("e08_range_2d", json,
                    {bench::JsonField::Num("num_points", num_points),
                     bench::JsonField::Num("flood_columns", flood.NumColumns()),
                     bench::JsonField::Num("timed_passes", bench::kTimedPasses),
                     bench::JsonField::Num("mismatches", total_mismatches)});
  bench::ExitOnMismatches("E8", total_mismatches);
  return 0;
}
