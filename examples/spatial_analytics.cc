// Spatial analytics: a ride-hailing-style scenario over clustered 2-D
// pickup points — exactly the workload the learned-multi-dimensional-index
// papers motivate with (taxi data, urban hot spots).
//
// Shows: building three different index classes over the same data
// (traditional R-tree, projected-space ZM-index, native-space Flood),
// answering the same dashboard queries with each, and letting Flood tune
// itself against a sampled workload.
//
//   $ ./build/examples/spatial_analytics

#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "multi_d/flood.h"
#include "multi_d/ml_index.h"
#include "multi_d/zm_index.h"
#include "spatial/rtree.h"

int main() {
  using namespace lidx;

  // "Pickups" cluster around hot spots: gaussian blobs in the unit square.
  const auto pickups =
      GeneratePoints(PointDistribution::kGaussianClusters, 500'000);
  std::printf("Indexed %zu pickup locations\n", pickups.size());

  // The dashboard's typical query: "pickups in this neighborhood"
  // (~0.1%% of the city), sampled around real data.
  const auto neighborhoods = GenerateRangeQueries(pickups, 200, 0.001);

  RTree rtree;
  rtree.BulkLoad(pickups);
  ZmIndex<2> zm;
  zm.Build(pickups);
  FloodIndex flood;
  // Flood tunes its column count against a sample of the workload.
  flood.Build(pickups, neighborhoods);
  std::printf("Flood self-tuned to %zu columns\n", flood.NumColumns());

  TablePrinter table({"index", "space", "us/range-query", "results(avg)"});
  auto run = [&](const char* name, const char* space, auto&& query) {
    Timer timer;
    size_t total = 0;
    for (const RangeQuery2D& q : neighborhoods) total += query(q);
    const double us =
        timer.ElapsedSeconds() * 1e6 / static_cast<double>(neighborhoods.size());
    table.AddRow({name, space, TablePrinter::FormatDouble(us, 1),
                  TablePrinter::FormatDouble(
                      static_cast<double>(total) /
                          static_cast<double>(neighborhoods.size()),
                      0)});
  };
  run("r-tree", "native (traditional)",
      [&](const RangeQuery2D& q) { return rtree.RangeQuery(q).size(); });
  run("zm-index", "projected (Z-order)",
      [&](const RangeQuery2D& q) { return zm.RangeQuery(q).size(); });
  run("flood", "native (learned grid)",
      [&](const RangeQuery2D& q) { return flood.RangeQuery(q).size(); });
  table.Print();

  // "Nearest 5 drivers" — kNN through the ML-index (iDistance projection),
  // the learned index class with native kNN support.
  MlIndex ml;
  ml.Build(pickups);
  const Point2D rider{0.42, 0.58};
  const auto nearest = ml.Knn(rider, 5);
  std::printf("\n5 nearest pickups to (%.2f, %.2f):\n", rider.x, rider.y);
  for (uint32_t id : nearest) {
    std::printf("  id=%u at (%.4f, %.4f)\n", id, pickups[id].x,
                pickups[id].y);
  }
  return 0;
}
