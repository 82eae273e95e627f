// E9 — kNN queries across index classes.
//
// Tutorial claim (§5.6): query-type support differs across learned
// multi-dimensional indexes — the ML-index is the class representative
// with native kNN (iDistance annuli), LISA reaches kNN via expanding range
// queries, while traditional kd-tree/R-tree support it directly. Expected
// shape: kd-tree/R-tree win at small k; the ML-index stays within a small
// factor and scales smoothly with k; expanding-range kNN pays a
// re-scanning penalty at large k.
//
// Every answer of every index is checked against a brute-force scan by its
// multiset of distances (ties may pick different ids); a mismatch exits
// non-zero after the JSON is written.
//
// Usage: bench_e09_knn [num_points]   (default 1M)

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "multi_d/lisa.h"
#include "multi_d/ml_index.h"
#include "spatial/geometry.h"
#include "spatial/kdtree.h"
#include "spatial/rtree.h"

namespace lidx {
namespace {

constexpr size_t kNumQueries = 2'000;
constexpr size_t kMaxK = 100;

// The k smallest squared distances from `q` to `points`, ascending: one
// bounded max-heap pass over the data.
std::vector<double> BruteKnnDist2(const std::vector<Point2D>& points,
                                  const Point2D& q, size_t k) {
  std::priority_queue<double> heap;
  for (const Point2D& p : points) {
    const double d2 = Dist2(p, q);
    if (heap.size() < k) {
      heap.push(d2);
    } else if (d2 < heap.top()) {
      heap.pop();
      heap.push(d2);
    }
  }
  std::vector<double> out(heap.size());
  for (size_t i = out.size(); i-- > 0; heap.pop()) out[i] = heap.top();
  return out;
}

// True iff `ids` are k points whose distances to `q` are exactly the
// first k of `truth`.
bool SameDistances(const std::vector<Point2D>& points, const Point2D& q,
                   const std::vector<uint32_t>& ids,
                   const std::vector<double>& truth, size_t k) {
  const size_t want = std::min(k, truth.size());
  if (ids.size() != want) return false;
  std::vector<double> got;
  got.reserve(ids.size());
  for (uint32_t id : ids) got.push_back(Dist2(points[id], q));
  std::sort(got.begin(), got.end());
  return std::equal(got.begin(), got.end(), truth.begin());
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_points = bench::ArgCount(argc, argv, 1, 1'000'000);
  bench::PrintHeader(
      "E9: kNN queries (" + std::to_string(num_points) +
          " clustered points, 2K queries)",
      "kNN support across classes: native (kd/R-tree), projected learned "
      "(ML-index), expanding-range (LISA)");

  const auto points = GeneratePoints(PointDistribution::kGaussianClusters,
                                     num_points, 8888);
  const auto queries = GenerateKnnQueries(points, kNumQueries, 9999);
  std::vector<std::vector<double>> truth;
  truth.reserve(queries.size());
  for (const Point2D& q : queries) {
    truth.push_back(BruteKnnDist2(points, q, kMaxK));
  }

  KdTree kdtree;
  kdtree.Build(points);
  RTree rtree;
  rtree.BulkLoad(points);
  MlIndex ml;
  ml.Build(points);
  LisaIndex lisa;
  lisa.Build(points);

  TablePrinter table({"k", "kd-tree us", "r-tree us", "ml-index us",
                      "lisa us"});
  std::vector<bench::JsonRow> json;
  size_t total_mismatches = 0;
  for (size_t k : {1u, 10u, 100u}) {
    std::vector<std::string> cells = {std::to_string(k)};
    const auto measure = [&](const std::string& name, auto knn) {
      uint64_t sink = 0;
      Timer timer;
      for (const Point2D& q : queries) sink += knn(q, k).size();
      const double us = timer.ElapsedSeconds() * 1e6 / kNumQueries;
      DoNotOptimize(sink);
      size_t mismatches = 0;
      for (size_t i = 0; i < queries.size(); ++i) {
        mismatches += !SameDistances(points, queries[i], knn(queries[i], k),
                                     truth[i], k);
      }
      total_mismatches += mismatches;
      cells.push_back(TablePrinter::FormatDouble(us, 1));
      json.push_back({bench::JsonField::Num("k", k),
                      bench::JsonField::Str("index", name),
                      bench::JsonField::Num("us_per_query", us),
                      bench::JsonField::Num("mismatches", mismatches)});
    };
    measure("kd-tree",
            [&](const Point2D& q, size_t n) { return kdtree.Knn(q, n); });
    measure("r-tree",
            [&](const Point2D& q, size_t n) { return rtree.Knn(q, n); });
    measure("ml-index",
            [&](const Point2D& q, size_t n) { return ml.Knn(q, n); });
    measure("lisa",
            [&](const Point2D& q, size_t n) { return lisa.Knn(q, n); });
    table.AddRow(cells);
  }
  table.Print();
  bench::ReportJson("e09_knn", json,
                    {bench::JsonField::Num("num_points", num_points),
                     bench::JsonField::Num("mismatches", total_mismatches)});
  bench::ExitOnMismatches("E9", total_mismatches);
  return 0;
}
