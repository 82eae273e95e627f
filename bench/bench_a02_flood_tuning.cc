// A2 (ablation) — Flood's two learned components, removed one at a time.
//
// Flood = (a) equi-depth column boundaries learned from the data's x-CDF
// + (b) a workload-driven column count + (c) per-column learned y-models.
// This ablation isolates each: uniform column boundaries (un-learn the
// CDF), fixed vs tuned column counts, and binary search instead of the
// per-column model. Expected shape: on skewed data the learned boundaries
// matter most; tuning matters when the workload's selectivity is far from
// the default's sweet spot.
//
// Every answer of every variant is checked against a brute-force scan; a
// mismatch exits non-zero after the JSON is written.
//
// Usage: bench_a02_flood_tuning [num_points]   (default 1M)

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "multi_d/flood.h"
#include "spatial/geometry.h"
#include "spatial/grid.h"

namespace lidx {
namespace {

constexpr size_t kNumQueries = 300;

struct Workload {
  std::vector<RangeQuery2D> queries;
  std::vector<std::vector<uint32_t>> truth;  // Sorted brute-force ids.
};

std::vector<bench::JsonRow> g_json;
size_t g_mismatches = 0;

// Times `index` on the workload (median of bench::kTimedPasses passes),
// checks every answer, and adds the row.
template <typename Index>
void Measure(TablePrinter* table, const std::string& variant,
             const std::string& columns, const Index& index,
             const Workload& w) {
  const auto query = [&](const RangeQuery2D& q) {
    return index.RangeQuery(q);
  };
  const double us = bench::MedianUsPerQuery(w.queries, query);
  const size_t mismatches = bench::CountMismatches(w.queries, w.truth, query);
  g_mismatches += mismatches;
  table->AddRow({variant, columns, TablePrinter::FormatDouble(us, 1)});
  g_json.push_back({bench::JsonField::Str("variant", variant),
                    bench::JsonField::Str("columns", columns),
                    bench::JsonField::Num("us_per_query", us),
                    bench::JsonField::Num("mismatches", mismatches)});
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_points = bench::ArgCount(argc, argv, 1, 1'000'000);
  bench::PrintHeader(
      "A2 (ablation): what each learned component of Flood buys (" +
          std::to_string(num_points) + " skewed points)",
      "learned equi-depth boundaries vs uniform; tuned vs fixed column "
      "count");

  const auto points =
      GeneratePoints(PointDistribution::kSkewedGrid, num_points, 4343);
  const auto tuning = GenerateRangeQueries(points, 32, 0.001, 4444);
  Workload w;
  w.queries = GenerateRangeQueries(points, kNumQueries, 0.001, 4545);
  for (const RangeQuery2D& q : w.queries) {
    w.truth.push_back(BruteForceRange(points, q));
  }

  TablePrinter table({"variant", "columns", "us/query"});
  {
    // Full Flood: learned boundaries + workload tuning.
    FloodIndex flood;
    flood.Build(points, tuning);
    Measure(&table, "flood (learned CDF + tuned)",
            std::to_string(flood.NumColumns()), flood, w);
  }
  for (size_t columns : {16u, 64u, 1024u}) {
    // Learned boundaries, fixed (untuned) column count.
    FloodIndex flood;
    FloodIndex::Options opts;
    opts.num_columns = columns;
    flood.Build(points, {}, opts);
    Measure(&table, "flood (learned CDF, fixed)", std::to_string(columns),
            flood, w);
  }
  {
    // Un-learned boundaries: a plain uniform grid at comparable resolution
    // (256x256 cells ~ 256 columns of 256 rows).
    UniformGrid grid(256);
    grid.Build(points);
    Measure(&table, "uniform grid (no learning)", "256x256", grid, w);
  }
  table.Print();
  bench::ReportJson("a02_flood_tuning", g_json,
                    {bench::JsonField::Num("num_points", num_points),
                     bench::JsonField::Num("timed_passes", bench::kTimedPasses),
                     bench::JsonField::Num("mismatches", g_mismatches)});
  bench::ExitOnMismatches("A2", g_mismatches);
  return 0;
}
