// A5 (ablation/extension) — the SFC choice inside an actual index:
// Z-order ZM-index (BIGMIN leapfrogging) vs Hilbert HM-index (up-front
// interval decomposition) on identical data and queries.
//
// E12 measured the curves in isolation (Hilbert ~2x fewer intervals per
// rectangle, ~18x costlier encode); this ablation shows how those
// primitives compose: interval count drives the number of learned-index
// re-entries per range query, encode cost drives point queries and build.
//
// Every answer of both indexes is checked against a brute-force scan; a
// mismatch exits non-zero after the JSON is written.
//
// Usage: bench_a05_sfc_index [num_points]   (default 1M)

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "multi_d/hm_index.h"
#include "multi_d/zm_index.h"
#include "spatial/geometry.h"

namespace lidx {
namespace {

constexpr size_t kNumRangeQueries = 300;
constexpr size_t kNumPointQueries = 100'000;

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_points = bench::ArgCount(argc, argv, 1, 1'000'000);
  bench::PrintHeader(
      "A5: SFC choice inside the index — ZM (Z-order + BIGMIN) vs HM "
      "(Hilbert + decomposition), " +
          std::to_string(num_points) + " clustered points",
      "Hilbert's fewer curve intervals vs Z-order's cheaper transform");

  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, num_points, 8181);

  ZmIndex<2> zm;
  const double zm_build_ms = bench::MeasureMs([&] { zm.Build(points); });
  HmIndex hm;
  HmIndex::Options hm_opts;
  hm_opts.bits_per_dim = 16;
  const double hm_build_ms =
      bench::MeasureMs([&] { hm.Build(points, hm_opts); });

  // Point queries.
  Rng rng(8282);
  std::vector<Point2D> probes;
  probes.reserve(kNumPointQueries);
  for (size_t i = 0; i < kNumPointQueries; ++i) {
    probes.push_back(points[rng.NextBounded(points.size())]);
  }
  uint64_t sink = 0;
  const auto find_zm = [&](const Point2D& p) { return zm.FindExact(p); };
  const auto find_hm = [&](const Point2D& p) { return hm.FindExact(p); };
  const double zm_point_ns = bench::MeasureNsPerOp(
      kNumPointQueries, [&](size_t i) { sink += find_zm(probes[i]).size(); });
  const double hm_point_ns = bench::MeasureNsPerOp(
      kNumPointQueries, [&](size_t i) { sink += find_hm(probes[i]).size(); });
  DoNotOptimize(sink);
  const auto probe_truth = bench::ExactTruth(points, probes);
  size_t mismatches = bench::CountMismatches(probes, probe_truth, find_zm) +
                      bench::CountMismatches(probes, probe_truth, find_hm);
  std::vector<bench::JsonRow> json = {
      {bench::JsonField::Str("index", "zm"),
       bench::JsonField::Num("build_ms", zm_build_ms),
       bench::JsonField::Num("point_ns", zm_point_ns)},
      {bench::JsonField::Str("index", "hm"),
       bench::JsonField::Num("build_ms", hm_build_ms),
       bench::JsonField::Num("point_ns", hm_point_ns)}};

  TablePrinter table({"metric", "zm (z-order)", "hm (hilbert)"});
  table.AddRow({"build ms", TablePrinter::FormatDouble(zm_build_ms, 0),
                TablePrinter::FormatDouble(hm_build_ms, 0)});
  table.AddRow({"point query ns", TablePrinter::FormatDouble(zm_point_ns, 0),
                TablePrinter::FormatDouble(hm_point_ns, 0)});
  table.Print();

  TablePrinter ranges({"selectivity", "zm us/query", "hm us/query"});
  for (double selectivity : {0.0001, 0.001, 0.01}) {
    const auto queries =
        GenerateRangeQueries(points, kNumRangeQueries, selectivity, 8383);
    Timer t1;
    for (const RangeQuery2D& q : queries) sink += zm.RangeQuery(q).size();
    const double zm_us = t1.ElapsedSeconds() * 1e6 / kNumRangeQueries;
    Timer t2;
    for (const RangeQuery2D& q : queries) sink += hm.RangeQuery(q).size();
    const double hm_us = t2.ElapsedSeconds() * 1e6 / kNumRangeQueries;
    DoNotOptimize(sink);
    std::vector<std::vector<uint32_t>> truth;
    for (const RangeQuery2D& q : queries) {
      truth.push_back(BruteForceRange(points, q));
    }
    const auto add_row = [&](const std::string& name, double us,
                             auto query) {
      const size_t bad = bench::CountMismatches(queries, truth, query);
      mismatches += bad;
      json.push_back({bench::JsonField::Str("index", name),
                      bench::JsonField::Num("selectivity", selectivity),
                      bench::JsonField::Num("us_per_query", us),
                      bench::JsonField::Num("mismatches", bad)});
    };
    add_row("zm", zm_us,
            [&](const RangeQuery2D& q) { return zm.RangeQuery(q); });
    add_row("hm", hm_us,
            [&](const RangeQuery2D& q) { return hm.RangeQuery(q); });
    ranges.AddRow({TablePrinter::FormatDouble(selectivity * 100, 3) + "%",
                   TablePrinter::FormatDouble(zm_us, 1),
                   TablePrinter::FormatDouble(hm_us, 1)});
  }
  ranges.Print();
  bench::ReportJson("a05_sfc_index", json,
                    {bench::JsonField::Num("num_points", num_points),
                     bench::JsonField::Num("mismatches", mismatches)});
  bench::ExitOnMismatches("A5", mismatches);
  return 0;
}
