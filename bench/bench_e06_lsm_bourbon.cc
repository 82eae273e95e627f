// E6 — BOURBON-style learned indexes inside an LSM-tree.
//
// Tutorial claim (§4.2, §5.6): LSM runs are immutable between compactions,
// so cheap per-run learned models (trained at compaction time) replace the
// in-run binary search and cut point-lookup cost; Bloom filters already
// screen most negative probes, so the win concentrates on hits. Expected
// shape: learned mode does several times fewer in-run search steps and
// meaningfully lower hit latency, at a model cost of a few bytes per key.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "lsm/lsm_tree.h"

namespace lidx {
namespace {

constexpr size_t kNumKeys = 2'000'000;
constexpr size_t kNumLookups = 300'000;

std::vector<bench::JsonRow> g_json;

void RunMode(RunSearchMode mode, const char* name,
             const std::vector<std::pair<uint64_t, uint64_t>>& inserts,
             const std::vector<uint64_t>& hits,
             const std::vector<uint64_t>& misses, TablePrinter* table) {
  LsmTree<uint64_t, uint64_t>::Options opts;
  opts.memtable_limit = 64 * 1024;
  opts.l0_run_limit = 4;
  opts.search_mode = mode;
  LsmTree<uint64_t, uint64_t> lsm(opts);
  const double load_ms = bench::MeasureMs([&] {
    for (const auto& [key, value] : inserts) lsm.Put(key, value);
    lsm.Flush();
  });

  uint64_t sink = 0;
  LsmStats stats;
  const double ns_hit = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
    sink += lsm.Get(hits[i], &stats).value_or(0);
  });
  const double steps_per_hit =
      static_cast<double>(stats.search_steps) /
      static_cast<double>(stats.run_probes ? stats.run_probes : 1);
  const double ns_miss = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
    sink += lsm.Get(misses[i]).has_value();
  });
  // Hit-latency tail: per-lookup samples over a smaller draw, since a
  // Timer per Get is itself measurable.
  std::vector<double> lat;
  lat.reserve(kNumLookups / 4);
  for (size_t i = 0; i < kNumLookups / 4; ++i) {
    Timer t;
    sink += lsm.Get(hits[i]).value_or(0);
    lat.push_back(static_cast<double>(t.ElapsedNanos()));
  }
  DoNotOptimize(sink);
  const double p50 = bench::Percentile(&lat, 50);
  const double p99 = bench::Percentile(&lat, 99);

  table->AddRow({name, TablePrinter::FormatDouble(load_ms, 0),
                 std::to_string(lsm.NumRuns()),
                 TablePrinter::FormatDouble(ns_hit, 0),
                 TablePrinter::FormatDouble(p99, 0),
                 TablePrinter::FormatDouble(ns_miss, 0),
                 TablePrinter::FormatDouble(steps_per_hit, 1),
                 TablePrinter::FormatBytes(lsm.ModelSizeBytes())});
  g_json.push_back({bench::JsonField::Str("run_search", name),
                    bench::JsonField::Num("load_ms", load_ms),
                    bench::JsonField::Num("runs", lsm.NumRuns()),
                    bench::JsonField::Num("ns_per_hit", ns_hit),
                    bench::JsonField::Num("p50_hit_ns", p50),
                    bench::JsonField::Num("p99_hit_ns", p99),
                    bench::JsonField::Num("ns_per_miss", ns_miss),
                    bench::JsonField::Num("steps_per_probe", steps_per_hit),
                    bench::JsonField::Num("model_bytes",
                                          lsm.ModelSizeBytes())});
}

}  // namespace
}  // namespace lidx

int main() {
  using namespace lidx;
  bench::PrintHeader(
      "E6: learned per-run indexes in an LSM-tree (2M keys)",
      "BOURBON: per-run learned models cut in-run search steps vs binary "
      "search (WiscKey baseline)");

  const bench::Dataset1D data =
      bench::MakeDataset1D(KeyDistribution::kUniform, kNumKeys, 1111);
  // Insert in random order to exercise compaction realistically.
  std::vector<std::pair<uint64_t, uint64_t>> inserts = bench::ToPairs(data);
  Rng rng(2222);
  for (size_t i = inserts.size(); i > 1; --i) {
    std::swap(inserts[i - 1], inserts[rng.NextBounded(i)]);
  }
  const auto hits = GenerateLookupKeys(data.keys, kNumLookups, 0.0, 0.0, 19);
  const auto misses = GenerateLookupKeys(data.keys, kNumLookups, 0.0, 1.0, 23);

  TablePrinter table({"run_search", "load_ms", "runs", "ns/hit", "p99/hit",
                      "ns/miss", "steps/probe", "model_bytes"});
  RunMode(RunSearchMode::kBinarySearch, "binary-search (WiscKey)", inserts,
          hits, misses, &table);
  RunMode(RunSearchMode::kLearned, "learned (BOURBON)", inserts, hits,
          misses, &table);
  table.Print();

  bench::ReportJson("e06_lsm_bourbon", g_json,
                    {bench::JsonField::Num("num_keys", kNumKeys),
                     bench::JsonField::Num("num_lookups", kNumLookups)});
  return 0;
}
