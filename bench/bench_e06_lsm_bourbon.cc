// E6 — BOURBON-style learned indexes inside an LSM-tree.
//
// Tutorial claim (§4.2, §5.6): LSM runs are immutable between compactions,
// so cheap per-run learned models (trained at compaction time) replace the
// in-run binary search and cut point-lookup cost; Bloom filters already
// screen most negative probes, so the win concentrates on hits. Expected
// shape: learned mode does several times fewer in-run search steps and
// meaningfully lower hit latency, at a model cost of a few bytes per key.
// Every timed answer is checked against a sorted-array reference; the
// binary exits 1 on a wrong one, after writing its JSON.
//
// Usage: bench_e06_lsm_bourbon [num_keys]

#include <algorithm>
#include <cstdint>
#include <optional>
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

constexpr size_t kNumLookups = 300'000;

std::vector<bench::JsonRow> g_json;
size_t g_mismatches = 0;

// What the loaded data holds for each probe (nullopt when absent), by
// std::lower_bound over the sorted keys.
std::vector<std::optional<uint64_t>> Expected(
    const bench::Dataset1D& data, const std::vector<uint64_t>& probes) {
  std::vector<std::optional<uint64_t>> want(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    const size_t pos =
        std::lower_bound(data.keys.begin(), data.keys.end(), probes[i]) -
        data.keys.begin();
    if (pos < data.keys.size() && data.keys[pos] == probes[i]) {
      want[i] = data.values[pos];
    }
  }
  return want;
}

void RunMode(RunSearchMode mode, const char* name,
             const std::vector<std::pair<uint64_t, uint64_t>>& inserts,
             const std::vector<uint64_t>& hits,
             const std::vector<uint64_t>& misses,
             const std::vector<std::optional<uint64_t>>& want_hits,
             const std::vector<std::optional<uint64_t>>& want_misses,
             TablePrinter* table) {
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
  size_t wrong = 0;
  LsmStats stats;
  const double ns_hit = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
    const std::optional<uint64_t> got = lsm.Get(hits[i], &stats);
    wrong += got != want_hits[i];
    sink += got.value_or(0);
  });
  const double steps_per_hit =
      static_cast<double>(stats.search_steps) /
      static_cast<double>(stats.run_probes ? stats.run_probes : 1);
  const double ns_miss = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
    const std::optional<uint64_t> got = lsm.Get(misses[i]);
    wrong += got != want_misses[i];
    sink += got.has_value();
  });
  // In-run search steps per hit lookup, over one counted pass.
  LsmStats counted;
  for (const uint64_t key : hits) sink += lsm.Get(key, &counted).value_or(0);
  const double steps_per_lookup = static_cast<double>(counted.search_steps) /
                                  static_cast<double>(hits.size());
  // Hit-latency tail: per-lookup samples over a smaller draw, since a
  // Timer per Get is itself measurable.
  std::vector<double> lat;
  lat.reserve(kNumLookups / 4);
  for (size_t i = 0; i < kNumLookups / 4; ++i) {
    Timer t;
    const std::optional<uint64_t> got = lsm.Get(hits[i]);
    lat.push_back(static_cast<double>(t.ElapsedNanos()));
    wrong += got != want_hits[i];
    sink += got.value_or(0);
  }
  DoNotOptimize(sink);
  g_mismatches += wrong;
  const double p50 = bench::Percentile(&lat, 50);
  const double p99 = bench::Percentile(&lat, 99);

  table->AddRow({name, TablePrinter::FormatDouble(load_ms, 0),
                 std::to_string(lsm.NumRuns()),
                 TablePrinter::FormatDouble(ns_hit, 0),
                 TablePrinter::FormatDouble(p99, 0),
                 TablePrinter::FormatDouble(ns_miss, 0),
                 TablePrinter::FormatDouble(steps_per_hit, 1),
                 TablePrinter::FormatDouble(steps_per_lookup, 2),
                 TablePrinter::FormatBytes(lsm.ModelSizeBytes())});
  g_json.push_back({bench::JsonField::Str("run_search", name),
                    bench::JsonField::Num("load_ms", load_ms),
                    bench::JsonField::Num("runs", lsm.NumRuns()),
                    bench::JsonField::Num("ns_per_hit", ns_hit),
                    bench::JsonField::Num("p50_hit_ns", p50),
                    bench::JsonField::Num("p99_hit_ns", p99),
                    bench::JsonField::Num("ns_per_miss", ns_miss),
                    bench::JsonField::Num("steps_per_probe", steps_per_hit),
                    bench::JsonField::Num("search_steps_per_lookup",
                                          steps_per_lookup),
                    bench::JsonField::Num("wrong_answers", wrong),
                    bench::JsonField::Num("model_bytes",
                                          lsm.ModelSizeBytes())});
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_keys = bench::ArgCount(argc, argv, 1, 2'000'000);
  bench::PrintHeader(
      "E6: learned per-run indexes in an LSM-tree (" +
          std::to_string(num_keys) + " keys)",
      "BOURBON: per-run learned models cut in-run search steps vs binary "
      "search (WiscKey baseline)");

  const bench::Dataset1D data =
      bench::MakeDataset1D(KeyDistribution::kUniform, num_keys, 1111);
  // Insert in random order to exercise compaction realistically.
  std::vector<std::pair<uint64_t, uint64_t>> inserts = bench::ToPairs(data);
  Rng rng(2222);
  for (size_t i = inserts.size(); i > 1; --i) {
    std::swap(inserts[i - 1], inserts[rng.NextBounded(i)]);
  }
  const auto hits = GenerateLookupKeys(data.keys, kNumLookups, 0.0, 0.0, 19);
  const auto misses = GenerateLookupKeys(data.keys, kNumLookups, 0.0, 1.0, 23);
  const auto want_hits = Expected(data, hits);
  const auto want_misses = Expected(data, misses);

  TablePrinter table({"run_search", "load_ms", "runs", "ns/hit", "p99/hit",
                      "ns/miss", "steps/probe", "steps/lookup",
                      "model_bytes"});
  RunMode(RunSearchMode::kBinarySearch, "binary-search (WiscKey)", inserts,
          hits, misses, want_hits, want_misses, &table);
  RunMode(RunSearchMode::kLearned, "learned (BOURBON)", inserts, hits,
          misses, want_hits, want_misses, &table);
  table.Print();

  bench::ReportJson("e06_lsm_bourbon", g_json,
                    {bench::JsonField::Num("num_keys", num_keys),
                     bench::JsonField::Num("num_lookups", kNumLookups)});
  bench::ExitOnMismatches("E6", g_mismatches);
  return 0;
}
