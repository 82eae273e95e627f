// A3 (ablation) — Dynamic PGM design knobs: buffer size, growth factor,
// and component Bloom filters.
//
// Why these knobs: the delta-buffer design's insert cost is pure merge
// amortization — each entry is rewritten once per level it cascades
// through — while its read cost is the number of components consulted.
// The buffer batches writes before they enter the cascade; the growth
// factor sets the cascade depth; Bloom filters on the large components
// (all but the oldest) let negative probes skip them. Expected shape:
// bigger buffers and fanout help inserts and hurt nothing much at this
// scale; removing blooms multiplies the cost of reads that miss (and of
// the membership pre-check inside Insert). Writes BENCH_a03.json: insert
// ns/op, hit and miss lookup ns and bytes/key per configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "one_d/dynamic_pgm.h"

namespace lidx {
namespace {

constexpr size_t kInitialKeys = 500'000;
constexpr size_t kNumOps = 300'000;

std::vector<bench::JsonRow> g_json;

void Run(TablePrinter* table, const std::string& label,
         const DynamicPgm<uint64_t, uint64_t>::Options& options,
         const std::vector<uint64_t>& initial,
         const std::vector<uint64_t>& values,
         const std::vector<uint64_t>& inserts,
         const std::vector<uint64_t>& hit_lookups,
         const std::vector<uint64_t>& miss_lookups) {
  DynamicPgm<uint64_t, uint64_t> index(options);
  index.BulkLoad(initial, values);
  Timer t1;
  for (size_t i = 0; i < inserts.size(); ++i) index.Insert(inserts[i], i);
  const double insert_ns = static_cast<double>(t1.ElapsedNanos()) /
                           static_cast<double>(inserts.size());
  uint64_t sink = 0;
  const double hit_ns =
      bench::MeasureNsPerOp(hit_lookups.size(), [&](size_t i) {
        sink += index.Find(hit_lookups[i]).value_or(0);
      });
  const double miss_ns =
      bench::MeasureNsPerOp(miss_lookups.size(), [&](size_t i) {
        sink += index.Contains(miss_lookups[i]);
      });
  DoNotOptimize(sink);
  const double bytes_per_key = static_cast<double>(index.SizeBytes()) /
                               static_cast<double>(index.size());
  table->AddRow({label, TablePrinter::FormatDouble(1e6 / insert_ns, 0),
                 TablePrinter::FormatDouble(hit_ns, 0),
                 TablePrinter::FormatDouble(miss_ns, 0),
                 std::to_string(index.NumComponents()),
                 TablePrinter::FormatBytes(index.SizeBytes()),
                 TablePrinter::FormatDouble(bytes_per_key, 1)});
  g_json.push_back({bench::JsonField::Str("config", label),
                    bench::JsonField::Num("insert_ns_per_op", insert_ns),
                    bench::JsonField::Num("hit_lookup_ns", hit_ns),
                    bench::JsonField::Num("miss_lookup_ns", miss_ns),
                    bench::JsonField::Num("components", index.NumComponents()),
                    bench::JsonField::Num("bytes_per_key", bytes_per_key)});
}

}  // namespace
}  // namespace lidx

int main() {
  using namespace lidx;
  bench::PrintHeader(
      "A3 (ablation): Dynamic PGM buffer size, growth factor, blooms "
      "(500K preload, 300K inserts)",
      "delta-buffer insert cost = cascade depth x merge constant; blooms "
      "protect negative lookups");

  const auto initial =
      GenerateKeys(KeyDistribution::kUniform, kInitialKeys, 6161);
  std::vector<uint64_t> values(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) values[i] = i;
  const auto inserts = GenerateKeys(KeyDistribution::kUniform, kNumOps, 6262);
  const auto misses = GenerateLookupKeys(initial, kNumOps, 0.0, 1.0, 41);
  // Hits over the final contents: loaded and inserted keys alike.
  std::vector<uint64_t> present = initial;
  present.insert(present.end(), inserts.begin(), inserts.end());
  const auto hits = GenerateLookupKeys(present, kNumOps, 0.0, 0.0, 43);

  TablePrinter table({"config", "insert Kops/s", "hit ns/lookup",
                      "miss ns/lookup", "components", "size", "B/key"});
  {
    DynamicPgm<uint64_t, uint64_t>::Options opts;  // Defaults: 256 / 4x.
    Run(&table, "default (buf=256, 4x)", opts, initial, values, inserts, hits,
        misses);
  }
  {
    DynamicPgm<uint64_t, uint64_t>::Options opts;
    opts.base_capacity = 64;
    Run(&table, "small buffer (64)", opts, initial, values, inserts, hits,
        misses);
  }
  {
    DynamicPgm<uint64_t, uint64_t>::Options opts;
    opts.base_capacity = 2048;
    Run(&table, "large buffer (2048)", opts, initial, values, inserts, hits,
        misses);
  }
  {
    DynamicPgm<uint64_t, uint64_t>::Options opts;
    opts.size_factor_log2 = 1;
    Run(&table, "doubling slots (2x)", opts, initial, values, inserts, hits,
        misses);
  }
  {
    DynamicPgm<uint64_t, uint64_t>::Options opts;
    opts.size_factor_log2 = 3;
    Run(&table, "8x slots", opts, initial, values, inserts, hits, misses);
  }
  {
    DynamicPgm<uint64_t, uint64_t>::Options opts;
    opts.bloom_bits_per_key = 0.01;  // Effectively disable the filters.
    Run(&table, "no blooms", opts, initial, values, inserts, hits, misses);
  }
  table.Print();
  bench::ReportJson("a03", g_json,
                    {bench::JsonField::Num("initial_keys", kInitialKeys),
                     bench::JsonField::Num("inserts", kNumOps)});
  return 0;
}
