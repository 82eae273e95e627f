// E15 — Learned models as hash functions.
//
// Tutorial context (§6.8-adjacent line of work: Sabek et al., "Can Learned
// Models Replace Hash Functions?"): a CDF model can serve as an
// order-preserving hash. When the model fits, occupancy matches a random
// hash (Poisson) with two multiply-adds instead of a mixing function, and
// the layout is monotone (short range scans become bucket-local). The
// known failure mode: the model is trained once, so post-build inserts
// from a *different* distribution skew the occupancy — measured here as
// the drifted-load column. Every timed answer is checked against the
// sorted build keys; the binary exits 1 on a wrong one, after writing its
// JSON.
//
// Usage: bench_e15_learned_hash [num_keys]

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "one_d/learned_hash.h"

namespace lidx {
namespace {

constexpr size_t kNumLookups = 300'000;

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_keys = bench::ArgCount(argc, argv, 1, 1'000'000);
  bench::PrintHeader(
      "E15: learned hashing vs std::unordered_map (" +
          std::to_string(num_keys) + " keys)",
      "a learned CDF spreads keys like a random hash (variance ~1) while "
      "staying order-preserving; drifted inserts skew it");

  TablePrinter table({"dist", "map", "ns/hit", "load_var", "max_chain",
                      "load_var_after_drift"});
  std::vector<bench::JsonRow> json;
  size_t mismatches = 0;
  for (KeyDistribution dist :
       {KeyDistribution::kUniform, KeyDistribution::kClustered,
        KeyDistribution::kLognormal}) {
    const auto keys = GenerateKeys(dist, num_keys, 5151);
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
    const auto hits = GenerateLookupKeys(keys, kNumLookups, 0.0, 0.0, 43);
    // Every hit's value is its rank among the sorted build keys.
    std::vector<uint64_t> want(hits.size());
    for (size_t i = 0; i < hits.size(); ++i) {
      want[i] = static_cast<uint64_t>(
          std::lower_bound(keys.begin(), keys.end(), hits[i]) - keys.begin());
    }
    // Drift: keys from a different distribution, inserted after build.
    const auto drift_keys =
        GenerateKeys(dist == KeyDistribution::kUniform
                         ? KeyDistribution::kClustered
                         : KeyDistribution::kUniform,
                     num_keys / 4, 5252);

    {
      LearnedHashMap<uint64_t, uint64_t> map;
      map.BulkLoad(keys, values);
      uint64_t sink = 0;
      size_t wrong = 0;
      const double ns = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
        const std::optional<uint64_t> got = map.Find(hits[i]);
        wrong += got != want[i];
        sink += got.value_or(0);
      });
      DoNotOptimize(sink);
      mismatches += wrong;
      const double var_before = map.LoadVariance();
      const size_t chain_before = map.MaxChainLength();
      for (size_t i = 0; i < drift_keys.size(); ++i) {
        map.Insert(drift_keys[i], i);
      }
      table.AddRow({KeyDistributionName(dist), "learned-hash",
                    TablePrinter::FormatDouble(ns, 0),
                    TablePrinter::FormatDouble(var_before, 2),
                    std::to_string(chain_before),
                    TablePrinter::FormatDouble(map.LoadVariance(), 2)});
      json.push_back(
          {bench::JsonField::Str("dist", KeyDistributionName(dist)),
           bench::JsonField::Str("map", "learned-hash"),
           bench::JsonField::Num("ns_per_hit", ns),
           bench::JsonField::Num("load_var", var_before),
           bench::JsonField::Num("max_chain", chain_before),
           bench::JsonField::Num("load_var_after_drift", map.LoadVariance()),
           bench::JsonField::Num("wrong_answers", wrong)});
    }
    {
      std::unordered_map<uint64_t, uint64_t> map;
      map.reserve(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
      uint64_t sink = 0;
      size_t wrong = 0;
      const double ns = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
        const auto it = map.find(hits[i]);
        wrong += it == map.end() || it->second != want[i];
        sink += (it != map.end()) ? it->second : 0;
      });
      DoNotOptimize(sink);
      mismatches += wrong;
      table.AddRow({KeyDistributionName(dist), "std::unordered_map",
                    TablePrinter::FormatDouble(ns, 0), "-", "-", "-"});
      json.push_back(
          {bench::JsonField::Str("dist", KeyDistributionName(dist)),
           bench::JsonField::Str("map", "std::unordered_map"),
           bench::JsonField::Num("ns_per_hit", ns),
           bench::JsonField::Num("wrong_answers", wrong)});
    }
  }
  table.Print();

  bench::ReportJson("e15_learned_hash", json,
                    {bench::JsonField::Num("num_keys", num_keys),
                     bench::JsonField::Num("num_lookups", kNumLookups)});
  bench::ExitOnMismatches("E15", mismatches);
  return 0;
}
