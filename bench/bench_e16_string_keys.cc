// E16 — Learned indexing over string keys.
//
// Tutorial context: string keys are called out as a frontier for learned
// indexes (SIndex; Spector et al.'s "bounding the last mile") because
// models need numbers and string corpora hide their entropy behind shared
// prefixes. Expected shape: with the corpus prefix stripped, fingerprint
// models beat binary search on URL/word corpora; on a deep-prefix corpus
// whose keys diverge beyond the fingerprint the model degenerates to
// (certified) binary search — the documented limitation full SIndex
// addresses with per-group models. Every timed answer is checked against
// the probe's known position; the binary exits 1 on a wrong one, after
// writing its JSON.
//
// Usage: bench_e16_string_keys [num_keys]

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/btree.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/search.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "one_d/string_index.h"

namespace lidx {
namespace {

constexpr size_t kNumLookups = 200'000;

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t num_keys = bench::ArgCount(argc, argv, 1, 500'000);
  bench::PrintHeader(
      "E16: learned string indexing (" + std::to_string(num_keys) +
          " keys)",
      "fingerprint models accelerate string lookups once the corpus prefix "
      "is stripped; deep shared prefixes defeat the fingerprint");

  TablePrinter table({"corpus", "index", "ns/hit", "segments",
                      "prefix_stripped"});
  std::vector<bench::JsonRow> json;
  size_t mismatches = 0;
  for (StringKeyStyle style :
       {StringKeyStyle::kUrls, StringKeyStyle::kWords,
        StringKeyStyle::kDeepPrefix}) {
    const auto keys = GenerateStringKeys(style, num_keys, 6363);
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
    // Lookup stream: existing keys, shuffled. A probe's value is its
    // position, so `want` is every answer's reference.
    Rng rng(6464);
    std::vector<const std::string*> probes;
    std::vector<uint64_t> want;
    probes.reserve(kNumLookups);
    want.reserve(kNumLookups);
    for (size_t i = 0; i < kNumLookups; ++i) {
      want.push_back(rng.NextBounded(keys.size()));
      probes.push_back(&keys[want.back()]);
    }
    const std::string corpus = StringKeyStyleName(style);
    const auto add_json = [&](const char* index, double ns, size_t wrong) {
      json.push_back({bench::JsonField::Str("corpus", corpus),
                      bench::JsonField::Str("index", index),
                      bench::JsonField::Num("ns_per_hit", ns),
                      bench::JsonField::Num("wrong_answers", wrong)});
      mismatches += wrong;
    };

    {
      // Baseline: binary search over the sorted strings.
      uint64_t sink = 0;
      size_t wrong = 0;
      const double ns = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
        const size_t pos =
            std::lower_bound(keys.begin(), keys.end(), *probes[i]) -
            keys.begin();
        const bool hit = pos < keys.size() && keys[pos] == *probes[i];
        wrong += !hit || values[pos] != want[i];
        sink += hit ? values[pos] : 0;
      });
      DoNotOptimize(sink);
      table.AddRow({corpus, "binary-search",
                    TablePrinter::FormatDouble(ns, 0), "-", "-"});
      add_json("binary-search", ns, wrong);
    }
    {
      BPlusTree<std::string, uint64_t> tree;
      std::vector<std::pair<std::string, uint64_t>> pairs;
      for (size_t i = 0; i < keys.size(); ++i) {
        pairs.emplace_back(keys[i], i);
      }
      tree.BulkLoad(pairs);
      uint64_t sink = 0;
      size_t wrong = 0;
      const double ns = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
        const std::optional<uint64_t> got = tree.Find(*probes[i]);
        wrong += got != want[i];
        sink += got.value_or(0);
      });
      DoNotOptimize(sink);
      table.AddRow({corpus, "b+tree", TablePrinter::FormatDouble(ns, 0), "-",
                    "-"});
      add_json("b+tree", ns, wrong);
    }
    {
      StringLearnedIndex<uint64_t> index;
      index.Build(keys, values);
      uint64_t sink = 0;
      size_t wrong = 0;
      const double ns = bench::MeasureNsPerOp(kNumLookups, [&](size_t i) {
        const std::optional<uint64_t> got = index.Find(*probes[i]);
        wrong += got != want[i];
        sink += got.value_or(0);
      });
      DoNotOptimize(sink);
      table.AddRow({corpus, "learned (SIndex-lite)",
                    TablePrinter::FormatDouble(ns, 0),
                    TablePrinter::FormatCount(index.NumSegments()),
                    std::to_string(index.common_prefix_len()) + " bytes"});
      add_json("learned (SIndex-lite)", ns, wrong);
      json.back().push_back(
          bench::JsonField::Num("segments", index.NumSegments()));
    }
  }
  table.Print();

  bench::ReportJson("e16_string_keys", json,
                    {bench::JsonField::Num("num_keys", num_keys),
                     bench::JsonField::Num("num_lookups", kNumLookups)});
  bench::ExitOnMismatches("E16", mismatches);
  return 0;
}
