// E24 — Compressed learned pages and the hybrid DRAM/disk tiered index.
//
// Claim under test (tutorial §4.2/§5 disk-based systems + the LeCo/learned-
// compression line): learned models compose with page compression. A
// per-page linear fit turns sorted keys into narrow residuals, so
// fixed-width bit-packing multiplies keys-per-page; the run's ε-bounded
// model means a lookup decompresses only the ε-window slice of one page,
// so the decode cost stays O(ε) while every buffer-pool frame now caches
// several pages' worth of keys. Serving a dataset larger than the pool,
// that footprint reduction converts directly into hit rate and cold-cache
// throughput.
//
// Sections:
//   1. Codec comparison at matched ε (plain / FOR / delta DiskRun + a
//      model-only plain reference): keys/page, bytes/key, pages and decoded
//      records per lookup, warm latency. Gates (at full size):
//      delta keys/page >= 2.5x plain, and byte-identical results across
//      codecs on both the scalar and async batched paths. Plus one encode
//      row per codec: ns per record to encode the entries into in-memory
//      pages (median of bench::kTimedPasses passes), every page decoded
//      back and checked against its records.
//   2. Larger-than-pool serve at equal pool frames, OS cache dropped:
//      compressed runs must beat plain on cold lookup throughput
//      (gate: >= 1.5x, enforced at full size when the cache drop works).
//   3. TieredIndex end-to-end: random inserts absorbed by the hot tier,
//      migrations into compressed cold runs, erases as tombstones, mixed
//      hot/cold probes, with value-scheme verification.
//
// Usage: bench_e24_compressed_tier [num_keys]  (default 2M; CI smoke: 20000)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/invariants.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "lsm/run.h"
#include "one_d/tiered_index.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_codec.h"

namespace lidx::storage {
namespace {

std::vector<bench::JsonRow> g_json;
size_t g_mismatches = 0;

// Gates only bite at representative size; the CI smoke run (20k keys)
// still executes every code path and the byte-identical checks.
constexpr size_t kEnforceMinKeys = 200'000;

std::string ScratchFile(const std::string& tag) {
  const std::string path = "bench_e24_" + tag + ".pagefile";
  std::remove(path.c_str());
  return path;
}

const char* CodecName(PageCodec codec) {
  switch (codec) {
    case PageCodec::kPlain:
      return "plain";
    case PageCodec::kFor:
      return "for";
    case PageCodec::kDelta:
      return "delta";
  }
  return "?";
}

// Half hits, half misses: compression must not perturb either path.
std::vector<uint64_t> SampleMixed(const std::vector<uint64_t>& keys, size_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint64_t k = keys[rng.NextBounded(keys.size())];
    out[i] = (i % 2 == 0) ? k : k + 1;  // k+1 is a miss unless also a key.
  }
  return out;
}

// ----- Section 1: codec comparison at matched ε -----

// Encodes every entry into in-memory pages, as a run build does without the
// file writes, kTimedPasses times, and returns the median ns per record.
// The last pass's pages are decoded back; each record that does not match
// its entry counts as a mismatch.
void MeasureEncode(
    const std::vector<std::pair<uint64_t, RunEntry<uint64_t>>>& entries,
    PageCodec codec, TablePrinter* table) {
  const size_t n = entries.size();
  std::vector<Page> pages;
  pages.reserve(n / DiskRun<uint64_t, uint64_t>::kRecordsPerPage + 1);
  std::vector<double> ns;
  for (size_t pass = 0; pass < bench::kTimedPasses; ++pass) {
    pages.clear();
    Timer timer;
    for (size_t pos = 0; pos < n;) {
      pages.emplace_back();
      const size_t count =
          EncodeDataPage(entries.data() + pos, n - pos, codec, &pages.back());
      LIDX_CHECK(count > 0);
      pos += count;
    }
    ns.push_back(static_cast<double>(timer.ElapsedNanos()) /
                 static_cast<double>(n));
  }
  const double ns_per_record = bench::Percentile(&ns, 50.0);
  size_t packed = 0;
  size_t pos = 0;
  size_t mismatches = 0;
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> decoded;
  for (const Page& page : pages) {
    const DataPageView<uint64_t, uint64_t> view(page);
    if (view.packed()) ++packed;
    decoded.clear();
    view.DecodeInto(0, view.count(), &decoded);
    for (const auto& [key, entry] : decoded) {
      const bool same = pos < n && key == entries[pos].first &&
                        entry.value == entries[pos].second.value &&
                        entry.deleted == entries[pos].second.deleted;
      if (!same) ++mismatches;
      ++pos;
    }
  }
  if (pos != n) mismatches += pos > n ? pos - n : n - pos;
  g_mismatches += mismatches;
  table->AddRow({CodecName(codec),
                 TablePrinter::FormatDouble(ns_per_record, 1),
                 std::to_string(pages.size()), std::to_string(packed),
                 std::to_string(mismatches)});
  g_json.push_back({bench::JsonField::Str("section", "codec_encode"),
                    bench::JsonField::Str("codec", CodecName(codec)),
                    bench::JsonField::Num("ns_per_record", ns_per_record),
                    bench::JsonField::Num("num_pages", pages.size()),
                    bench::JsonField::Num("packed_pages", packed),
                    bench::JsonField::Num("mismatches", mismatches)});
}

struct CodecResult {
  double keys_per_page = 0;
  std::vector<std::optional<RunEntry<uint64_t>>> found;
};

void RunCodecComparison(const bench::Dataset1D& data,
                        const std::vector<uint64_t>& lookups, size_t epsilon,
                        bool enforce) {
  std::printf("\n-- codec comparison at epsilon=%zu --\n", epsilon);
  TablePrinter table({"codec", "keys/page", "pages", "bytes/key",
                      "packed_frac", "pages/get", "decoded/get",
                      "partial_frac", "ns/get"});
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries(
      data.keys.size());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    entries[i] = {data.keys[i], RunEntry<uint64_t>{data.values[i], false}};
  }
  TablePrinter encode_table(
      {"codec", "encode_ns/record", "pages", "packed_pages", "mismatches"});
  CodecResult plain_result;
  for (const PageCodec codec :
       {PageCodec::kPlain, PageCodec::kFor, PageCodec::kDelta}) {
    MeasureEncode(entries, codec, &encode_table);
    const std::string path = ScratchFile("codec");
    FileManager file(path);
    BufferPool pool(&file, data.keys.size() / 64 + 64);  // Warm-cache pool.
    typename DiskRun<uint64_t, uint64_t>::Options opts;
    opts.learned_epsilon = epsilon;
    opts.codec = codec;
    DiskRun<uint64_t, uint64_t> run(entries, &file, &pool, opts);
    const size_t file_bytes = bench::FileSizeBytes(path);
    const double bytes_per_key =
        bench::BytesPerKey(file_bytes, data.keys.size());
    const double packed_frac = static_cast<double>(run.NumPackedPages()) /
                               static_cast<double>(run.NumPages());
    // Counted pass: I/O + decode work per lookup.
    DiskIoStats io;
    pool.ResetStats();
    CodecResult result;
    result.keys_per_page = run.KeysPerPage();
    result.found.resize(lookups.size());
    for (size_t i = 0; i < lookups.size(); ++i) {
      result.found[i] = run.Get(lookups[i], &io);
    }
    const double n_lookups = static_cast<double>(lookups.size());
    const double pages_per_get =
        static_cast<double>(io.pages_touched) / n_lookups;
    const double decoded_per_get =
        static_cast<double>(io.records_decoded) / n_lookups;
    const double partial_frac =
        io.partial_decodes == 0
            ? 0.0
            : static_cast<double>(io.partial_decodes) /
                  static_cast<double>(io.pages_touched);
    const BufferPoolStats pstats = pool.stats();
    // Async batched path must agree byte-for-byte with scalar.
    const auto engine = AsyncReadEngine::Create(IoBackend::kAuto, 32);
    std::vector<std::optional<RunEntry<uint64_t>>> batched(lookups.size());
    run.GetBatch(lookups.data(), lookups.size(), engine.get(), batched.data(),
                 nullptr);
    for (size_t i = 0; i < lookups.size(); ++i) {
      LIDX_CHECK(batched[i].has_value() == result.found[i].has_value());
      if (batched[i].has_value()) {
        LIDX_CHECK(batched[i]->value == result.found[i]->value &&
                   batched[i]->deleted == result.found[i]->deleted);
      }
    }
    // Warm timing pass.
    const double ns = bench::MeasureNsPerOp(lookups.size(), [&](size_t i) {
      DoNotOptimize(run.Get(lookups[i], nullptr));
    });
    table.AddRow({CodecName(codec),
                  TablePrinter::FormatDouble(result.keys_per_page, 1),
                  std::to_string(run.NumPages()),
                  TablePrinter::FormatDouble(bytes_per_key, 2),
                  TablePrinter::FormatDouble(packed_frac, 3),
                  TablePrinter::FormatDouble(pages_per_get, 3),
                  TablePrinter::FormatDouble(decoded_per_get, 1),
                  TablePrinter::FormatDouble(partial_frac, 3),
                  TablePrinter::FormatDouble(ns, 0)});
    g_json.push_back(
        {bench::JsonField::Str("section", "codec_comparison"),
         bench::JsonField::Str("codec", CodecName(codec)),
         bench::JsonField::Num("epsilon", epsilon),
         bench::JsonField::Num("keys_per_page", result.keys_per_page),
         bench::JsonField::Num("num_pages", run.NumPages()),
         bench::JsonField::Num("bytes_per_key", bytes_per_key),
         bench::JsonField::Num("packed_fraction", packed_frac),
         bench::JsonField::Num("pages_per_get", pages_per_get),
         bench::JsonField::Num("records_decoded_per_get", decoded_per_get),
         bench::JsonField::Num("partial_decode_fraction", partial_frac),
         bench::JsonField::Num("decompressed_bytes",
                               pstats.decompressed_bytes),
         bench::JsonField::Num("ns_per_get", ns)});
    if (codec == PageCodec::kPlain) {
      plain_result = std::move(result);
      LIDX_CHECK(run.NumPackedPages() == 0);
    } else {
      // Byte-identical results across codecs, hit and miss alike.
      for (size_t i = 0; i < lookups.size(); ++i) {
        LIDX_CHECK(result.found[i].has_value() ==
                   plain_result.found[i].has_value());
        if (result.found[i].has_value()) {
          LIDX_CHECK(result.found[i]->value == plain_result.found[i]->value);
        }
      }
      if (enforce && codec == PageCodec::kDelta) {
        // The tentpole's space gate: sorted-key delta packing must carry
        // at least 2.5x the keys per page that the plain layout does.
        LIDX_CHECK(result.keys_per_page >=
                   2.5 * plain_result.keys_per_page);
      }
    }
  }
  // Paged-PGM reference: a plain run navigated by the model alone (no
  // fences) at the same ε, reusing the entries built above.
  {
    using Run = DiskRun<uint64_t, uint64_t>;
    const std::string path = ScratchFile("pgmref");
    FileManager file(path);
    BufferPool pool(&file, data.keys.size() / 64 + 64);
    Run::Options opts;
    opts.mode = DiskSearchMode::kLearned;
    opts.learned_epsilon = epsilon;
    const Run ref(entries, &file, &pool, opts);
    DiskIoStats io;
    for (size_t i = 0; i < lookups.size(); ++i) {
      const auto got = ref.Get(lookups[i], &io);
      LIDX_CHECK(got.has_value() == plain_result.found[i].has_value());
      if (got.has_value()) {
        LIDX_CHECK(got->value == plain_result.found[i]->value);
      }
    }
    const double pages_per_get =
        static_cast<double>(io.pages_touched) /
        static_cast<double>(lookups.size());
    const double bytes_per_key =
        bench::BytesPerKey(bench::FileSizeBytes(path), data.keys.size());
    table.AddRow({"pgm-ref", TablePrinter::FormatDouble(ref.KeysPerPage(), 1),
                  std::to_string(ref.NumPages()),
                  TablePrinter::FormatDouble(bytes_per_key, 2), "0.000",
                  TablePrinter::FormatDouble(pages_per_get, 3), "-", "-",
                  "-"});
    g_json.push_back(
        {bench::JsonField::Str("section", "codec_comparison"),
         bench::JsonField::Str("codec", "pgm-ref"),
         bench::JsonField::Num("epsilon", epsilon),
         bench::JsonField::Num("keys_per_page", ref.KeysPerPage()),
         bench::JsonField::Num("bytes_per_key", bytes_per_key),
         bench::JsonField::Num("pages_per_get", pages_per_get)});
  }
  table.Print();
  std::printf("\n-- page encode speed (median of %zu passes) --\n",
              bench::kTimedPasses);
  encode_table.Print();
}

// ----- Section 2: larger-than-pool serve, OS cache dropped -----

void RunColdServe(const bench::Dataset1D& data,
                  const std::vector<uint64_t>& lookups, size_t epsilon,
                  bool enforce) {
  std::printf("\n-- larger-than-pool serve at equal pool frames --\n");
  TablePrinter table({"codec", "pages", "pool_frames", "hit_rate",
                      "cold_mops", "batched_mops"});
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries(
      data.keys.size());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    entries[i] = {data.keys[i], RunEntry<uint64_t>{data.values[i], false}};
  }
  const size_t plain_pages =
      (data.keys.size() +
       DiskRun<uint64_t, uint64_t>::kRecordsPerPage - 1) /
      DiskRun<uint64_t, uint64_t>::kRecordsPerPage;
  // Equal pool on both sides, sized well below the plain footprint so the
  // workload does not fit: this is where fewer pages become hit rate.
  const size_t pool_frames = std::max<size_t>(16, plain_pages / 8);
  double plain_mops = 0.0;
  bool all_drops_ok = true;
  for (const PageCodec codec : {PageCodec::kPlain, PageCodec::kDelta}) {
    const std::string path = ScratchFile("serve");
    FileManager file(path);
    BufferPool pool(&file, pool_frames);
    typename DiskRun<uint64_t, uint64_t>::Options opts;
    opts.learned_epsilon = epsilon;
    opts.codec = codec;
    DiskRun<uint64_t, uint64_t> run(entries, &file, &pool, opts);
    all_drops_ok = file.DropOsCache() && all_drops_ok;
    uint64_t sink = 0;
    Timer cold_timer;
    for (const uint64_t k : lookups) {
      sink += run.Get(k, nullptr).value_or(RunEntry<uint64_t>{}).value;
    }
    DoNotOptimize(sink);
    const double cold_mops =
        static_cast<double>(lookups.size()) /
        cold_timer.ElapsedSeconds() / 1e6;
    const BufferPoolStats pstats = pool.stats();
    const double hit_rate =
        pstats.hits + pstats.misses == 0
            ? 0.0
            : static_cast<double>(pstats.hits) /
                  static_cast<double>(pstats.hits + pstats.misses);
    // Batched pass over the same stream, pool re-cooled: the interleaved
    // path overlaps the misses instead of paying them serially.
    pool.ResetStats();
    all_drops_ok = file.DropOsCache() && all_drops_ok;
    // The pin stream holds up to queue_depth frames at once; stay under
    // the (deliberately small) pool.
    const auto engine = AsyncReadEngine::Create(
        IoBackend::kAuto, std::min<size_t>(32, pool_frames / 2));
    std::vector<std::optional<RunEntry<uint64_t>>> out(lookups.size());
    Timer batched_timer;
    run.GetBatch(lookups.data(), lookups.size(), engine.get(), out.data(),
                 nullptr);
    const double batched_mops =
        static_cast<double>(lookups.size()) /
        batched_timer.ElapsedSeconds() / 1e6;
    table.AddRow({CodecName(codec), std::to_string(run.NumPages()),
                  std::to_string(pool_frames),
                  TablePrinter::FormatDouble(hit_rate, 3),
                  TablePrinter::FormatDouble(cold_mops, 3),
                  TablePrinter::FormatDouble(batched_mops, 3)});
    g_json.push_back(
        {bench::JsonField::Str("section", "cold_serve"),
         bench::JsonField::Str("codec", CodecName(codec)),
         bench::JsonField::Num("num_pages", run.NumPages()),
         bench::JsonField::Num("pool_frames", pool_frames),
         bench::JsonField::Num("hit_rate", hit_rate),
         bench::JsonField::Num("cold_mops", cold_mops),
         bench::JsonField::Num("batched_mops", batched_mops)});
    if (codec == PageCodec::kPlain) {
      plain_mops = cold_mops;
    } else if (enforce && all_drops_ok) {
      // The tentpole's serve gate: at equal pool frames over a
      // larger-than-pool dataset, compression must buy >= 1.5x cold
      // throughput.
      LIDX_CHECK(cold_mops >= 1.5 * plain_mops);
    }
  }
  if (!all_drops_ok) {
    std::printf("note: posix_fadvise(DONTNEED) unsupported here — 'cold' "
                "rows include OS cache hits and the serve gate is off\n");
  }
  table.Print();
}

// ----- Section 3: tiered index end-to-end -----

void RunTiered(const bench::Dataset1D& data, bool enforce) {
  const size_t n = data.keys.size();
  std::printf("\n-- tiered index: hot tier over compressed cold runs --\n");
  // Random insertion order exercises migrations realistically.
  std::vector<uint64_t> shuffled = data.keys;
  Rng rng(2424);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  const std::string path = ScratchFile("tiered");
  typename TieredIndex<uint64_t, uint64_t>::Options opts;
  opts.hot_limit = std::max<size_t>(4096, n / 16);
  opts.cold_run_limit = 4;
  opts.pool_frames = std::max<size_t>(64, n / 239 / 8);
  opts.codec = PageCodec::kDelta;
  opts.background_migration = true;
  TieredIndex<uint64_t, uint64_t> tiered(path, opts);
  const double load_ms = bench::MeasureMs([&] {
    for (const uint64_t k : shuffled) tiered.Insert(k, k ^ 0x9E3779B9u);
    tiered.Flush();
  });
  // Flush waits out an in-flight background migration, so nothing stays hot.
  LIDX_CHECK(tiered.MemtableSize() == 0);
  // Every key findable with its value after full migration; erased keys
  // tombstone away even when the base version is already on disk.
  const size_t sample = std::min<size_t>(n / 2, 50'000);
  for (size_t i = 0; i < sample; ++i) {
    const uint64_t k = data.keys[rng.NextBounded(n)];
    const std::optional<uint64_t> v = tiered.Find(k);
    LIDX_CHECK(v.has_value() && *v == (k ^ 0x9E3779B9u));
  }
  for (size_t i = 0; i < sample / 8; ++i) {
    tiered.Delete(data.keys[i * 8]);
  }
  for (size_t i = 0; i < sample / 8; ++i) {
    LIDX_CHECK(!tiered.Find(data.keys[i * 8]).has_value());
  }
  // Mixed probes: half of them land in the hot tier (fresh re-inserts),
  // half must go through bloom + compressed runs.
  std::vector<uint64_t> probes(std::min<size_t>(n, 200'000));
  for (size_t i = 0; i < probes.size(); ++i) {
    probes[i] = data.keys[sample + rng.NextBounded(n - sample)];
  }
  DiskIoStats io;
  const double find_ns = bench::MeasureNsPerOp(probes.size(), [&](size_t i) {
    DoNotOptimize(tiered.Find(probes[i], &io));
  });
  std::vector<std::pair<uint64_t, uint64_t>> scan;
  tiered.RangeScan(data.keys[n / 2], data.keys[n / 2 + 100], &scan);
  LIDX_CHECK(!scan.empty());
  tiered.CheckInvariants();
  const size_t file_bytes = bench::FileSizeBytes(path);
  const double bytes_per_key = bench::BytesPerKey(file_bytes, n);
  const auto runs = tiered.Runs();
  double keys_per_page = 0.0;
  size_t cold_pages = 0;
  for (const auto& run : runs) cold_pages += run->NumPages();
  if (cold_pages > 0) {
    keys_per_page = static_cast<double>(tiered.NumRunEntries()) /
                    static_cast<double>(cold_pages);
  }
  // The run count is the cold tree's own bound (L0 within its trigger),
  // which CheckInvariants above enforces.
  if (enforce) {
    LIDX_CHECK(keys_per_page >= 2.5 * 239.0);  // Plain layout: 239/page.
  }
  TablePrinter table({"load_ms", "hot", "cold", "runs", "keys/page",
                      "bytes/key", "mem_bytes/key", "find_ns",
                      "decoded/get"});
  const double decoded_per_get =
      static_cast<double>(io.records_decoded) /
      static_cast<double>(probes.size());
  table.AddRow(
      {TablePrinter::FormatDouble(load_ms, 0),
       std::to_string(tiered.MemtableSize()),
       std::to_string(tiered.NumRunEntries()),
       std::to_string(runs.size()), TablePrinter::FormatDouble(keys_per_page, 1),
       TablePrinter::FormatDouble(bytes_per_key, 2),
       TablePrinter::FormatDouble(
           static_cast<double>(tiered.SizeBytes()) / static_cast<double>(n),
           2),
       TablePrinter::FormatDouble(find_ns, 0),
       TablePrinter::FormatDouble(decoded_per_get, 1)});
  table.Print();
  g_json.push_back(
      {bench::JsonField::Str("section", "tiered"),
       bench::JsonField::Num("load_ms", load_ms),
       bench::JsonField::Num("hot_size", tiered.MemtableSize()),
       bench::JsonField::Num("cold_size", tiered.NumRunEntries()),
       bench::JsonField::Num("cold_runs", runs.size()),
       bench::JsonField::Num("keys_per_page", keys_per_page),
       bench::JsonField::Num("bytes_per_key", bytes_per_key),
       bench::JsonField::Num("mem_bytes_per_key",
                             static_cast<double>(tiered.SizeBytes()) /
                                 static_cast<double>(n)),
       bench::JsonField::Num("find_ns", find_ns),
       bench::JsonField::Num("records_decoded_per_get", decoded_per_get)});
}

}  // namespace
}  // namespace lidx::storage

int main(int argc, char** argv) {
  using namespace lidx;
  using namespace lidx::storage;
  const size_t n =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 2'000'000;
  const size_t epsilon = 16;
  const bool enforce = n >= kEnforceMinKeys;
  bench::PrintHeader(
      "E24: compressed learned pages + tiered serving (" +
          std::to_string(n) + " lognormal keys, eps=" +
          std::to_string(epsilon) + ")",
      "per-page models turn sorted keys into narrow packed residuals; the "
      "run's eps-window bounds decode cost, and fewer pages become buffer-"
      "pool hit rate when the dataset outgrows the pool");
  if (!enforce) {
    std::printf("note: %zu keys < %zu — acceptance gates are off (smoke "
                "run)\n", n, kEnforceMinKeys);
  }
  const bench::Dataset1D data = bench::MakeDataset1D(
      KeyDistribution::kLognormal, n, 4242, bench::ValueScheme::kRank);
  const auto lookups =
      SampleMixed(data.keys, std::min<size_t>(n, 200'000), 77);

  RunCodecComparison(data, lookups, epsilon, enforce);
  RunColdServe(data, lookups, epsilon, enforce);
  RunTiered(data, enforce);

  bench::ReportJson("e24_compressed_tier", g_json,
                    {bench::JsonField::Num("num_keys", n),
                     bench::JsonField::Num("epsilon", epsilon),
                     bench::JsonField::Num("page_size", kPageSize),
                     bench::JsonField::Str("gates",
                                           enforce ? "enforced" : "off")});
  for (const char* tag : {"codec", "pgmref", "serve", "tiered"}) {
    std::remove(("bench_e24_" + std::string(tag) + ".pagefile").c_str());
  }
  bench::ExitOnMismatches("E24", g_mismatches);
  return 0;
}
