// E19 — Disk-resident learned indexes: paged storage, buffer pool, and
// models in memory.
//
// Claim under test (tutorial §4.2/§5 disk-based systems — FITing-tree,
// BOURBON, the PGM family): when data lives in pages on disk and only the
// model fits in memory, a learned index's ε bound translates directly into
// I/O — a point lookup reads only the pages overlapping the ε-window, so
// tightening ε shrinks pages-read per lookup toward the B+-style
// fence-directory baseline of exactly one page, while the model needs far
// less memory than one fence key per page. A buffer pool in front of the
// page file then converts re-reference locality into hits: hit rate rises
// with pool size until the working set fits, and warm lookups cost memory
// latencies instead of page reads.
//
// Sections:
//   1. ε sweep over one plain-page DiskRun per row: fence-binary baseline
//      (exactly one page per lookup), model-only navigation (pages/lookup
//      must shrink monotonically as ε tightens), and the default
//      model-and-fence navigation. Every row's answers must equal the
//      fence-binary row's, lookup for lookup.
//   2. Buffer-pool size sweep (uniform lookups): hit rate must rise with
//      the frame count.
//   3. Cold vs warm cache at a working-set-sized pool.
//   4. DiskLsmTree end-to-end: load (sync vs background compaction),
//      point-lookup I/O, and space recycling in the page file.
//
// Usage: bench_e19_disk_resident [num_keys]   (default 2M; CI smoke: 20000)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/invariants.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "lsm/run.h"
#include "storage/buffer_pool.h"
#include "storage/disk_lsm_tree.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace lidx::storage {
namespace {

std::vector<bench::JsonRow> g_json;

// Page files are scratch state: created fresh, removed on exit.
std::string ScratchFile(const std::string& tag) {
  const std::string path = "bench_e19_" + tag + ".pagefile";
  std::remove(path.c_str());
  return path;
}

std::vector<uint64_t> SampleHits(const std::vector<uint64_t>& keys, size_t n,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (uint64_t& k : out) k = keys[rng.NextBounded(keys.size())];
  return out;
}

using Run = DiskRun<uint64_t, uint64_t>;

std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> RunEntries(
    const bench::Dataset1D& data) {
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries(
      data.keys.size());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    entries[i] = {data.keys[i], RunEntry<uint64_t>{data.values[i], false}};
  }
  return entries;
}

// ----- Section 1: ε sweep — pages read per lookup vs model memory -----

void RunEpsilonSweep(const bench::Dataset1D& data,
                     const std::vector<uint64_t>& lookups) {
  std::printf("\n-- epsilon sweep: pages/lookup vs navigational memory --\n");
  TablePrinter table({"mode", "epsilon", "pages/lookup", "steps/lookup",
                      "model_bytes", "fence_bytes", "ns/lookup"});
  const auto entries = RunEntries(data);
  // The fence-binary row's answers; every later row must reproduce them.
  std::vector<uint64_t> answers;
  const auto run = [&](DiskSearchMode mode, size_t eps, const char* name) {
    FileManager file(ScratchFile("eps"));
    // Pool sized to the whole run: this section isolates pages *touched*
    // (requested I/O) from caching effects, which sections 2-3 cover.
    BufferPool pool(&file, data.keys.size() / Run::kRecordsPerPage + 16);
    Run::Options opts;
    opts.mode = mode;
    opts.learned_epsilon = eps;
    const Run disk(entries, &file, &pool, opts);
    DiskIoStats io;
    const bool record = answers.empty();
    for (size_t i = 0; i < lookups.size(); ++i) {
      const auto got = disk.Get(lookups[i], &io);
      LIDX_CHECK(got.has_value());
      if (record) {
        answers.push_back(got->value);
      } else {
        LIDX_CHECK(got->value == answers[i]);
      }
    }
    const double per =
        static_cast<double>(io.pages_touched) / lookups.size();
    const double steps =
        static_cast<double>(io.search_steps) / lookups.size();
    const double ns = bench::MeasureNsPerOp(lookups.size(), [&](size_t i) {
      DoNotOptimize(disk.Get(lookups[i], nullptr));
    });
    table.AddRow({name, std::to_string(eps),
                  TablePrinter::FormatDouble(per, 3),
                  TablePrinter::FormatDouble(steps, 1),
                  TablePrinter::FormatBytes(disk.ModelSizeBytes()),
                  TablePrinter::FormatBytes(disk.FenceSizeBytes()),
                  TablePrinter::FormatDouble(ns, 0)});
    g_json.push_back(
        {bench::JsonField::Str("section", "epsilon_sweep"),
         bench::JsonField::Str("mode", name),
         bench::JsonField::Num("epsilon", eps),
         bench::JsonField::Num("pages_per_lookup", per),
         bench::JsonField::Num("steps_per_lookup", steps),
         bench::JsonField::Num("model_bytes", disk.ModelSizeBytes()),
         bench::JsonField::Num("fence_bytes", disk.FenceSizeBytes()),
         bench::JsonField::Num("ns_per_lookup", ns)});
  };
  run(DiskSearchMode::kFenceBinary, 64, "fence-binary");
  for (const size_t eps : {16u, 64u, 256u, 1024u}) {
    run(DiskSearchMode::kLearned, eps, "learned");
  }
  run(DiskSearchMode::kModelFence, 64, "model+fence");
  table.Print();
}

// ----- Sections 2-3: buffer pool — hit rate vs frames, cold vs warm -----

void RunPoolSweep(const bench::Dataset1D& data,
                  const std::vector<uint64_t>& lookups) {
  std::printf("\n-- buffer-pool sweep: hit rate vs frames (uniform reads) "
              "--\n");
  TablePrinter table({"frames", "pool_mib", "hit_rate", "evictions",
                      "cold_ns", "warm_ns"});
  const size_t table_pages = data.keys.size() / Run::kRecordsPerPage + 1;
  const auto entries = RunEntries(data);
  for (const size_t divisor : {64u, 16u, 4u, 2u, 1u}) {
    const size_t frames = std::max<size_t>(16, table_pages / divisor);
    FileManager file(ScratchFile("pool"));
    BufferPool pool(&file, frames);
    Run::Options opts;
    opts.mode = DiskSearchMode::kFenceBinary;  // Exactly 1 page per lookup.
    const Run disk(entries, &file, &pool, opts);
    // Cold pass: the pool starts empty (builds write through the
    // FileManager, not the pool).
    uint64_t sink = 0;
    Timer cold_timer;
    for (const uint64_t k : lookups) {
      sink += disk.Get(k, nullptr)->value;
    }
    const double cold_ns = static_cast<double>(cold_timer.ElapsedNanos()) /
                           static_cast<double>(lookups.size());
    pool.ResetStats();
    // Warm pass: steady-state hit rate at this pool size.
    Timer warm_timer;
    for (const uint64_t k : lookups) {
      sink += disk.Get(k, nullptr)->value;
    }
    const double warm_ns = static_cast<double>(warm_timer.ElapsedNanos()) /
                           static_cast<double>(lookups.size());
    DoNotOptimize(sink);
    const BufferPoolStats stats = pool.stats();
    const double hit_rate =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);
    table.AddRow({std::to_string(frames),
                  TablePrinter::FormatDouble(
                      static_cast<double>(frames * kPageSize) / (1 << 20), 1),
                  TablePrinter::FormatDouble(hit_rate, 3),
                  std::to_string(stats.evictions),
                  TablePrinter::FormatDouble(cold_ns, 0),
                  TablePrinter::FormatDouble(warm_ns, 0)});
    g_json.push_back(
        {bench::JsonField::Str("section", "pool_sweep"),
         bench::JsonField::Num("frames", frames),
         bench::JsonField::Num("table_pages", table_pages),
         bench::JsonField::Num("hit_rate", hit_rate),
         bench::JsonField::Num("evictions", stats.evictions),
         bench::JsonField::Num("cold_ns_per_lookup", cold_ns),
         bench::JsonField::Num("warm_ns_per_lookup", warm_ns)});
  }
  table.Print();
}


// ----- Section 4: DiskLsmTree end-to-end -----

void RunLsm(const bench::Dataset1D& data,
            const std::vector<uint64_t>& lookups) {
  std::printf("\n-- disk LSM: load, lookup I/O, space recycling --\n");
  TablePrinter table({"compaction", "path", "load_ms", "runs", "file_mib",
                      "pages/get", "syscalls/get", "hit_rate", "ns/get"});
  // Random insertion order exercises flush + compaction realistically.
  std::vector<uint64_t> shuffled = data.keys;
  Rng rng(5150);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  for (const bool background : {false, true}) {
    typename DiskLsmTree<uint64_t, uint64_t>::Options opts;
    opts.memtable_limit = 64 * 1024;
    opts.pool_frames = 4096;
    opts.background_compaction = background;
    const std::string path = ScratchFile(background ? "lsm_bg" : "lsm_sync");
    DiskLsmTree<uint64_t, uint64_t> lsm(path, opts);
    const double load_ms = bench::MeasureMs([&] {
      for (size_t i = 0; i < shuffled.size(); ++i) {
        lsm.Put(shuffled[i], shuffled[i] ^ 0x9E3779B9u);
      }
      lsm.Flush();
      lsm.WaitForCompactions();
    });
    DiskIoStats scalar_io;
    lsm.pool().ResetStats();
    uint64_t sink = 0;
    const uint64_t scalar_sys_before = lsm.file().read_syscalls();
    std::vector<std::optional<uint64_t>> scalar_out(lookups.size());
    const double ns = bench::MeasureNsPerOp(lookups.size(), [&](size_t i) {
      scalar_out[i] = lsm.Get(lookups[i], &scalar_io);
      sink += scalar_out[i].value_or(0);
    });
    DoNotOptimize(sink);
    const double n_lookups = static_cast<double>(lookups.size());
    const double pages_per_get =
        static_cast<double>(scalar_io.pages_touched) / n_lookups;
    // MeasureNsPerOp prepends a warmup pass, so this slightly overcounts
    // per-lookup syscalls; the same ops also inflate pages_per_get above.
    const double scalar_syscalls_per_get =
        static_cast<double>(lsm.file().read_syscalls() - scalar_sys_before) /
        n_lookups;
    const BufferPoolStats pstats = lsm.pool().stats();
    const double hit_rate =
        pstats.hits + pstats.misses == 0
            ? 0.0
            : static_cast<double>(pstats.hits) /
                  static_cast<double>(pstats.hits + pstats.misses);
    const double file_mib =
        static_cast<double>(lsm.file().NumPages() * kPageSize) / (1 << 20);
    const double bytes_per_key =
        bench::BytesPerKey(bench::FileSizeBytes(path), data.keys.size());
    const char* mode = background ? "background" : "sync";
    table.AddRow({mode, "scalar", TablePrinter::FormatDouble(load_ms, 0),
                  std::to_string(lsm.NumRuns()),
                  TablePrinter::FormatDouble(file_mib, 1),
                  TablePrinter::FormatDouble(pages_per_get, 3),
                  TablePrinter::FormatDouble(scalar_syscalls_per_get, 4),
                  TablePrinter::FormatDouble(hit_rate, 3),
                  TablePrinter::FormatDouble(ns, 0)});
    g_json.push_back(
        {bench::JsonField::Str("section", "lsm"),
         bench::JsonField::Str("mode", mode),
         bench::JsonField::Num("load_ms", load_ms),
         bench::JsonField::Num("file_mib", file_mib),
         bench::JsonField::Num("bytes_per_key", bytes_per_key),
         bench::JsonField::Num("pages_per_get", pages_per_get),
         bench::JsonField::Num("syscalls_per_get", scalar_syscalls_per_get),
         bench::JsonField::Num("hit_rate", hit_rate),
         bench::JsonField::Num("ns_per_get", ns)});
    // Batched pass over the same lookups: the async GetBatch path. Warm
    // pool, so this isolates the scheduler + engine overhead (E22 covers
    // the cold-read payoff); the result check keeps the two paths honest.
    DiskIoStats bio;
    const uint64_t batched_sys_before = lsm.file().read_syscalls();
    std::vector<std::optional<uint64_t>> batched_out(lookups.size());
    Timer batched_timer;
    lsm.GetBatch(lookups.data(), lookups.size(), batched_out.data(), &bio);
    const double batched_ns =
        static_cast<double>(batched_timer.ElapsedNanos()) / n_lookups;
    for (size_t i = 0; i < lookups.size(); ++i) {
      LIDX_CHECK(batched_out[i] == scalar_out[i]);
    }
    const AsyncIoStats& eng = lsm.io_engine()->stats();
    const double batched_pages_per_get =
        static_cast<double>(bio.pages_touched) / n_lookups;
    const double batched_syscalls_per_get =
        static_cast<double>(
            eng.submit_syscalls +
            (lsm.file().read_syscalls() - batched_sys_before)) /
        n_lookups;
    table.AddRow({mode, lsm.io_engine()->name(), "-",
                  std::to_string(lsm.NumRuns()),
                  TablePrinter::FormatDouble(file_mib, 1),
                  TablePrinter::FormatDouble(batched_pages_per_get, 3),
                  TablePrinter::FormatDouble(batched_syscalls_per_get, 4),
                  "-", TablePrinter::FormatDouble(batched_ns, 0)});
    g_json.push_back(
        {bench::JsonField::Str("section", "lsm_batched"),
         bench::JsonField::Str("mode", mode),
         bench::JsonField::Str("io_backend", lsm.io_engine()->name()),
         bench::JsonField::Num("pages_per_get", batched_pages_per_get),
         bench::JsonField::Num("syscalls_per_get", batched_syscalls_per_get),
         bench::JsonField::Num("batched_lookups", bio.batched_lookups),
         bench::JsonField::Num("async_page_reads", bio.async_page_reads),
         bench::JsonField::Num("async_reads_submitted", eng.reads_submitted),
         bench::JsonField::Num("ns_per_get", batched_ns)});
  }
  table.Print();
}

}  // namespace
}  // namespace lidx::storage

int main(int argc, char** argv) {
  using namespace lidx;
  using namespace lidx::storage;
  const size_t n =
      argc > 1 ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
               : 2'000'000;
  bench::PrintHeader(
      "E19: disk-resident storage engine (" + std::to_string(n) +
          " lognormal keys, 4 KiB pages)",
      "with data on disk and models in memory, ε bounds pages-read per "
      "lookup; a buffer pool converts locality into hits");

  const bench::Dataset1D data =
      bench::MakeDataset1D(KeyDistribution::kLognormal, n, 4242,
                           bench::ValueScheme::kHashed);
  const size_t num_lookups = std::min<size_t>(n, 200'000);
  const auto lookups = SampleHits(data.keys, num_lookups, 77);

  RunEpsilonSweep(data, lookups);
  RunPoolSweep(data, lookups);
  RunLsm(data, lookups);

  bench::ReportJson("e19_disk_resident", g_json,
                    {bench::JsonField::Num("num_keys", n),
                     bench::JsonField::Num("num_lookups", num_lookups),
                     bench::JsonField::Num("page_size", kPageSize)});
  for (const char* tag : {"eps", "pool", "lsm_sync", "lsm_bg"}) {
    std::remove(("bench_e19_" + std::string(tag) + ".pagefile").c_str());
  }
  return 0;
}
