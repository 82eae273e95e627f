// tiered_disk: one client over TieredIndex<DynamicPgm hot, kDelta cold>,
// the only workload whose data sits in the storage layer and does not fit
// its buffer pool.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/tiered_index.h"

namespace perfbench {
namespace {

using Tiered = lidx::TieredIndex<uint64_t, uint64_t>;
using HotTier = lidx::DynamicPgm<uint64_t, lidx::RunEntry<uint64_t>>;

constexpr size_t kLoadedKeys = 2'000'000;
constexpr int kSetupReps = 7;
// At 25-35k inserts/s a 20 s run migrates about twenty times, and every
// fourth migration (cold_run_limit 4) merges all runs. Reads slow as cold
// runs pile up and speed up after each merge-all, so a run covers four to
// six such cycles, enough that where it starts and stops in the cycle
// barely moves its figures. Each merge-all stalls the only client for up to
// a second, disturbing one or two of the twenty windows the medians are
// taken over.
constexpr size_t kHotLimit = 24'576;
constexpr size_t kColdRunLimit = 4;
constexpr double kReadFraction = 0.9;
// A tenth of the reads ask for one of the latest inserts (YCSB-D style),
// so the hot tier and the newest runs serve some reads; the rest are
// Zipf-skewed over the loaded keys, which live in the oldest run. The Zipf
// rank is not scrambled (the repo's own workload generators do the same):
// hot keys share pages, so about nine in ten cold reads hit the pool. A
// scrambled draw spreads them over every page, puts the hit rate near one
// half and the read median on the gap between hits and misses, where it
// does not repeat from run to run.
constexpr double kLatestReadFraction = 0.1;
constexpr size_t kLatestKeys = 4096;
constexpr size_t kMaxTracedReads = 200'000;
constexpr uint64_t kMemSampleOps = 4096;

struct TracedRead {
  uint64_t key;
  uint64_t span;
  uint64_t ns;
  bool went_cold;  // Probed at least one cold run.
};

// Counters read at the boundaries of each traced read.
struct ReadCounters {
  lidx::storage::DiskIoStats io;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t read_syscalls = 0;
};

class Client {
 public:
  Client(Tiered* index, const Dataset* data, const Timeline* tl,
         uint64_t seed)
      : tracer(0),
        fresh(data->pool, 0, 1, Mix64(seed ^ 0xF7E5)),
        index_(index),
        data_(data),
        tl_(tl),
        rng_(seed),
        picker_(data->loaded.size(), 0.99, /*scrambled=*/false, Mix64(seed)) {}

  void Run() {
    Clock::time_point t = Clock::now();
    for (uint64_t op = 0;; ++op) {
      const int w = tl_->WindowOf(t);
      if (w >= Timeline::kWindows) return;
      if (w >= 0 && op % kMemSampleOps == 0) SampleMemory();
      t = rng_.NextDouble() < kReadFraction ? Read(w) : Write(w);
    }
  }

  // Bytes per live key, averaged over the timed windows.
  double MemBytesPerKey() const { return Ratio(mem_sum_, mem_samples_); }

  std::vector<WindowLog> windows = std::vector<WindowLog>(Timeline::kWindows);
  Tally tally;
  Tracer tracer;
  FreshKeys fresh;
  uint64_t fresh_exhausted = 0;  // Inserts that found the pool used up.
  std::vector<uint64_t> hot_keys;  // Inserted since the last migration.
  std::vector<TracedRead> reads;
  ReadCounters traced_counters;  // Summed over traced reads.
  uint64_t traced_reads = 0;
  uint64_t timed_writes = 0;
  uint64_t timed_pages_written = 0;
  uint64_t migrations = 0;  // Timed phase.
  uint64_t merge_alls = 0;
  double migration_s = 0.0;

 private:
  // The hot tier fills and empties, and the run count climbs to the
  // merge-all, so the footprint at any one instant depends on where the
  // run stops in that cycle; the average over the run does not.
  void SampleMemory() {
    mem_sum_ += static_cast<double>(index_->SizeBytes()) /
                static_cast<double>(data_->loaded.size() + fresh.drawn());
    ++mem_samples_;
  }

  ReadCounters Sample() const {
    ReadCounters c;
    const lidx::storage::BufferPoolStats pool = index_->pool()->stats();
    c.pool_hits = pool.hits;
    c.pool_misses = pool.misses;
    c.pool_evictions = pool.evictions;
    c.read_syscalls = index_->file()->read_syscalls();
    return c;
  }

  Clock::time_point Read(int w) {
    const bool latest =
        !latest_.empty() && rng_.NextDouble() < kLatestReadFraction;
    const uint64_t key =
        latest ? latest_[rng_.NextBounded(latest_.size())]
               : data_->loaded[picker_.Next()];
    const bool traced = tl_->Traced(w);
    ReadCounters before;
    if (traced) before = Sample();
    lidx::storage::DiskIoStats io;
    const Clock::time_point t0 = Clock::now();
    const std::optional<uint64_t> got =
        index_->Find(key, traced ? &io : nullptr);
    const Clock::time_point t1 = Clock::now();
    tally.Record(Oracle::CheckPresent(key, got));
    LogOp(&windows, w, kRead, Nanos(t0, t1));
    if (traced) {
      const ReadCounters after = Sample();
      const int64_t hits = static_cast<int64_t>(after.pool_hits - before.pool_hits);
      const int64_t misses =
          static_cast<int64_t>(after.pool_misses - before.pool_misses);
      const int64_t evictions =
          static_cast<int64_t>(after.pool_evictions - before.pool_evictions);
      const int64_t syscalls =
          static_cast<int64_t>(after.read_syscalls - before.read_syscalls);
      const uint64_t span = tracer.Record(
          "TieredIndex::Find", 0, 0, t0, t1,
          {{"run_probes", static_cast<int64_t>(io.run_probes)},
           {"bloom_rejects", static_cast<int64_t>(io.bloom_rejects)},
           {"pages_touched", static_cast<int64_t>(io.pages_touched)},
           {"records_decoded", static_cast<int64_t>(io.records_decoded)},
           {"partial_decodes", static_cast<int64_t>(io.partial_decodes)},
           {"pool_hits", hits},
           {"pool_misses", misses},
           {"pool_evictions", evictions},
           {"read_syscalls", syscalls}});
      ReadCounters& sum = traced_counters;
      sum.io.run_probes += io.run_probes;
      sum.io.bloom_rejects += io.bloom_rejects;
      sum.io.pages_touched += io.pages_touched;
      sum.io.records_decoded += io.records_decoded;
      sum.io.partial_decodes += io.partial_decodes;
      sum.pool_hits += static_cast<uint64_t>(hits);
      sum.pool_misses += static_cast<uint64_t>(misses);
      sum.pool_evictions += static_cast<uint64_t>(evictions);
      sum.read_syscalls += static_cast<uint64_t>(syscalls);
      if (reads.size() < kMaxTracedReads) {
        reads.push_back({key, span, Nanos(t0, t1), io.run_probes > 0});
      }
      ++traced_reads;
    }
    return t1;
  }

  // A migration runs inline on this (the only) writer, so an insert that
  // wrote pages is exactly an insert that migrated the hot tier. Every
  // insert adds a fresh pool key; should the pool run out, it updates a
  // loaded key instead.
  Clock::time_point Write(int w) {
    std::optional<uint64_t> fresh_key = fresh.Next();
    if (!fresh_key) ++fresh_exhausted;
    const uint64_t key =
        fresh_key ? *fresh_key
                  : data_->loaded[rng_.NextBounded(data_->loaded.size())];
    const uint64_t written0 = index_->file()->pages_written();
    const Clock::time_point t0 = Clock::now();
    index_->Insert(key, ValueOf(key));
    const Clock::time_point t1 = Clock::now();
    const uint64_t written = index_->file()->pages_written() - written0;
    tally.Record(true);
    LogOp(&windows, w, kWrite, Nanos(t0, t1));
    if (latest_.size() < kLatestKeys) {
      latest_.push_back(key);
    } else {
      latest_[latest_next_++ % kLatestKeys] = key;
    }
    if (written > 0) {
      hot_keys.clear();
    } else {
      hot_keys.push_back(key);
    }
    if (w >= 0) {
      ++timed_writes;
      timed_pages_written += written;
      if (written > 0) {
        ++migrations;
        migration_s += Seconds(t0, t1);
        if (index_->ColdRuns().size() == 1) ++merge_alls;
      }
    }
    if (tl_->Traced(w)) {
      tracer.Record("TieredIndex::Insert", 0, 0, t0, t1,
                    {{"pages_written", static_cast<int64_t>(written)}});
    }
    return t1;
  }

  Tiered* index_;
  const Dataset* data_;
  const Timeline* tl_;
  lidx::Rng rng_;
  RankPicker picker_;
  std::vector<uint64_t> latest_;
  size_t latest_next_ = 0;
  double mem_sum_ = 0.0;
  double mem_samples_ = 0.0;
};

}  // namespace

Outcome RunTiered(const Args& args) {
  const Dataset data = MakeDataset(kLoadedKeys, args.seed);
  Outcome out;
  Tracer main_tracer(1);
  const Clock::time_point origin = Clock::now();

  std::filesystem::create_directories(kRunDir);
  const std::string path = std::string(kRunDir) + "/tiered-" +
                           std::to_string(::getpid()) + ".pagefile";
  // Set-up: create the page file and bulk-load one cold run. The first
  // load learns the run's page count; the pool is then sized to a quarter
  // of it, so the loaded data does not fit the pool.
  Tiered::Options opts;
  opts.hot_limit = kHotLimit;
  opts.cold_run_limit = kColdRunLimit;
  opts.codec = lidx::storage::PageCodec::kDelta;
  opts.background_migration = false;
  opts.pool_frames = 16;
  std::unique_ptr<Tiered> index;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    std::filesystem::remove(path);
    const Clock::time_point t0 = Clock::now();
    index = std::make_unique<Tiered>(path, opts);
    index->BulkLoad(data.loaded, data.values);
    const Clock::time_point t1 = Clock::now();
    setup.push_back(Seconds(t0, t1));
    main_tracer.Record("TieredIndex::BulkLoad", 0, 0, t0, t1);
    if (rep == 0) {
      opts.pool_frames =
          std::max<size_t>(16, index->ColdRuns().front()->NumPages() / 4);
    }
  }

  Timeline tl(args.seconds, args.trace);
  Client client(index.get(), &data, &tl, Mix64(args.seed * 7919 + 1));
  tl.start = Clock::now();
  client.Run();
  out.tally = client.tally;

  const size_t live = data.loaded.size() + client.fresh.drawn();
  const double pages = static_cast<double>(index->file()->NumPages());
  const std::vector<std::vector<WindowLog>> logs = {client.windows};
  const WindowStats reads = SummarizeWindows(logs, tl, {kRead}, false);
  const WindowStats all_ops = SummarizeWindows(logs, tl, {kRead, kWrite}, false);
  AddLatencyNotes(logs, tl, &out.notes);
  char line[320];
  std::snprintf(line, sizeof(line),
                "pool %zu frames over %.0f file pages; %llu migrations "
                "(%llu merge-all) in the timed windows; cold runs now %zu; "
                "disk %.2f B/key; %zu fresh keys inserted, %llu inserts "
                "found the pool used up",
                opts.pool_frames, pages,
                static_cast<unsigned long long>(client.migrations),
                static_cast<unsigned long long>(client.merge_alls),
                index->ColdRuns().size(),
                pages * lidx::storage::kPageSize / static_cast<double>(live),
                client.fresh.drawn(),
                static_cast<unsigned long long>(client.fresh_exhausted));
  out.notes.push_back(line);
  out.notes.push_back(DescribeSeries("setup s by rep", setup));
  out.notes.push_back(
      DescribeSeries("ops/s by window", all_ops.ops_per_s));
  out.notes.push_back(
      DescribeSeries("query p50 ns by window", reads.p50_ns));
  out.end_to_end = {
      {"throughput_ops_s", Median(all_ops.ops_per_s), "ops/s"},
      {"query_p50_us", Median(reads.p50_ns) / 1e3, "us"},
      {"query_p99_us", Median(reads.p99_ns) / 1e3, "us"},
      {"op_p99_us", Median(all_ops.p99_ns) / 1e3, "us"},
      {"setup_s", Median(setup), "s"},
      {"mem_bytes_per_key", client.MemBytesPerKey(), "B"},
  };

  if (args.trace) {
    std::vector<Metric>& m = out.per_layer;
    const double clock_ns = AddTraceMetrics(logs, tl, &m);

    // Replay the traced reads layer by layer: a DynamicPgm rebuilt from the
    // hot tier's inserts (one_d), then the cold runs newest first (storage)
    // for the reads that went past the hot tier. What remains of the traced
    // whole is TieredIndex's own work: locks, epoch pin, run-list snapshot.
    HotTier hot;
    for (const uint64_t k : client.hot_keys) {
      const lidx::RunEntry<uint64_t> e{ValueOf(k), false};
      if (!hot.Insert(k, e)) {
        hot.Erase(k);
        hot.Insert(k, e);
      }
    }
    const std::vector<std::shared_ptr<const Tiered::Run>> runs =
        index->ColdRuns();
    // Two passes: the first warms the pool for the runs as they are now
    // (a merge-all near the end leaves it cold), the second is timed.
    double whole_ns = 0.0;
    double hot_ns = 0.0;
    double cold_ns = 0.0;
    uint64_t cold_reads = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool timed = pass == 1;
      for (const TracedRead& r : client.reads) {
        Clock::time_point t0 = Clock::now();
        const std::optional<lidx::RunEntry<uint64_t>> in_hot = hot.Find(r.key);
        Clock::time_point t1 = Clock::now();
        DoNotOptimize(in_hot);
        if (timed) {
          whole_ns += static_cast<double>(r.ns);
          main_tracer.Record("DynamicPgm::Find(replay)", r.span, r.span, t0,
                             t1);
          hot_ns += static_cast<double>(Nanos(t0, t1)) - clock_ns;
        }
        if (!r.went_cold) continue;
        lidx::storage::DiskIoStats io;
        t0 = Clock::now();
        for (const auto& run : runs) {
          if (run->Get(r.key, &io).has_value()) break;
        }
        t1 = Clock::now();
        if (!timed) continue;
        main_tracer.Record(
            "DiskRun::Get(replay)", r.span, r.span, t0, t1,
            {{"run_probes", static_cast<int64_t>(io.run_probes)},
             {"pages_touched", static_cast<int64_t>(io.pages_touched)}});
        cold_ns += static_cast<double>(Nanos(t0, t1)) - clock_ns;
        ++cold_reads;
      }
    }
    const double n = static_cast<double>(client.reads.size());
    const double whole = Ratio(whole_ns, n);
    const double hot_part = Ratio(hot_ns, n);
    const double cold_part = Ratio(cold_ns, n);
    const double self = whole - clock_ns - hot_part - cold_part;
    m.push_back({"one_d.find_ns", hot_part, "ns"});
    m.push_back({"storage.run_get_ns", cold_part, "ns"});
    m.push_back({"one_d.tiered_self_ns", self, "ns"});
    constexpr double kTolerance = 0.10;
    const bool adds_up = hot_part >= -kTolerance * whole &&
                         cold_part >= -kTolerance * whole &&
                         self >= -kTolerance * whole;
    std::snprintf(line, sizeof(line),
                  "read breakdown (%.0f traced reads, %llu went cold): whole "
                  "%.1f ns = one_d.find(hot) %.1f + storage.run_get %.1f + "
                  "clock %.1f + tiered self %.1f; parts add up within %.0f%%: "
                  "%s",
                  n, static_cast<unsigned long long>(cold_reads), whole,
                  hot_part, cold_part, clock_ns, self, kTolerance * 100,
                  adds_up ? "yes" : "NO");
    out.notes.push_back(line);

    const double traced_reads = static_cast<double>(client.traced_reads);
    const ReadCounters& c = client.traced_counters;
    m.push_back({"one_d.tiered_hot_frac",
                 Ratio(static_cast<double>(std::count_if(
                           client.reads.begin(), client.reads.end(),
                           [](const TracedRead& r) { return !r.went_cold; })),
                       n),
                 "ratio"});
    m.push_back({"one_d.tiered_run_probes_per_read",
                 Ratio(c.io.run_probes, traced_reads), "count"});
    m.push_back({"one_d.tiered_bloom_rejects_per_read",
                 Ratio(c.io.bloom_rejects, traced_reads), "count"});
    m.push_back({"one_d.migrations", static_cast<double>(client.migrations),
                 "count"});
    m.push_back({"one_d.merge_alls", static_cast<double>(client.merge_alls),
                 "count"});
    m.push_back({"one_d.migration_s", client.migration_s, "s"});
    m.push_back({"storage.pool_hit_rate",
                 Ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio"});
    m.push_back({"storage.evictions_per_read",
                 Ratio(c.pool_evictions, traced_reads), "count"});
    m.push_back({"storage.pages_per_read",
                 Ratio(c.io.pages_touched, traced_reads), "count"});
    m.push_back({"storage.read_syscalls_per_read",
                 Ratio(c.read_syscalls, traced_reads), "count"});
    m.push_back({"storage.records_decoded_per_read",
                 Ratio(c.io.records_decoded, traced_reads), "count"});
    m.push_back({"storage.partial_decode_frac",
                 Ratio(c.io.partial_decodes, c.io.pages_touched), "ratio"});
    m.push_back({"storage.write_amp",
                 Ratio(static_cast<double>(client.timed_pages_written) *
                           lidx::storage::kPageSize,
                       static_cast<double>(client.timed_writes) *
                           (sizeof(uint64_t) * 2)),
                 "ratio"});
    m.push_back({"storage.disk_bytes_per_key",
                 pages * lidx::storage::kPageSize / static_cast<double>(live),
                 "B"});
    const std::string trace_path =
        WriteTrace(args, origin, {&main_tracer, &client.tracer});
    out.notes.push_back("spans written to " +
                        (trace_path.empty() ? "(failed)" : trace_path));
  }
  index.reset();
  std::filesystem::remove(path);
  return out;
}

}  // namespace perfbench
