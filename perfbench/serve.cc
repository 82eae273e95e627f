// serve_read, serve_write and serve_scan: closed-loop clients over
// ShardedIndex<DynamicPgm>, the repo's concurrent serving stack.

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "one_d/dynamic_pgm.h"
#include "serving/sharded_index.h"

namespace perfbench {
namespace {

using Inner = lidx::DynamicPgm<uint64_t, uint64_t>;
using Sharded = lidx::ShardedIndex<Inner>;

constexpr size_t kLoadedKeys = 2'000'000;
constexpr size_t kShards = 16;
constexpr int kSetupReps = 9;
constexpr uint64_t kMaxScanRecords = 100;
// Per client: traced reads kept for the replay, traced writes kept for the
// seal attribution.
constexpr size_t kMaxTracedReads = 100'000;
constexpr size_t kMaxTracedWrites = 1'000'000;

struct Mix {
  double read;
  double write;  // Scans take the rest.
  double zipf_theta;
  // Share of writes that insert a fresh pool key; the others update a
  // loaded key. At ~0.45 Mops/s serve_write writes ~4.5M times in a 20 s
  // run, more than the 1M-key pool holds, so only one write in sixteen is
  // fresh: that keeps the insert rate (and the index's growth) the same in
  // every window instead of inserting early and updating late.
  double fresh;
  // Closed-loop client threads. Reads run three, which leaves a core of a
  // 4-core host free. The workloads that write run one: with three
  // clients, the drains their seals woke on ThreadPool::Shared() asked for
  // more cores than a shared host gives, and throughput measured the
  // scheduler (a third of the median apart between runs of the same code).
  size_t clients;
  // serve_write drains inline, on its client: half its ops are writes, and
  // background drains of all shards at once still crowded the client
  // (throughput a sixth to a quarter of the median apart between runs).
  // Inline, every run of a seed does the same work in the same order.
  // serve_scan inserts one op in twenty; its drains stay in the background.
  bool background_drain;
};

// YCSB-C, YCSB-A and YCSB-E.
Mix MixFor(const std::string& workload) {
  if (workload == "serve_read") return {1.0, 0.0, 0.99, 0.0, 3, true};
  if (workload == "serve_write") return {0.5, 0.5, 0.0, 0.0625, 1, false};
  return {0.0, 0.05, 0.0, 1.0, 1, true};
}

struct TracedRead {
  uint64_t key;
  uint64_t span;
  uint64_t ns;
};

struct TracedWrite {
  uint64_t ns;
  bool saw_seal;
};

class Client {
 public:
  Client(size_t id, Sharded* index, const Dataset* data, const Oracle* oracle,
         const Timeline* tl, const Mix& mix, uint64_t seed)
      : tracer(id),
        fresh(data->pool, id, mix.clients, Mix64(seed ^ 0xF7E5)),
        index_(index),
        data_(data),
        oracle_(oracle),
        tl_(tl),
        mix_(mix),
        rng_(seed),
        picker_(data->loaded.size(), mix.zipf_theta, /*scrambled=*/true,
                Mix64(seed)) {}

  void Run() {
    Clock::time_point t = Clock::now();
    for (;;) {
      const int w = tl_->WindowOf(t);
      if (w >= Timeline::kWindows) return;
      const double r = rng_.NextDouble();
      if (r < mix_.read) {
        t = Read(w);
      } else if (r < mix_.read + mix_.write) {
        t = Write(w);
      } else {
        t = Scan(w);
      }
    }
  }

  std::vector<WindowLog> windows = std::vector<WindowLog>(Timeline::kWindows);
  Tally tally;
  Tracer tracer;
  FreshKeys fresh;
  uint64_t fresh_exhausted = 0;  // Fresh draws that found the slice empty.
  std::vector<TracedRead> reads;
  std::vector<TracedWrite> writes;
  uint64_t timed_writes = 0;
  uint64_t traced_scans = 0;
  uint64_t traced_scan_rows = 0;
  uint64_t traced_scan_ns = 0;

 private:
  Clock::time_point Read(int w) {
    const uint64_t key = data_->loaded[picker_.Next()];
    const Clock::time_point t0 = Clock::now();
    const std::optional<uint64_t> got = index_->Find(key);
    const Clock::time_point t1 = Clock::now();
    tally.Record(Oracle::CheckPresent(key, got));
    LogOp(&windows, w, kRead, Nanos(t0, t1));
    if (tl_->Traced(w)) {
      const uint64_t span = tracer.Record("ShardedIndex::Find", 0, 0, t0, t1);
      if (reads.size() < kMaxTracedReads) {
        reads.push_back({key, span, Nanos(t0, t1)});
      }
    }
    return t1;
  }

  Clock::time_point Write(int w) {
    std::optional<uint64_t> key;
    if (rng_.NextDouble() < mix_.fresh) {
      key = fresh.Next();
      if (!key) ++fresh_exhausted;
    }
    if (!key) key = data_->loaded[rng_.NextBounded(data_->loaded.size())];
    const bool traced = tl_->Traced(w);
    const uint64_t seals = traced ? index_->GetStats().seals : 0;
    const Clock::time_point t0 = Clock::now();
    index_->Insert(*key, ValueOf(*key));
    const Clock::time_point t1 = Clock::now();
    tally.Record(true);
    LogOp(&windows, w, kWrite, Nanos(t0, t1));
    if (w >= 0) ++timed_writes;
    if (traced) {
      const int64_t sealed =
          static_cast<int64_t>(index_->GetStats().seals - seals);
      tracer.Record("ShardedIndex::Insert", 0, 0, t0, t1,
                    {{"seals", sealed}});
      if (writes.size() < kMaxTracedWrites) {
        writes.push_back({Nanos(t0, t1), sealed > 0});
      }
    }
    return t1;
  }

  Clock::time_point Scan(int w) {
    const std::vector<uint64_t>& loaded = data_->loaded;
    const size_t first = rng_.NextBounded(loaded.size());
    const size_t len = 1 + rng_.NextBounded(kMaxScanRecords);
    const uint64_t lo = loaded[first];
    const uint64_t hi = loaded[std::min(first + len, loaded.size()) - 1];
    rows_.clear();
    const Clock::time_point t0 = Clock::now();
    index_->RangeScan(lo, hi, &rows_);
    const Clock::time_point t1 = Clock::now();
    tally.Record(oracle_->CheckScan(lo, hi, first, rows_));
    LogOp(&windows, w, kScan, Nanos(t0, t1));
    if (tl_->Traced(w)) {
      tracer.Record("ShardedIndex::RangeScan", 0, 0, t0, t1,
                    {{"rows", static_cast<int64_t>(rows_.size())}});
      ++traced_scans;
      traced_scan_rows += rows_.size();
      traced_scan_ns += Nanos(t0, t1);
    }
    return t1;
  }

  Sharded* index_;
  const Dataset* data_;
  const Oracle* oracle_;
  const Timeline* tl_;
  Mix mix_;
  lidx::Rng rng_;
  RankPicker picker_;
  std::vector<std::pair<uint64_t, uint64_t>> rows_;
};

template <typename T>
double Total(const std::vector<Sharded::ShardStat>& shards,
             T Sharded::ShardStat::*field) {
  T sum = 0;
  for (const Sharded::ShardStat& s : shards) sum += s.*field;
  return static_cast<double>(sum);
}

// Replays the traced reads into standalone DynamicPgm copies of the
// bulk-loaded shard snapshots (the inner lookup with routing, buffers and
// epochs stripped away). Each call is timed like the traced span, so the
// mean minus one clock read is the inner index's share of a read.
double ReplayInner(const Dataset& data,
                   const std::vector<Sharded::ShardStat>& layout,
                   const std::vector<std::unique_ptr<Client>>& clients,
                   Tracer* tracer, uint64_t* replayed) {
  std::vector<Inner> shards(layout.size());
  std::vector<uint64_t> first_keys;
  size_t begin = 0;
  for (size_t s = 0; s < layout.size(); ++s) {
    const size_t end = begin + layout[s].snapshot;
    if (end > begin) {
      shards[s].BulkLoad(
          std::vector<uint64_t>(data.loaded.begin() + begin,
                                data.loaded.begin() + end),
          std::vector<uint64_t>(data.values.begin() + begin,
                                data.values.begin() + end));
    }
    // An empty shard shares its successor's first key; upper_bound below
    // then routes to the successor, which holds the keys.
    first_keys.push_back(begin < data.loaded.size() ? data.loaded[begin]
                                                    : UINT64_MAX);
    begin = end;
  }
  uint64_t total_ns = 0;
  uint64_t n = 0;
  for (const std::unique_ptr<Client>& c : clients) {
    for (const TracedRead& r : c->reads) {
      size_t s = static_cast<size_t>(
          std::upper_bound(first_keys.begin(), first_keys.end(), r.key) -
          first_keys.begin());
      s = s == 0 ? 0 : s - 1;
      const Clock::time_point t0 = Clock::now();
      const std::optional<uint64_t> got = shards[s].Find(r.key);
      const Clock::time_point t1 = Clock::now();
      DoNotOptimize(got);
      tracer->Record("DynamicPgm::Find(replay)", r.span, r.span, t0, t1);
      total_ns += Nanos(t0, t1);
      ++n;
    }
  }
  *replayed = n;
  return n == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(n);
}

}  // namespace

Outcome RunServe(const Args& args) {
  const Mix mix = MixFor(args.workload);
  const Dataset data = MakeDataset(kLoadedKeys, args.seed);
  const Oracle oracle(&data.loaded, &data.pool);
  Outcome out;
  Tracer main_tracer(mix.clients);
  const Clock::time_point origin = Clock::now();

  // Set-up: construct and bulk-load the index; the last copy serves.
  Sharded::Options opts;
  opts.num_shards = kShards;
  opts.collect_shard_stats = args.trace;
  opts.background_drain = mix.background_drain;
  // A shard rebuilds once its delta holds rebuild_min_delta (4096) entries.
  // At the default, a quarter of the shard (~31k), every drain re-merged a
  // delta that grew for seconds before a rebuild emptied it, and a run's
  // throughput depended on where it stopped in that cycle; at 4096 a shard
  // of serve_write rebuilds about three times a second.
  opts.rebuild_fraction = 0.0;
  std::unique_ptr<Sharded> index;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    const Clock::time_point t0 = Clock::now();
    index = std::make_unique<Sharded>(opts);
    index->BulkLoad(data.loaded, data.values);
    const Clock::time_point t1 = Clock::now();
    setup.push_back(Seconds(t0, t1));
    main_tracer.Record("ShardedIndex::BulkLoad", 0, 0, t0, t1);
  }
  const std::vector<Sharded::ShardStat> layout = index->TakeShardStats().shards;

  Timeline tl(args.seconds, args.trace);
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < mix.clients; ++c) {
    clients.push_back(std::make_unique<Client>(
        c, index.get(), &data, &oracle, &tl, mix,
        Mix64(args.seed * 7919 + c + 1)));
  }
  tl.start = Clock::now();
  std::vector<std::thread> threads;
  for (const std::unique_ptr<Client>& c : clients) {
    threads.emplace_back([&client = *c] { client.Run(); });
  }
  // The main thread samples the serving layer while the clients run. The
  // footprint per live key is averaged over the timed windows: buffers
  // fill and seal and deltas grow until a rebuild folds them, so the
  // footprint at any one instant depends on where each shard stands in
  // that cycle; the average over the run does not.
  std::this_thread::sleep_until(tl.TimedStart());
  const Sharded::Stats stats0 = index->GetStats();
  const std::vector<Sharded::ShardStat> shards0 =
      index->TakeShardStats().shards;
  double buffered_sum = 0.0;
  double delta_sum = 0.0;
  double mem_sum = 0.0;
  int samples = 0;
  while (Clock::now() < tl.End()) {
    size_t live = data.loaded.size();
    for (const std::unique_ptr<Client>& c : clients) live += c->fresh.drawn();
    mem_sum += static_cast<double>(index->SizeBytes()) /
               static_cast<double>(live);
    if (args.trace) {
      const std::vector<Sharded::ShardStat> s = index->TakeShardStats().shards;
      buffered_sum += Total(s, &Sharded::ShardStat::buffered);
      delta_sum += Total(s, &Sharded::ShardStat::delta);
    }
    ++samples;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& t : threads) t.join();
  const Sharded::Stats stats1 = index->GetStats();
  const std::vector<Sharded::ShardStat> shards1 =
      index->TakeShardStats().shards;
  const Clock::time_point drain0 = Clock::now();
  index->WaitForDrains();
  const Clock::time_point drain1 = Clock::now();
  main_tracer.Record("ShardedIndex::WaitForDrains", 0, 0, drain0, drain1);

  std::vector<std::vector<WindowLog>> logs;
  uint64_t timed_writes = 0;
  size_t live = data.loaded.size();
  uint64_t exhausted = 0;
  for (const std::unique_ptr<Client>& c : clients) {
    out.tally.Merge(c->tally);
    logs.push_back(c->windows);
    timed_writes += c->timed_writes;
    live += c->fresh.drawn();
    exhausted += c->fresh_exhausted;
  }

  const int query = mix.read > 0.0 ? kRead : kScan;
  const WindowStats queries = SummarizeWindows(logs, tl, {query}, false);
  const WindowStats all_ops =
      SummarizeWindows(logs, tl, {kRead, kWrite, kScan}, false);
  AddLatencyNotes(logs, tl, &out.notes);
  char line[320];
  std::snprintf(line, sizeof(line),
                "%zu fresh keys inserted; %llu fresh draws found the "
                "client's pool slice used up and updated instead",
                live - data.loaded.size(),
                static_cast<unsigned long long>(exhausted));
  out.notes.push_back(line);
  out.notes.push_back(DescribeSeries("setup s by rep", setup));
  out.notes.push_back(
      DescribeSeries("ops/s by window", all_ops.ops_per_s));
  out.notes.push_back(
      DescribeSeries("query p50 ns by window", queries.p50_ns));
  out.end_to_end = {
      {"throughput_ops_s", Median(all_ops.ops_per_s), "ops/s"},
      {"query_p50_us", Median(queries.p50_ns) / 1e3, "us"},
      {"query_p99_us", Median(queries.p99_ns) / 1e3, "us"},
      {"op_p99_us", Median(all_ops.p99_ns) / 1e3, "us"},
      {"setup_s", Median(setup), "s"},
      {"mem_bytes_per_key", Ratio(mem_sum, samples), "B"},
  };
  if (!args.trace) return out;

  // ---- Traced run: per-layer figures. ----
  std::vector<Metric>& m = out.per_layer;
  const double clock_ns = AddTraceMetrics(logs, tl, &m);

  if (mix.read > 0.0) {
    uint64_t read_ns = 0;
    uint64_t reads = 0;
    for (const std::unique_ptr<Client>& c : clients) {
      for (const TracedRead& r : c->reads) {
        read_ns += r.ns;
        ++reads;
      }
    }
    const double whole = Ratio(static_cast<double>(read_ns),
                               static_cast<double>(reads));
    uint64_t replayed = 0;
    const double inner =
        ReplayInner(data, layout, clients, &main_tracer, &replayed) - clock_ns;
    const double self = whole - clock_ns - inner;
    m.push_back({"one_d.find_ns", inner, "ns"});
    m.push_back({"serving.read_self_ns", self, "ns"});
    const double lookups = Total(shards1, &Sharded::ShardStat::lookups) -
                           Total(shards0, &Sharded::ShardStat::lookups);
    const double depth = Total(shards1, &Sharded::ShardStat::probe_depth) -
                         Total(shards0, &Sharded::ShardStat::probe_depth);
    m.push_back({"serving.probe_depth_per_read", Ratio(depth, lookups),
                 "count"});
    // Parts add up: the self remainder closes the sum, so the check is
    // that no part is negative by more than the tolerance (a replayed
    // child costing more than the traced whole means the replay is not
    // the path the read took).
    constexpr double kTolerance = 0.10;
    const bool adds_up = inner >= -kTolerance * whole &&
                         self >= -kTolerance * whole;
    std::snprintf(line, sizeof(line),
                  "read breakdown (%llu traced reads, %llu replayed): whole "
                  "%.1f ns = one_d.find %.1f + clock %.1f + serving self "
                  "%.1f; parts add up within %.0f%%: %s",
                  static_cast<unsigned long long>(reads),
                  static_cast<unsigned long long>(replayed), whole, inner,
                  clock_ns, self, kTolerance * 100, adds_up ? "yes" : "NO");
    out.notes.push_back(line);
  }

  const double kwrites = static_cast<double>(timed_writes) / 1e3;
  m.push_back({"serving.seals_per_kwrite",
               Ratio(static_cast<double>(stats1.seals - stats0.seals), kwrites),
               "count"});
  m.push_back({"serving.drains_per_kwrite",
               Ratio(static_cast<double>(stats1.drains - stats0.drains), kwrites),
               "count"});
  m.push_back({"serving.rebuilds",
               static_cast<double>(stats1.rebuilds - stats0.rebuilds), "count"});
  m.push_back({"serving.buffered_entries", Ratio(buffered_sum, samples),
               "count"});
  m.push_back({"serving.delta_entries", Ratio(delta_sum, samples), "count"});
  m.push_back({"serving.drain_backlog_s", Seconds(drain0, drain1), "s"});

  std::vector<TracedWrite> writes;
  for (const std::unique_ptr<Client>& c : clients) {
    writes.insert(writes.end(), c->writes.begin(), c->writes.end());
  }
  if (!writes.empty()) {
    std::sort(writes.begin(), writes.end(),
              [](const TracedWrite& a, const TracedWrite& b) {
                return a.ns < b.ns;
              });
    const size_t tail = writes.size() * 99 / 100;
    const size_t sealed = static_cast<size_t>(std::count_if(
        writes.begin() + tail, writes.end(),
        [](const TracedWrite& w) { return w.saw_seal; }));
    m.push_back({"serving.write_p99_seal_frac",
                 Ratio(sealed, writes.size() - tail), "ratio"});
  }

  uint64_t scans = 0;
  uint64_t rows = 0;
  uint64_t scan_ns = 0;
  for (const std::unique_ptr<Client>& c : clients) {
    scans += c->traced_scans;
    rows += c->traced_scan_rows;
    scan_ns += c->traced_scan_ns;
  }
  if (scans > 0) {
    m.push_back({"serving.scan_rows", Ratio(rows, scans), "count"});
    m.push_back({"serving.scan_ns_per_row", Ratio(scan_ns, rows), "ns"});
  }

  std::vector<const Tracer*> tracers = {&main_tracer};
  for (const std::unique_ptr<Client>& c : clients) tracers.push_back(&c->tracer);
  const std::string path = WriteTrace(args, origin, tracers);
  out.notes.push_back("spans written to " + (path.empty() ? "(failed)" : path));
  return out;
}

}  // namespace perfbench
