// E21 — Sharded concurrent serving: multi-threaded YCSB over
// ShardedIndex<Index> with epoch-based reclamation.
//
// Tutorial claim (§6): concurrency is the main gap between learned-index
// prototypes and deployable systems, and *Are Updatable Learned Indexes
// Ready?* (PAPERS.md) shows updatable learned indexes live or die under
// mixed multi-threaded workloads. The serving layer under test
// range-partitions keys across shards (boundaries learned from a sample
// CDF), keeps readers lock-free behind epoch reclamation, and drains
// per-shard write buffers through the shared thread pool.
//
// What to look for:
//  * YCSB-C (read-only, uniform): throughput should scale near-linearly
//    with threads — readers pin an epoch and walk immutable state, no
//    shared writes. Target >= 0.7x linear at the core count.
//  * YCSB-A (50/50): insert p999 should stay within ~10x of insert p50 —
//    the slow path is an O(1) buffer seal, never an inline retrain. YCSB-A
//    writes update loaded keys, which a ShardedIndex<DynamicPgm> stores in
//    place in its snapshot, so this gate times the in-place path. YCSB-D
//    inserts fresh keys, which go through the buffers and the delta; its
//    insert p50, p999 and p999/p50 are reported beside the gate.
//  * The global-lock baseline should collapse as threads grow; the gap is
//    the point of the serving layer.
//
// Usage: bench_e21_sharded_serving [n_keys] [ops_per_thread] [num_shards]
//                                  [max_threads]
// Defaults: 1M keys, 200k ops/thread, 16 shards, hardware_concurrency.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/btree.h"
#include "bench_util.h"
#include "common/stats.h"
#include "one_d/alex.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/lipp.h"
#include "one_d/pgm.h"
#include "serving/sharded_index.h"
#include "serving/workload.h"

namespace lidx {
namespace {

using bench::Dataset1D;
using bench::JsonField;
using bench::JsonRow;
using serving::RunYcsb;
using serving::WorkloadOptions;
using serving::WorkloadResult;
using serving::YcsbMix;
using serving::YcsbMixName;

struct Config {
  size_t n_keys = 1'000'000;
  size_t ops_per_thread = 200'000;
  size_t num_shards = 16;
  size_t max_threads = 0;  // 0 = hardware_concurrency.
};

struct LoadedData {
  std::vector<uint64_t> keys;    // Bulk-loaded into the index.
  std::vector<uint64_t> values;  // keys[i] ^ 0x9E3779B9.
  std::vector<uint64_t> pool;    // Fresh keys for inserts, key-interleaved.
};

// Generates n_keys + pool keys from one distribution, then peels every
// k-th key off into the insert pool so inserts land *between* loaded keys
// (the hard case for learned models) rather than appending at the end.
LoadedData MakeServingData(size_t n_keys, size_t pool_size) {
  const size_t total = n_keys + pool_size;
  Dataset1D all = bench::MakeDataset1D(KeyDistribution::kLognormal, total, 42,
                                       bench::ValueScheme::kHashed);
  LoadedData data;
  data.keys.reserve(n_keys);
  data.values.reserve(n_keys);
  data.pool.reserve(pool_size);
  const size_t stride = pool_size == 0 ? total + 1 : total / pool_size;
  for (size_t i = 0; i < all.keys.size(); ++i) {
    if (stride >= 1 && i % stride == stride - 1 &&
        data.pool.size() < pool_size) {
      data.pool.push_back(all.keys[i]);
    } else {
      data.keys.push_back(all.keys[i]);
      data.values.push_back(all.values[i]);
    }
  }
  return data;
}

std::vector<size_t> ThreadSweep(size_t max_threads) {
  std::vector<size_t> sweep;
  for (size_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

template <typename Inner>
std::unique_ptr<ShardedIndex<Inner>> MakeSharded(const Config& cfg,
                                                 const LoadedData& data) {
  using Engine = ShardedIndex<Inner>;
  typename Engine::Options sopts;
  sopts.num_shards = cfg.num_shards;
  sopts.build_threads = cfg.max_threads;
  auto index = std::make_unique<Engine>(sopts);
  index->BulkLoad(data.keys, data.values);
  return index;
}

JsonRow ResultRow(const std::string& section, const std::string& engine,
                  YcsbMix mix, const std::string& dist, size_t threads,
                  const WorkloadResult& r) {
  return JsonRow{
      JsonField::Str("section", section),
      JsonField::Str("engine", engine),
      JsonField::Str("mix", YcsbMixName(mix)),
      JsonField::Str("dist", dist),
      JsonField::Num("threads", threads),
      JsonField::Num("mops", r.mops),
      JsonField::Num("read_p50_ns", r.read.p50_ns),
      JsonField::Num("read_p99_ns", r.read.p99_ns),
      JsonField::Num("read_p999_ns", r.read.p999_ns),
      JsonField::Num("insert_p50_ns", r.insert.p50_ns),
      JsonField::Num("insert_p99_ns", r.insert.p99_ns),
      JsonField::Num("insert_p999_ns", r.insert.p999_ns),
      JsonField::Num("scan_p99_ns", r.scan.p99_ns),
      JsonField::Num("found", r.found),
  };
}

std::string Ns(double v) { return TablePrinter::FormatDouble(v / 1e3, 1); }

// One fully-fresh serving run: build, load, drive, tear down.
template <typename Engine, typename BuildFn>
WorkloadResult RunConfig(const LoadedData& data, const WorkloadOptions& opts,
                         BuildFn&& build) {
  Engine engine = build();
  return RunYcsb(&engine, data.keys, data.pool, opts);
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  Config cfg;
  if (argc > 1) cfg.n_keys = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) cfg.ops_per_thread = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) cfg.num_shards = std::strtoull(argv[3], nullptr, 10);
  if (argc > 4) cfg.max_threads = std::strtoull(argv[4], nullptr, 10);
  if (cfg.max_threads == 0) {
    cfg.max_threads = std::max(1u, std::thread::hardware_concurrency());
  }

  bench::PrintHeader(
      "E21 - Sharded concurrent serving (YCSB, epoch reclamation)",
      "readers scale near-linearly with threads; insert p999 has no "
      "writer-stall cliff");
  std::printf("keys=%zu ops/thread=%zu shards=%zu max_threads=%zu\n",
              cfg.n_keys, cfg.ops_per_thread, cfg.num_shards,
              cfg.max_threads);

  // Insert pool: worst mix is 5% inserts (D/E); budget 10% + slack so the
  // generator's pool check never trips.
  const size_t pool_size =
      cfg.ops_per_thread * cfg.max_threads / 10 + 64 * cfg.max_threads;
  const LoadedData data = MakeServingData(cfg.n_keys, pool_size);
  std::printf("loaded=%zu insert_pool=%zu\n", data.keys.size(),
              data.pool.size());

  using Sharded = ShardedIndex<DynamicPgm<uint64_t, uint64_t>>;

  std::vector<JsonRow> rows;

  // ---- Section 1: thread sweep, ShardedIndex<DynamicPgm>, A/B/C ----
  TablePrinter sweep_table({"mix", "dist", "threads", "Mops/s", "read p50us",
                            "read p999us", "ins p50us", "ins p999us"});
  double c_uniform_1t = 0.0;
  double c_uniform_max = 0.0;
  double a_p50 = 0.0;
  double a_p999 = 0.0;
  double d_p50 = 0.0;
  double d_p999 = 0.0;
  const std::vector<size_t> sweep = ThreadSweep(cfg.max_threads);
  for (const YcsbMix mix : {YcsbMix::kA, YcsbMix::kB, YcsbMix::kC}) {
    for (const double theta : {0.0, 0.99}) {
      const std::string dist = theta == 0.0 ? "uniform" : "zipf0.99";
      for (const size_t threads : sweep) {
        Sharded::Options sopts;
        sopts.num_shards = cfg.num_shards;
        sopts.build_threads = cfg.max_threads;
        Sharded index(sopts);
        index.BulkLoad(data.keys, data.values);
        WorkloadOptions wopts;
        wopts.mix = mix;
        wopts.zipf_theta = theta;
        wopts.n_threads = threads;
        wopts.ops_per_thread = cfg.ops_per_thread;
        const WorkloadResult r = RunYcsb(&index, data.keys, data.pool, wopts);
        index.WaitForDrains();
        sweep_table.AddRow(
            {YcsbMixName(mix), dist, std::to_string(threads),
             TablePrinter::FormatDouble(r.mops, 2), Ns(r.read.p50_ns),
             Ns(r.read.p999_ns), Ns(r.insert.p50_ns), Ns(r.insert.p999_ns)});
        rows.push_back(ResultRow("thread_sweep", "sharded_dpgm", mix, dist,
                                 threads, r));
        if (mix == YcsbMix::kC && theta == 0.0) {
          if (threads == 1) c_uniform_1t = r.mops;
          if (threads == cfg.max_threads) c_uniform_max = r.mops;
        }
        if (mix == YcsbMix::kA && theta == 0.0 &&
            threads == cfg.max_threads) {
          a_p50 = r.insert.p50_ns;
          a_p999 = r.insert.p999_ns;
        }
      }
    }
  }
  sweep_table.Print();

  // ---- Section 2: all six mixes at max threads ----
  std::printf("\nAll mixes, %zu threads, zipf 0.99 vs uniform:\n",
              cfg.max_threads);
  TablePrinter mix_table({"mix", "dist", "Mops/s", "read p999us",
                          "ins p999us", "scan p99us"});
  for (const YcsbMix mix : {YcsbMix::kA, YcsbMix::kB, YcsbMix::kC,
                            YcsbMix::kD, YcsbMix::kE, YcsbMix::kF}) {
    for (const double theta : {0.0, 0.99}) {
      const std::string dist = theta == 0.0 ? "uniform" : "zipf0.99";
      Sharded::Options sopts;
      sopts.num_shards = cfg.num_shards;
      sopts.build_threads = cfg.max_threads;
      Sharded index(sopts);
      index.BulkLoad(data.keys, data.values);
      WorkloadOptions wopts;
      wopts.mix = mix;
      wopts.zipf_theta = theta;
      wopts.n_threads = cfg.max_threads;
      // Scans are ~100x the cost of a point op; shrink E's op count to
      // keep runtime flat across rows.
      wopts.ops_per_thread =
          mix == YcsbMix::kE ? std::max<size_t>(1, cfg.ops_per_thread / 20)
                             : cfg.ops_per_thread;
      const WorkloadResult r = RunYcsb(&index, data.keys, data.pool, wopts);
      index.WaitForDrains();
      mix_table.AddRow({YcsbMixName(mix), dist,
                        TablePrinter::FormatDouble(r.mops, 2),
                        Ns(r.read.p999_ns), Ns(r.insert.p999_ns),
                        Ns(r.scan.p99_ns)});
      rows.push_back(
          ResultRow("all_mixes", "sharded_dpgm", mix, dist,
                    cfg.max_threads, r));
      if (mix == YcsbMix::kD && theta == 0.0) {
        d_p50 = r.insert.p50_ns;
        d_p999 = r.insert.p999_ns;
      }
    }
  }
  mix_table.Print();

  // ---- Section 3: inner-index comparison + global-lock baseline ----
  std::printf("\nEngine comparison, YCSB-A and YCSB-C, %zu threads:\n",
              cfg.max_threads);
  TablePrinter engine_table({"engine", "mix", "Mops/s", "read p999us",
                             "ins p999us"});
  const auto run_engine = [&](const std::string& name, auto&& make,
                              YcsbMix mix) {
    auto index = make();
    WorkloadOptions wopts;
    wopts.mix = mix;
    wopts.zipf_theta = 0.0;
    wopts.n_threads = cfg.max_threads;
    wopts.ops_per_thread = cfg.ops_per_thread;
    const WorkloadResult r = RunYcsb(index.get(), data.keys, data.pool, wopts);
    engine_table.AddRow({name, YcsbMixName(mix),
                         TablePrinter::FormatDouble(r.mops, 2),
                         Ns(r.read.p999_ns), Ns(r.insert.p999_ns)});
    rows.push_back(
        ResultRow("engines", name, mix, "uniform", cfg.max_threads, r));
  };
  for (const YcsbMix mix : {YcsbMix::kC, YcsbMix::kA}) {
    run_engine("sharded_dpgm", [&] {
      return MakeSharded<DynamicPgm<uint64_t, uint64_t>>(cfg, data);
    }, mix);
    run_engine("sharded_alex", [&] {
      return MakeSharded<AlexIndex<uint64_t, uint64_t>>(cfg, data);
    }, mix);
    run_engine("sharded_lipp", [&] {
      return MakeSharded<LippIndex<uint64_t, uint64_t>>(cfg, data);
    }, mix);
    run_engine("sharded_btree", [&] {
      return MakeSharded<BPlusTree<uint64_t, uint64_t>>(cfg, data);
    }, mix);
    // XIndex's shape over frozen PGM snapshots: 64 shards, a 1024-entry
    // delta per shard merged into a fresh PGM on the writer.
    run_engine("sharded_pgm_xindex", [&] {
      using XIndex = ShardedIndex<PgmIndex<uint64_t, uint64_t>>;
      XIndex::Options opts;
      opts.num_shards = 64;
      opts.buffer_capacity = 1024;
      opts.rebuild_min_delta = 1024;
      opts.rebuild_fraction = 0;
      opts.background_drain = false;
      auto index = std::make_unique<XIndex>(opts);
      index->BulkLoad(data.keys, data.values);
      return index;
    }, mix);
    run_engine("global_lock_btree", [&] {
      auto index = std::make_unique<
          serving::GlobalLockIndex<BPlusTree<uint64_t, uint64_t>>>();
      std::vector<std::pair<uint64_t, uint64_t>> pairs(data.keys.size());
      for (size_t i = 0; i < data.keys.size(); ++i) {
        pairs[i] = {data.keys[i], data.values[i]};
      }
      index->underlying().BulkLoad(pairs);
      return index;
    }, mix);
  }
  engine_table.Print();

  // ---- Acceptance summary ----
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const double linear = c_uniform_max /
                        (c_uniform_1t * static_cast<double>(cfg.max_threads));
  const double stall_ratio = a_p50 > 0 ? a_p999 / a_p50 : 0.0;
  const double d_ratio = d_p50 > 0 ? d_p999 / d_p50 : 0.0;
  std::printf(
      "\nAcceptance: YCSB-C uniform scaling %.2fx linear at %zu threads "
      "(target >= 0.70); YCSB-A insert p999/p50 = %.1fx (target <= 10x; "
      "updates, in place)\n",
      linear, cfg.max_threads, stall_ratio);
  std::printf(
      "YCSB-D insert (fresh keys, delta path), uniform, %zu threads: "
      "p50 %.2f us, p999 %.2f us, p999/p50 = %.1fx\n",
      cfg.max_threads, d_p50 / 1e3, d_p999 / 1e3, d_ratio);
  if (cfg.max_threads > hw) {
    std::printf(
        "note: %zu threads oversubscribe %zu hardware thread(s); scaling and "
        "tail targets are only meaningful at <= hw threads\n",
        cfg.max_threads, hw);
  }

  bench::ReportJson(
      "e21", rows,
      {JsonField::Str("experiment", "sharded_serving_ycsb"),
       JsonField::Num("n_keys", cfg.n_keys),
       JsonField::Num("ops_per_thread", cfg.ops_per_thread),
       JsonField::Num("num_shards", cfg.num_shards),
       JsonField::Num("max_threads", cfg.max_threads),
       JsonField::Num("hw_concurrency", hw),
       JsonField::Num("read_scaling_x_linear", linear),
       JsonField::Num("ycsb_a_insert_p999_over_p50", stall_ratio),
       JsonField::Num("ycsb_d_insert_p50_ns", d_p50),
       JsonField::Num("ycsb_d_insert_p999_ns", d_p999),
       JsonField::Num("ycsb_d_insert_p999_over_p50", d_ratio)});
  return 0;
}
