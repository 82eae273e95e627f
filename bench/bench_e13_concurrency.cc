// E13 — Concurrency: XIndex-style concurrent learned index vs a
// mutex-wrapped B+-tree, on the shared YCSB driver.
//
// Tutorial claim (§6.5): concurrency is an open challenge for learned
// indexes; XIndex-style designs show that a static learned top layer plus
// per-shard deltas gives lock-free routing and shard-local writer
// contention, so read-mostly workloads scale with threads while a single
// global lock does not. The XIndex-style index is ShardedIndex over frozen
// PGM snapshots in XIndex's shape: 64 shards, a 1024-entry delta per shard
// merged into a fresh PGM on the writer. Absolute scaling is bounded by
// the host's cores; the shape to check is the gap between the learned
// index and the globally locked baseline as thread count grows.
//
// E13 and E21 share src/serving/workload.h (mix definitions, per-op
// latency capture) and the BENCH_* JSON row schema, so their numbers
// compare directly: this experiment sweeps threads over the XIndex shape,
// E21 compares inner indexes and shard settings at a fixed thread count.
//
// Usage: bench_e13_concurrency [n_keys] [ops_per_thread] [max_threads]

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/btree.h"
#include "bench_util.h"
#include "common/stats.h"
#include "one_d/pgm.h"
#include "serving/sharded_index.h"
#include "serving/workload.h"

namespace lidx {
namespace {

using bench::JsonField;
using bench::JsonRow;
using serving::GlobalLockIndex;
using serving::RunYcsb;
using serving::WorkloadOptions;
using serving::WorkloadResult;
using serving::YcsbMix;
using serving::YcsbMixName;

std::string Us(double ns) { return TablePrinter::FormatDouble(ns / 1e3, 1); }

JsonRow ResultRow(const std::string& engine, YcsbMix mix, size_t threads,
                  const WorkloadResult& r) {
  return JsonRow{
      JsonField::Str("engine", engine),
      JsonField::Str("mix", YcsbMixName(mix)),
      JsonField::Str("dist", "uniform"),
      JsonField::Num("threads", threads),
      JsonField::Num("mops", r.mops),
      JsonField::Num("read_p50_ns", r.read.p50_ns),
      JsonField::Num("read_p99_ns", r.read.p99_ns),
      JsonField::Num("read_p999_ns", r.read.p999_ns),
      JsonField::Num("insert_p50_ns", r.insert.p50_ns),
      JsonField::Num("insert_p99_ns", r.insert.p99_ns),
      JsonField::Num("insert_p999_ns", r.insert.p999_ns),
      JsonField::Num("found", r.found),
  };
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  size_t n_keys = 1'000'000;
  size_t ops_per_thread = 200'000;
  size_t max_threads = std::max(1u, std::thread::hardware_concurrency());
  if (argc > 1) n_keys = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) ops_per_thread = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) max_threads = std::strtoull(argv[3], nullptr, 10);

  bench::PrintHeader(
      "E13 - Concurrency: concurrent learned index vs global-lock B+-tree",
      "per-shard deltas + lock-free frozen reads scale with threads; a "
      "global lock does not");

  // Same data recipe as E21: lognormal keys, inserts interleaved in key
  // space via a peeled-off pool.
  const size_t pool_size = ops_per_thread * max_threads / 2 + 64 * max_threads;
  bench::Dataset1D all =
      bench::MakeDataset1D(KeyDistribution::kLognormal, n_keys + pool_size,
                           42, bench::ValueScheme::kHashed);
  std::vector<uint64_t> keys, values, pool;
  keys.reserve(n_keys);
  values.reserve(n_keys);
  pool.reserve(pool_size);
  const size_t stride = (n_keys + pool_size) / pool_size;
  for (size_t i = 0; i < all.keys.size(); ++i) {
    if (i % stride == stride - 1 && pool.size() < pool_size) {
      pool.push_back(all.keys[i]);
    } else {
      keys.push_back(all.keys[i]);
      values.push_back(all.values[i]);
    }
  }
  std::printf("keys=%zu ops/thread=%zu max_threads=%zu\n", keys.size(),
              ops_per_thread, max_threads);

  std::vector<size_t> sweep;
  for (size_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);

  std::vector<JsonRow> rows;
  TablePrinter table({"engine", "mix", "threads", "Mops/s", "read p50us",
                      "read p999us", "ins p999us"});
  // A = update-heavy (worst case for the global lock), B = read-mostly
  // (the XIndex sweet spot), C = read-only (pure scaling).
  for (const YcsbMix mix : {YcsbMix::kC, YcsbMix::kB, YcsbMix::kA}) {
    for (const size_t threads : sweep) {
      WorkloadOptions wopts;
      wopts.mix = mix;
      wopts.zipf_theta = 0.0;
      wopts.n_threads = threads;
      wopts.ops_per_thread = ops_per_thread;
      {
        ShardedIndex<PgmIndex<uint64_t, uint64_t>>::Options opts;
        opts.num_shards = 64;
        opts.buffer_capacity = 1024;
        opts.rebuild_min_delta = 1024;
        opts.rebuild_fraction = 0;
        opts.background_drain = false;
        ShardedIndex<PgmIndex<uint64_t, uint64_t>> index(opts);
        index.BulkLoad(keys, values);
        const WorkloadResult r = RunYcsb(&index, keys, pool, wopts);
        table.AddRow({"sharded_pgm_xindex", YcsbMixName(mix),
                      std::to_string(threads),
                      TablePrinter::FormatDouble(r.mops, 2),
                      Us(r.read.p50_ns), Us(r.read.p999_ns),
                      Us(r.insert.p999_ns)});
        rows.push_back(ResultRow("sharded_pgm_xindex", mix, threads, r));
      }
      {
        GlobalLockIndex<BPlusTree<uint64_t, uint64_t>> baseline;
        std::vector<std::pair<uint64_t, uint64_t>> pairs(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          pairs[i] = {keys[i], values[i]};
        }
        baseline.underlying().BulkLoad(pairs);
        const WorkloadResult r = RunYcsb(&baseline, keys, pool, wopts);
        table.AddRow({"global_lock_btree", YcsbMixName(mix),
                      std::to_string(threads),
                      TablePrinter::FormatDouble(r.mops, 2),
                      Us(r.read.p50_ns), Us(r.read.p999_ns),
                      Us(r.insert.p999_ns)});
        rows.push_back(ResultRow("global_lock_btree", mix, threads, r));
      }
    }
  }
  table.Print();

  bench::ReportJson("e13", rows,
                    {JsonField::Str("experiment", "concurrency_ycsb"),
                     JsonField::Num("n_keys", n_keys),
                     JsonField::Num("ops_per_thread", ops_per_thread),
                     JsonField::Num("max_threads", max_threads)});
  return 0;
}
