// E18 — Parallel build & compaction: the shared thread pool wired through
// every index's build path.
//
// Claim under test (tutorial §4.1, §5.6 build-cost discussions): learned-
// index construction is dominated by embarrassingly parallel work — sort,
// per-segment/per-model training, subtree bulk-loading, k-way merge — so a
// fixed-size worker pool should scale builds near-linearly until memory
// bandwidth saturates (target: >= 3x at 8 threads for RMI / RadixSpline /
// ZM on 10M lognormal keys, measured on a host with >= 8 hardware threads;
// single-core hosts still run the full sweep and report ~1x, which is the
// honest number there — see EXPERIMENTS.md E18).
//
// Every parallel build is checked against the serial build before timing
// is reported: lookups must agree on a sample and structural invariants
// must hold, so a speedup can never come from building a different (or
// broken) index.
//
// Usage: bench_e18_parallel_build [num_keys]   (default 10M; CI smoke: 1000)

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/btree.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "lsm/lsm_tree.h"
#include "multi_d/flood.h"
#include "multi_d/zm_index.h"
#include "one_d/alex.h"
#include "one_d/pgm.h"
#include "one_d/radix_spline.h"
#include "one_d/rmi.h"

namespace lidx {
namespace {

const std::vector<size_t> kThreadSweep = {1, 2, 4, 8, 16};

struct Row {
  std::string index;
  size_t threads;
  double build_ms;
  double speedup;  // serial_ms / build_ms.
};

std::vector<bench::JsonRow> g_json;

void Record(std::vector<Row>* rows, const std::string& index, size_t threads,
            double build_ms, double serial_ms) {
  const double speedup = build_ms > 0.0 ? serial_ms / build_ms : 0.0;
  rows->push_back({index, threads, build_ms, speedup});
  g_json.push_back({bench::JsonField::Str("index", index),
                    bench::JsonField::Num("threads", threads),
                    bench::JsonField::Num("build_ms", build_ms),
                    bench::JsonField::Num("speedup", speedup)});
}

// Sweeps the thread counts for one index. `build(threads)` constructs the
// index and returns it; `probe(index, key)` returns the lookup result used
// for the serial-vs-parallel agreement check; `check(index)` runs the
// structural invariant hook (pass a no-op when the type has none).
template <typename BuildFn, typename ProbeFn, typename CheckFn>
void Sweep(const std::string& name, const std::vector<uint64_t>& probe_keys,
           BuildFn build, ProbeFn probe, CheckFn check,
           std::vector<Row>* rows) {
  double serial_ms = 0.0;
  auto reference = build(size_t{1});
  std::vector<decltype(probe(reference, uint64_t{0}))> expected;
  expected.reserve(probe_keys.size());
  for (uint64_t k : probe_keys) expected.push_back(probe(reference, k));
  for (size_t threads : kThreadSweep) {
    decltype(build(threads)) index;
    const double ms = bench::MeasureMs([&] { index = build(threads); });
    check(index);
    for (size_t i = 0; i < probe_keys.size(); ++i) {
      if (probe(index, probe_keys[i]) != expected[i]) {
        std::fprintf(stderr, "E18: %s at %zu threads disagrees with serial\n",
                     name.c_str(), threads);
        std::exit(1);
      }
    }
    if (threads == 1) serial_ms = ms;
    Record(rows, name, threads, ms, serial_ms);
  }
}

void RunOneDim(const bench::Dataset1D& data, std::vector<Row>* rows) {
  Rng rng(7);
  std::vector<uint64_t> probes(std::min<size_t>(data.keys.size(), 1000));
  for (uint64_t& p : probes) p = data.keys[rng.NextBounded(data.keys.size())];

  Sweep(
      "rmi", probes,
      [&](size_t threads) {
        Rmi<uint64_t, uint64_t> index;
        typename Rmi<uint64_t, uint64_t>::Options opts;
        opts.build_threads = threads;
        index.Build(data.keys, data.values, opts);
        return index;
      },
      [](const Rmi<uint64_t, uint64_t>& ix, uint64_t k) {
        return ix.Find(k).value_or(0);
      },
      [](const Rmi<uint64_t, uint64_t>& ix) { ix.CheckInvariants(); }, rows);

  Sweep(
      "pgm", probes,
      [&](size_t threads) {
        PgmIndex<uint64_t, uint64_t> index;
        typename PgmIndex<uint64_t, uint64_t>::Options opts;
        opts.build_threads = threads;
        index.Build(data.keys, data.values, opts);
        return index;
      },
      [](const PgmIndex<uint64_t, uint64_t>& ix, uint64_t k) {
        return ix.Find(k).value_or(0);
      },
      [](const PgmIndex<uint64_t, uint64_t>& ix) { ix.CheckInvariants(); },
      rows);

  Sweep(
      "radix-spline", probes,
      [&](size_t threads) {
        RadixSpline<uint64_t, uint64_t> index;
        typename RadixSpline<uint64_t, uint64_t>::Options opts;
        opts.build_threads = threads;
        index.Build(data.keys, data.values, opts);
        return index;
      },
      [](const RadixSpline<uint64_t, uint64_t>& ix, uint64_t k) {
        return ix.Find(k).value_or(0);
      },
      [](const RadixSpline<uint64_t, uint64_t>& ix) { ix.CheckInvariants(); },
      rows);

  Sweep(
      "alex", probes,
      [&](size_t threads) {
        typename AlexIndex<uint64_t, uint64_t>::Options opts;
        opts.build_threads = threads;
        auto index = std::make_shared<AlexIndex<uint64_t, uint64_t>>(opts);
        index->BulkLoad(data.keys, data.values);
        return index;
      },
      [](const std::shared_ptr<AlexIndex<uint64_t, uint64_t>>& ix,
         uint64_t k) { return ix->Find(k).value_or(0); },
      [](const std::shared_ptr<AlexIndex<uint64_t, uint64_t>>& ix) {
        ix->CheckInvariants();
      },
      rows);

  const auto pairs = bench::ToPairs(data);
  Sweep(
      "b+tree", probes,
      [&](size_t threads) {
        auto tree = std::make_shared<BPlusTree<uint64_t, uint64_t>>();
        tree->BulkLoad(pairs, /*fill_factor=*/1.0, threads);
        return tree;
      },
      [](const std::shared_ptr<BPlusTree<uint64_t, uint64_t>>& t,
         uint64_t k) { return t->Find(k).value_or(0); },
      [](const std::shared_ptr<BPlusTree<uint64_t, uint64_t>>& t) {
        t->CheckInvariants();
      },
      rows);
}

void RunMultiDim(size_t n, std::vector<Row>* rows) {
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, n, 3333);
  Rng rng(13);
  std::vector<uint64_t> probe_ids(std::min<size_t>(n, 500));
  for (uint64_t& p : probe_ids) p = rng.NextBounded(points.size());

  Sweep(
      "zm-index", probe_ids,
      [&](size_t threads) {
        auto index = std::make_shared<ZmIndex<2>>();
        ZmIndex<2>::Options opts;
        opts.build_threads = threads;
        index->Build(points, opts);
        return index;
      },
      [&](const std::shared_ptr<ZmIndex<2>>& ix, uint64_t id) {
        const auto hits = ix->FindExact(points[id]);
        uint64_t sum = hits.size();
        for (uint32_t h : hits) sum += h;
        return sum;
      },
      [](const std::shared_ptr<ZmIndex<2>>&) {}, rows);

  Sweep(
      "flood", probe_ids,
      [&](size_t threads) {
        auto index = std::make_shared<FloodIndex>();
        FloodIndex::Options opts;
        opts.num_columns = 64;
        opts.build_threads = threads;
        index->Build(points, {}, opts);
        return index;
      },
      [&](const std::shared_ptr<FloodIndex>& ix, uint64_t id) {
        const auto hits = ix->FindExact(points[id]);
        uint64_t sum = hits.size();
        for (uint32_t h : hits) sum += h;
        return sum;
      },
      [](const std::shared_ptr<FloodIndex>&) {}, rows);

  std::vector<Point3D> points3(points.size());
  Rng rng3(17);
  for (size_t i = 0; i < points.size(); ++i) {
    points3[i] = {points[i].x, points[i].y,
                  static_cast<double>(rng3.NextBounded(1u << 20)) /
                      static_cast<double>(1u << 20)};
  }
  Sweep(
      "zm-index-3d", probe_ids,
      [&](size_t threads) {
        auto index = std::make_shared<ZmIndex<3>>();
        ZmIndex<3>::Options opts;
        opts.build_threads = threads;
        index->Build(points3, opts);
        return index;
      },
      [&](const std::shared_ptr<ZmIndex<3>>& ix, uint64_t id) {
        const auto hits = ix->FindExact(points3[id]);
        uint64_t sum = hits.size();
        for (uint32_t h : hits) sum += h;
        return sum;
      },
      [](const std::shared_ptr<ZmIndex<3>>&) {}, rows);
}

// LSM: compaction-thread sweep on a Put-then-Flush workload, plus the
// background-compaction latency experiment (the insert-stall fix).
void RunLsm(size_t n, std::vector<Row>* rows) {
  const auto keys =
      GenerateKeys(KeyDistribution::kLognormal, std::min<size_t>(n, 400'000),
                   909);

  double serial_ms = 0.0;
  for (size_t threads : kThreadSweep) {
    LsmTree<uint64_t, uint64_t>::Options opts;
    opts.memtable_limit = 4096;
    opts.compaction_threads = threads;
    LsmTree<uint64_t, uint64_t> lsm(opts);
    const double ms = bench::MeasureMs([&] {
      for (size_t i = 0; i < keys.size(); ++i) lsm.Put(keys[i], i);
      lsm.Flush();
    });
    lsm.CheckInvariants();
    if (threads == 1) serial_ms = ms;
    Record(rows, "lsm-load", threads, ms, serial_ms);
  }

  // Put-latency tails: synchronous vs. background compaction. The whole
  // point of the background mode is that the slowest Put no longer pays
  // for a multi-level merge.
  std::printf("\n-- LSM put latency (%zu puts, memtable 4096) --\n",
              keys.size());
  std::printf("%-12s %12s %12s %12s\n", "mode", "p50_ns", "p99_ns", "max_ns");
  for (const bool background : {false, true}) {
    LsmTree<uint64_t, uint64_t>::Options opts;
    opts.memtable_limit = 4096;
    opts.background_compaction = background;
    LsmTree<uint64_t, uint64_t> lsm(opts);
    std::vector<double> lat;
    lat.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      Timer t;
      lsm.Put(keys[i], i);
      lat.push_back(static_cast<double>(t.ElapsedNanos()));
    }
    lsm.WaitForCompactions();
    lsm.CheckInvariants();
    const double p50 = bench::Percentile(&lat, 50);
    const double p99 = bench::Percentile(&lat, 99);
    const double mx = bench::Percentile(&lat, 100);
    const char* mode = background ? "background" : "sync";
    std::printf("%-12s %12.0f %12.0f %12.0f\n", mode, p50, p99, mx);
    g_json.push_back({bench::JsonField::Str("index", "lsm-put-latency"),
                      bench::JsonField::Str("mode", mode),
                      bench::JsonField::Num("p50_ns", p50),
                      bench::JsonField::Num("p99_ns", p99),
                      bench::JsonField::Num("max_ns", mx)});
  }
}

}  // namespace
}  // namespace lidx

int main(int argc, char** argv) {
  using namespace lidx;
  const size_t n = argc > 1
                       ? static_cast<size_t>(std::strtoull(argv[1], nullptr, 10))
                       : 10'000'000;
  bench::PrintHeader(
      "E18: parallel build & compaction (" + std::to_string(n) +
          " lognormal keys; threads 1/2/4/8/16)",
      "sort/train/merge-dominated builds scale with a shared worker pool; "
      "parallel builds are checked equivalent to serial before timing "
      "counts");
  std::printf("hardware threads on this host: %zu (pool size %zu)\n",
              static_cast<size_t>(std::thread::hardware_concurrency()),
              ThreadPool::Shared().num_threads());

  const bench::Dataset1D data =
      bench::MakeDataset1D(KeyDistribution::kLognormal, n, 4242);
  std::vector<Row> rows;
  RunOneDim(data, &rows);
  RunMultiDim(std::max<size_t>(n / 4, std::min<size_t>(n, 1000)), &rows);
  RunLsm(n, &rows);

  TablePrinter table({"index", "threads", "build_ms", "speedup"});
  for (const Row& r : rows) {
    table.AddRow({r.index, std::to_string(r.threads),
                  TablePrinter::FormatDouble(r.build_ms, 1),
                  TablePrinter::FormatDouble(r.speedup, 2) + "x"});
  }
  table.Print();

  bench::ReportJson(
      "e18_parallel_build", g_json,
      {bench::JsonField::Num("num_keys", n),
       bench::JsonField::Num(
           "hardware_threads",
           static_cast<size_t>(std::thread::hardware_concurrency()))});
  return 0;
}
