// A small key-value store on the library's LSM-tree, with BOURBON-style
// learned indexes inside every immutable run — the "practical systems
// integration" story from tutorial §5.6.
//
// Runs a YCSB-flavoured session (load, then a read-mostly mix with scans)
// and prints what the learned run indexes saved.
//
//   $ ./build/examples/kv_store

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "lsm/lsm_tree.h"

namespace {

using Store = lidx::LsmTree<uint64_t, uint64_t>;

double RunSession(Store* store, const std::vector<lidx::Operation>& ops,
                  lidx::LsmStats* stats) {
  uint64_t sink = 0;
  lidx::Timer timer;
  std::vector<std::pair<uint64_t, uint64_t>> scan_buffer;
  for (const lidx::Operation& op : ops) {
    switch (op.type) {
      case lidx::OpType::kRead:
        sink += store->Get(op.key, stats).value_or(0);
        break;
      case lidx::OpType::kInsert:
      case lidx::OpType::kUpdate:
        store->Put(op.key, op.key ^ 0xFF);
        break;
      case lidx::OpType::kScan:
        scan_buffer.clear();
        store->RangeScan(op.key, op.key + 1'000'000, &scan_buffer);
        sink += scan_buffer.size();
        break;
      case lidx::OpType::kErase:
        store->Delete(op.key);
        break;
    }
  }
  lidx::DoNotOptimize(sink);
  return timer.ElapsedSeconds();
}

}  // namespace

int main() {
  using namespace lidx;

  const auto keys = GenerateKeys(KeyDistribution::kUniform, 1'000'000);
  const auto extra = GenerateKeys(KeyDistribution::kUniform, 200'000, 99);

  // YCSB-B-like: 95% reads (zipfian), 4% updates, 1% scans.
  MixedWorkloadSpec spec;
  spec.read_fraction = 0.95;
  spec.insert_fraction = 0.00;
  spec.update_fraction = 0.04;
  spec.scan_fraction = 0.01;
  spec.zipf_theta = 0.9;
  const auto session = GenerateMixedWorkload(spec, 200'000, keys, extra);

  TablePrinter table({"run_search", "load_s", "session_s", "runs",
                      "steps/probe", "model_bytes"});
  for (const RunSearchMode mode :
       {RunSearchMode::kBinarySearch, RunSearchMode::kLearned}) {
    Store::Options options;
    options.memtable_limit = 32 * 1024;
    options.search_mode = mode;
    Store store(options);

    Timer load_timer;
    for (size_t i = 0; i < keys.size(); ++i) store.Put(keys[i], i);
    store.Flush();
    const double load_s = load_timer.ElapsedSeconds();

    LsmStats stats;
    const double session_s = RunSession(&store, session, &stats);
    const double steps =
        static_cast<double>(stats.search_steps) /
        static_cast<double>(stats.run_probes ? stats.run_probes : 1);
    table.AddRow({mode == RunSearchMode::kLearned ? "learned (BOURBON)"
                                                  : "binary search",
                  TablePrinter::FormatDouble(load_s, 2),
                  TablePrinter::FormatDouble(session_s, 2),
                  std::to_string(store.NumRuns()),
                  TablePrinter::FormatDouble(steps, 1),
                  TablePrinter::FormatBytes(store.ModelSizeBytes())});
  }
  table.Print();
  return 0;
}
