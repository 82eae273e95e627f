// Operating a learned index in production: the two lifecycle concerns the
// tutorial's challenges section raises, demonstrated end to end.
//
//  1. Model re-training (§6.3): an under-provisioned model is detected
//     from its own observed lookup errors, and the adaptation loop
//     (src/adapt/) re-cuts the index into more, smaller learned shards on
//     the adaptor's own background thread — no operator involved, no
//     lookup ever blocks on training.
//  2. Build-offline / serve-online: the tuned index's immutable core is
//     serialized, "shipped", and restored byte-exactly on the serving
//     side.
//
//   $ ./build/examples/self_tuning

#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "adapt/serving_adapter.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "datasets/generators.h"
#include "one_d/rmi.h"
#include "serving/sharded_index.h"

namespace {

constexpr size_t kModelsPerShard = 4;

// A deliberately tiny model: every shard's RMI trains 4 stage-2 models.
struct TinyRmi : lidx::Rmi<uint64_t, uint64_t> {
  void Build(std::vector<uint64_t> keys, std::vector<uint64_t> values) {
    Rmi::Options options;
    options.num_models = kModelsPerShard;
    Rmi::Build(std::move(keys), std::move(values), options);
  }
};

// Mean observed position error over one window of every shard's reads.
double MeanError(const lidx::ErrorMonitor::Snapshot& window) {
  uint64_t ops = 0;
  uint64_t sum = 0;
  for (const auto& seg : window.segments) {
    ops += seg.ops;
    sum += seg.error_sum;
  }
  return ops == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(ops);
}

}  // namespace

int main() {
  using namespace lidx;

  // A hard distribution with a deliberately tiny starting model: one shard
  // of 4 stage-2 models for 500K clustered keys.
  const auto keys = GenerateKeys(KeyDistribution::kClustered, 500'000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;

  using Index = ShardedIndex<TinyRmi>;
  Index::Options options;
  options.num_shards = 1;
  options.collect_shard_stats = true;
  Index index(options);
  index.BulkLoad(keys, values);

  // The adaptor reads position errors, so its controller runs at the
  // position-unit defaults; its own thread ticks it every 5 ms. The load
  // never drops, so the loop only grows.
  ShardedAdaptor<Index>::Options adapt;
  adapt.controller = AdaptController::Options();
  adapt.controller.allow_rebalance = false;
  adapt.controller.allow_shrink = false;
  adapt.drift = ModelDriftDetector::Options();
  adapt.max_shards = 4096;
  adapt.tick_period = std::chrono::milliseconds(5);
  ShardedAdaptor<Index> adaptor(&index, adapt);
  adaptor.Start();
  std::printf("initial: %zu models\n", index.num_shards() * kModelsPerShard);

  // Serve lookups; the adaptor watches observed errors and splits the
  // index into more learned shards whenever the tail error is too high.
  Rng rng(2026);
  uint64_t sink = 0;
  for (int phase = 1; phase <= 4; ++phase) {
    const Index::ShardStatsSnapshot before = index.TakeShardStats();
    Timer timer;
    constexpr int kPhaseOps = 300'000;
    for (int i = 0; i < kPhaseOps; ++i) {
      sink += index.Find(keys[rng.NextBounded(keys.size())]).value_or(0);
    }
    const double ns = timer.ElapsedSeconds() * 1e9 / kPhaseOps;
    const Index::ShardStatsSnapshot after = index.TakeShardStats();
    const ErrorMonitor::Snapshot window =
        after.table_version == before.table_version
            ? after.reads.DeltaSince(before.reads)
            : after.reads;
    std::printf(
        "phase %d: %.0f ns/lookup | %zu models, mean error %.1f, "
        "%llu re-cut(s) so far\n",
        phase, ns, after.reads.segments.size() * kModelsPerShard,
        MeanError(window),
        static_cast<unsigned long long>(index.GetStats().rebalances));
  }
  adaptor.Stop();
  DoNotOptimize(sink);

  // Ship the tuned model: serialize the immutable core, restore it, and
  // verify the replica answers identically.
  Rmi<uint64_t, uint64_t> tuned;
  Rmi<uint64_t, uint64_t>::Options tuned_opts;
  tuned_opts.num_models = index.num_shards() * kModelsPerShard;
  tuned.Build(keys, values, tuned_opts);
  std::stringstream shipped;
  tuned.SaveTo(shipped);
  std::printf("serialized tuned index: %s\n",
              TablePrinter::FormatBytes(shipped.str().size()).c_str());

  Rmi<uint64_t, uint64_t> replica;
  if (!replica.LoadFrom(shipped)) {
    std::printf("load failed!\n");
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < keys.size(); i += 997) {
    if (replica.Find(keys[i]) != tuned.Find(keys[i])) ++mismatches;
  }
  std::printf("replica verified: %zu mismatches across sampled lookups\n",
              mismatches);
  return mismatches == 0 ? 0 : 1;
}
