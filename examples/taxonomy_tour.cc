// Taxonomy tour: one running instance of every branch of the tutorial's
// taxonomy (Figure 2), in the order the tutorial presents them. Each stop
// prints where the index sits in the taxonomy and a one-line proof of life.
//
//   $ ./build/examples/taxonomy_tour

#include <cstdio>
#include <string>
#include <vector>

#include "adapt/serving_adapter.h"
#include "common/random.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "lsm/lsm_tree.h"
#include "multi_d/airtree.h"
#include "multi_d/flood.h"
#include "multi_d/lisa.h"
#include "multi_d/ml_index.h"
#include "multi_d/qd_tree.h"
#include "multi_d/zm_index.h"
#include "one_d/alex.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/fiting_tree.h"
#include "one_d/hybrid_rmi.h"
#include "one_d/learned_bloom.h"
#include "one_d/learned_hash.h"
#include "one_d/lipp.h"
#include "one_d/pgm.h"
#include "one_d/radix_spline.h"
#include "one_d/rmi.h"
#include "one_d/string_index.h"
#include "serving/sharded_index.h"

namespace {

void Stop(const char* index, const char* taxonomy, const char* proof) {
  std::printf("%-16s %-58s %s\n", index, taxonomy, proof);
}

}  // namespace

int main() {
  using namespace lidx;
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 100'000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  const auto points =
      GeneratePoints(PointDistribution::kGaussianClusters, 100'000);
  const auto workload = GenerateRangeQueries(points, 32, 0.001);
  char proof[128];

  std::printf("%-16s %-58s %s\n", "index", "taxonomy position (Fig. 2)",
              "proof of life");
  std::printf("%s\n", std::string(110, '-').c_str());

  std::printf("--- Part 1: one-dimensional space ---\n");
  {
    Rmi<uint64_t, uint64_t> rmi;
    rmi.Build(keys, values);
    std::snprintf(proof, sizeof(proof), "Find(k[7])=%llu, %zu models",
                  (unsigned long long)*rmi.Find(keys[7]), rmi.num_models());
    Stop("RMI", "1-D / immutable / fixed layout / pure", proof);
  }
  {
    HybridRmi<uint64_t, uint64_t> hybrid;
    hybrid.Build(keys, values);
    std::snprintf(proof, sizeof(proof), "Find ok, %zu B-tree fallbacks",
                  hybrid.NumBtreePartitions());
    Stop("Hybrid-RMI", "1-D / immutable / fixed layout / hybrid (B-tree)",
         proof);
  }
  {
    RadixSpline<uint64_t, uint64_t> rs;
    rs.Build(keys, values);
    std::snprintf(proof, sizeof(proof), "single-pass build, %zu knots",
                  rs.NumKnots());
    Stop("RadixSpline", "1-D / immutable / fixed layout / pure", proof);
  }
  {
    PgmIndex<uint64_t, uint64_t> pgm;
    pgm.Build(keys, values);
    pgm.CheckEpsilonInvariant();
    std::snprintf(proof, sizeof(proof),
                  "eps-invariant verified, %zu segments", pgm.NumSegments());
    Stop("PGM-index", "1-D / immutable / fixed layout / pure (eps-bounded)",
         proof);
  }
  {
    DynamicPgm<uint64_t, uint64_t> dpgm;
    dpgm.BulkLoad(keys, values);
    dpgm.Insert(keys.back() + 17, 1);
    dpgm.Erase(keys[0]);
    std::snprintf(proof, sizeof(proof),
                  "insert+delete ok, %zu LSM-style components",
                  dpgm.NumComponents());
    Stop("Dynamic PGM", "1-D / mutable / fixed layout / pure / delta-buffer",
         proof);
  }
  {
    FitingTree<uint64_t, uint64_t> fiting;
    fiting.BulkLoad(keys, values);
    fiting.Insert(keys.back() + 19, 9);
    std::snprintf(proof, sizeof(proof),
                  "per-segment delta insert ok, %zu segments",
                  fiting.NumSegments());
    Stop("FITing-tree", "1-D / mutable / fixed layout / pure / delta-buffer",
         proof);
  }
  {
    AlexIndex<uint64_t, uint64_t> alex;
    alex.BulkLoad(keys, values);
    alex.Insert(keys.back() + 21, 2);
    std::snprintf(proof, sizeof(proof),
                  "gapped-array insert ok, %zu data nodes",
                  alex.NumDataNodes());
    Stop("ALEX", "1-D / mutable / dynamic layout / pure / in-place", proof);
  }
  {
    LippIndex<uint64_t, uint64_t> lipp;
    lipp.BulkLoad(keys, values);
    lipp.Insert(keys.back() + 23, 3);
    std::snprintf(proof, sizeof(proof),
                  "precise-position lookup ok, depth %d", lipp.MaxDepth());
    Stop("LIPP", "1-D / mutable / dynamic layout / pure / in-place", proof);
  }
  {
    LearnedBloomFilter lbf;
    const auto negatives = GenerateKeys(KeyDistribution::kUniform, 20'000, 5);
    lbf.Build(keys, negatives);
    std::snprintf(proof, sizeof(proof),
                  "member check true, %zu keys in backup filter",
                  lbf.num_backup_keys());
    Stop("Learned Bloom", "1-D / hybrid (Bloom filter)", proof);
  }
  {
    LsmTree<uint64_t, uint64_t> lsm;
    for (size_t i = 0; i < 50'000; ++i) lsm.Put(keys[i], i);
    lsm.Flush();
    std::snprintf(proof, sizeof(proof), "Get ok across %zu learned runs",
                  lsm.NumRuns());
    Stop("BOURBON-LSM", "1-D / mutable / fixed layout / hybrid (LSM-tree)",
         proof);
  }
  {
    ShardedIndex<PgmIndex<uint64_t, uint64_t>>::Options opts;
    opts.num_shards = 64;
    opts.buffer_capacity = 1024;
    opts.rebuild_min_delta = 1024;
    opts.rebuild_fraction = 0;
    opts.background_drain = false;
    ShardedIndex<PgmIndex<uint64_t, uint64_t>> xindex(opts);
    xindex.BulkLoad(keys, values);
    xindex.Insert(keys.back() + 29, 4);
    std::snprintf(proof, sizeof(proof), "sharded reads+writes ok");
    Stop("XIndex-style", "1-D / mutable / concurrency-first (challenge 6.5)",
         proof);
  }
  {
    LearnedHashMap<uint64_t, uint64_t> lhash;
    lhash.BulkLoad(keys, values);
    std::snprintf(proof, sizeof(proof),
                  "order-preserving hash, load variance %.2f",
                  lhash.LoadVariance());
    Stop("Learned hash", "1-D / learned model replacing a hash function",
         proof);
  }
  {
    StringLearnedIndex<uint64_t> sindex;
    auto urls = GenerateStringKeys(StringKeyStyle::kUrls, 50'000);
    std::vector<uint64_t> url_vals(urls.size());
    for (size_t i = 0; i < urls.size(); ++i) url_vals[i] = i;
    const std::string probe = urls[123];
    sindex.Build(std::move(urls), std::move(url_vals));
    std::snprintf(proof, sizeof(proof),
                  "Find(url)=%llu, %zu-byte prefix stripped",
                  (unsigned long long)*sindex.Find(probe),
                  sindex.common_prefix_len());
    Stop("SIndex-lite", "1-D (string keys) / immutable / fixed layout / pure",
         proof);
  }
  {
    using Learned = ShardedIndex<Rmi<uint64_t, uint64_t>>;
    Learned::Options opts;
    opts.collect_shard_stats = true;
    Learned learned(opts);
    learned.BulkLoad(keys, values);
    for (size_t i = 0; i < keys.size(); i += 97) learned.Find(keys[i]);
    ShardedAdaptor<Learned>::Options adapt;
    adapt.controller = AdaptController::Options();  // Position units.
    ShardedAdaptor<Learned> adaptor(&learned, adapt);
    const AdaptDecision decision = adaptor.Tick();
    std::snprintf(proof, sizeof(proof),
                  "error monitor armed (%llu reads sensed, decision: %s)",
                  static_cast<unsigned long long>(
                      learned.TakeShardStats().reads.TotalOps()),
                  AdaptActionName(decision.action));
    Stop("Sharded RMI", "1-D / model re-training loop (challenge 6.3)",
         proof);
  }

  std::printf("--- Part 2: multi-dimensional space ---\n");
  {
    ZmIndex<2> zm;
    zm.Build(points);
    std::snprintf(proof, sizeof(proof),
                  "BIGMIN range scan ok, %zu PLA segments", zm.NumSegments());
    Stop("ZM-index", "multi-D / immutable / pure / projected (Z-order)",
         proof);
  }
  {
    FloodIndex flood;
    flood.Build(points, workload);
    std::snprintf(proof, sizeof(proof), "self-tuned to %zu columns",
                  flood.NumColumns());
    Stop("Flood", "multi-D / immutable / pure / native space", proof);
  }
  {
    MlIndex ml;
    ml.Build(points);
    const auto knn = ml.Knn({0.5, 0.5}, 3);
    std::snprintf(proof, sizeof(proof), "kNN(3) returned %zu ids",
                  knn.size());
    Stop("ML-index", "multi-D / immutable / pure / projected (iDistance)",
         proof);
  }
  {
    LisaIndex lisa;
    lisa.Build(points);
    lisa.Insert({0.31, 0.62}, 999999);
    std::snprintf(proof, sizeof(proof), "in-place insert ok, %zu shards",
                  lisa.NumShards());
    Stop("LISA", "multi-D / mutable / dynamic layout / pure / in-place",
         proof);
  }
  {
    AiRTree air;
    air.BulkLoad(points);
    air.FindExact(points[0]);
    std::snprintf(proof, sizeof(proof),
                  "learned leaf routing ok (%llu fallbacks)",
                  (unsigned long long)air.fallbacks());
    Stop("AI+R-tree", "multi-D / mutable / fixed layout / hybrid (R-tree)",
         proof);
  }
  {
    ZmIndex<3> zm3;
    std::vector<Point3D> pts3;
    Rng rng3(77);
    for (int i = 0; i < 50000; ++i) {
      pts3.push_back({rng3.NextDouble(), rng3.NextDouble(),
                      rng3.NextDouble()});
    }
    zm3.Build(pts3);
    const auto hits = zm3.RangeQuery({0.4, 0.4, 0.4, 0.6, 0.6, 0.6});
    std::snprintf(proof, sizeof(proof),
                  "3-D BIGMIN box query returned %zu points", hits.size());
    Stop("ZM-index (3-D)", "multi-D (3-D) / immutable / pure / projected",
         proof);
  }
  {
    QdTree qd;
    qd.Build(points, workload);
    const auto result = qd.RangeQuery(workload[0]);
    std::snprintf(proof, sizeof(proof),
                  "workload-aware layout: %zu of %zu blocks scanned",
                  result.blocks_scanned, qd.NumLeaves());
    Stop("Qd-tree", "multi-D / immutable / layout learning / native space",
         proof);
  }
  return 0;
}
