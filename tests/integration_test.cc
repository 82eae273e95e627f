// Integration tests: several independent index implementations drive the
// SAME workload side by side and must agree with each other (and with a
// reference model) at every checkpoint. This catches cross-cutting bugs a
// per-index unit test cannot: divergent duplicate-key semantics, deletion
// visibility, and range-scan boundary conventions.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/btree.h"
#include "common/random.h"
#include "datasets/generators.h"
#include "datasets/workload.h"
#include "lsm/lsm_tree.h"
#include "multi_d/lisa.h"
#include "one_d/alex.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/fiting_tree.h"
#include "one_d/lipp.h"
#include "one_d/pgm.h"
#include "serving/sharded_index.h"
#include "spatial/grid.h"
#include "spatial/quadtree.h"
#include "spatial/rtree.h"

namespace lidx {
namespace {

// ----- One-dimensional: five mutable indexes against std::map -----

TEST(IntegrationTest, AllMutable1DIndexesAgreeUnderMixedWorkload) {
  BPlusTree<uint64_t, uint64_t> btree;
  AlexIndex<uint64_t, uint64_t> alex;
  LippIndex<uint64_t, uint64_t> lipp;
  DynamicPgm<uint64_t, uint64_t> dpgm;
  FitingTree<uint64_t, uint64_t> fiting;
  std::map<uint64_t, uint64_t> ref;

  // Start from a common bulk load.
  const auto initial = GenerateKeys(KeyDistribution::kLognormal, 20000, 1061);
  std::vector<uint64_t> values(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) values[i] = i;
  {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (size_t i = 0; i < initial.size(); ++i) {
      pairs.emplace_back(initial[i], i);
    }
    btree.BulkLoad(pairs);
  }
  alex.BulkLoad(initial, values);
  lipp.BulkLoad(initial, values);
  dpgm.BulkLoad(initial, values);
  fiting.BulkLoad(initial, values);
  for (size_t i = 0; i < initial.size(); ++i) ref[initial[i]] = i;

  Rng rng(1063);
  auto check_key = [&](uint64_t key) {
    const auto expected = ref.find(key) == ref.end()
                              ? std::optional<uint64_t>()
                              : std::optional<uint64_t>(ref[key]);
    ASSERT_EQ(btree.Find(key), expected) << "btree key " << key;
    ASSERT_EQ(alex.Find(key), expected) << "alex key " << key;
    ASSERT_EQ(lipp.Find(key), expected) << "lipp key " << key;
    ASSERT_EQ(dpgm.Find(key), expected) << "dpgm key " << key;
    ASSERT_EQ(fiting.Find(key), expected) << "fiting key " << key;
  };

  for (int op = 0; op < 20000; ++op) {
    const uint64_t key =
        (rng.NextBounded(2) == 0)
            ? initial[rng.NextBounded(initial.size())]  // Existing-ish.
            : (rng.Next() >> 16);                       // Fresh-ish.
    switch (rng.NextBounded(3)) {
      case 0: {
        const uint64_t value = op;
        btree.Insert(key, value);
        alex.Insert(key, value);
        lipp.Insert(key, value);
        dpgm.Insert(key, value);
        fiting.Insert(key, value);
        ref[key] = value;
        break;
      }
      case 1:
        check_key(key);
        break;
      default: {
        const bool expected = ref.erase(key) > 0;
        ASSERT_EQ(btree.Erase(key), expected) << key;
        ASSERT_EQ(alex.Erase(key), expected) << key;
        ASSERT_EQ(lipp.Erase(key), expected) << key;
        ASSERT_EQ(dpgm.Erase(key), expected) << key;
        ASSERT_EQ(fiting.Erase(key), expected) << key;
      }
    }
    if (op % 5000 == 4999) {
      ASSERT_EQ(btree.size(), ref.size());
      ASSERT_EQ(alex.size(), ref.size());
      ASSERT_EQ(lipp.size(), ref.size());
      ASSERT_EQ(dpgm.size(), ref.size());
      ASSERT_EQ(fiting.size(), ref.size());
    }
  }

  // Final: full range scans must be byte-identical across all indexes.
  std::vector<std::pair<uint64_t, uint64_t>> expected_all(ref.begin(),
                                                          ref.end());
  auto check_scan = [&](auto& index, const char* name) {
    std::vector<std::pair<uint64_t, uint64_t>> got;
    index.RangeScan(0, UINT64_MAX, &got);
    ASSERT_EQ(got, expected_all) << name;
  };
  check_scan(btree, "btree");
  check_scan(alex, "alex");
  check_scan(lipp, "lipp");
  check_scan(dpgm, "dpgm");
  check_scan(fiting, "fiting");
}

// ----- Key-value stores: LSM vs concurrent index vs B+-tree -----

TEST(IntegrationTest, KvStoresAgreeUnderYcsbSession) {
  LsmTree<uint64_t, uint64_t>::Options lsm_opts;
  lsm_opts.memtable_limit = 512;
  lsm_opts.l0_run_limit = 3;
  LsmTree<uint64_t, uint64_t> lsm(lsm_opts);
  // XIndex-shaped concurrent index: 64 shards of frozen PGM, each with a
  // 128-entry delta drained inline.
  using XIndex = ShardedIndex<PgmIndex<uint64_t, uint64_t>>;
  XIndex::Options xindex_opts;
  xindex_opts.num_shards = 64;
  xindex_opts.buffer_capacity = 128;
  xindex_opts.rebuild_min_delta = 128;
  xindex_opts.rebuild_fraction = 0;
  xindex_opts.background_drain = false;
  XIndex xindex(xindex_opts);
  BPlusTree<uint64_t, uint64_t> btree;
  std::map<uint64_t, uint64_t> ref;

  const auto keys = GenerateKeys(KeyDistribution::kUniform, 5000, 1069);
  const auto pool = GenerateKeys(KeyDistribution::kClustered, 20000, 1087);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;
  xindex.BulkLoad(keys, values);
  for (size_t i = 0; i < keys.size(); ++i) {
    lsm.Put(keys[i], i);
    btree.Insert(keys[i], i);
    ref[keys[i]] = i;
  }

  MixedWorkloadSpec spec;
  spec.read_fraction = 0.5;
  spec.insert_fraction = 0.25;
  spec.update_fraction = 0.1;
  spec.erase_fraction = 0.15;
  spec.zipf_theta = 0.9;
  const auto ops = GenerateMixedWorkload(spec, 30000, keys, pool, 1091);

  for (const Operation& op : ops) {
    switch (op.type) {
      case OpType::kRead: {
        const auto expected = ref.find(op.key) == ref.end()
                                  ? std::optional<uint64_t>()
                                  : std::optional<uint64_t>(ref[op.key]);
        ASSERT_EQ(lsm.Get(op.key), expected) << op.key;
        ASSERT_EQ(xindex.Find(op.key), expected) << op.key;
        ASSERT_EQ(btree.Find(op.key), expected) << op.key;
        break;
      }
      case OpType::kInsert:
      case OpType::kUpdate: {
        const uint64_t value = op.key ^ 0xABCD;
        lsm.Put(op.key, value);
        xindex.Insert(op.key, value);
        btree.Insert(op.key, value);
        ref[op.key] = value;
        break;
      }
      case OpType::kErase:
        lsm.Delete(op.key);
        xindex.Erase(op.key);
        btree.Erase(op.key);
        ref.erase(op.key);
        break;
      case OpType::kScan:
        break;  // Not generated by this spec.
    }
  }

  // Final range-scan agreement over a few windows.
  Rng rng(1093);
  for (int trial = 0; trial < 10; ++trial) {
    const uint64_t lo = rng.Next() >> 13;
    const uint64_t hi = lo + (rng.Next() >> 22);
    std::vector<std::pair<uint64_t, uint64_t>> expected;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expected.emplace_back(it->first, it->second);
    }
    std::vector<std::pair<uint64_t, uint64_t>> lsm_got, xindex_got, btree_got;
    lsm.RangeScan(lo, hi, &lsm_got);
    xindex.RangeScan(lo, hi, &xindex_got);
    btree.RangeScan(lo, hi, &btree_got);
    ASSERT_EQ(lsm_got, expected);
    ASSERT_EQ(xindex_got, expected);
    ASSERT_EQ(btree_got, expected);
  }
}

// ----- Two-dimensional: four mutable spatial indexes in lockstep -----

TEST(IntegrationTest, MutableSpatialIndexesAgree) {
  RTree rtree;
  QuadTree quad;
  UniformGrid grid(64);
  LisaIndex lisa;

  const auto initial =
      GeneratePoints(PointDistribution::kGaussianClusters, 5000, 1097);
  rtree.BulkLoad(initial);
  quad.Build(initial);
  grid.Build(initial);
  lisa.Build(initial);

  std::vector<Point2D> all_points = initial;
  std::vector<bool> live(initial.size(), true);

  Rng rng(1103);
  for (int op = 0; op < 10000; ++op) {
    switch (rng.NextBounded(3)) {
      case 0: {  // Insert a fresh point.
        const Point2D p{rng.NextDouble(), rng.NextDouble()};
        const uint32_t id = static_cast<uint32_t>(all_points.size());
        all_points.push_back(p);
        live.push_back(true);
        rtree.Insert(p, id);
        quad.Insert(p, id);
        grid.Insert(p, id);
        lisa.Insert(p, id);
        break;
      }
      case 1: {  // Erase a random live point.
        const uint32_t id =
            static_cast<uint32_t>(rng.NextBounded(all_points.size()));
        const bool expected = live[id];
        live[id] = false;
        ASSERT_EQ(rtree.Erase(all_points[id], id), expected);
        ASSERT_EQ(quad.Erase(all_points[id], id), expected);
        ASSERT_EQ(grid.Erase(all_points[id], id), expected);
        ASSERT_EQ(lisa.Erase(all_points[id], id), expected);
        break;
      }
      default: {  // Range query: all four must agree exactly.
        const Point2D& c = all_points[rng.NextBounded(all_points.size())];
        const double r = 0.001 + 0.05 * rng.NextDouble();
        RangeQuery2D q{std::max(0.0, c.x - r), std::max(0.0, c.y - r),
                       std::min(1.0, c.x + r), std::min(1.0, c.y + r)};
        std::vector<uint32_t> expected;
        for (uint32_t id = 0; id < all_points.size(); ++id) {
          if (live[id] && q.Contains(all_points[id])) expected.push_back(id);
        }
        auto sorted = [](std::vector<uint32_t> v) {
          std::sort(v.begin(), v.end());
          return v;
        };
        ASSERT_EQ(sorted(rtree.RangeQuery(q)), expected);
        ASSERT_EQ(sorted(quad.RangeQuery(q)), expected);
        ASSERT_EQ(sorted(grid.RangeQuery(q)), expected);
        ASSERT_EQ(sorted(lisa.RangeQuery(q)), expected);
      }
    }
  }
  rtree.CheckInvariants();
  lisa.CheckInvariants();
}

}  // namespace
}  // namespace lidx
