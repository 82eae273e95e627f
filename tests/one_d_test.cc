#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datasets/generators.h"
#include "lsm/run.h"
#include "one_d/alex.h"
#include "one_d/dynamic_pgm.h"
#include "one_d/hybrid_rmi.h"
#include "one_d/lipp.h"
#include "one_d/pgm.h"
#include "one_d/radix_spline.h"
#include "one_d/rmi.h"

namespace lidx {
namespace {

using Params = std::tuple<KeyDistribution, size_t>;

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  return KeyDistributionName(std::get<0>(info.param)) + "_" +
         std::to_string(std::get<1>(info.param));
}

// Shared correctness battery for any index with Find/Contains/RangeScan and
// values equal to the key's rank.
template <typename Index>
void CheckLookups(const Index& index, const std::vector<uint64_t>& keys,
                  uint64_t seed) {
  // Every key resolves to its rank.
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto got = index.Find(keys[i]);
    ASSERT_TRUE(got.has_value()) << "missing key rank " << i;
    ASSERT_EQ(*got, i) << "wrong value at rank " << i;
  }
  // Guaranteed misses.
  Rng rng(seed);
  for (int probe = 0; probe < 200; ++probe) {
    const size_t j = rng.NextBounded(keys.size());
    const uint64_t miss = keys[j] + 1;
    const bool is_member =
        std::binary_search(keys.begin(), keys.end(), miss);
    if (!is_member) {
      ASSERT_FALSE(index.Find(miss).has_value()) << miss;
    }
  }
  // Below-minimum and above-maximum probes.
  if (keys.front() > 0) {
    ASSERT_FALSE(index.Contains(keys.front() - 1));
  }
  ASSERT_FALSE(index.Contains(keys.back() + 1));
}

template <typename Index>
void CheckRangeScans(const Index& index, const std::vector<uint64_t>& keys,
                     uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t a = rng.NextBounded(keys.size());
    const size_t b = std::min(keys.size() - 1, a + rng.NextBounded(200));
    std::vector<std::pair<uint64_t, uint64_t>> got;
    index.RangeScan(keys[a], keys[b], &got);
    ASSERT_EQ(got.size(), b - a + 1) << "range [" << a << "," << b << "]";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, keys[a + i]);
      ASSERT_EQ(got[i].second, a + i);
    }
  }
  // Empty range (between two adjacent keys, if there is a gap).
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    if (keys[i + 1] > keys[i] + 2) {
      std::vector<std::pair<uint64_t, uint64_t>> got;
      index.RangeScan(keys[i] + 1, keys[i + 1] - 1, &got);
      ASSERT_TRUE(got.empty());
      break;
    }
  }
}

std::vector<uint64_t> Ranks(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// ----- RMI -----

class RmiParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(RmiParamTest, LookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 71);
  Rmi<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(n));
  index.CheckInvariants();
  CheckLookups(index, keys, 73);
  CheckRangeScans(index, keys, 79);
}

TEST_P(RmiParamTest, LowerBoundMatchesStd) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 83);
  Rmi<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(n));
  Rng rng(89);
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t k = keys[rng.NextBounded(n)] + rng.NextBounded(3) - 1;
    const size_t expected =
        std::lower_bound(keys.begin(), keys.end(), k) - keys.begin();
    ASSERT_EQ(index.LowerBound(k), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RmiParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(RmiTest, ModelCountVariants) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 20000, 97);
  for (size_t models : {1u, 16u, 1024u, 65536u}) {
    Rmi<uint64_t, uint64_t> index;
    Rmi<uint64_t, uint64_t>::Options opts;
    opts.num_models = models;
    index.Build(keys, Ranks(keys.size()), opts);
    index.CheckInvariants();
    CheckLookups(index, keys, 101);
  }
}

TEST(RmiTest, MoreModelsSmallerErrors) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 50000, 103);
  Rmi<uint64_t, uint64_t> coarse, fine;
  Rmi<uint64_t, uint64_t>::Options copts, fopts;
  copts.num_models = 16;
  fopts.num_models = 8192;
  coarse.Build(keys, Ranks(keys.size()), copts);
  fine.Build(keys, Ranks(keys.size()), fopts);
  EXPECT_LT(fine.MeanErrorWindow(), coarse.MeanErrorWindow());
}

TEST(RmiTest, TinyInputs) {
  for (size_t n : {1u, 2u, 3u}) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < n; ++i) keys.push_back(100 * (i + 1));
    Rmi<uint64_t, uint64_t> index;
    index.Build(keys, Ranks(n));
    CheckLookups(index, keys, 107);
  }
}

TEST(RmiTest, EmptyIndex) {
  Rmi<uint64_t, uint64_t> index;
  index.Build({}, {});
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Find(5).has_value());
  EXPECT_EQ(index.LowerBound(5), 0u);
}

// ----- PGM -----

class PgmParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(PgmParamTest, LookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 109);
  PgmIndex<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(n));
  index.CheckInvariants();
  CheckLookups(index, keys, 113);
  CheckRangeScans(index, keys, 127);
}

TEST_P(PgmParamTest, EpsilonInvariant) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 131);
  for (size_t eps : {8u, 64u}) {
    PgmIndex<uint64_t, uint64_t> index;
    PgmIndex<uint64_t, uint64_t>::Options opts;
    opts.epsilon = eps;
    index.Build(keys, Ranks(n), opts);
    index.CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PgmParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(PgmTest, EpsilonTradeoff) {
  const auto keys = GenerateKeys(KeyDistribution::kClustered, 50000, 137);
  PgmIndex<uint64_t, uint64_t> tight, loose;
  PgmIndex<uint64_t, uint64_t>::Options topts, lopts;
  topts.epsilon = 8;
  lopts.epsilon = 256;
  tight.Build(keys, Ranks(keys.size()), topts);
  loose.Build(keys, Ranks(keys.size()), lopts);
  EXPECT_GT(tight.NumSegments(), loose.NumSegments());
  EXPECT_GT(tight.ModelSizeBytes(), loose.ModelSizeBytes());
}

TEST(PgmTest, MultiLevelStructure) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 200000, 139);
  PgmIndex<uint64_t, uint64_t> index;
  PgmIndex<uint64_t, uint64_t>::Options opts;
  opts.epsilon = 8;
  opts.epsilon_internal = 4;
  index.Build(keys, Ranks(keys.size()), opts);
  EXPECT_GE(index.NumLevels(), 2u);
  CheckLookups(index, keys, 149);
}

// A fixed seed's level layout, and a model size that counts each level's
// segments and first keys at exact capacity: no growth slack.
TEST(PgmTest, LevelSegmentCountsPinnedAndModelSizeCountsNoSlack) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 200000, 163);
  PgmIndex<uint64_t, uint64_t>::Options opts;
  opts.epsilon = 8;
  opts.epsilon_internal = 2;
  PgmIndex<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(keys.size()), opts);
  const std::vector<size_t> want = {1033, 23};
  ASSERT_EQ(index.NumLevels(), want.size());
  size_t bytes = sizeof(index);
  for (size_t l = 0; l < want.size(); ++l) {
    EXPECT_EQ(index.NumSegmentsAt(l), want[l]) << "level " << l;
    bytes += index.NumSegmentsAt(l) * (sizeof(PlaSegment) + sizeof(double));
  }
  EXPECT_EQ(index.ModelSizeBytes(), bytes);
}

TEST(PgmTest, AdversarialKeysStillCorrect) {
  const auto keys = GenerateKeys(KeyDistribution::kAdversarial, 30000, 151);
  PgmIndex<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(keys.size()));
  index.CheckInvariants();
  CheckLookups(index, keys, 157);
}

TEST(PgmTest, TinyAndEmpty) {
  PgmIndex<uint64_t, uint64_t> empty;
  empty.Build({}, {});
  EXPECT_FALSE(empty.Find(1).has_value());
  PgmIndex<uint64_t, uint64_t> one;
  one.Build({42}, {7});
  EXPECT_EQ(one.Find(42), std::optional<uint64_t>(7));
  EXPECT_FALSE(one.Find(41).has_value());
}

// ----- RadixSpline -----

class RadixSplineParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(RadixSplineParamTest, LookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 163);
  RadixSpline<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(n));
  index.CheckInvariants();
  CheckLookups(index, keys, 167);
  CheckRangeScans(index, keys, 173);
}

TEST_P(RadixSplineParamTest, LowerBoundMatchesStd) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 179);
  RadixSpline<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(n));
  Rng rng(181);
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t k = keys[rng.NextBounded(n)] + rng.NextBounded(3) - 1;
    const size_t expected =
        std::lower_bound(keys.begin(), keys.end(), k) - keys.begin();
    ASSERT_EQ(index.LowerBound(k), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSplineParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(RadixSplineTest, EpsilonControlsKnots) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 50000, 191);
  RadixSpline<uint64_t, uint64_t> tight, loose;
  RadixSpline<uint64_t, uint64_t>::Options topts, lopts;
  topts.epsilon = 4;
  lopts.epsilon = 128;
  tight.Build(keys, Ranks(keys.size()), topts);
  loose.Build(keys, Ranks(keys.size()), lopts);
  EXPECT_GT(tight.NumKnots(), loose.NumKnots());
}

TEST(RadixSplineTest, TinyInputs) {
  RadixSpline<uint64_t, uint64_t> one;
  one.Build({42}, {0});
  EXPECT_TRUE(one.Contains(42));
  EXPECT_FALSE(one.Contains(41));
  RadixSpline<uint64_t, uint64_t> two;
  two.Build({42, 4200}, {0, 1});
  EXPECT_TRUE(two.Contains(42));
  EXPECT_TRUE(two.Contains(4200));
  EXPECT_FALSE(two.Contains(1000));
}

// ----- Hybrid RMI -----

class HybridRmiParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(HybridRmiParamTest, LookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 193);
  HybridRmi<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(n));
  CheckLookups(index, keys, 197);
  CheckRangeScans(index, keys, 199);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridRmiParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(HybridRmiTest, AdversarialDataUsesBtreeFallback) {
  const auto keys = GenerateKeys(KeyDistribution::kAdversarial, 50000, 211);
  HybridRmi<uint64_t, uint64_t> index;
  HybridRmi<uint64_t, uint64_t>::Options opts;
  opts.num_models = 64;        // Coarse partitions -> big model errors.
  opts.max_model_error = 32;   // Aggressive fallback threshold.
  index.Build(keys, Ranks(keys.size()), opts);
  EXPECT_GT(index.NumBtreePartitions(), 0u);
  CheckLookups(index, keys, 223);
}

TEST(HybridRmiTest, SmoothDataAvoidsFallback) {
  const auto keys = GenerateKeys(KeyDistribution::kSequential, 50000, 227);
  HybridRmi<uint64_t, uint64_t> index;
  index.Build(keys, Ranks(keys.size()));
  EXPECT_EQ(index.NumBtreePartitions(), 0u);
}

// ----- ALEX -----

class AlexParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(AlexParamTest, BulkLoadLookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 229);
  AlexIndex<uint64_t, uint64_t> index;
  index.BulkLoad(keys, Ranks(n));
  index.CheckInvariants();
  CheckLookups(index, keys, 233);
  CheckRangeScans(index, keys, 239);
}

TEST_P(AlexParamTest, InsertAfterBulkLoad) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 241);
  AlexIndex<uint64_t, uint64_t> index;
  index.BulkLoad(keys, Ranks(n));
  std::map<uint64_t, uint64_t> ref;
  for (size_t i = 0; i < keys.size(); ++i) ref[keys[i]] = i;
  Rng rng(251);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next() >> 4;
    index.Insert(k, i);
    ref[k] = i;
  }
  index.CheckInvariants();
  ASSERT_EQ(index.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(index.Find(k), std::optional<uint64_t>(v)) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlexParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(AlexTest, FuzzAgainstStdMap) {
  AlexIndex<uint64_t, uint64_t> index;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(257);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.NextBounded(8000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        index.Insert(key, op);
        ref[key] = op;
        break;
      }
      case 2: {
        const auto got = index.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end()) << key;
        if (got.has_value()) { ASSERT_EQ(*got, it->second); }
        break;
      }
      default:
        ASSERT_EQ(index.Erase(key), ref.erase(key) > 0) << key;
    }
    if (op % 10000 == 9999) index.CheckInvariants();
  }
  ASSERT_EQ(index.size(), ref.size());
  std::vector<std::pair<uint64_t, uint64_t>> all;
  index.RangeScan(0, UINT64_MAX, &all);
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : all) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST(AlexTest, NodeSplitsUnderSmallLimits) {
  AlexIndex<uint64_t, uint64_t>::Options opts;
  opts.max_node_slots = 64;
  opts.bulk_leaf_entries = 16;
  AlexIndex<uint64_t, uint64_t> index(opts);
  for (uint64_t k = 0; k < 20000; ++k) index.Insert(k * 3, k);
  index.CheckInvariants();
  EXPECT_GT(index.NumDataNodes(), 100u);
  for (uint64_t k = 0; k < 20000; ++k) {
    ASSERT_EQ(index.Find(k * 3), std::optional<uint64_t>(k));
  }
}

TEST(AlexTest, InsertIntoEmpty) {
  AlexIndex<uint64_t, uint64_t> index;
  EXPECT_TRUE(index.Insert(10, 1));
  EXPECT_FALSE(index.Insert(10, 2));  // Update.
  EXPECT_EQ(index.Find(10), std::optional<uint64_t>(2));
  EXPECT_EQ(index.size(), 1u);
}

TEST(AlexTest, EraseThenReinsert) {
  AlexIndex<uint64_t, uint64_t> index;
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k, k);
  for (uint64_t k = 0; k < 1000; k += 2) ASSERT_TRUE(index.Erase(k));
  EXPECT_EQ(index.size(), 500u);
  for (uint64_t k = 0; k < 1000; k += 2) {
    EXPECT_FALSE(index.Contains(k));
    index.Insert(k, k + 1);
  }
  EXPECT_EQ(index.size(), 1000u);
  EXPECT_EQ(index.Find(4), std::optional<uint64_t>(5));
}

// ----- LIPP -----

class LippParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(LippParamTest, BulkLoadLookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 263);
  LippIndex<uint64_t, uint64_t> index;
  index.BulkLoad(keys, Ranks(n));
  index.CheckInvariants();
  CheckLookups(index, keys, 269);
  CheckRangeScans(index, keys, 271);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LippParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(LippTest, FuzzAgainstStdMap) {
  LippIndex<uint64_t, uint64_t> index;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(277);
  for (int op = 0; op < 30000; ++op) {
    const uint64_t key = rng.NextBounded(8000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        index.Insert(key, op);
        ref[key] = op;
        break;
      case 2: {
        const auto got = index.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end()) << key;
        if (got.has_value()) { ASSERT_EQ(*got, it->second); }
        break;
      }
      default:
        ASSERT_EQ(index.Erase(key), ref.erase(key) > 0) << key;
    }
    if (op % 10000 == 9999) index.CheckInvariants();
  }
  ASSERT_EQ(index.size(), ref.size());
}

TEST(LippTest, RebuildBoundsDepth) {
  LippIndex<uint64_t, uint64_t> index;
  // Sequential inserts are the worst case for precise-position layouts;
  // the rebuild policy must keep depth sane.
  for (uint64_t k = 0; k < 50000; ++k) index.Insert(k, k);
  EXPECT_LT(index.MaxDepth(), 24);
  for (uint64_t k = 0; k < 50000; ++k) {
    ASSERT_EQ(index.Find(k), std::optional<uint64_t>(k));
  }
}

TEST(LippTest, NoLastMileSearchExactPositions) {
  // Every Find walks models only; verify correctness on clustered keys.
  const auto keys = GenerateKeys(KeyDistribution::kClustered, 20000, 281);
  LippIndex<uint64_t, uint64_t> index;
  index.BulkLoad(keys, Ranks(keys.size()));
  for (size_t i = 0; i < keys.size(); i += 7) {
    ASSERT_EQ(index.Find(keys[i]), std::optional<uint64_t>(i));
  }
}

// ----- Dynamic PGM -----

class DynamicPgmParamTest : public ::testing::TestWithParam<Params> {};

TEST_P(DynamicPgmParamTest, BulkLoadLookupAndRange) {
  const auto [dist, n] = GetParam();
  const auto keys = GenerateKeys(dist, n, 283);
  DynamicPgm<uint64_t, uint64_t> index;
  index.BulkLoad(keys, Ranks(n));
  index.CheckInvariants();
  CheckLookups(index, keys, 293);
  CheckRangeScans(index, keys, 307);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicPgmParamTest,
    ::testing::Combine(::testing::ValuesIn(AllKeyDistributions()),
                       ::testing::Values(100, 10000)),
    ParamName);

TEST(DynamicPgmTest, FuzzAgainstStdMap) {
  DynamicPgm<uint64_t, uint64_t> index;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(311);
  for (int op = 0; op < 15000; ++op) {
    const uint64_t key = rng.NextBounded(4000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        index.Insert(key, op);
        ref[key] = op;
        break;
      case 2: {
        const auto got = index.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end()) << key;
        if (got.has_value()) { ASSERT_EQ(*got, it->second); }
        break;
      }
      default:
        ASSERT_EQ(index.Erase(key), ref.erase(key) > 0) << key;
    }
    if (op % 5000 == 4999) index.CheckInvariants();
  }
  index.CheckInvariants();
  ASSERT_EQ(index.size(), ref.size());
  std::vector<std::pair<uint64_t, uint64_t>> all;
  index.RangeScan(0, UINT64_MAX, &all);
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : all) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST(DynamicPgmTest, ComponentCountLogarithmic) {
  DynamicPgm<uint64_t, uint64_t> index;
  for (uint64_t k = 0; k < 100000; ++k) index.Insert(k * 2, k);
  // Logarithmic method: component count should be O(log(n/base)).
  EXPECT_LE(index.NumComponents(), 12u);
}

TEST(DynamicPgmTest, DeleteShadowsOlderInsert) {
  DynamicPgm<uint64_t, uint64_t> index;
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k, k);
  ASSERT_TRUE(index.Erase(500));
  EXPECT_FALSE(index.Contains(500));
  EXPECT_FALSE(index.Erase(500));
  // Reinsert resurrects.
  index.Insert(500, 77);
  EXPECT_EQ(index.Find(500), std::optional<uint64_t>(77));
}

TEST(DynamicPgmTest, TombstonesDroppedAtFullMerge) {
  DynamicPgm<uint64_t, uint64_t>::Options opts;
  opts.base_capacity = 16;
  DynamicPgm<uint64_t, uint64_t> index(opts);
  for (uint64_t k = 0; k < 64; ++k) index.Insert(k, k);
  for (uint64_t k = 0; k < 64; ++k) index.Erase(k);
  EXPECT_EQ(index.size(), 0u);
  // Inserting enough fresh keys forces merges that reach the oldest slot.
  for (uint64_t k = 100; k < 600; ++k) index.Insert(k, k);
  EXPECT_EQ(index.size(), 500u);
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_FALSE(index.Contains(k)) << k;
  }
}

TEST(DynamicPgmDeathTest, ZeroBaseCapacityIsRejected) {
  using Index = DynamicPgm<uint64_t, uint64_t>;
  Index::Options opts;
  opts.base_capacity = 0;  // Every slot capacity would be 0: no run fits.
  EXPECT_DEATH(Index index(opts), "base_capacity >= 1");
}

// The oldest component never carries a Bloom filter (a miss there ends the
// read anyway), while a newer component of at least 16384 entries (the
// filter threshold) does. Reads, upsert answers and scans stay exact.
TEST(DynamicPgmTest, OldestComponentCarriesNoFilter) {
  DynamicPgm<uint64_t, uint64_t>::Options opts;
  opts.base_capacity = 256;
  opts.size_factor_log2 = 2;  // Slot capacities 1024, 4096, 16384, 65536, ...
  DynamicPgm<uint64_t, uint64_t> index(opts);
  std::map<uint64_t, uint64_t> ref;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 100000; ++i) {
    keys.push_back(i * 4);
    values.push_back(i);
    ref[i * 4] = i;
  }
  const uint64_t key_space = keys.back() + 8;
  Rng rng(331);
  const auto check = [&] {
    index.CheckInvariants();
    for (int i = 0; i < 20000; ++i) {
      const uint64_t k = rng.NextBounded(key_space);
      const auto it = ref.find(k);
      const auto got = index.Find(k);
      ASSERT_EQ(got.has_value(), it != ref.end()) << k;
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second) << k;
      }
    }
    std::vector<std::pair<uint64_t, uint64_t>> all;
    index.RangeScan(0, UINT64_MAX, &all);
    const std::vector<std::pair<uint64_t, uint64_t>> want(ref.begin(),
                                                          ref.end());
    ASSERT_EQ(all, want);
  };

  index.BulkLoad(keys, values);
  EXPECT_EQ(index.NumComponents(), 1u);
  EXPECT_EQ(index.NumFilters(), 0u);
  check();

  // Slots 0-2 hold at most 21504 entries, so 40000 upserts cascade into a
  // slot-3 component of more than 16384 entries above the bulk-loaded one.
  for (uint64_t op = 0; op < 40000; ++op) {
    const uint64_t k = rng.NextBounded(key_space);
    ASSERT_EQ(index.Insert(k, op), ref.count(k) == 0) << k;
    ref[k] = op;
  }
  EXPECT_GE(index.NumComponents(), 2u);
  EXPECT_GE(index.NumFilters(), 1u);
  check();

  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.NextBounded(key_space);
    ASSERT_EQ(index.Erase(k), ref.erase(k) > 0) << k;
  }
  check();
}

// A component carries a tombstone column only while it holds a tombstone.
// Erases of bulk-loaded keys cascade into large components below the
// oldest, which keep their tombstones and shadow the oldest's rows, until
// a cascade reaches the oldest component and drops every tombstone. Find,
// Erase answers, RangeScan and size() follow std::map throughout.
TEST(DynamicPgmTest, TombstoneColumnsThroughCascades) {
  DynamicPgm<uint64_t, uint64_t>::Options opts;
  opts.base_capacity = 64;
  opts.size_factor_log2 = 1;  // Slot capacities 128, 256, 512, ..., 4096.
  DynamicPgm<uint64_t, uint64_t> index(opts);
  std::map<uint64_t, uint64_t> ref;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 4000; ++i) {
    keys.push_back(i * 2);
    values.push_back(i);
    ref[i * 2] = i;
  }
  const uint64_t key_space = keys.back() + 200;
  index.BulkLoad(keys, values);  // Slot 5 (4096), the oldest.
  EXPECT_EQ(index.NumTombstones(), 0u);
  Rng rng(347);
  const auto check = [&] {
    index.CheckInvariants();
    ASSERT_EQ(index.size(), ref.size());
    for (uint64_t k = 0; k < key_space; ++k) {
      const auto it = ref.find(k);
      const auto got = index.Find(k);
      ASSERT_EQ(got.has_value(), it != ref.end()) << k;
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second) << k;
      }
    }
    for (const auto& [lo, hi] : {std::pair<uint64_t, uint64_t>{0, UINT64_MAX},
                                 std::pair<uint64_t, uint64_t>{1001, 3999}}) {
      std::vector<std::pair<uint64_t, uint64_t>> got;
      index.RangeScan(lo, hi, &got);
      const std::vector<std::pair<uint64_t, uint64_t>> want(
          ref.lower_bound(lo), ref.upper_bound(hi));
      ASSERT_EQ(got, want) << lo << ".." << hi;
    }
  };
  // Three in four ops erase a loaded key (a tombstone while it is
  // present), the rest upsert anywhere in the key space.
  uint64_t op = 0;
  const auto step = [&] {
    ++op;
    if (rng.NextBounded(4) != 0) {
      const uint64_t k = keys[rng.NextBounded(keys.size())];
      ASSERT_EQ(index.Erase(k), ref.erase(k) > 0) << k;
    } else {
      const uint64_t k = rng.NextBounded(key_space);
      index.Insert(k, op);
      ref[k] = op;
    }
  };

  // More tombstones than the buffer and slots 0-2 can hold (63 + 896): a
  // component of slot 3 or 4 holds them, above the bulk-loaded slot 5.
  while (index.NumTombstones() <= 1000 && op < 4000) {
    ASSERT_NO_FATAL_FAILURE(step());
  }
  ASSERT_GT(index.NumTombstones(), 1000u);
  EXPECT_GE(index.NumComponents(), 3u);
  ASSERT_NO_FATAL_FAILURE(check());

  // Once slots 0-4 overflow, a cascade merges everything into one
  // component, the new oldest, and drops the tombstones.
  while (index.NumComponents() != 1 && op < 20000) {
    ASSERT_NO_FATAL_FAILURE(step());
  }
  ASSERT_EQ(index.NumComponents(), 1u);
  EXPECT_EQ(index.NumTombstones(), 0u);
  ASSERT_NO_FATAL_FAILURE(check());

  for (int i = 0; i < 300; ++i) ASSERT_NO_FATAL_FAILURE(step());
  EXPECT_GT(index.NumTombstones(), 0u);
  ASSERT_NO_FATAL_FAILURE(check());
}

// A bulk load keeps the key and value columns it is handed: beyond them
// the index holds only its model and a fixed header, for plain values and
// for the LSM memtable's tombstone-carrying ones.
TEST(DynamicPgmTest, BulkLoadHoldsOnlyItsColumnsAndModel) {
  for (const size_t n : {size_t{1}, size_t{1000}, size_t{200000}}) {
    const auto keys = GenerateKeys(KeyDistribution::kLognormal, n, 353);
    DynamicPgm<uint64_t, uint64_t> plain;
    plain.BulkLoad(keys, Ranks(n));
    EXPECT_LE(plain.SizeBytes(),
              n * 2 * sizeof(uint64_t) + plain.ModelSizeBytes() + 64)
        << n;
    std::vector<RunEntry<uint64_t>> entries(n);
    for (size_t i = 0; i < n; ++i) entries[i].value = i;
    DynamicPgm<uint64_t, RunEntry<uint64_t>> memtable;
    memtable.BulkLoad(keys, entries);
    EXPECT_LE(memtable.SizeBytes(),
              n * (sizeof(uint64_t) + sizeof(RunEntry<uint64_t>)) +
                  memtable.ModelSizeBytes() + 64)
        << n;
    EXPECT_EQ(memtable.Find(keys[n / 2])->value, n / 2);
  }
}

// SoleComponent lends the component, and so the key and value columns, of
// an index that is exactly one tombstone-free component with an empty
// buffer, the shape a bulk load leaves, and nothing for any other shape.
TEST(DynamicPgmTest, SoleColumnsOnlyForOneBulkLoadedComponent) {
  DynamicPgm<uint64_t, uint64_t>::Options opts;
  opts.base_capacity = 16;
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 5000, 359);
  const std::vector<uint64_t> values = Ranks(keys.size());
  const auto load = [&] {
    DynamicPgm<uint64_t, uint64_t> index(opts);
    index.BulkLoad(keys, values);
    return index;
  };

  DynamicPgm<uint64_t, uint64_t> empty(opts);
  EXPECT_EQ(empty.SoleComponent(), nullptr);
  empty.BulkLoad({}, {});
  EXPECT_EQ(empty.SoleComponent(), nullptr);

  DynamicPgm<uint64_t, uint64_t> loaded = load();
  const PgmIndex<uint64_t, uint64_t>* sole = loaded.SoleComponent();
  ASSERT_NE(sole, nullptr);
  EXPECT_TRUE(std::ranges::equal(sole->keys(), keys));
  EXPECT_TRUE(std::ranges::equal(sole->values(), values));
  for (size_t i = 0; i < keys.size(); i += 97) {
    EXPECT_EQ(sole->LowerBound(keys[i]), i);
  }

  DynamicPgm<uint64_t, uint64_t> inserted = load();
  inserted.Insert(keys.back() + 1, 0);
  EXPECT_EQ(inserted.SoleComponent(), nullptr);

  DynamicPgm<uint64_t, uint64_t> erased = load();
  ASSERT_TRUE(erased.Erase(keys[7]));
  EXPECT_EQ(erased.SoleComponent(), nullptr);

  // A full buffer spills into a second component below the bulk load.
  DynamicPgm<uint64_t, uint64_t> two = load();
  for (uint64_t i = 1; i <= opts.base_capacity; ++i) {
    two.Insert(keys.back() + i, i);
  }
  ASSERT_EQ(two.NumComponents(), 2u);
  EXPECT_EQ(two.SoleComponent(), nullptr);
}

}  // namespace
}  // namespace lidx
