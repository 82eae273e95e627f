// Equivalence tests for the SIMD kernel layer (common/simd.h).
//
// Every kernel must be result-identical to its scalar reference (and to
// std::lower_bound where applicable) at every dispatch level this binary can
// run — including the forced-scalar fallback — on random, adversarial, and
// boundary inputs. The index-level tests then build each index once and
// assert that its answers are the same at every dispatch level, kScalar
// (the inlined scalar paths) included.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/bloom.h"
#include "baselines/btree.h"
#include "common/batch.h"
#include "common/search.h"
#include "common/simd.h"
#include "lsm/run.h"
#include "one_d/alex.h"
#include "one_d/learned_bloom.h"
#include "one_d/pgm.h"
#include "one_d/radix_spline.h"
#include "one_d/rmi.h"
#include "simd_levels.h"
#include "storage/buffer_pool.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"

namespace lidx {
namespace {

constexpr size_t kMax = std::numeric_limits<size_t>::max();

std::vector<uint64_t> SortedU64(size_t n, uint64_t seed, uint64_t spread) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> v(n);
  uint64_t cur = rng() % 1000;
  for (size_t i = 0; i < n; ++i) {
    cur += rng() % spread;  // Duplicates allowed when spread includes 0.
    v[i] = cur;
  }
  return v;
}

std::vector<double> SortedF64(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> step(0.0, 10.0);
  std::vector<double> v(n);
  double cur = -500.0;
  for (size_t i = 0; i < n; ++i) {
    cur += step(rng);
    v[i] = cur;
  }
  return v;
}

// ----- Kernel-level fuzz: CountLess and LowerBound ------------------------

TEST(SimdKernelTest, RunnableLevelsIncludeScalarAndDetected) {
  const std::vector<simd::Level> levels = RunnableLevels();
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  // The detected-best level must itself be runnable.
  EXPECT_NE(std::find(levels.begin(), levels.end(), simd::DetectBestLevel()),
            levels.end());
  LevelGuard guard;
  for (simd::Level level : levels) {
    simd::SetLevel(level);
    EXPECT_EQ(simd::ActiveLevel(), level) << simd::LevelName(level);
  }
}

TEST(SimdKernelTest, CountLessU64MatchesLowerBoundAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(7);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     size_t{8}, size_t{15}, size_t{16}, size_t{31}, size_t{63},
                     size_t{64}, size_t{100}, size_t{255}, size_t{256},
                     size_t{300}}) {
      const std::vector<uint64_t> data = SortedU64(n, 100 + n, 5);
      std::vector<uint64_t> probes = {0, std::numeric_limits<uint64_t>::max()};
      for (uint64_t k : data) {
        probes.push_back(k);
        probes.push_back(k + 1);
        if (k > 0) probes.push_back(k - 1);
      }
      for (int i = 0; i < 32; ++i) probes.push_back(rng() % 2000);
      for (uint64_t key : probes) {
        const size_t expect =
            static_cast<size_t>(std::lower_bound(data.begin(), data.end(),
                                                 key) -
                                data.begin());
        EXPECT_EQ(simd::CountLess(data.data(), n, key), expect)
            << simd::LevelName(level) << " n=" << n << " key=" << key;
      }
    }
  }
}

TEST(SimdKernelTest, CountLessF64MatchesLowerBoundAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(-600.0, 600.0);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{16},
                     size_t{17}, size_t{64}, size_t{129}, size_t{256}}) {
      const std::vector<double> data = SortedF64(n, 200 + n);
      std::vector<double> probes = {-std::numeric_limits<double>::infinity(),
                                    std::numeric_limits<double>::infinity(),
                                    -1e300, 1e300, 0.0};
      for (double k : data) {
        probes.push_back(k);
        probes.push_back(std::nextafter(k, 1e308));
        probes.push_back(std::nextafter(k, -1e308));
      }
      for (int i = 0; i < 32; ++i) probes.push_back(uni(rng));
      for (double key : probes) {
        const size_t expect =
            static_cast<size_t>(std::lower_bound(data.begin(), data.end(),
                                                 key) -
                                data.begin());
        EXPECT_EQ(simd::CountLess(data.data(), n, key), expect)
            << simd::LevelName(level) << " n=" << n << " key=" << key;
      }
    }
  }
}

TEST(SimdKernelTest, LowerBoundMatchesStdOnSubrangesAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(13);
  const std::vector<uint64_t> u64 = SortedU64(2000, 42, 4);
  const std::vector<double> f64 = SortedF64(2000, 43);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (int iter = 0; iter < 400; ++iter) {
      size_t lo = rng() % u64.size();
      size_t hi = rng() % (u64.size() + 1);
      if (lo > hi) std::swap(lo, hi);
      const uint64_t ku = rng() % (u64.back() + 2);
      const size_t eu = static_cast<size_t>(
          std::lower_bound(u64.begin() + lo, u64.begin() + hi, ku) -
          u64.begin());
      EXPECT_EQ(simd::LowerBound(u64.data(), lo, hi, ku), eu)
          << simd::LevelName(level) << " [" << lo << "," << hi << ") key="
          << ku;
      const double kf = f64[rng() % f64.size()] + (iter % 3) - 1;
      const size_t ef = static_cast<size_t>(
          std::lower_bound(f64.begin() + lo, f64.begin() + hi, kf) -
          f64.begin());
      EXPECT_EQ(simd::LowerBound(f64.data(), lo, hi, kf), ef)
          << simd::LevelName(level) << " [" << lo << "," << hi << ") key="
          << kf;
    }
  }
}

// Runs of equal keys: lower bound must land on the first duplicate on every
// path (the SSE2/AVX2 kernels use unsigned-compare bias tricks that must not
// miscount ties).
TEST(SimdKernelTest, DuplicateHeavyDataAtEveryLevel) {
  LevelGuard guard;
  std::vector<uint64_t> data;
  for (uint64_t v : {5ull, 5ull, 5ull, 9ull, 9ull, 9ull, 9ull, 12ull}) {
    data.push_back(v);
  }
  while (data.size() < 200) data.push_back(100);  // Long tie run.
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (uint64_t key : {0ull, 5ull, 6ull, 9ull, 10ull, 12ull, 100ull,
                         101ull}) {
      const size_t expect = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), key) - data.begin());
      EXPECT_EQ(simd::CountLess(data.data(), data.size(), key), expect)
          << simd::LevelName(level) << " key=" << key;
    }
  }
}

// Signed-compare trap: uint64_t keys with the top bit set compare as
// negative in the SSE2/AVX2 signed 64-bit comparators unless the kernel
// applies the sign-flip bias.
TEST(SimdKernelTest, HighBitKeysAtEveryLevel) {
  LevelGuard guard;
  std::vector<uint64_t> data;
  const uint64_t top = 1ull << 63;
  for (size_t i = 0; i < 64; ++i) data.push_back(i * 7);
  for (size_t i = 0; i < 64; ++i) data.push_back(top + i * 11);
  data.push_back(std::numeric_limits<uint64_t>::max());
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (uint64_t key :
         {uint64_t{0}, uint64_t{63 * 7}, top - 1, top, top + 1, top + 63 * 11,
          std::numeric_limits<uint64_t>::max()}) {
      const size_t expect = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), key) - data.begin());
      EXPECT_EQ(simd::CountLess(data.data(), data.size(), key), expect)
          << simd::LevelName(level) << " key=" << key;
      EXPECT_EQ(simd::LowerBound(data.data(), 0, data.size(), key), expect)
          << simd::LevelName(level) << " key=" << key;
    }
  }
}

// ----- Kernel-level fuzz: batched model inference -------------------------

TEST(SimdKernelTest, PredictClampedBatchMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> slope_dist(-2.0, 2.0);
  std::uniform_real_distribution<double> icpt_dist(-1e6, 1e6);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (int iter = 0; iter < 50; ++iter) {
      const double slope = (iter == 0) ? 0.0 : slope_dist(rng);
      const double intercept = icpt_dist(rng);
      const size_t n =
          (iter % 5 == 0) ? 1 : (1 + rng() % (size_t{1} << (rng() % 40)));
      const size_t count = rng() % 300;
      std::vector<uint64_t> keys(count);
      for (size_t i = 0; i < count; ++i) {
        // Mix small keys with > 2^53 keys (beyond exact double range) and
        // the extremes.
        switch (rng() % 4) {
          case 0: keys[i] = rng() % 1000; break;
          case 1: keys[i] = rng(); break;
          case 2: keys[i] = std::numeric_limits<uint64_t>::max(); break;
          default: keys[i] = (1ull << 53) + rng() % 1000; break;
        }
      }
      std::vector<size_t> got(count, kMax), want(count, kMax);
      simd::PredictClampedBatch(slope, intercept, keys.data(), count, n,
                                got.data());
      simd::PredictClampedU64Scalar(slope, intercept, keys.data(), count, n,
                                    want.data());
      EXPECT_EQ(got, want) << simd::LevelName(level) << " u64 iter=" << iter;
    }
  }
}

// Positions at or beyond 2^31 must not be mangled by any 32-bit lane math.
TEST(SimdKernelTest, PredictClampedBatchHugeN) {
  LevelGuard guard;
  const size_t n = (size_t{1} << 33) + 12345;
  std::vector<uint64_t> keys = {0, 1ull << 20, 1ull << 32, 1ull << 40,
                                std::numeric_limits<uint64_t>::max()};
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    std::vector<size_t> got(keys.size()), want(keys.size());
    simd::PredictClampedBatch(1.0 / 128.0, 3.0, keys.data(), keys.size(), n,
                              got.data());
    simd::PredictClampedU64Scalar(1.0 / 128.0, 3.0, keys.data(), keys.size(),
                                  n, want.data());
    EXPECT_EQ(got, want) << simd::LevelName(level);
  }
}

// ----- Kernel-level fuzz: Bloom hashing -----------------------------------

TEST(SimdKernelTest, BloomHashBatchMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(23);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{5}, size_t{31}, size_t{32}, size_t{100}}) {
      std::vector<uint64_t> keys(count);
      for (size_t i = 0; i < count; ++i) {
        keys[i] = (i == 0) ? 0
                  : (i == 1 && count > 1)
                      ? std::numeric_limits<uint64_t>::max()
                      : rng();
      }
      std::vector<uint64_t> h1(count), h2(count);
      simd::BloomHashBatch(keys.data(), count, h1.data(), h2.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(h1[i], simd::BloomMix1(keys[i]))
            << simd::LevelName(level) << " i=" << i;
        EXPECT_EQ(h2[i], simd::BloomMix2(keys[i]))
            << simd::LevelName(level) << " i=" << i;
      }
    }
  }
}

// ----- ClampSearchWindow ---------------------------------------------------

TEST(ClampSearchWindowTest, MatchesUnpaddedFormulaOnNormalInputs) {
  std::mt19937_64 rng(29);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t n = 1 + rng() % 100000;
    const size_t pred = rng() % n;
    const size_t err_lo = rng() % 1000;
    const size_t err_hi = rng() % 1000;
    const SearchWindow w = ClampSearchWindow(pred, err_lo, err_hi, n);
    // Reference: the clamp every index used to spell inline.
    const size_t want_lo = (pred > err_lo + 1) ? pred - err_lo - 1 : 0;
    const size_t want_hi = std::min(n, pred + err_hi + 2);
    EXPECT_EQ(w.lo, want_lo) << "iter=" << iter;
    EXPECT_EQ(w.hi, want_hi) << "iter=" << iter;
    EXPECT_LE(w.lo, w.hi);
  }
}

TEST(ClampSearchWindowTest, SaturatesOnExtremeInputs) {
  // Huge errors must clamp to the full range, not wrap.
  SearchWindow w = ClampSearchWindow(5, kMax, kMax, 100);
  EXPECT_EQ(w.lo, 0u);
  EXPECT_EQ(w.hi, 100u);
  // Prediction past the end clamps to the last slot first.
  w = ClampSearchWindow(kMax, 1, 1, 10);
  EXPECT_EQ(w.lo, 7u);
  EXPECT_EQ(w.hi, 10u);
  // pred + err_hi + 2 would overflow size_t; hi must saturate at n.
  w = ClampSearchWindow(kMax - 4, 0, kMax - 2, kMax);
  EXPECT_EQ(w.hi, kMax);
  // Tiny array.
  w = ClampSearchWindow(0, 0, 0, 1);
  EXPECT_EQ(w.lo, 0u);
  EXPECT_EQ(w.hi, 1u);
  w = ClampSearchWindow(3, 0, 0, 1);
  EXPECT_EQ(w.lo, 0u);
  EXPECT_EQ(w.hi, 1u);
}

// ----- ExponentialSearchLowerBound overflow regressions --------------------

// Virtual sorted "array" with data[i] == i, usable at indexes near
// SIZE_MAX without allocating. Not contiguous storage, so BoundedLowerBound
// takes the scalar path — exactly the arithmetic under test.
struct IdentityVec {
  size_t operator[](size_t i) const { return i; }
};

TEST(ExponentialSearchTest, NoOverflowNearSizeMax) {
  const IdentityVec data;
  const size_t lo = kMax - 100;
  const size_t hi = kMax - 2;
  // The answer for any key in [lo, hi] is the key itself (clamped to hi).
  for (size_t predicted : {lo, lo + 1, hi - 1, size_t{0}, kMax}) {
    EXPECT_EQ(ExponentialSearchLowerBound(data, kMax - 50, predicted, lo, hi),
              kMax - 50)
        << "predicted=" << predicted;
    EXPECT_EQ(ExponentialSearchLowerBound(data, lo, predicted, lo, hi), lo)
        << "predicted=" << predicted;
    EXPECT_EQ(ExponentialSearchLowerBound(data, hi - 1, predicted, lo, hi),
              hi - 1)
        << "predicted=" << predicted;
    // Key above every element: result is hi.
    EXPECT_EQ(ExponentialSearchLowerBound(data, kMax, predicted, lo, hi), hi)
        << "predicted=" << predicted;
    // Key below every element: result is lo.
    EXPECT_EQ(ExponentialSearchLowerBound(data, size_t{3}, predicted, lo, hi),
              lo)
        << "predicted=" << predicted;
  }
}

TEST(ExponentialSearchTest, FullAddressSpaceRange) {
  const IdentityVec data;
  // hi == SIZE_MAX itself; gallops from both ends of the range.
  EXPECT_EQ(ExponentialSearchLowerBound(data, kMax - 1, size_t{0}, size_t{0},
                                        kMax),
            kMax - 1);
  EXPECT_EQ(ExponentialSearchLowerBound(data, size_t{7}, kMax - 1, size_t{0},
                                        kMax),
            size_t{7});
}

TEST(ExponentialSearchTest, MatchesStdLowerBoundOnRealData) {
  LevelGuard guard;
  std::mt19937_64 rng(31);
  const std::vector<uint64_t> data = SortedU64(5000, 57, 3);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (int iter = 0; iter < 1000; ++iter) {
      const uint64_t key = rng() % (data.back() + 2);
      const size_t predicted = rng() % data.size();
      const size_t expect = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), key) - data.begin());
      EXPECT_EQ(ExponentialSearchLowerBound(data, key, predicted, size_t{0},
                                            data.size()),
                expect)
          << simd::LevelName(level) << " key=" << key
          << " pred=" << predicted;
    }
  }
}

// ----- WindowLowerBoundWithFixup and the staged cursor ---------------------

// Regardless of how wrong the prediction and error bounds are, the fixup
// must return the global lower bound — at every dispatch level (kScalar
// takes the inlined scalar path) and through the one-probe-per-Advance
// cursor.
TEST(WindowSearchTest, FixupAndCursorAlwaysReturnGlobalLowerBound) {
  LevelGuard guard;
  std::mt19937_64 rng(37);
  const std::vector<uint64_t> data = SortedU64(3000, 61, 3);
  const size_t n = data.size();
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (int iter = 0; iter < 800; ++iter) {
      const uint64_t key = rng() % (data.back() + 2);
      const size_t pred = rng() % (n + 10);  // Sometimes out of range.
      const size_t err_lo = rng() % 64;
      const size_t err_hi = rng() % 64;
      const size_t expect = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), key) - data.begin());
      EXPECT_EQ(WindowLowerBoundWithFixup(data, key, pred, err_lo, err_hi, n),
                expect)
          << simd::LevelName(level);
      WindowSearchCursor<uint64_t> cursor;
      cursor.Begin(data, key, pred, err_lo, err_hi, n);
      int steps = 0;
      while (!cursor.Advance(data, key)) {
        ASSERT_LT(++steps, 200) << "cursor failed to converge";
      }
      EXPECT_EQ(cursor.result(), expect) << simd::LevelName(level);
    }
  }
}

// ----- Bloom filter batch probes -------------------------------------------

TEST(BloomBatchTest, MayContainBatchMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(41);
  BloomFilter filter(5000, 10.0);
  std::vector<uint64_t> members(5000);
  for (auto& k : members) {
    k = rng();
    filter.Add(k);
  }
  std::vector<uint64_t> queries;
  for (size_t i = 0; i < 2000; ++i) queries.push_back(members[i]);
  for (size_t i = 0; i < 2000; ++i) queries.push_back(rng());
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (size_t count : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                         size_t{33}, queries.size()}) {
      std::unique_ptr<bool[]> out(new bool[std::max<size_t>(1, count)]);
      filter.MayContainBatch(queries.data(), count, out.get());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], filter.MayContain(queries[i]))
            << simd::LevelName(level) << " i=" << i;
      }
    }
  }
}

TEST(BloomBatchTest, LearnedAndSandwichedBatchMatchScalar) {
  LevelGuard guard;
  std::mt19937_64 rng(43);
  std::vector<uint64_t> positives(3000), negatives(3000);
  for (auto& k : positives) k = rng() % 500000;
  for (auto& k : negatives) k = 500000 + rng() % 500000;
  std::sort(positives.begin(), positives.end());
  positives.erase(std::unique(positives.begin(), positives.end()),
                  positives.end());

  LearnedBloomFilter learned;
  learned.Build(positives, negatives);
  SandwichedLearnedBloomFilter sandwiched;
  sandwiched.Build(positives, negatives);

  std::vector<uint64_t> queries = positives;
  for (size_t i = 0; i < 1000; ++i) queries.push_back(rng());
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    std::unique_ptr<bool[]> out(new bool[queries.size()]);
    learned.MayContainBatch(queries.data(), queries.size(), out.get());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(out[i], learned.MayContain(queries[i]))
          << simd::LevelName(level) << " learned i=" << i;
    }
    // No false negatives for members on any path.
    for (size_t i = 0; i < positives.size(); ++i) {
      EXPECT_TRUE(out[i]) << "false negative at i=" << i;
    }
    sandwiched.MayContainBatch(queries.data(), queries.size(), out.get());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(out[i], sandwiched.MayContain(queries[i]))
          << simd::LevelName(level) << " sandwiched i=" << i;
    }
  }
}

// ----- Index-level: Options::simd must not change any result ---------------

std::vector<uint64_t> UniqueSortedKeys(size_t n, uint64_t seed) {
  std::vector<uint64_t> keys = SortedU64(n, seed, 7);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<uint64_t> MixedQueries(const std::vector<uint64_t>& keys,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> q;
  for (size_t i = 0; i < 1500; ++i) {
    const uint64_t k = keys[rng() % keys.size()];
    q.push_back(k);
    q.push_back(k + 1);
    q.push_back(rng() % (keys.back() + 100));
  }
  return q;
}

// Asserts that `find` (query -> optional value) answers every query exactly
// as std::lower_bound over the sorted `keys` with parallel `values` does,
// at every runnable dispatch level. The structure behind `find` is built
// once; only the level changes between passes.
template <typename Find>
void ExpectExactAtEveryLevel(const Find& find,
                             const std::vector<uint64_t>& keys,
                             const std::vector<uint64_t>& values,
                             const std::vector<uint64_t>& queries,
                             const char* what) {
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (uint64_t q : queries) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), q);
      std::optional<uint64_t> expect;
      if (it != keys.end() && *it == q) expect = values[it - keys.begin()];
      ASSERT_EQ(find(q), expect)
          << what << " " << simd::LevelName(level) << " key=" << q;
    }
  }
}

TEST(IndexSimdEquivalenceTest, RmiPgmRadixSpline) {
  LevelGuard guard;
  const std::vector<uint64_t> keys = UniqueSortedKeys(30000, 71);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i * 3 + 1;
  const std::vector<uint64_t> queries = MixedQueries(keys, 73);

  Rmi<uint64_t, uint64_t> rmi;
  rmi.Build(keys, values);
  ExpectExactAtEveryLevel([&](uint64_t q) { return rmi.Find(q); }, keys,
                          values, queries, "rmi");
  PgmIndex<uint64_t, uint64_t> pgm;
  pgm.Build(keys, values);
  ExpectExactAtEveryLevel([&](uint64_t q) { return pgm.Find(q); }, keys,
                          values, queries, "pgm");
  RadixSpline<uint64_t, uint64_t> rs;
  rs.Build(keys, values);
  ExpectExactAtEveryLevel([&](uint64_t q) { return rs.Find(q); }, keys,
                          values, queries, "rs");
}

TEST(IndexSimdEquivalenceTest, AlexAndBTree) {
  LevelGuard guard;
  std::vector<uint64_t> keys = UniqueSortedKeys(20000, 79);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i + 7;
  const std::vector<uint64_t> queries = MixedQueries(keys, 83);

  std::vector<std::pair<uint64_t, uint64_t>> sorted(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) sorted[i] = {keys[i], values[i]};
  BPlusTree<uint64_t, uint64_t> btree;
  btree.BulkLoad(sorted);
  ExpectExactAtEveryLevel([&](uint64_t q) { return btree.Find(q); }, keys,
                          values, queries, "btree");

  AlexIndex<uint64_t, uint64_t> alex;
  alex.BulkLoad(keys, values);
  // Inserts exercise the exponential slot search; they land past the last
  // key, so the reference stays sorted.
  const uint64_t last = keys.back();
  for (uint64_t extra = 1; extra < 200; extra += 2) {
    alex.Insert(last + extra, extra);
    keys.push_back(last + extra);
    values.push_back(extra);
  }
  ExpectExactAtEveryLevel([&](uint64_t q) { return alex.Find(q); }, keys,
                          values, queries, "alex");
}

TEST(IndexSimdEquivalenceTest, SortedRunLearnedSearch) {
  LevelGuard guard;
  const std::vector<uint64_t> keys = UniqueSortedKeys(20000, 89);
  std::vector<uint64_t> values(keys.size());
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    values[i] = keys[i] * 2;
    entries.push_back({keys[i], RunEntry<uint64_t>{values[i], false}});
  }
  const std::vector<uint64_t> queries = MixedQueries(keys, 97);

  SortedRun<uint64_t, uint64_t> run(entries, {});
  ExpectExactAtEveryLevel(
      [&](uint64_t q) -> std::optional<uint64_t> {
        const auto r = run.Get(q, nullptr);
        if (!r) return std::nullopt;
        return r->value;
      },
      keys, values, queries, "run");
}

// The kScalar level is the scalar A/B baseline: it must run the inlined
// counted binary search over the ε-window, not the one-pass count-less-than
// kernel (whose scalar table entry would still count as a single step).
// Vector levels resolve each hit in exactly one step.
TEST(SimdDispatchTest, ScalarLevelTakesTheScalarPath) {
  LevelGuard guard;
  const std::vector<uint64_t> keys = UniqueSortedKeys(20000, 107);
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries;
  entries.reserve(keys.size());
  for (uint64_t k : keys) entries.push_back({k, RunEntry<uint64_t>{k, false}});
  std::mt19937_64 rng(109);
  std::vector<uint64_t> hits(500);
  for (uint64_t& h : hits) h = keys[rng() % keys.size()];

  SortedRun<uint64_t, uint64_t> run(entries, {});
  const std::string path = ::testing::TempDir() + "lidx_simd_dispatch";
  std::remove(path.c_str());
  storage::FileManager file(path);
  storage::BufferPool pool(&file, 64);
  storage::DiskRun<uint64_t, uint64_t> disk(entries, &file, &pool, {});

  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (uint64_t h : hits) {
      LsmStats mem;
      ASSERT_TRUE(run.Get(h, &mem).has_value());
      storage::DiskIoStats io;
      ASSERT_TRUE(disk.Get(h, &io).has_value());
      if (level == simd::Level::kScalar) {
        EXPECT_GT(mem.search_steps, 1u) << "SortedRun key=" << h;
        EXPECT_GT(io.search_steps, 1u) << "DiskRun key=" << h;
      } else {
        EXPECT_EQ(mem.search_steps, 1u)
            << simd::LevelName(level) << " SortedRun key=" << h;
        EXPECT_EQ(io.search_steps, 1u)
            << simd::LevelName(level) << " DiskRun key=" << h;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(IndexSimdEquivalenceTest, LookupBatchMatchesScalarFindAtEveryLevel) {
  LevelGuard guard;
  const std::vector<uint64_t> keys = UniqueSortedKeys(20000, 101);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i + 1;  // Nonzero.
  const std::vector<uint64_t> queries = MixedQueries(keys, 103);
  std::vector<uint64_t> out(queries.size());

  Rmi<uint64_t, uint64_t> rmi;
  rmi.Build(keys, values);
  PgmIndex<uint64_t, uint64_t> pgm;
  pgm.Build(keys, values);
  RadixSpline<uint64_t, uint64_t> rs;
  rs.Build(keys, values);

  // LookupBatch writes Value{} (= 0, distinct from every stored value) on a
  // miss — the same contract Find expresses with nullopt.
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    rmi.LookupBatch(queries.data(), queries.size(), out.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(out[i], rmi.Find(queries[i]).value_or(0))
          << simd::LevelName(level) << " rmi i=" << i;
    }
    pgm.LookupBatch(queries.data(), queries.size(), out.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(out[i], pgm.Find(queries[i]).value_or(0))
          << simd::LevelName(level) << " pgm i=" << i;
    }
    rs.LookupBatch(queries.data(), queries.size(), out.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(out[i], rs.Find(queries[i]).value_or(0))
          << simd::LevelName(level) << " rs i=" << i;
    }
  }
}

// ----- UnpackBits: the page-codec decode kernel ---------------------------

// Reference packer: LSB-first fixed-width fields, independent of the
// kernel under test (page_codec.h's PackBits is not reused on purpose).
void ReferencePack(const std::vector<uint64_t>& values, unsigned bits,
                   size_t bit_offset, std::vector<unsigned char>* buf) {
  for (size_t i = 0; i < values.size(); ++i) {
    for (unsigned b = 0; b < bits; ++b) {
      if ((values[i] >> b) & 1u) {
        const size_t bo = bit_offset + i * bits + b;
        // lidx-lint: allow(raw-unpack): independent reference packer.
        (*buf)[bo >> 3] |= static_cast<unsigned char>(1u << (bo & 7));
      }
    }
  }
}

TEST(SimdKernelTest, UnpackBitsMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(20240807);
  for (unsigned bits = 0; bits <= 64; ++bits) {
    const uint64_t mask =
        bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
    for (const size_t count : {1u, 3u, 4u, 5u, 64u, 257u}) {
      const size_t bit_offset = rng() % 13;
      std::vector<uint64_t> values(count);
      for (uint64_t& v : values) v = rng() & mask;
      // 8 bytes of slack past the packed stream, as the page layout
      // guarantees (kCodecSlackBytes).
      std::vector<unsigned char> buf(
          (bit_offset + count * size_t{bits} + 7) / 8 + 8, 0);
      ReferencePack(values, bits, bit_offset, &buf);
      std::vector<uint64_t> scalar_out(count, ~uint64_t{0});
      simd::UnpackBitsScalar(buf.data(), bit_offset, bits, count,
                             scalar_out.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(scalar_out[i], values[i]) << "bits=" << bits << " i=" << i;
      }
      for (simd::Level level : RunnableLevels()) {
        simd::SetLevel(level);
        std::vector<uint64_t> out(count, ~uint64_t{0});
        simd::UnpackBits(buf.data(), bit_offset, bits, count, out.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], scalar_out[i])
              << simd::LevelName(level) << " bits=" << bits << " i=" << i;
        }
      }
    }
  }
}


// ----- Kernel-level fuzz: residual range against a stepped line -----------

// The 128-bit definition of ResidualExtent: pred_i = base ± (q i + floor(r i
// / d)) mod 2^64, exact residuals, and {0, 0, false} past the budget.
simd::ResidualExtent ReferenceResidualRange(const std::vector<uint64_t>& x,
                                            const simd::SteppedLine& line,
                                            uint64_t budget) {
  using U128 = unsigned __int128;
  using I128 = __int128;
  I128 above = 0;
  I128 below = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint64_t offset = static_cast<uint64_t>(
        static_cast<U128>(line.q) * i + static_cast<U128>(line.r) * i / line.d);
    const uint64_t pred =
        line.negative ? line.base - offset : line.base + offset;
    const I128 res = static_cast<I128>(x[i]) - static_cast<I128>(pred);
    above = std::max(above, res);
    below = std::max(below, -res);
  }
  if (above + below > static_cast<I128>(budget)) return {};
  return {static_cast<uint64_t>(above), static_cast<uint64_t>(below), true};
}

void ExpectSameExtent(const simd::ResidualExtent& got,
                      const simd::ResidualExtent& want,
                      const std::string& what) {
  ASSERT_EQ(got.within, want.within) << what;
  ASSERT_EQ(got.above, want.above) << what;
  ASSERT_EQ(got.below, want.below) << what;
}

// Lines of every slope sign and remainder, over columns whose residuals
// range from 0 to the full 64 bits (the AVX2 kernel holds magnitudes up to
// 2^61 and hands wider columns to the scalar twin), with
// the widest residual at the front, on a 64-record block seam or in the
// tail, and budgets at, just below and far from the column's range.
TEST(SimdKernelTest, ResidualRangeMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  std::mt19937_64 rng(31337);
  const uint64_t kWidths[] = {0, 1, 7, 31, 33, 60, 61, 62, 63, 64};
  std::vector<size_t> lengths = {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65,
                                 127, 128, 129, 200, 1000, 65535};
  for (int extra = 0; extra < 40; ++extra) lengths.push_back(rng() % 700);
  for (int c = 0; c < 1500; ++c) {
    const size_t n = lengths[c % lengths.size()];
    if (n == 65535 && c % 5 != 0) continue;
    simd::SteppedLine line;
    line.d = 1 + rng() % 65534;
    line.r = c % 7 == 0 ? 0 : rng() % line.d;
    line.q = c % 3 == 0 ? rng() % 1000 : (c % 3 == 1 ? rng() >> 20 : rng());
    line.negative = c % 2 == 1;
    line.base = c % 11 == 0 ? 0 : (c % 11 == 1 ? ~uint64_t{0} : rng());
    const uint64_t width = kWidths[rng() % std::size(kWidths)];
    const uint64_t noise_mask =
        width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    std::vector<uint64_t> x(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t offset = static_cast<uint64_t>(
          static_cast<unsigned __int128>(line.q) * i +
          static_cast<unsigned __int128>(line.r) * i / line.d);
      const uint64_t pred =
          line.negative ? line.base - offset : line.base + offset;
      // Small residuals everywhere, one wide one where the case puts it.
      x[i] = pred + (rng() % 16) - 8;
      if (c % 13 == 0) x[i] = i % 2 == 0 ? rng() % 100 : ~uint64_t{0} - i;
    }
    if (n > 0) {
      const size_t spikes[] = {0, std::min<size_t>(64, n - 1), n - 1,
                               static_cast<size_t>(rng() % n)};
      const size_t at = spikes[c % 4];
      const uint64_t mag = rng() & noise_mask;
      x[at] = (c / 4) % 2 == 0 ? x[at] + mag : x[at] - mag;
    }
    const simd::ResidualExtent full =
        ReferenceResidualRange(x, line, ~uint64_t{0});
    std::vector<uint64_t> budgets = {~uint64_t{0}, 0, rng() >> (rng() % 64)};
    if (full.within) {
      const uint64_t range = full.above + full.below;
      budgets.push_back(range);
      if (range > 0) budgets.push_back(range - 1);
    }
    for (const uint64_t budget : budgets) {
      const simd::ResidualExtent want =
          ReferenceResidualRange(x, line, budget);
      const std::string what = "case " + std::to_string(c) + " n " +
                               std::to_string(n) + " budget " +
                               std::to_string(budget);
      ExpectSameExtent(simd::ResidualRangeScalar(x.data(), n, line, budget),
                       want, "scalar " + what);
      for (simd::Level level : RunnableLevels()) {
        simd::SetLevel(level);
        ExpectSameExtent(simd::ResidualRange(x.data(), n, line, budget), want,
                         std::string(simd::LevelName(level)) + " " + what);
      }
    }
  }
}

// The AVX2 lanes' edge: residuals of magnitude around 2^61 (the widest
// the lanes hold) and up to 2^63, where a lane value would no longer be an
// ordered double, on either side of a flat line, alone and together.
TEST(SimdKernelTest, ResidualRangeAtTheAvx2LaneEdge) {
  LevelGuard guard;
  const uint64_t base = uint64_t{1} << 62;
  const uint64_t edge = uint64_t{1} << 61;
  for (const size_t n : {size_t{8}, size_t{64}, size_t{100}}) {
    for (const uint64_t mag :
         {edge - 1, edge, edge + 1, 2 * edge - (uint64_t{1} << 52),
          2 * edge - 1, 2 * edge, 4 * edge - 1, 4 * edge}) {
      for (const int side : {1, -1, 0}) {
        std::vector<uint64_t> x(n, base);
        x[n / 2] = side >= 0 ? base + mag : base - mag;
        if (side == 0) x[n - 1] = base - mag;
        const simd::SteppedLine line{base, 0, 0, 1, false};
        const simd::ResidualExtent want =
            ReferenceResidualRange(x, line, ~uint64_t{0});
        for (simd::Level level : RunnableLevels()) {
          simd::SetLevel(level);
          ExpectSameExtent(
              simd::ResidualRange(x.data(), n, line, ~uint64_t{0}), want,
              std::string(simd::LevelName(level)) + " n " +
                  std::to_string(n) + " mag " + std::to_string(mag) +
                  " side " + std::to_string(side));
        }
      }
    }
  }
}

}  // namespace
}  // namespace lidx
