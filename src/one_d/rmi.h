#ifndef LIDX_ONE_D_RMI_H_
#define LIDX_ONE_D_RMI_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/prefetch.h"
#include "common/search.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "common/value_slot.h"
#include "models/linear_model.h"

namespace lidx {

// Recursive Model Index (Kraska et al., SIGMOD 2018): the first learned
// index. Two stages of linear models learn the key CDF; stage 1 routes a key
// to one of `num_models` stage-2 models, each of which predicts a position
// in the sorted key array. Per-model signed error bounds recorded at build
// time turn the prediction into a small certified search window.
//
// Taxonomy position: one-dimensional / immutable / fixed layout / pure.
template <typename Key, typename Value>
class Rmi {
 public:
  struct Options {
    size_t num_models = 1 << 12;  // Stage-2 model count.
    // Threads used by Build: stage-2 models train over disjoint key ranges
    // in parallel. The result is byte-identical for every thread count
    // (the stage-1 fit accumulates in fixed-size blocks regardless of
    // threads, and each stage-2 model trains on exactly its serial
    // partition). 1 = fully serial.
    size_t build_threads = 1;
  };

  Rmi() = default;

  // Builds from sorted, unique keys and parallel values.
  void Build(std::vector<Key> keys, std::vector<Value> values,
             const Options& options = Options()) {
    LIDX_CHECK(keys.size() == values.size());
    LIDX_CHECK(options.num_models >= 1);
    keys_ = std::move(keys);
    values_ = std::move(values);
    const size_t n = keys_.size();
    num_models_ = std::min(options.num_models, std::max<size_t>(1, n));
    models_.assign(num_models_, ModelWithBounds{});
    if (n == 0) return;
    for (size_t i = 1; i < n; ++i) LIDX_DCHECK(keys_[i - 1] < keys_[i]);

    // Stage 1: least-squares line from key to model index, trained on the
    // scaled CDF so partitions follow the data distribution.
    const size_t threads = options.build_threads;
    {
      // Fit key -> position, then rescale slope/intercept to model space.
      LinearModel pos_model = FitStage1(n, threads);
      const double scale = static_cast<double>(num_models_) /
                           static_cast<double>(n);
      stage1_.slope = pos_model.slope * scale;
      stage1_.intercept = pos_model.intercept * scale;
    }

    // Partition keys by stage-1 routing. Routing is monotone (non-negative
    // slope), so each model covers the contiguous range ending at the first
    // key routed past it. Partitions are disjoint, so the stage-2 models
    // train independently — in parallel when build_threads > 1 — and the
    // boundaries (hence every trained model) match the serial build
    // exactly.
    LIDX_CHECK(stage1_.slope >= 0.0);
    std::vector<size_t> ends(num_models_);
    ParallelForIndex(threads, num_models_, [&](size_t m) {
      ends[m] = static_cast<size_t>(
          std::partition_point(
              keys_.begin(), keys_.end(),
              [&](const Key& k) { return RouteToModel(k) <= m; }) -
          keys_.begin());
    });
    LIDX_CHECK(ends.back() == n);
    ParallelForIndex(threads, num_models_, [&](size_t m) {
      TrainModel(m, m == 0 ? 0 : ends[m - 1], ends[m]);
    });
  }

  // Raw model prediction for `key` (before the last-mile search); exposed
  // so wrappers can measure observed error for drift detection (§6.3).
  size_t PredictPosition(const Key& key) const {
    if (keys_.empty()) return 0;
    const ModelWithBounds& m = models_[RouteToModel(key)];
    return m.model.PredictClamped(static_cast<double>(key), keys_.size());
  }

  // Position of the first key >= `key` in the sorted key array.
  size_t LowerBound(const Key& key) const {
    const size_t n = keys_.size();
    if (n == 0) return 0;
    const ModelWithBounds& m = models_[RouteToModel(key)];
    const size_t pred = m.model.PredictClamped(static_cast<double>(key), n);
    return WindowLowerBoundWithFixup(keys_, key, pred, m.err_lo, m.err_hi, n);
  }

  std::optional<Value> Find(const Key& key) const {
    const size_t pos = LowerBound(key);
    if (pos < keys_.size() && keys_[pos] == key) {
      return LoadValue(values_[pos]);
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const {
    const size_t pos = LowerBound(key);
    return pos < keys_.size() && keys_[pos] == key;
  }

  // Batched point lookups: out[i] = value for keys[i], or Value{} when the
  // key is absent (same equality semantics as Find). Lookups run as AMAC
  // groups of G: each stage prefetches the next dependent access (stage-2
  // model row, last-mile window probes, value slot) and yields, so up to G
  // cache misses are in flight per thread instead of one.
  template <size_t G = 16>
  void LookupBatch(const Key* keys, size_t count, Value* out) const {
    const size_t n = keys_.size();
    if (n == 0) {
      std::fill(out, out + count, Value{});
      return;
    }
    struct Cursor {
      Key key;
      size_t idx;
      size_t model;
      size_t pos;
      int stage;
      WindowSearchCursor<Key> search;
    };
    // Stage-1 routing is a pure per-key linear-model evaluation, so when
    // the key type is SIMD-eligible it is computed 4 keys per instruction
    // in chunks ahead of the scheduler (InterleavedRun hands out i in
    // increasing order). RouteToModel(k) == PredictClamped(k, num_models_)
    // by construction, so the batched routes match the scalar ones.
    constexpr size_t kRouteChunk = 256;
    size_t route_buf[kRouteChunk];
    size_t route_end = 0;  // Keys [route_end - chunk, route_end) are cached.
    size_t route_begin = 0;
    const bool batch_route =
        simd::kEligible<std::vector<Key>, Key> && simd::Vectorized();
    InterleavedRun<G, Cursor>(
        count,
        [&](Cursor& c, size_t i) {
          c.idx = i;
          c.key = keys[i];
          c.stage = 0;
          if constexpr (std::is_same_v<Key, uint64_t>) {
            if (batch_route) {
              if (i >= route_end) {
                route_begin = i;
                const size_t m = std::min(kRouteChunk, count - i);
                simd::PredictClampedBatch(stage1_.slope, stage1_.intercept,
                                          keys + i, m, num_models_,
                                          route_buf);
                route_end = i + m;
              }
              c.model = route_buf[i - route_begin];
            } else {
              c.model = RouteToModel(c.key);
            }
          } else {
            c.model = RouteToModel(c.key);
          }
          // The stage-2 model table is far larger than L1; fetch this
          // key's row while other lookups in the group execute.
          LIDX_PREFETCH_READ(&models_[c.model]);
        },
        [&](Cursor& c) -> bool {
          switch (c.stage) {
            case 0: {
              const ModelWithBounds& m = models_[c.model];
              const size_t pred =
                  m.model.PredictClamped(static_cast<double>(c.key), n);
              c.search.Begin(keys_, c.key, pred, m.err_lo, m.err_hi, n);
              c.stage = 1;
              return false;
            }
            case 1: {
              if (!c.search.Advance(keys_, c.key)) return false;
              c.pos = c.search.result();
              if (c.pos < n) LIDX_PREFETCH_READ(&values_[c.pos]);
              c.stage = 2;
              return false;
            }
            default:
              out[c.idx] = (c.pos < n && keys_[c.pos] == c.key)
                               ? LoadValue(values_[c.pos])
                               : Value{};
              return true;
          }
        });
  }

  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    for (size_t i = LowerBound(lo); i < keys_.size() && keys_[i] <= hi; ++i) {
      out->emplace_back(keys_[i], LoadValue(values_[i]));
    }
  }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  size_t num_models() const { return num_models_; }

  // Index structure size, excluding the data arrays themselves (so it is
  // comparable to a B+-tree's inner-node overhead per the SOSD convention).
  size_t ModelSizeBytes() const {
    return sizeof(*this) + models_.capacity() * sizeof(ModelWithBounds);
  }

  size_t SizeBytes() const {
    return ModelSizeBytes() + keys_.capacity() * sizeof(Key) +
           values_.capacity() * sizeof(Value);
  }

  // Largest certified search-window radius across models (for E4/E14).
  size_t MaxErrorWindow() const {
    size_t w = 0;
    for (const auto& m : models_) {
      w = std::max(w, std::max(m.err_lo, m.err_hi));
    }
    return w;
  }

  double MeanErrorWindow() const {
    if (models_.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& m : models_) {
      sum += static_cast<double>(m.err_lo + m.err_hi) / 2.0;
    }
    return sum / static_cast<double>(models_.size());
  }

  const std::vector<Key>& keys() const { return keys_; }
  const std::vector<Value>& values() const { return values_; }

  // Binary persistence (same-architecture). Requires trivially copyable
  // Key and Value. CRC-framed (WriteImage): byte flips anywhere in the
  // payload are rejected at load time.
  void SaveTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<Key>);
    static_assert(std::is_trivially_copyable_v<Value>);
    std::ostringstream payload;
    WritePod(payload, stage1_);
    WritePod<uint64_t>(payload, num_models_);
    WriteVector(payload, keys_);
    WriteVector(payload, values_);
    WriteVector(payload, models_);
    WriteImage(out, kSerialMagic, kSerialVersion, payload.str());
  }

  // Returns false (leaving the index empty) on malformed input: wrong
  // magic/version, truncation, or a payload CRC mismatch.
  bool LoadFrom(std::istream& stream) {
    *this = Rmi();
    std::string bytes;
    if (!ReadImage(stream, kSerialMagic, kSerialVersion, &bytes)) {
      return false;
    }
    std::istringstream in(std::move(bytes));
    if (!ReadPod(in, &stage1_)) return false;
    uint64_t num_models = 0;
    if (!ReadPod(in, &num_models)) return false;
    num_models_ = num_models;
    if (!ReadVector(in, &keys_) || !ReadVector(in, &values_) ||
        !ReadVector(in, &models_)) {
      return false;
    }
    if (keys_.size() != values_.size()) return false;
    if (models_.size() != num_models_) return false;
    if (!keys_.empty() && models_.empty()) return false;
    return true;
  }

  // Structural invariants: parallel arrays, strict key order, monotone
  // stage-1 routing, and the certified error window of every stage-2 model
  // re-verified against each key it covers. Aborts on violation. Test hook.
  void CheckInvariants() const {
    LIDX_INVARIANT(keys_.size() == values_.size(), "rmi: parallel arrays");
    invariants::CheckStrictlySorted(keys_, "rmi: keys strictly sorted");
    if (keys_.empty()) return;
    LIDX_INVARIANT(num_models_ >= 1, "rmi: at least one model");
    LIDX_INVARIANT(models_.size() == num_models_, "rmi: model table size");
    LIDX_INVARIANT(stage1_.slope >= 0.0, "rmi: monotone stage-1 routing");
    const size_t n = keys_.size();
    for (size_t i = 0; i < n; ++i) {
      const size_t m = RouteToModel(keys_[i]);
      const ModelWithBounds& mb = models_[m];
      const size_t pred =
          mb.model.PredictClamped(static_cast<double>(keys_[i]), n);
      if (pred > i) {
        LIDX_INVARIANT(pred - i <= mb.err_hi, "rmi: certified error window");
      } else {
        LIDX_INVARIANT(i - pred <= mb.err_lo, "rmi: certified error window");
      }
    }
  }

 private:
  static constexpr uint32_t kSerialMagic = 0x524D4931;  // "RMI1".
  static constexpr uint32_t kSerialVersion = 2;  // 2: CRC-framed image.

  struct ModelWithBounds {
    LinearModel model;
    // err_lo/err_hi: max under-/over-shoot of predictions on trained keys.
    size_t err_lo = 0;
    size_t err_hi = 0;
  };

  size_t RouteToModel(const Key& key) const {
    const double p = stage1_.Predict(static_cast<double>(key));
    if (p <= 0.0) return 0;
    const size_t m = static_cast<size_t>(p);
    return m >= num_models_ ? num_models_ - 1 : m;
  }

  // Stage-1 fit via fixed-size block accumulation: the block decomposition
  // is independent of build_threads, so the fitted line — and with it every
  // partition boundary and stage-2 model — is bit-identical across thread
  // counts.
  LinearModel FitStage1(size_t n, size_t threads) const {
    static constexpr size_t kFitBlock = size_t{1} << 13;
    if (n <= 1) return LinearModel::FitToPositions(keys_, 0, n);
    const double x0 = static_cast<double>(keys_[0]);
    FitAccumulator acc = ParallelReduce<FitAccumulator>(
        threads, n, kFitBlock, FitAccumulator{},
        [&](size_t begin, size_t end) {
          FitAccumulator a;
          for (size_t i = begin; i < end; ++i) {
            a.Add(static_cast<double>(keys_[i]) - x0, static_cast<double>(i));
          }
          return a;
        },
        [](FitAccumulator lhs, const FitAccumulator& rhs) {
          lhs.Merge(rhs);
          return lhs;
        });
    return acc.Solve(x0);
  }

  void TrainModel(size_t m, size_t begin, size_t end) {
    ModelWithBounds& mb = models_[m];
    if (begin >= end) {
      // Empty partition: constant model pointing at the gap position.
      mb.model.slope = 0.0;
      mb.model.intercept = static_cast<double>(begin);
      return;
    }
    mb.model = LinearModel::FitToPositions(keys_, begin, end);
    int64_t max_under = 0;  // pred < true
    int64_t max_over = 0;   // pred > true
    for (size_t i = begin; i < end; ++i) {
      const int64_t pred = static_cast<int64_t>(
          mb.model.PredictClamped(static_cast<double>(keys_[i]),
                                  keys_.size()));
      const int64_t err = pred - static_cast<int64_t>(i);
      if (err > max_over) max_over = err;
      if (-err > max_under) max_under = -err;
    }
    mb.err_lo = static_cast<size_t>(max_under);
    mb.err_hi = static_cast<size_t>(max_over);
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  LinearModel stage1_;
  std::vector<ModelWithBounds> models_;
  size_t num_models_ = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_RMI_H_
