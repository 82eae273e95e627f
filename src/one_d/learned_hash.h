#ifndef LIDX_ONE_D_LEARNED_HASH_H_
#define LIDX_ONE_D_LEARNED_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "models/pla_locator.h"

namespace lidx {

// Learned hash map (Kraska et al. 2018 §"hash indexes"; Sabek et al., VLDB
// 2023 "Can Learned Models Replace Hash Functions?"): instead of a random
// hash, the bucket of a key is its predicted CDF rank. When the model fits
// the key distribution, keys spread nearly uniformly with *zero* hash
// computation cost beyond two multiply-adds — and the table becomes
// order-preserving, so nearby keys land in nearby buckets (useful for
// short scans, impossible for a random hash). When the model fits poorly,
// buckets skew and chains grow — the failure mode the literature
// documents; the E15 bench measures both regimes against a classic
// multiplicative hash.
//
// The model is trained once on the build keys (a CDF sample); inserts
// after build use the same mapping, so heavy distribution drift degrades
// occupancy (see ModelDriftDetector for the retraining hook, §6.3).
template <typename Key, typename Value>
class LearnedHashMap {
 public:
  struct Options {
    double buckets_per_key = 1.0;  // Table size relative to build size.
    size_t epsilon = 16;           // CDF model error bound.
  };

  explicit LearnedHashMap(const Options& options = Options())
      : options_(options) {
    buckets_.resize(16);
  }

  // Trains the CDF model on sorted unique keys and inserts them. Like every
  // learned model's keys, they must stay distinct as doubles (below 2^53
  // for integers): two that round to one double abort the build.
  void BulkLoad(const std::vector<Key>& keys,
                const std::vector<Value>& values) {
    LIDX_CHECK(keys.size() == values.size());
    size_ = 0;
    const size_t num_buckets = std::max<size_t>(
        16, static_cast<size_t>(static_cast<double>(keys.size()) *
                                options_.buckets_per_key));
    buckets_.assign(num_buckets, {});
    // CDF model: ε-bounded PLA over the build keys, rescaled to buckets.
    locator_.Build(keys, options_.epsilon, /*threads=*/1);
    if (keys.empty()) return;
    scale_ = static_cast<double>(num_buckets) /
             static_cast<double>(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      buckets_[BucketOf(keys[i])].push_back({keys[i], values[i]});
      ++size_;
    }
  }

  bool Insert(const Key& key, const Value& value) {
    auto& bucket = buckets_[BucketOf(key)];
    for (auto& entry : bucket) {
      if (entry.first == key) {
        entry.second = value;
        return false;
      }
    }
    bucket.push_back({key, value});
    ++size_;
    return true;
  }

  std::optional<Value> Find(const Key& key) const {
    const auto& bucket = buckets_[BucketOf(key)];
    for (const auto& entry : bucket) {
      if (entry.first == key) return entry.second;
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  bool Erase(const Key& key) {
    auto& bucket = buckets_[BucketOf(key)];
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].first == key) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        --size_;
        return true;
      }
    }
    return false;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t NumBuckets() const { return buckets_.size(); }

  // Occupancy skew: the variance of bucket loads relative to a perfectly
  // uniform spread (1.0 would match an ideal random hash's expectation).
  double LoadVariance() const {
    if (buckets_.empty() || size_ == 0) return 0.0;
    const double mean =
        static_cast<double>(size_) / static_cast<double>(buckets_.size());
    double sq = 0.0;
    for (const auto& bucket : buckets_) {
      const double d = static_cast<double>(bucket.size()) - mean;
      sq += d * d;
    }
    return sq / (static_cast<double>(buckets_.size()) * mean);
  }

  size_t MaxChainLength() const {
    size_t max_len = 0;
    for (const auto& bucket : buckets_) {
      max_len = std::max(max_len, bucket.size());
    }
    return max_len;
  }

  size_t SizeBytes() const {
    size_t total = sizeof(*this) + locator_.SizeBytes() +
                   buckets_.capacity() * sizeof(buckets_[0]);
    for (const auto& bucket : buckets_) {
      total += bucket.capacity() * sizeof(std::pair<Key, Value>);
    }
    return total;
  }

 private:
  size_t BucketOf(const Key& key) const {
    // Unclamped: a clamped, truncated rank would move keys between buckets.
    const double b = locator_.Predict(key) * scale_;
    if (b <= 0.0) return 0;
    const size_t bucket = static_cast<size_t>(b);
    return bucket >= buckets_.size() ? buckets_.size() - 1 : bucket;
  }

  Options options_;
  PlaLocator locator_;
  double scale_ = 1.0;
  std::vector<std::vector<std::pair<Key, Value>>> buckets_;
  size_t size_ = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_LEARNED_HASH_H_
