#ifndef LIDX_BASELINES_BLOOM_H_
#define LIDX_BASELINES_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lidx {

// Standard Bloom filter over 64-bit keys (double hashing, Kirsch &
// Mitzenmacher). Baseline for the learned Bloom filter experiments (E5) and
// the backup filter inside LearnedBloomFilter itself.
class BloomFilter {
 public:
  // Sizes the filter for `expected_keys` at `bits_per_key` (k hash functions
  // chosen as round(ln 2 * bits_per_key)).
  BloomFilter(size_t expected_keys, double bits_per_key);

  void Add(uint64_t key);

  // True if the key may be a member; false means definitely not.
  bool MayContain(uint64_t key) const;

  // Batched membership test: out[i] = MayContain(keys[i]). Both hash
  // functions are computed 4 keys per instruction through the SIMD kernel
  // layer (common/simd.h), and each key's first probe word is prefetched
  // before any bit is tested, so the random filter-word misses of a chunk
  // overlap instead of serializing.
  void MayContainBatch(const uint64_t* keys, size_t count, bool* out) const;

  size_t SizeBytes() const { return bits_.size() * sizeof(uint64_t) + 24; }
  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }

 private:
  static uint64_t Hash1(uint64_t key);
  static uint64_t Hash2(uint64_t key);

  // Maps a probe hash onto [0, num_bits_) by its high bits (Lemire's
  // multiply-shift range reduction): one multiply where `h % num_bits_`
  // would be a 64-bit division.
  size_t Probe(uint64_t h) const {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h) * num_bits_) >> 64);
  }

  size_t num_bits_;
  int num_hashes_;
  std::vector<uint64_t> bits_;
};

}  // namespace lidx

#endif  // LIDX_BASELINES_BLOOM_H_
