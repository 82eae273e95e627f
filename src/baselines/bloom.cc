#include "baselines/bloom.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace lidx {

BloomFilter::BloomFilter(size_t expected_keys, double bits_per_key) {
  LIDX_CHECK(bits_per_key > 0.0);
  const size_t wanted = std::max<size_t>(
      64, static_cast<size_t>(static_cast<double>(std::max<size_t>(
                                  1, expected_keys)) *
                              bits_per_key));
  num_bits_ = (wanted + 63) / 64 * 64;
  bits_.assign(num_bits_ / 64, 0);
  num_hashes_ = std::max(1, static_cast<int>(std::lround(
                                bits_per_key * 0.6931471805599453)));
  num_hashes_ = std::min(num_hashes_, 30);
}

uint64_t BloomFilter::Hash1(uint64_t key) {
  // MurmurHash3 finalizer.
  key ^= key >> 33;
  key *= 0xFF51AFD7ED558CCDull;
  key ^= key >> 33;
  key *= 0xC4CEB9FE1A85EC53ull;
  key ^= key >> 33;
  return key;
}

uint64_t BloomFilter::Hash2(uint64_t key) {
  // SplitMix64 finalizer (independent mixing constants).
  key += 0x9E3779B97F4A7C15ull;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}

void BloomFilter::Add(uint64_t key) {
  const uint64_t h1 = Hash1(key);
  const uint64_t h2 = Hash2(key) | 1;  // Odd so the probe cycle covers bits.
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t bit = Probe(h);
    bits_[bit / 64] |= (1ull << (bit % 64));
    h += h2;
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  const uint64_t h1 = Hash1(key);
  const uint64_t h2 = Hash2(key) | 1;
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t bit = Probe(h);
    if ((bits_[bit / 64] & (1ull << (bit % 64))) == 0) return false;
    h += h2;
  }
  return true;
}

void BloomFilter::MayContainBatch(const uint64_t* keys, size_t count,
                                  bool* out) const {
  constexpr size_t kChunk = 32;
  uint64_t h1[kChunk];
  uint64_t h2[kChunk];
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t m = std::min(kChunk, count - base);
    simd::BloomHashBatch(keys + base, m, h1, h2);
    // Kick off the first probe of every key in the chunk before testing
    // any bit: the filter words are random cache lines, so this turns m
    // dependent misses into m overlapped ones.
    for (size_t i = 0; i < m; ++i) {
      LIDX_PREFETCH_READ(&bits_[Probe(h1[i]) / 64]);
    }
    for (size_t i = 0; i < m; ++i) {
      const uint64_t step = h2[i] | 1;
      uint64_t h = h1[i];
      bool hit = true;
      for (int j = 0; j < num_hashes_; ++j) {
        const size_t bit = Probe(h);
        if ((bits_[bit / 64] & (1ull << (bit % 64))) == 0) {
          hit = false;
          break;
        }
        h += step;
      }
      out[base + i] = hit;
    }
  }
}

}  // namespace lidx
