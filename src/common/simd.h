#ifndef LIDX_COMMON_SIMD_H_
#define LIDX_COMMON_SIMD_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "common/macros.h"

// Portable SIMD kernel layer for the library's data-parallel inner loops:
// the last-mile ε-window search every learned index ends in, batched
// linear-model evaluation, and Bloom-filter hashing. Three compiled paths
// (AVX2, SSE2, NEON) sit behind a runtime-dispatched kernel table with an
// always-correct scalar fallback; every kernel is result-identical to its
// scalar reference (a lower bound is unique, predictions use the same
// mul/add/truncate sequence, hashes the same finalizers), so call sites
// can A/B scalar-vs-SIMD freely.
//
// Dispatch rules, in order:
//   1. Compile time: x86-64 builds always compile the SSE2 path (baseline
//      ISA) and additionally compile the AVX2 path via function target
//      attributes, so a portable -march=x86-64 binary still carries AVX2
//      kernels. AArch64 builds compile the NEON path. -DLIDX_SIMD_DISABLED
//      (CMake -DLIDX_SIMD=OFF) strips everything but the scalar table.
//   2. Run time: the first use of the kernel table probes cpuid
//      (__builtin_cpu_supports("avx2")) and picks the best supported
//      level, capped by the LIDX_SIMD environment variable
//      ("scalar"/"off"/"0", "sse2", "avx2", "neon"; anything else = auto).
//   3. Per call site: a call site with an inlined scalar path takes it
//      when simd::Vectorized() is false (the active level is kScalar) and
//      its vector path otherwise. The active level is the only runtime
//      scalar-vs-SIMD switch; there is no per-index one.
//
// simd::SetLevel() swaps the whole table (used by tests and benches for
// the scalar A/B). It is not thread-safe against concurrent lookups; call
// it before spawning readers.

#if !defined(LIDX_SIMD_DISABLED) && defined(__x86_64__)
#define LIDX_SIMD_X86 1
#include <immintrin.h>
#elif !defined(LIDX_SIMD_DISABLED) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define LIDX_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace lidx::simd {

enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

inline const char* LevelName(Level level) {
  switch (level) {
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

// Windows at or below this size are scanned linearly (branch-free, with an
// early exit every block); larger ranges first narrow by branchless binary
// search. Linear SIMD beats binary search on small sorted windows because
// the compares are independent (no serial cmov dependency chain) and there
// is nothing to mispredict.
inline constexpr size_t kLinearScanMax = 256;

// A Vec/Key pair the kernels can operate on: contiguous storage of exactly
// uint64_t or double elements matching the search key type. Everything
// else (strided layouts, other key types, non-contiguous proxies) takes
// the scalar path at compile time.
template <typename Vec, typename Key>
inline constexpr bool kEligible =
    (std::is_same_v<Key, uint64_t> || std::is_same_v<Key, double>) &&
    requires(const Vec& v) {
      { std::data(v) } -> std::convertible_to<const Key*>;
    };

// ----- Scalar reference kernels -----
//
// These define the semantics every vector path must reproduce. CountLess*
// assumes sorted input and may stop early at the first element >= key;
// on sorted data the count equals the lower-bound offset.

template <typename T>
inline size_t CountLessScalar(const T* p, size_t n, T key) {
  size_t c = 0;
  while (c < n && p[c] < key) ++c;
  return c;
}

template <typename T>
inline size_t LowerBoundScalarImpl(const T* data, size_t lo, size_t hi,
                                   T key) {
  size_t n = hi - lo;
  size_t base = lo;
  while (n > 1) {
    const size_t half = n / 2;
    base = (data[base + half - 1] < key) ? base + half : base;
    n -= half;
  }
  if (n == 1 && base < hi && data[base] < key) ++base;
  return base;
}

inline size_t CountLessU64Scalar(const uint64_t* p, size_t n, uint64_t key) {
  return CountLessScalar(p, n, key);
}
inline size_t CountLessF64Scalar(const double* p, size_t n, double key) {
  return CountLessScalar(p, n, key);
}
inline size_t LowerBoundU64Scalar(const uint64_t* p, size_t lo, size_t hi,
                                  uint64_t key) {
  return LowerBoundScalarImpl(p, lo, hi, key);
}
inline size_t LowerBoundF64Scalar(const double* p, size_t lo, size_t hi,
                                  double key) {
  return LowerBoundScalarImpl(p, lo, hi, key);
}

// Batched LinearModel::PredictClamped: out[i] = clamp(slope * x[i] +
// intercept) into [0, n), with the same <=0 / >=n-1 / truncate-toward-zero
// sequence as the scalar model. Callers guarantee n >= 1.
inline void PredictClampedU64Scalar(double slope, double intercept,
                                    const uint64_t* keys, size_t count,
                                    size_t n, size_t* out) {
  for (size_t i = 0; i < count; ++i) {
    const double p = slope * static_cast<double>(keys[i]) + intercept;
    out[i] = (p <= 0.0)
                 ? 0
                 : ((p >= static_cast<double>(n - 1)) ? n - 1
                                                      : static_cast<size_t>(p));
  }
}

// The two Bloom-filter finalizers (must stay in lockstep with
// BloomFilter::Hash1/Hash2 in baselines/bloom.cc — the filter's bit
// positions are derived from these exact mixers).
inline uint64_t BloomMix1(uint64_t key) {
  key ^= key >> 33;
  key *= 0xFF51AFD7ED558CCDull;
  key ^= key >> 33;
  key *= 0xC4CEB9FE1A85EC53ull;
  key ^= key >> 33;
  return key;
}
inline uint64_t BloomMix2(uint64_t key) {
  key += 0x9E3779B97F4A7C15ull;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}
inline void BloomHashScalar(const uint64_t* keys, size_t count, uint64_t* h1,
                            uint64_t* h2) {
  for (size_t i = 0; i < count; ++i) {
    h1[i] = BloomMix1(keys[i]);
    h2[i] = BloomMix2(keys[i]);
  }
}

// Fixed-width bit-unpack: out[i] = the `bits`-wide field starting at
// absolute bit `bit_offset + i * bits` of the byte stream `src`, fields
// packed LSB-first (field bit 0 lands at the lowest bit offset, matching
// the packer in storage/page_codec.h). Contract: the caller guarantees at
// least 8 readable bytes past the byte holding the last field's final bit
// (the page codec reserves that slack inside every page payload), so both
// the scalar windowed load and the AVX2 gather may over-read without
// leaving the buffer.
inline void UnpackBitsScalar(const unsigned char* src, size_t bit_offset,
                             unsigned bits, size_t count, uint64_t* out) {
  if (bits == 0) {
    for (size_t i = 0; i < count; ++i) out[i] = 0;
    return;
  }
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (size_t i = 0; i < count; ++i) {
    const size_t bo = bit_offset + i * bits;
    const size_t byte = bo >> 3;
    const unsigned shift = static_cast<unsigned>(bo & 7);
    uint64_t w;
    std::memcpy(&w, src + byte, sizeof(w));
    uint64_t v = w >> shift;
    if (shift != 0 && shift + bits > 64) {
      v |= uint64_t{src[byte + 8]} << (64u - shift);
    }
    out[i] = v & mask;
  }
}

#if defined(LIDX_SIMD_X86)

// ----- SSE2 kernels (x86-64 baseline, no target attribute needed) -----

namespace detail {

// Signed 64-bit a > b without SSE4.2: compare high dwords signed, low
// dwords unsigned, combine per 64-bit lane.
inline __m128i CmpGtI64Sse2(__m128i a, __m128i b) {
  const __m128i sign32 = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i hi_gt = _mm_cmpgt_epi32(a, b);
  const __m128i eq = _mm_cmpeq_epi32(a, b);
  const __m128i lo_gt_u =
      _mm_cmpgt_epi32(_mm_xor_si128(a, sign32), _mm_xor_si128(b, sign32));
  const __m128i hi_part = _mm_shuffle_epi32(hi_gt, _MM_SHUFFLE(3, 3, 1, 1));
  const __m128i eq_hi = _mm_shuffle_epi32(eq, _MM_SHUFFLE(3, 3, 1, 1));
  const __m128i lo_part = _mm_shuffle_epi32(lo_gt_u, _MM_SHUFFLE(2, 2, 0, 0));
  return _mm_or_si128(hi_part, _mm_and_si128(eq_hi, lo_part));
}

}  // namespace detail

inline size_t CountLessU64Sse2(const uint64_t* p, size_t n, uint64_t key) {
  const __m128i flip = _mm_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m128i vkey =
      _mm_xor_si128(_mm_set1_epi64x(static_cast<long long>(key)), flip);
  size_t i = 0;
  size_t cnt = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned bits = 0;
    for (size_t b = 0; b < 4; ++b) {
      __m128i v = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(p + i + 2 * b));
      v = _mm_xor_si128(v, flip);
      const __m128i lt = detail::CmpGtI64Sse2(vkey, v);  // p[j] < key.
      bits |= static_cast<unsigned>(
                  _mm_movemask_pd(_mm_castsi128_pd(lt)))
              << (2 * b);
    }
    cnt += static_cast<size_t>(__builtin_popcount(bits));
    if (bits != 0xFFu) return cnt;
  }
  for (; i < n; ++i) cnt += (p[i] < key) ? 1 : 0;
  return cnt;
}

inline size_t CountLessF64Sse2(const double* p, size_t n, double key) {
  const __m128d vkey = _mm_set1_pd(key);
  size_t i = 0;
  size_t cnt = 0;
  for (; i + 8 <= n; i += 8) {
    unsigned bits = 0;
    for (size_t b = 0; b < 4; ++b) {
      const __m128d v = _mm_loadu_pd(p + i + 2 * b);
      bits |= static_cast<unsigned>(_mm_movemask_pd(_mm_cmplt_pd(v, vkey)))
              << (2 * b);
    }
    cnt += static_cast<size_t>(__builtin_popcount(bits));
    if (bits != 0xFFu) return cnt;
  }
  for (; i < n; ++i) cnt += (p[i] < key) ? 1 : 0;
  return cnt;
}

// ----- AVX2 kernels (compiled via target attribute, picked by cpuid) -----

__attribute__((target("avx2"))) inline size_t CountLessU64Avx2(
    const uint64_t* p, size_t n, uint64_t key) {
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m256i vkey =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(key)), flip);
  size_t i = 0;
  size_t cnt = 0;
  for (; i + 16 <= n; i += 16) {
    unsigned bits = 0;
    for (size_t b = 0; b < 4; ++b) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p + i + 4 * b));
      v = _mm256_xor_si256(v, flip);
      const __m256i lt = _mm256_cmpgt_epi64(vkey, v);  // p[j] < key.
      bits |= static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(lt)))
              << (4 * b);
    }
    cnt += static_cast<size_t>(__builtin_popcount(bits));
    if (bits != 0xFFFFu) return cnt;
  }
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    v = _mm256_xor_si256(v, flip);
    const unsigned bits = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vkey, v))));
    cnt += static_cast<size_t>(__builtin_popcount(bits));
    if (bits != 0xFu) return cnt;
  }
  for (; i < n; ++i) cnt += (p[i] < key) ? 1 : 0;
  return cnt;
}

__attribute__((target("avx2"))) inline size_t CountLessF64Avx2(
    const double* p, size_t n, double key) {
  const __m256d vkey = _mm256_set1_pd(key);
  size_t i = 0;
  size_t cnt = 0;
  for (; i + 16 <= n; i += 16) {
    unsigned bits = 0;
    for (size_t b = 0; b < 4; ++b) {
      const __m256d v = _mm256_loadu_pd(p + i + 4 * b);
      bits |= static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_cmp_pd(v, vkey, _CMP_LT_OQ)))
              << (4 * b);
    }
    cnt += static_cast<size_t>(__builtin_popcount(bits));
    if (bits != 0xFFFFu) return cnt;
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(p + i);
    const unsigned bits = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, vkey, _CMP_LT_OQ)));
    cnt += static_cast<size_t>(__builtin_popcount(bits));
    if (bits != 0xFu) return cnt;
  }
  for (; i < n; ++i) cnt += (p[i] < key) ? 1 : 0;
  return cnt;
}

__attribute__((target("avx2"))) inline void PredictClampedU64Avx2(
    double slope, double intercept, const uint64_t* keys, size_t count,
    size_t n, size_t* out) {
  // cvttpd_epi32 covers positions < 2^31; larger tables take the scalar
  // loop (no index in this library gets near that per-model).
  if (n - 1 >= (1ull << 31)) {
    PredictClampedU64Scalar(slope, intercept, keys, count, n, out);
    return;
  }
  const __m256d vslope = _mm256_set1_pd(slope);
  const __m256d vicept = _mm256_set1_pd(intercept);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vnm1 = _mm256_set1_pd(static_cast<double>(n - 1));
  const __m256i vnm1i =
      _mm256_set1_epi64x(static_cast<long long>(n - 1));
  // Exact full-range u64 -> f64: split into high/low 32-bit halves anchored
  // at 2^84 and 2^52; the final add performs the single rounding a C cast
  // does.
  const __m256i lo_mask = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i anchor_lo =
      _mm256_set1_epi64x(0x4330000000000000ll);  // 2^52.
  const __m256i anchor_hi =
      _mm256_set1_epi64x(0x4530000000000000ll);  // 2^84.
  const __m256d anchor_sum =
      _mm256_set1_pd(19342813118337666422669312.0);  // 2^84 + 2^52.
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i xl =
        _mm256_or_si256(_mm256_and_si256(k, lo_mask), anchor_lo);
    const __m256i xh =
        _mm256_or_si256(_mm256_srli_epi64(k, 32), anchor_hi);
    const __m256d x = _mm256_add_pd(
        _mm256_sub_pd(_mm256_castsi256_pd(xh), anchor_sum),
        _mm256_castsi256_pd(xl));
    // mul+add, not FMA: matches the scalar model's two-rounding sequence.
    const __m256d pred =
        _mm256_add_pd(_mm256_mul_pd(vslope, x), vicept);
    const __m128i t32 = _mm256_cvttpd_epi32(pred);
    __m256i r = _mm256_cvtepi32_epi64(t32);
    const __m256i ge_hi =
        _mm256_castpd_si256(_mm256_cmp_pd(pred, vnm1, _CMP_GE_OQ));
    const __m256i le_zero =
        _mm256_castpd_si256(_mm256_cmp_pd(pred, vzero, _CMP_LE_OQ));
    r = _mm256_blendv_epi8(r, vnm1i, ge_hi);
    r = _mm256_andnot_si256(le_zero, r);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  if (i < count) {
    PredictClampedU64Scalar(slope, intercept, keys + i, count - i, n,
                            out + i);
  }
}

namespace detail {

// 64x64 -> low 64 multiply via three 32x32 partial products (no
// _mm256_mullo_epi64 below AVX-512DQ). A named target function — lambdas
// do not inherit the enclosing function's target attribute.
__attribute__((target("avx2"))) inline __m256i Mul64LoAvx2(__m256i a,
                                                           __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  return _mm256_add_epi64(ll,
                          _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

}  // namespace detail

__attribute__((target("avx2"))) inline void BloomHashAvx2(
    const uint64_t* keys, size_t count, uint64_t* h1, uint64_t* h2) {
  const __m256i c1a = _mm256_set1_epi64x(
      static_cast<long long>(0xFF51AFD7ED558CCDull));
  const __m256i c1b = _mm256_set1_epi64x(
      static_cast<long long>(0xC4CEB9FE1A85EC53ull));
  const __m256i c2add = _mm256_set1_epi64x(
      static_cast<long long>(0x9E3779B97F4A7C15ull));
  const __m256i c2a = _mm256_set1_epi64x(
      static_cast<long long>(0xBF58476D1CE4E5B9ull));
  const __m256i c2b = _mm256_set1_epi64x(
      static_cast<long long>(0x94D049BB133111EBull));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    // Hash1: MurmurHash3 finalizer.
    __m256i a = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
    a = detail::Mul64LoAvx2(a, c1a);
    a = _mm256_xor_si256(a, _mm256_srli_epi64(a, 33));
    a = detail::Mul64LoAvx2(a, c1b);
    a = _mm256_xor_si256(a, _mm256_srli_epi64(a, 33));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h1 + i), a);
    // Hash2: SplitMix64 finalizer.
    __m256i b = _mm256_add_epi64(k, c2add);
    b = detail::Mul64LoAvx2(_mm256_xor_si256(b, _mm256_srli_epi64(b, 30)), c2a);
    b = detail::Mul64LoAvx2(_mm256_xor_si256(b, _mm256_srli_epi64(b, 27)), c2b);
    b = _mm256_xor_si256(b, _mm256_srli_epi64(b, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(h2 + i), b);
  }
  if (i < count) BloomHashScalar(keys + i, count - i, h1 + i, h2 + i);
}

// Four fields per iteration: gather the 8-byte window containing each
// field's first bit (unaligned byte-granular gather, scale 1), variable
// right shift by the in-byte bit position, mask. A lane's shift is at most
// 7, so shift + bits <= 63 whenever bits <= 56 — the field never spills
// past its gathered window and the result is bit-identical to the scalar
// kernel. Wider fields (57..64 bits) fall back to the scalar spill path.
__attribute__((target("avx2"))) inline void UnpackBitsAvx2(
    const unsigned char* src, size_t bit_offset, unsigned bits, size_t count,
    uint64_t* out) {
  if (bits == 0 || bits > 56) {
    UnpackBitsScalar(src, bit_offset, bits, count, out);
    return;
  }
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i lane_bits =
      _mm256_setr_epi64x(0, bits, 2ll * bits, 3ll * bits);
  const __m256i seven = _mm256_set1_epi64x(7);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i vbit = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(bit_offset + i * bits)),
        lane_bits);
    const __m256i vbyte = _mm256_srli_epi64(vbit, 3);
    const __m256i vshift = _mm256_and_si256(vbit, seven);
    const __m256i w = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(src), vbyte, 1);
    const __m256i v =
        _mm256_and_si256(_mm256_srlv_epi64(w, vshift), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  if (i < count) {
    UnpackBitsScalar(src, bit_offset + i * bits, bits, count - i, out + i);
  }
}

#endif  // LIDX_SIMD_X86

#if defined(LIDX_SIMD_NEON)

// ----- NEON kernels (AArch64 baseline; no runtime dispatch needed) -----

inline size_t CountLessU64Neon(const uint64_t* p, size_t n, uint64_t key) {
  const uint64x2_t vkey = vdupq_n_u64(key);
  size_t i = 0;
  size_t cnt = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t block = 0;
    for (size_t b = 0; b < 4; ++b) {
      const uint64x2_t v = vld1q_u64(p + i + 2 * b);
      const uint64x2_t lt = vcltq_u64(v, vkey);
      block += vgetq_lane_u64(lt, 0) & 1u;
      block += vgetq_lane_u64(lt, 1) & 1u;
    }
    cnt += block;
    if (block != 8) return cnt;
  }
  for (; i < n; ++i) cnt += (p[i] < key) ? 1 : 0;
  return cnt;
}

inline size_t CountLessF64Neon(const double* p, size_t n, double key) {
  const float64x2_t vkey = vdupq_n_f64(key);
  size_t i = 0;
  size_t cnt = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t block = 0;
    for (size_t b = 0; b < 4; ++b) {
      const float64x2_t v = vld1q_f64(p + i + 2 * b);
      const uint64x2_t lt = vcltq_f64(v, vkey);
      block += vgetq_lane_u64(lt, 0) & 1u;
      block += vgetq_lane_u64(lt, 1) & 1u;
    }
    cnt += block;
    if (block != 8) return cnt;
  }
  for (; i < n; ++i) cnt += (p[i] < key) ? 1 : 0;
  return cnt;
}

inline void PredictClampedU64Neon(double slope, double intercept,
                                  const uint64_t* keys, size_t count,
                                  size_t n, size_t* out) {
  // ucvtf/fcvtzu are exact counterparts of the C casts; clamp in scalar
  // (two lanes, the blend is not worth the shuffle traffic).
  for (size_t i = 0; i < count; ++i) {
    const double p = slope * static_cast<double>(keys[i]) + intercept;
    out[i] = (p <= 0.0)
                 ? 0
                 : ((p >= static_cast<double>(n - 1)) ? n - 1
                                                      : static_cast<size_t>(p));
  }
}

#endif  // LIDX_SIMD_NEON

// ----- Hybrid lower bound: binary narrow, then linear SIMD scan -----

template <typename T, size_t (*CountFn)(const T*, size_t, T)>
inline size_t HybridLowerBound(const T* data, size_t lo, size_t hi, T key) {
  size_t n = hi - lo;
  size_t base = lo;
  while (n > kLinearScanMax) {
    const size_t half = n / 2;
    base = (data[base + half - 1] < key) ? base + half : base;
    n -= half;
  }
  return base + CountFn(data + base, n, key);
}

// ----- Runtime-dispatched kernel table -----

struct KernelTable {
  Level level;
  size_t (*count_less_u64)(const uint64_t*, size_t, uint64_t);
  size_t (*count_less_f64)(const double*, size_t, double);
  size_t (*lower_bound_u64)(const uint64_t*, size_t, size_t, uint64_t);
  size_t (*lower_bound_f64)(const double*, size_t, size_t, double);
  void (*predict_clamped_u64)(double, double, const uint64_t*, size_t, size_t,
                              size_t*);
  void (*bloom_hash)(const uint64_t*, size_t, uint64_t*, uint64_t*);
  void (*unpack_bits)(const unsigned char*, size_t, unsigned, size_t,
                      uint64_t*);
};

// Highest level this binary + this CPU can execute.
inline Level DetectBestLevel() {
#if defined(LIDX_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  return Level::kSse2;
#elif defined(LIDX_SIMD_NEON)
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

// Clamps a requested level to what is actually executable here.
inline Level ClampLevel(Level requested) {
  const Level best = DetectBestLevel();
  if (requested == Level::kScalar) return Level::kScalar;
#if defined(LIDX_SIMD_X86)
  if (requested == Level::kNeon) return best;
  return static_cast<int>(requested) <= static_cast<int>(best) ? requested
                                                               : best;
#else
  return best == requested ? requested : best;
#endif
}

inline Level EnvLevelCap() {
  // getenv is not thread-safe against concurrent setenv, but the cap is
  // read exactly once (magic-static init in MutableTable) before any worker
  // threads exist, and nothing in the library calls setenv.
  const char* e = std::getenv("LIDX_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (e == nullptr) return DetectBestLevel();
  if (std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0 ||
      std::strcmp(e, "scalar") == 0) {
    return Level::kScalar;
  }
  if (std::strcmp(e, "sse2") == 0) return ClampLevel(Level::kSse2);
  if (std::strcmp(e, "avx2") == 0) return ClampLevel(Level::kAvx2);
  if (std::strcmp(e, "neon") == 0) return ClampLevel(Level::kNeon);
  return DetectBestLevel();  // "auto", "1", unknown: best supported.
}

inline KernelTable MakeTable(Level level) {
  KernelTable t{Level::kScalar,
                &CountLessU64Scalar,
                &CountLessF64Scalar,
                &LowerBoundU64Scalar,
                &LowerBoundF64Scalar,
                &PredictClampedU64Scalar,
                &BloomHashScalar,
                &UnpackBitsScalar};
#if defined(LIDX_SIMD_X86)
  if (level == Level::kSse2 || level == Level::kAvx2) {
    t.level = Level::kSse2;
    t.count_less_u64 = &CountLessU64Sse2;
    t.count_less_f64 = &CountLessF64Sse2;
    t.lower_bound_u64 = &HybridLowerBound<uint64_t, &CountLessU64Sse2>;
    t.lower_bound_f64 = &HybridLowerBound<double, &CountLessF64Sse2>;
  }
  if (level == Level::kAvx2) {
    t.level = Level::kAvx2;
    t.count_less_u64 = &CountLessU64Avx2;
    t.count_less_f64 = &CountLessF64Avx2;
    t.lower_bound_u64 = &HybridLowerBound<uint64_t, &CountLessU64Avx2>;
    t.lower_bound_f64 = &HybridLowerBound<double, &CountLessF64Avx2>;
    t.predict_clamped_u64 = &PredictClampedU64Avx2;
    t.bloom_hash = &BloomHashAvx2;
    // Variable shift (srlv) and byte-granular gather arrive with AVX2;
    // SSE2 and NEON keep the scalar unpack.
    t.unpack_bits = &UnpackBitsAvx2;
  }
#elif defined(LIDX_SIMD_NEON)
  if (level == Level::kNeon) {
    t.level = Level::kNeon;
    t.count_less_u64 = &CountLessU64Neon;
    t.count_less_f64 = &CountLessF64Neon;
    t.lower_bound_u64 = &HybridLowerBound<uint64_t, &CountLessU64Neon>;
    t.lower_bound_f64 = &HybridLowerBound<double, &CountLessF64Neon>;
    t.predict_clamped_u64 = &PredictClampedU64Neon;
  }
#else
  (void)level;
#endif
  return t;
}

inline KernelTable& MutableTable() {
  static KernelTable table = MakeTable(EnvLevelCap());
  return table;
}

inline const KernelTable& Active() { return MutableTable(); }
inline Level ActiveLevel() { return Active().level; }

// Dispatch rule 3: true unless the active level is kScalar.
inline bool Vectorized() { return ActiveLevel() != Level::kScalar; }

// Test hook: force a dispatch level (clamped to what this binary/CPU
// supports). Not thread-safe against concurrent lookups.
inline void SetLevel(Level level) {
  MutableTable() = MakeTable(ClampLevel(level));
}

// ----- Dispatched entry points -----

inline size_t CountLess(const uint64_t* p, size_t n, uint64_t key) {
  return Active().count_less_u64(p, n, key);
}
inline size_t CountLess(const double* p, size_t n, double key) {
  return Active().count_less_f64(p, n, key);
}

// First index in [lo, hi) with data[i] >= key; identical to
// std::lower_bound over the same range.
inline size_t LowerBound(const uint64_t* data, size_t lo, size_t hi,
                         uint64_t key) {
  return Active().lower_bound_u64(data, lo, hi, key);
}
inline size_t LowerBound(const double* data, size_t lo, size_t hi,
                         double key) {
  return Active().lower_bound_f64(data, lo, hi, key);
}

inline void PredictClampedBatch(double slope, double intercept,
                                const uint64_t* keys, size_t count, size_t n,
                                size_t* out) {
  Active().predict_clamped_u64(slope, intercept, keys, count, n, out);
}

inline void BloomHashBatch(const uint64_t* keys, size_t count, uint64_t* h1,
                           uint64_t* h2) {
  Active().bloom_hash(keys, count, h1, h2);
}

// See UnpackBitsScalar for the semantics and the 8-byte tail-slack
// contract the caller must uphold.
inline void UnpackBits(const unsigned char* src, size_t bit_offset,
                       unsigned bits, size_t count, uint64_t* out) {
  Active().unpack_bits(src, bit_offset, bits, count, out);
}

}  // namespace lidx::simd

#endif  // LIDX_COMMON_SIMD_H_
