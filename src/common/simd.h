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
// linear-model evaluation, Bloom-filter hashing, and the page codec's bit
// unpack and column fit. Three compiled paths (AVX2, SSE2, NEON) sit
// behind a runtime-dispatched kernel table with an always-correct scalar
// fallback; every kernel is result-identical to its scalar reference (a
// lower bound is unique, predictions use the same mul/add/truncate
// sequence, hashes the same finalizers), so call sites can A/B
// scalar-vs-SIMD freely.
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

// An integer line walked without division: pred_i = base ± (q i + floor(r i
// / d)), taken mod 2^64, with r < d. This is the page codec's predictor
// (storage/page_codec.h's PackedLine); a cursor adds q to the prediction
// and r to the remainder per record, carrying one more when the remainder
// reaches d.
struct SteppedLine {
  uint64_t base = 0;
  uint64_t q = 0;
  uint64_t r = 0;
  uint64_t d = 1;
  bool negative = false;
};

// The residual extremes of a column x[0..n) against a SteppedLine: `above`
// is max(x_i - pred_i) over x_i >= pred_i and `below` is max(pred_i - x_i)
// over x_i < pred_i, each exact in uint64_t and 0 when no residual lies on
// its side. `within` is false when above + below (an exact 65-bit sum)
// exceeds the budget; the kernels then stop early and report {0, 0, false}.
struct ResidualExtent {
  uint64_t above = 0;
  uint64_t below = 0;
  bool within = false;
};

// Records between two budget checks; the kernels may scan up to one block
// past the record at which the range first exceeds its budget.
inline constexpr size_t kResidualBlock = 64;

namespace detail {

// A cursor on a SteppedLine and its k-record step.
struct LineWalk {
  uint64_t pred = 0;
  uint64_t rem = 0;
};
struct LineStep {
  uint64_t dpred = 0;  // ±(k q + floor(k r / d)) mod 2^64.
  uint64_t drem = 0;   // (k r) mod d.
};

inline void StepWalk(LineWalk* w, LineStep s, uint64_t d, uint64_t carry) {
  w->pred += s.dpred;
  w->rem += s.drem;
  if (w->rem >= d) {
    w->rem -= d;
    w->pred += carry;  // ±1.
  }
}

// The one-record step. A kernel finds its lanes' starts and their k-record
// stride by walking from pred_0, so none of them needs a division.
inline LineStep UnitStep(const SteppedLine& line) {
  return {line.negative ? uint64_t{0} - line.q : line.q, line.r};
}
inline uint64_t Carry(const SteppedLine& line) {
  return line.negative ? ~uint64_t{0} : uint64_t{1};
}

inline void FoldResidual(uint64_t x, uint64_t pred, uint64_t* above,
                         uint64_t* below) {
  const bool ge = x >= pred;
  const uint64_t diff = x - pred;
  const uint64_t up = ge ? diff : 0;
  const uint64_t down = ge ? 0 : uint64_t{0} - diff;
  *above = up > *above ? up : *above;
  *below = down > *below ? down : *below;
}

inline bool WithinBudget(uint64_t above, uint64_t below, uint64_t budget) {
  return below <= budget && above <= budget - below;
}

}  // namespace detail

// Four independent lane cursors, lane j on records j, j + 4, j + 8, ...;
// the budget is checked once per kResidualBlock records, and a tail of
// fewer than four records steps lane 0's cursor one record at a time.
inline ResidualExtent ResidualRangeScalar(const uint64_t* x, size_t n,
                                          const SteppedLine& line,
                                          uint64_t budget) {
  constexpr size_t kLanes = 4;
  const detail::LineStep unit = detail::UnitStep(line);
  const uint64_t carry = detail::Carry(line);
  detail::LineWalk lane[kLanes];
  detail::LineWalk walk{line.base, 0};
  for (size_t j = 0; j < kLanes; ++j) {
    lane[j] = walk;
    detail::StepWalk(&walk, unit, line.d, carry);
  }
  const detail::LineStep stride{walk.pred - line.base, walk.rem};
  uint64_t above[kLanes] = {};
  uint64_t below[kLanes] = {};
  const auto fold_lanes = [&](size_t i) {
    for (size_t j = 0; j < kLanes; ++j) {
      detail::FoldResidual(x[i + j], lane[j].pred, &above[j], &below[j]);
      detail::StepWalk(&lane[j], stride, line.d, carry);
    }
  };
  const auto reduce = [&]() {
    for (size_t j = 1; j < kLanes; ++j) {
      above[0] = above[j] > above[0] ? above[j] : above[0];
      below[0] = below[j] > below[0] ? below[j] : below[0];
    }
    return detail::WithinBudget(above[0], below[0], budget);
  };
  size_t i = 0;
  for (; i + kResidualBlock <= n; i += kResidualBlock) {
    for (size_t k = 0; k < kResidualBlock; k += kLanes) fold_lanes(i + k);
    if (!reduce()) return {};
  }
  for (; i + kLanes <= n; i += kLanes) fold_lanes(i);
  for (; i < n; ++i) {
    detail::FoldResidual(x[i], lane[0].pred, &above[0], &below[0]);
    detail::StepWalk(&lane[0], unit, line.d, carry);
  }
  if (!reduce()) return {};
  return {above[0], below[0], true};
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

namespace detail {

__attribute__((target("avx2"))) inline __m256i SplatAvx2(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

inline constexpr uint64_t kSignBit = uint64_t{1} << 63;
// A residual r with |r| <= 2^61 is kept as r + 2^62: the bit pattern of a
// positive normal double that orders as r does, so one max_pd and one
// min_pd per record track the extremes exactly.
inline constexpr uint64_t kResidualOffset = uint64_t{1} << 62;
// A lane magnitude with any of these bits set holds a wider residual.
inline constexpr uint64_t kWideResidual = ~((uint64_t{1} << 61) - 1);

// Four lane cursors and their running residual extremes. Predictions are
// biased (xor 2^63), so the signed 64-bit compare orders them as unsigned
// values. hi and lo hold the largest and smallest residual as ordered
// doubles (kResidualOffset); `wide` ORs every |r| (|r| - 1 for a negative
// r) and gets its sign bit from a difference that wrapped.
struct ResidualQuadAvx2 {
  __m256i pred;
  __m256i rem;
  __m256i hi;
  __m256i lo;
  __m256i wide;
};

// The eight-record stride every lane cursor takes.
struct LaneStrideAvx2 {
  __m256i dpred;
  __m256i drem;
  __m256i d;
  __m256i d_minus_1;
  __m256i carry;
};

// Folds x[0..4) into the quad's extremes, then steps its cursors.
__attribute__((target("avx2"))) inline void FoldQuadAvx2(
    const uint64_t* x, const LaneStrideAvx2& s, ResidualQuadAvx2* q) {
  const __m256i xb = _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x)),
      SplatAvx2(kSignBit));
  const __m256i neg = _mm256_cmpgt_epi64(q->pred, xb);  // x < pred.
  const __m256i diff = _mm256_sub_epi64(xb, q->pred);   // x - pred.
  q->wide = _mm256_or_si256(q->wide, _mm256_xor_si256(diff, neg));
  const __m256d r = _mm256_castsi256_pd(
      _mm256_add_epi64(diff, SplatAvx2(kResidualOffset)));
  q->hi = _mm256_castpd_si256(_mm256_max_pd(_mm256_castsi256_pd(q->hi), r));
  q->lo = _mm256_castpd_si256(_mm256_min_pd(_mm256_castsi256_pd(q->lo), r));
  q->rem = _mm256_add_epi64(q->rem, s.drem);
  const __m256i wrap = _mm256_cmpgt_epi64(q->rem, s.d_minus_1);
  q->rem = _mm256_sub_epi64(q->rem, _mm256_and_si256(wrap, s.d));
  q->pred = _mm256_add_epi64(_mm256_add_epi64(q->pred, s.dpred),
                             _mm256_and_si256(wrap, s.carry));
}

__attribute__((target("avx2"))) inline bool HoldsWideResidualAvx2(
    const ResidualQuadAvx2& a, const ResidualQuadAvx2& b) {
  return _mm256_testz_si256(_mm256_or_si256(a.wide, b.wide),
                            SplatAvx2(kWideResidual)) == 0;
}

// The eight lanes' extremes as {above, below}. Positive doubles order as
// their bit patterns.
__attribute__((target("avx2"))) inline void ReduceQuadsAvx2(
    const ResidualQuadAvx2& a, const ResidualQuadAvx2& b, uint64_t* above,
    uint64_t* below) {
  alignas(32) uint64_t hi[4];
  alignas(32) uint64_t lo[4];
  _mm256_store_pd(reinterpret_cast<double*>(hi),
                  _mm256_max_pd(_mm256_castsi256_pd(a.hi),
                                _mm256_castsi256_pd(b.hi)));
  _mm256_store_pd(reinterpret_cast<double*>(lo),
                  _mm256_min_pd(_mm256_castsi256_pd(a.lo),
                                _mm256_castsi256_pd(b.lo)));
  uint64_t max = hi[0];
  uint64_t min = lo[0];
  for (size_t j = 1; j < 4; ++j) {
    max = hi[j] > max ? hi[j] : max;
    min = lo[j] < min ? lo[j] : min;
  }
  *above = max - kResidualOffset;
  *below = kResidualOffset - min;
}

}  // namespace detail

// ResidualRangeScalar's result from eight lane cursors in two registers,
// lane j on records j, j + 8, j + 16, ...: each step folds eight records
// and moves every lane by the eight-record stride. The budget is checked
// once per kResidualBlock records; a tail of fewer than eight records
// steps lane 0's cursor one record at a time. Page columns almost always
// have residuals far below 2^61 in magnitude, which the lanes track with
// one max_pd and one min_pd per record; a column with a wider residual
// (unstructured values, say) is handed to the scalar twin.
__attribute__((target("avx2"))) inline ResidualExtent ResidualRangeAvx2(
    const uint64_t* x, size_t n, const SteppedLine& line, uint64_t budget) {
  constexpr size_t kLanes = 8;
  const detail::LineStep unit = detail::UnitStep(line);
  const uint64_t carry = detail::Carry(line);
  alignas(32) uint64_t lane_pred[kLanes];
  alignas(32) uint64_t lane_rem[kLanes];
  detail::LineWalk walk{line.base, 0};
  for (size_t j = 0; j < kLanes; ++j) {
    lane_pred[j] = walk.pred ^ detail::kSignBit;
    lane_rem[j] = walk.rem;
    detail::StepWalk(&walk, unit, line.d, carry);
  }
  const detail::LaneStrideAvx2 stride{
      detail::SplatAvx2(walk.pred - line.base), detail::SplatAvx2(walk.rem),
      detail::SplatAvx2(line.d), detail::SplatAvx2(line.d - 1),
      detail::SplatAvx2(carry)};
  const __m256i zero = detail::SplatAvx2(detail::kResidualOffset);
  const auto* pred_ptr = reinterpret_cast<const __m256i*>(lane_pred);
  const auto* rem_ptr = reinterpret_cast<const __m256i*>(lane_rem);
  detail::ResidualQuadAvx2 q0{_mm256_load_si256(pred_ptr),
                              _mm256_load_si256(rem_ptr), zero, zero,
                              _mm256_setzero_si256()};
  detail::ResidualQuadAvx2 q1{_mm256_load_si256(pred_ptr + 1),
                              _mm256_load_si256(rem_ptr + 1), zero, zero,
                              _mm256_setzero_si256()};
  uint64_t above = 0;
  uint64_t below = 0;
  size_t i = 0;
  for (; i + kResidualBlock <= n; i += kResidualBlock) {
    for (size_t k = 0; k < kResidualBlock; k += kLanes) {
      detail::FoldQuadAvx2(x + i + k, stride, &q0);
      detail::FoldQuadAvx2(x + i + k + 4, stride, &q1);
    }
    if (detail::HoldsWideResidualAvx2(q0, q1)) {
      return ResidualRangeScalar(x, n, line, budget);
    }
    detail::ReduceQuadsAvx2(q0, q1, &above, &below);
    if (!detail::WithinBudget(above, below, budget)) return {};
  }
  for (; i + kLanes <= n; i += kLanes) {
    detail::FoldQuadAvx2(x + i, stride, &q0);
    detail::FoldQuadAvx2(x + i + 4, stride, &q1);
  }
  if (detail::HoldsWideResidualAvx2(q0, q1)) {
    return ResidualRangeScalar(x, n, line, budget);
  }
  detail::ReduceQuadsAvx2(q0, q1, &above, &below);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_pred), q0.pred);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_rem), q0.rem);
  walk = {lane_pred[0] ^ detail::kSignBit, lane_rem[0]};
  for (; i < n; ++i) {
    detail::FoldResidual(x[i], walk.pred, &above, &below);
    detail::StepWalk(&walk, unit, line.d, carry);
  }
  if (!detail::WithinBudget(above, below, budget)) return {};
  return {above, below, true};
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
  ResidualExtent (*residual_range)(const uint64_t*, size_t,
                                   const SteppedLine&, uint64_t);
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
                &UnpackBitsScalar,
                &ResidualRangeScalar};
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
    // The 64-bit compare (cmpgt_epi64) arrives with SSE4.2 and 4-wide
    // lanes with AVX2; SSE2 and NEON run the four-lane scalar twin.
    t.residual_range = &ResidualRangeAvx2;
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

// See ResidualExtent; `budget` bounds above + below.
inline ResidualExtent ResidualRange(const uint64_t* x, size_t n,
                                    const SteppedLine& line,
                                    uint64_t budget) {
  return Active().residual_range(x, n, line, budget);
}

}  // namespace lidx::simd

#endif  // LIDX_COMMON_SIMD_H_
