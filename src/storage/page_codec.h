#ifndef LIDX_STORAGE_PAGE_CODEC_H_
#define LIDX_STORAGE_PAGE_CODEC_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/invariants.h"
#include "common/macros.h"
#include "common/simd.h"
#include "lsm/run.h"
#include "storage/page.h"

namespace lidx::storage {

// ----- Compressed data-page codec -----
//
// Per-page columnar compression for sorted key/value records, in the
// LeCo / frame-of-reference family: each page stores its keys and values
// as two bit-packed residual streams against a tiny per-page linear
// predictor, so a 4 KiB page holds several times more records than the
// plain fixed-width layout while still supporting O(1) random access by
// in-page rank — which is what lets the disk run decode only the ε-window
// slice a lookup actually needs.
//
// Packed payload layout (PageCodec::kFor / kDelta):
//
//   [PackedPayloadHeader 56 B]
//   [key residual stream: record_count fields of key_bits, LSB-first]
//   [value residual stream: record_count fields of val_bits, LSB-first]
//   [tombstone bitmap: ceil(record_count / 8) bytes, iff flags bit 0]
//   ... >= kCodecSlackBytes unused payload bytes (decode over-read room)
//
// The predictor for element i of an n-record column is
//
//   pred_i = base + trunc(span * i / (n - 1))        (span = 0 for kFor)
//
// where trunc rounds toward zero (a negative span mirrors a positive
// one). It is evaluated in exact integer arithmetic (PackedLine), so
// encode and decode are deterministic on every platform. The stored field is
// (x_i - pred_i) - res_min, an unsigned value of at most `bits` bits;
// reconstruction is pred_i + res_min + field, with uint64_t wraparound
// doing the right thing for the full key range.
//
// kDelta fits the slope through the first and last element — ideal for
// the sorted key column, where residuals are bounded by the page's
// deviation from linearity. kFor is the span-0 special case (offsets from
// the first element), which is what unsorted value columns usually want.
// Requesting kDelta applies the slope to both columns. A value column that
// isn't linear does not fall back to FOR: its residuals are measured
// against the first-to-last line. When its span or residual range does not
// fit, the encoder packs a shorter prefix, and a page whose packable prefix
// does not beat the plain record count is written plain. So on
// unstructured values kDelta writes many more plain pages than kFor:
// PageCodecGoldenTest's fixed-seed run writes 42 of its 60 pages plain
// under kDelta, and 11 of 57 under kFor.
//
// The encoder is fallback-by-construction: it packs the longest entry
// prefix that fits the page, and if that doesn't beat the plain layout's
// record count (wild residuals, unpackable types), it writes a plain page
// instead. Every page self-identifies via the header's codec tag, so a
// single run may mix packed and plain pages and a reader never guesses.
//
// Bit-twiddling policy (enforced by lidx-lint's raw-unpack rule): the
// shift/mask bitstream idioms live only here and in the common/simd.h
// unpack kernels; everything else decodes through DataPageView.

// Unused payload bytes every packed page keeps after its last stream so
// the SIMD unpack kernels may over-read whole 8-byte windows without
// leaving the page (see simd::UnpackBitsScalar's contract).
inline constexpr size_t kCodecSlackBytes = 8;

// record_count is a uint16_t in the page header.
inline constexpr size_t kMaxPageRecords = 65535;

// Record types the packed codecs accept; everything else always takes the
// plain layout. Unsigned integrals reconstruct exactly under the codec's
// wraparound arithmetic.
template <typename Key, typename Value>
inline constexpr bool kPackableRecord =
    std::is_unsigned_v<Key> && sizeof(Key) <= 8 && std::is_unsigned_v<Value> &&
    sizeof(Value) <= 8;

// Plain-layout record size: [key][value][tombstone byte]. Also the
// "uncompressed bytes" unit the decode counters report.
template <typename Key, typename Value>
inline constexpr size_t kPlainRecordBytes = sizeof(Key) + sizeof(Value) + 1;

// Payload-embedded header of a packed page. Field order groups the two
// column descriptors; explicit reserved tail keeps sizeof padding-free so
// page CRCs stay deterministic.
struct PackedPayloadHeader {
  uint64_t key_base = 0;
  int64_t key_span = 0;
  int64_t key_res_min = 0;
  uint64_t val_base = 0;
  int64_t val_span = 0;
  int64_t val_res_min = 0;
  uint8_t key_bits = 0;
  uint8_t val_bits = 0;
  uint8_t flags = 0;  // Bit 0: tombstone bitmap present.
  uint8_t reserved[5] = {};
};
static_assert(std::is_trivially_copyable_v<PackedPayloadHeader>);
static_assert(sizeof(PackedPayloadHeader) == 56,
              "packed payload header layout is part of the on-disk format");

inline constexpr uint8_t kPackedFlagTombstones = 1;

// The packed predictor's line, pred_i = base + trunc(span * i / (n - 1)),
// evaluated without 128-bit division. With |span| = q (n - 1) + r,
//
//   trunc(|span| i / (n - 1)) = q i + floor(r i / (n - 1)),
//
// and for i < n <= kMaxPageRecords both terms fit 64 bits: q i <= |span|
// <= 2^63 and r i < (n - 1)^2 < 2^32. The offset is added to or subtracted
// from base with uint64_t wraparound, which is what the 128-bit formula
// truncated to 64 bits gives. At(i) costs one 64-bit division; a Cursor
// walks i = 0, 1, 2, ... with none.
class PackedLine {
 public:
  PackedLine() = default;  // The flat line at 0.
  PackedLine(uint64_t base, int64_t span, size_t n) : base_(base) {
    LIDX_DCHECK(n <= kMaxPageRecords);
    if (span == 0 || n <= 1) return;
    negative_ = span < 0;
    const uint64_t mag = negative_ ? uint64_t{0} - static_cast<uint64_t>(span)
                                   : static_cast<uint64_t>(span);
    d_ = n - 1;
    q_ = mag / d_;
    r_ = mag % d_;
  }

  // pred_i; requires i < n.
  uint64_t At(size_t i) const { return Apply(Split(i).first); }

  // The line in the form simd::ResidualRange walks.
  simd::SteppedLine Steps() const { return {base_, q_, r_, d_, negative_}; }

  // Walks pred_i, pred_i+1, ... stepping the quotient and the remainder.
  class Cursor;
  Cursor CursorAt(size_t i) const;  // Requires i < n.

 private:
  // {trunc(|span| i / (n - 1)), (r i) mod (n - 1)}.
  std::pair<uint64_t, uint64_t> Split(size_t i) const {
    const uint64_t prod = r_ * i;
    return {q_ * i + prod / d_, prod % d_};
  }

  uint64_t Apply(uint64_t offset) const {
    return negative_ ? base_ - offset : base_ + offset;
  }

  uint64_t base_ = 0;
  uint64_t q_ = 0;
  uint64_t r_ = 0;
  uint64_t d_ = 1;  // n - 1; 1 keeps a flat line's At(i) division-safe.
  bool negative_ = false;
};

class PackedLine::Cursor {
 public:
  uint64_t value() const { return line_.Apply(offset_); }
  void Next() {
    offset_ += line_.q_;
    rem_ += line_.r_;
    if (rem_ >= line_.d_) {
      rem_ -= line_.d_;
      ++offset_;
    }
  }

 private:
  friend class PackedLine;
  explicit Cursor(const PackedLine& line) : line_(line) {}

  PackedLine line_;
  uint64_t offset_ = 0;
  uint64_t rem_ = 0;
};

inline PackedLine::Cursor PackedLine::CursorAt(size_t i) const {
  Cursor c(*this);
  std::tie(c.offset_, c.rem_) = Split(i);
  return c;
}

// base + trunc(span * i / (n - 1)); the shared predictor of encoder and
// decoder. Requires i < n.
inline uint64_t PackedPredict(uint64_t base, int64_t span, size_t i,
                              size_t n) {
  return PackedLine(base, span, n).At(i);
}

// Writes `value`'s low `bits` bits at absolute bit `bit_offset` of `dst`,
// LSB-first. Requires the destination bytes to start zeroed (fresh page)
// and, like the unpack kernels, 8 writable bytes past the field's last
// byte. lidx-lint: allow(raw-unpack) — this file owns the bitstream idiom.
inline void PackBits(unsigned char* dst, size_t bit_offset, unsigned bits,
                     uint64_t value) {
  if (bits == 0) return;
  const size_t byte = bit_offset >> 3;
  const unsigned shift = static_cast<unsigned>(bit_offset & 7);
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  const uint64_t v = value & mask;
  uint64_t w;
  std::memcpy(&w, dst + byte, sizeof(w));
  w |= v << shift;
  std::memcpy(dst + byte, &w, sizeof(w));
  if (shift != 0 && shift + bits > 64) {
    dst[byte + 8] = static_cast<unsigned char>(
        dst[byte + 8] | static_cast<unsigned char>(v >> (64u - shift)));
  }
}

// Single-field read; the batched form is simd::UnpackBits.
inline uint64_t ExtractBits(const unsigned char* src, size_t bit_offset,
                            unsigned bits) {
  uint64_t v = 0;
  simd::UnpackBitsScalar(src, bit_offset, bits, 1, &v);
  return v;
}

// ----- Encoder -----

// One column's fitted predictor + residual width. `ok` is false when the
// column cannot be packed (residual range needs > 64 bits, or the span /
// minimum overflow their fields) and the page must go plain.
struct ColumnPlan {
  uint64_t base = 0;
  int64_t span = 0;
  int64_t res_min = 0;
  unsigned bits = 0;
  bool ok = false;
};

// Fits the predictor over col[0..n) and measures the residual range with
// the dispatched simd::ResidualRange kernel, which walks the predictor's
// PackedLine without a division and returns the exact largest residual on
// each side of it. The plan fails when the span or the residual minimum
// lies outside its int64 field, or when the residual range needs more than
// `max_bits` bits: the page could not hold the column, and the kernel stops
// scanning at the first block that shows it.
inline ColumnPlan PlanColumn(const uint64_t* col, size_t n, bool use_slope,
                             unsigned max_bits = 64) {
  using I128 = __int128;
  ColumnPlan plan;
  plan.base = col[0];
  if (use_slope && n > 1) {
    const I128 span =
        static_cast<I128>(col[n - 1]) - static_cast<I128>(plan.base);
    if (span > std::numeric_limits<int64_t>::max() ||
        span < std::numeric_limits<int64_t>::min()) {
      return plan;
    }
    plan.span = static_cast<int64_t>(span);
  }
  const uint64_t budget =
      max_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << max_bits) - 1;
  const simd::ResidualExtent range = simd::ResidualRange(
      col, n, PackedLine(plan.base, plan.span, n).Steps(), budget);
  // The minimum residual is -below (residual 0 is x_0 - pred_0).
  if (!range.within || range.below > uint64_t{1} << 63) return plan;
  plan.res_min = static_cast<int64_t>(uint64_t{0} - range.below);
  plan.bits =
      static_cast<unsigned>(std::bit_width(range.above + range.below));
  plan.ok = true;
  return plan;
}

// Payload bytes a packed page of m records needs, slack included.
inline size_t PackedPayloadBytes(size_t m, unsigned key_bits,
                                 unsigned val_bits, bool tombstones) {
  return sizeof(PackedPayloadHeader) + (m * key_bits + 7) / 8 +
         (m * val_bits + 7) / 8 + (tombstones ? (m + 7) / 8 : 0) +
         kCodecSlackBytes;
}

namespace codec_detail {

struct PackedFit {
  size_t m = 0;
  ColumnPlan keys;
  ColumnPlan vals;
  bool tombstones = false;
  size_t bytes = 0;  // Payload bytes used, slack excluded.
};

// Plans a packed encoding of the first m records of the key and value
// columns; nullopt when it cannot fit (or cannot be represented).
inline std::optional<PackedFit> TryFit(const uint64_t* keys,
                                       const uint64_t* vals, size_t m,
                                       bool tombstones, bool slope) {
  PackedFit fit;
  fit.m = m;
  // Stream bits the page has room for once the header and slack are paid;
  // each column's plan gives up when its residual width alone exceeds what
  // is left for it.
  constexpr size_t kStreamBits =
      8 * (kPagePayloadSize - sizeof(PackedPayloadHeader) - kCodecSlackBytes);
  const auto bits_left = [m](size_t used_bits) {
    return static_cast<unsigned>(
        std::min<size_t>(64, (kStreamBits - used_bits) / m));
  };
  fit.keys = PlanColumn(keys, m, slope, bits_left(0));
  if (!fit.keys.ok) return std::nullopt;
  fit.vals = PlanColumn(vals, m, slope,
                        bits_left(8 * ((m * fit.keys.bits + 7) / 8)));
  if (!fit.vals.ok) return std::nullopt;
  fit.tombstones = tombstones;
  const size_t with_slack = PackedPayloadBytes(m, fit.keys.bits,
                                               fit.vals.bits, fit.tombstones);
  if (with_slack > kPagePayloadSize) return std::nullopt;
  fit.bytes = with_slack - kCodecSlackBytes;
  return fit;
}

// The trial fits' input: a page's candidate keys and values as two
// contiguous columns. One per thread, reused across pages, so no trial
// allocates.
struct PageColumns {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> vals;
};

inline PageColumns& ThreadPageColumns() {
  thread_local PageColumns columns;
  return columns;
}

// LSB-first writer of consecutive fixed-width fields, field i at bit
// i * bits of the stream (PackBits's layout), built in a 64-bit accumulator
// and stored a word at a time. Flush stores only the bytes the last fields
// reach, so the stream after this one is left as it was.
class BitWriter {
 public:
  explicit BitWriter(unsigned char* dst) : dst_(dst) {}

  // Appends `value`, which must be below 2^bits.
  void Put(uint64_t value, unsigned bits) {
    LIDX_DCHECK(bits >= 64 || value >> bits == 0);
    if (bits == 0) return;
    acc_ |= value << fill_;
    fill_ += bits;
    if (fill_ < 64) return;
    std::memcpy(dst_, &acc_, sizeof(acc_));
    dst_ += sizeof(acc_);
    fill_ -= 64;
    acc_ = fill_ == 0 ? 0 : value >> (bits - fill_);
  }

  void Flush() { std::memcpy(dst_, &acc_, (fill_ + 7) / 8); }

 private:
  unsigned char* dst_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;  // Bits of acc_ in use, < 64.
};

// Writes col[0..m)'s residual fields against the plan's line to `dst`:
// field = x_i - pred_i - res_min, taken mod 2^64, which the plan proved
// lies in [0, 2^bits).
inline void PackColumn(const uint64_t* col, size_t m, const ColumnPlan& plan,
                       unsigned char* dst) {
  if (plan.bits == 0) return;
  BitWriter out(dst);
  PackedLine::Cursor pred = PackedLine(plan.base, plan.span, m).CursorAt(0);
  const uint64_t res_min = static_cast<uint64_t>(plan.res_min);
  for (size_t i = 0; i < m; ++i, pred.Next()) {
    out.Put(col[i] - pred.value() - res_min, plan.bits);
  }
  out.Flush();
}

}  // namespace codec_detail

// Encodes a maximal prefix of entries[0..n) into `page` (payload plus the
// header's type/codec/record_count/payload_bytes fields; the FileManager
// stamps identity and CRC at write time) and returns how many records were
// consumed. `requested` is a preference: the encoder falls back to kPlain
// per page whenever packing does not beat the plain layout's record count
// or the record type is unpackable. `page` must be freshly zeroed.
template <typename Key, typename Value>
size_t EncodeDataPage(const std::pair<Key, RunEntry<Value>>* entries,
                      size_t n, PageCodec requested, Page* page) {
  constexpr size_t kRecordBytes = kPlainRecordBytes<Key, Value>;
  constexpr size_t kPlainCap = kPagePayloadSize / kRecordBytes;
  if (n == 0) return 0;
  const size_t take_plain = std::min(n, kPlainCap);

  auto write_plain = [&]() {
    PageHeader h = page->header();
    h.type = static_cast<uint16_t>(PageType::kData);
    h.codec = static_cast<uint16_t>(PageCodec::kPlain);
    h.record_count = static_cast<uint16_t>(take_plain);
    h.payload_bytes = static_cast<uint32_t>(take_plain * kRecordBytes);
    page->set_header(h);
    for (size_t i = 0; i < take_plain; ++i) {
      unsigned char* dst = page->payload() + i * kRecordBytes;
      std::memcpy(dst, &entries[i].first, sizeof(Key));
      std::memcpy(dst + sizeof(Key), &entries[i].second.value, sizeof(Value));
      dst[sizeof(Key) + sizeof(Value)] = entries[i].second.deleted ? 1 : 0;
    }
    return take_plain;
  };

  if (requested == PageCodec::kPlain) return write_plain();
  if constexpr (!kPackableRecord<Key, Value>) {
    return write_plain();
  } else {
    using codec_detail::PackedFit;
    const bool slope = requested == PageCodec::kDelta;
    const size_t cap = std::min(n, kMaxPageRecords);
    // The trials read the rows once: each copies into the columns only the
    // records past the largest earlier trial, and the same pass finds the
    // first tombstone.
    codec_detail::PageColumns& cols = codec_detail::ThreadPageColumns();
    size_t copied = 0;
    size_t first_tombstone = cap;
    const auto try_fit = [&](size_t m) {
      if (cols.keys.size() < m) {
        cols.keys.resize(m);
        cols.vals.resize(m);
      }
      // Locals, so the column stores cannot alias the loop state.
      uint64_t* keys = cols.keys.data();
      uint64_t* vals = cols.vals.data();
      size_t tombstone = first_tombstone;
      for (size_t i = copied; i < m; ++i) {
        keys[i] = static_cast<uint64_t>(entries[i].first);
        vals[i] = static_cast<uint64_t>(entries[i].second.value);
        if (entries[i].second.deleted && tombstone == cap) tombstone = i;
      }
      copied = std::max(copied, m);
      first_tombstone = tombstone;
      return codec_detail::TryFit(keys, vals, m, first_tombstone < m, slope);
    };
    // Find a (near-)maximal prefix that packs into one page: gallop up by
    // doubling while feasible, then binary-search the boundary. Residual
    // widths are not strictly monotone in m (the kDelta slope refits), so
    // this is a greedy heuristic — every probe is re-planned from scratch
    // and only verified fits are kept.
    std::optional<PackedFit> best;
    size_t probe = 1;
    while (probe <= cap) {
      std::optional<PackedFit> f = try_fit(probe);
      if (!f.has_value()) break;
      best = f;
      if (probe == cap) break;
      probe = std::min(cap, probe * 2);
    }
    if (best.has_value() && best->m < cap) {
      size_t lo = best->m + 1;
      size_t hi = std::min(cap, best->m * 2);
      while (lo <= hi) {
        const size_t mid = lo + (hi - lo) / 2;
        std::optional<PackedFit> f = try_fit(mid);
        if (f.has_value()) {
          best = f;
          lo = mid + 1;
        } else {
          hi = mid - 1;
        }
      }
    }
    if (!best.has_value() || best->m <= take_plain) return write_plain();

    const PackedFit& fit = *best;
    const size_t m = fit.m;
    PackedPayloadHeader ph;
    ph.key_base = fit.keys.base;
    ph.key_span = fit.keys.span;
    ph.key_res_min = fit.keys.res_min;
    ph.val_base = fit.vals.base;
    ph.val_span = fit.vals.span;
    ph.val_res_min = fit.vals.res_min;
    ph.key_bits = static_cast<uint8_t>(fit.keys.bits);
    ph.val_bits = static_cast<uint8_t>(fit.vals.bits);
    ph.flags = fit.tombstones ? kPackedFlagTombstones : 0;
    unsigned char* payload = page->payload();
    std::memcpy(payload, &ph, sizeof(ph));
    const size_t keys_off = sizeof(PackedPayloadHeader);
    const size_t vals_off = keys_off + (m * fit.keys.bits + 7) / 8;
    const size_t tomb_off = vals_off + (m * fit.vals.bits + 7) / 8;
    codec_detail::PackColumn(cols.keys.data(), m, fit.keys,
                             payload + keys_off);
    codec_detail::PackColumn(cols.vals.data(), m, fit.vals,
                             payload + vals_off);
    for (size_t i = first_tombstone; i < m; ++i) {
      if (entries[i].second.deleted) {
        unsigned char* b = payload + tomb_off + (i >> 3);
        *b = static_cast<unsigned char>(*b | (1u << (i & 7)));
      }
    }
    PageHeader h = page->header();
    h.type = static_cast<uint16_t>(PageType::kData);
    h.codec = static_cast<uint16_t>(requested);
    h.record_count = static_cast<uint16_t>(m);
    h.payload_bytes = static_cast<uint32_t>(fit.bytes);
    page->set_header(h);
    return m;
  }
}

// ----- Decoder -----

// Read-only typed view over one kData page, plain or packed. Construction
// validates the codec-level framing (stream bounds, field widths, record
// counts) on top of the page-level magic/CRC checks the FileManager
// already did, and aborts on violation — a page that passed its checksum
// but carries an inconsistent codec header is corruption, not input.
template <typename Key, typename Value>
class DataPageView {
 public:
  static constexpr size_t kRecordBytes = kPlainRecordBytes<Key, Value>;

  explicit DataPageView(const Page& page) : page_(&page) {
    const PageHeader h = page.header();
    LIDX_INVARIANT(h.type == static_cast<uint16_t>(PageType::kData),
                   "page codec: data page expected");
    codec_ = static_cast<PageCodec>(h.codec);
    if (codec_ == PageCodec::kPlain) {
      LIDX_INVARIANT(h.payload_bytes <= kPagePayloadSize,
                     "page codec: plain payload within page");
      LIDX_INVARIANT(h.payload_bytes % kRecordBytes == 0,
                     "page codec: plain payload holds whole records");
      count_ = h.payload_bytes / kRecordBytes;
      LIDX_INVARIANT(h.record_count == count_,
                     "page codec: plain record_count matches payload");
      return;
    }
    LIDX_INVARIANT(codec_ == PageCodec::kFor || codec_ == PageCodec::kDelta,
                   "page codec: known codec tag");
    if constexpr (kPackableRecord<Key, Value>) {
      LIDX_INVARIANT(h.payload_bytes >= sizeof(PackedPayloadHeader),
                     "page codec: packed header present");
      LIDX_INVARIANT(h.payload_bytes + kCodecSlackBytes <= kPagePayloadSize,
                     "page codec: packed payload leaves decode slack");
      std::memcpy(&ph_, page.payload(), sizeof(ph_));
      count_ = h.record_count;
      key_line_ = PackedLine(ph_.key_base, ph_.key_span, count_);
      val_line_ = PackedLine(ph_.val_base, ph_.val_span, count_);
      LIDX_INVARIANT(count_ > 0, "page codec: packed page not empty");
      LIDX_INVARIANT(ph_.key_bits <= 64 && ph_.val_bits <= 64,
                     "page codec: field widths fit a word");
      keys_off_ = sizeof(PackedPayloadHeader);
      vals_off_ = keys_off_ + (count_ * ph_.key_bits + 7) / 8;
      tomb_off_ = vals_off_ + (count_ * ph_.val_bits + 7) / 8;
      const size_t end =
          tomb_off_ +
          ((ph_.flags & kPackedFlagTombstones) != 0 ? (count_ + 7) / 8 : 0);
      LIDX_INVARIANT(end <= h.payload_bytes,
                     "page codec: streams within payload bound");
    } else {
      LIDX_INVARIANT(false, "page codec: packed page for unpackable record");
    }
  }

  size_t count() const { return count_; }
  PageCodec codec() const { return codec_; }
  bool packed() const { return codec_ != PageCodec::kPlain; }

  // Uncompressed bytes `records` decoded records represent (the decode
  // counters' unit — comparable across codecs).
  static size_t DecodedBytes(size_t records) {
    return records * kRecordBytes;
  }

  Key KeyAt(size_t i) const {
    LIDX_DCHECK(i < count_);
    if (codec_ == PageCodec::kPlain) {
      Key k;
      std::memcpy(&k, page_->payload() + i * kRecordBytes, sizeof(Key));
      return k;
    }
    if constexpr (kPackableRecord<Key, Value>) {
      const uint64_t res =
          ExtractBits(page_->payload() + keys_off_,
                      i * ph_.key_bits, ph_.key_bits);
      return static_cast<Key>(key_line_.At(i) +
                              static_cast<uint64_t>(ph_.key_res_min) + res);
    }
    LIDX_CHECK(false);  // Ctor rejects packed pages of unpackable records.
    return Key{};
  }

  RunEntry<Value> EntryAt(size_t i) const {
    LIDX_DCHECK(i < count_);
    RunEntry<Value> entry;
    if (codec_ == PageCodec::kPlain) {
      const unsigned char* src = page_->payload() + i * kRecordBytes;
      std::memcpy(&entry.value, src + sizeof(Key), sizeof(Value));
      entry.deleted = src[sizeof(Key) + sizeof(Value)] != 0;
      return entry;
    }
    if constexpr (kPackableRecord<Key, Value>) {
      const uint64_t res =
          ExtractBits(page_->payload() + vals_off_,
                      i * ph_.val_bits, ph_.val_bits);
      entry.value = static_cast<Value>(
          val_line_.At(i) + static_cast<uint64_t>(ph_.val_res_min) + res);
      entry.deleted = TombstoneAt(i);
      return entry;
    }
    LIDX_CHECK(false);  // Ctor rejects packed pages of unpackable records.
    return entry;
  }

  // Keys [lo, hi) into out. Packed pages go through the dispatched unpack
  // kernel (UnpackBitsScalar at the kScalar level) in stack-chunked
  // batches; plain pages are a strided copy.
  void DecodeKeys(size_t lo, size_t hi, Key* out) const {
    LIDX_DCHECK(lo <= hi && hi <= count_);
    if (codec_ == PageCodec::kPlain) {
      for (size_t i = lo; i < hi; ++i) {
        std::memcpy(out + (i - lo), page_->payload() + i * kRecordBytes,
                    sizeof(Key));
      }
      return;
    }
    if constexpr (kPackableRecord<Key, Value>) {
      if (lo == hi) return;
      uint64_t buf[kDecodeChunk];
      const unsigned char* src = page_->payload() + keys_off_;
      PackedLine::Cursor pred = key_line_.CursorAt(lo);
      const uint64_t kmin = static_cast<uint64_t>(ph_.key_res_min);
      for (size_t i = lo; i < hi;) {
        const size_t len = std::min(hi - i, kDecodeChunk);
        simd::UnpackBits(src, i * ph_.key_bits, ph_.key_bits, len, buf);
        for (size_t j = 0; j < len; ++j, pred.Next()) {
          out[i - lo + j] = static_cast<Key>(pred.value() + kmin + buf[j]);
        }
        i += len;
      }
    }
  }

  // Appends records [lo, hi) to out.
  void DecodeInto(size_t lo, size_t hi,
                  std::vector<std::pair<Key, RunEntry<Value>>>* out) const {
    LIDX_DCHECK(lo <= hi && hi <= count_);
    if (codec_ == PageCodec::kPlain) {
      for (size_t i = lo; i < hi; ++i) {
        out->emplace_back(KeyAt(i), EntryAt(i));
      }
      return;
    }
    if constexpr (kPackableRecord<Key, Value>) {
      if (lo == hi) return;
      uint64_t kbuf[kDecodeChunk];
      uint64_t vbuf[kDecodeChunk];
      const unsigned char* ksrc = page_->payload() + keys_off_;
      const unsigned char* vsrc = page_->payload() + vals_off_;
      PackedLine::Cursor kpred = key_line_.CursorAt(lo);
      PackedLine::Cursor vpred = val_line_.CursorAt(lo);
      const uint64_t kmin = static_cast<uint64_t>(ph_.key_res_min);
      const uint64_t vmin = static_cast<uint64_t>(ph_.val_res_min);
      for (size_t i = lo; i < hi;) {
        const size_t len = std::min(hi - i, kDecodeChunk);
        simd::UnpackBits(ksrc, i * ph_.key_bits, ph_.key_bits, len, kbuf);
        simd::UnpackBits(vsrc, i * ph_.val_bits, ph_.val_bits, len, vbuf);
        for (size_t j = 0; j < len; ++j, kpred.Next(), vpred.Next()) {
          RunEntry<Value> entry;
          entry.value = static_cast<Value>(vpred.value() + vmin + vbuf[j]);
          entry.deleted = TombstoneAt(i + j);
          out->emplace_back(static_cast<Key>(kpred.value() + kmin + kbuf[j]),
                            entry);
        }
        i += len;
      }
    }
  }

 private:
  static constexpr size_t kDecodeChunk = 256;

  bool TombstoneAt(size_t i) const {
    if ((ph_.flags & kPackedFlagTombstones) == 0) return false;
    return (page_->payload()[tomb_off_ + i / 8] >> (i % 8) & 1u) != 0;
  }

  const Page* page_;
  PageCodec codec_ = PageCodec::kPlain;
  size_t count_ = 0;
  PackedPayloadHeader ph_;
  PackedLine key_line_;  // Packed pages: each column's predictor.
  PackedLine val_line_;
  size_t keys_off_ = 0;
  size_t vals_off_ = 0;
  size_t tomb_off_ = 0;
};

// ----- Packed page directory -----
//
// With variable records per page, rank -> page is no longer a division;
// this directory stores each page's first global rank, itself bit-packed
// to bit_width(total) per entry, so a billion-key run's directory stays a
// few MiB. Lookups are O(1) by page and O(log pages) by rank.
class PackedRankDirectory {
 public:
  void Build(const std::vector<uint64_t>& first_ranks, uint64_t total) {
    num_pages_ = first_ranks.size();
    total_ = total;
    bits_ = std::max(1u, static_cast<unsigned>(std::bit_width(total)));
    data_.assign((num_pages_ * bits_ + 7) / 8 + kCodecSlackBytes, 0);
    for (size_t p = 0; p < num_pages_; ++p) {
      LIDX_DCHECK(p == 0 || first_ranks[p] > first_ranks[p - 1]);
      PackBits(data_.data(), p * bits_, bits_, first_ranks[p]);
    }
  }

  bool empty() const { return num_pages_ == 0; }
  size_t num_pages() const { return num_pages_; }

  // First global rank of page p; p == num_pages() yields the total (the
  // one-past-the-end sentinel, so CountOf needs no special cases).
  uint64_t FirstRank(size_t p) const {
    LIDX_DCHECK(p <= num_pages_);
    if (p == num_pages_) return total_;
    return ExtractBits(data_.data(), p * bits_, bits_);
  }

  size_t CountOf(size_t p) const { return FirstRank(p + 1) - FirstRank(p); }

  // Last page with FirstRank <= rank. Requires rank < total.
  size_t PageOfRank(uint64_t rank) const {
    LIDX_DCHECK(rank < total_);
    size_t lo = 0;
    size_t hi = num_pages_;
    while (hi - lo > 1) {
      const size_t mid = lo + (hi - lo) / 2;
      if (FirstRank(mid) <= rank) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  size_t SizeBytes() const { return sizeof(*this) + data_.capacity(); }

 private:
  std::vector<unsigned char> data_;
  size_t num_pages_ = 0;
  uint64_t total_ = 0;
  unsigned bits_ = 1;
};

}  // namespace lidx::storage

#endif  // LIDX_STORAGE_PAGE_CODEC_H_
