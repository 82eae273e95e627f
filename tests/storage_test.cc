// Storage-engine tests: page file + checksum rejection, buffer-pool
// replacement policy and counters, and content equality of the
// disk-resident structures against their in-memory counterparts.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datasets/generators.h"
#include "lsm/lsm_tree.h"
#include "one_d/learned_hash.h"
#include "one_d/pgm.h"
#include "one_d/string_index.h"
#include "simd_levels.h"
#include "storage/buffer_pool.h"
#include "storage/disk_lsm_tree.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_codec.h"

namespace lidx::storage {
namespace {

// Fresh page-file path scoped to the gtest temp dir; removes any leftover
// from a previous run of the same test.
std::string FreshFile(const std::string& name) {
  const std::string path = ::testing::TempDir() + "lidx_storage_" + name;
  std::remove(path.c_str());
  return path;
}

// Flips one byte of the file at `offset` (torn write / bit rot).
void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good());
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

// ----- FileManager -----

TEST(FileManagerTest, WriteReadRoundTrip) {
  FileManager file(FreshFile("roundtrip"));
  Page out{};
  PageHeader h = out.header();
  h.type = static_cast<uint16_t>(PageType::kData);
  h.payload_bytes = 11;
  out.set_header(h);
  std::memcpy(out.payload(), "hello pages", 11);
  const uint64_t id = file.Allocate();
  file.WritePage(id, &out);
  file.Sync();

  Page in;
  ASSERT_TRUE(file.ReadPage(id, &in));
  EXPECT_EQ(in.header().page_id, id);
  EXPECT_EQ(in.header().payload_bytes, 11u);
  EXPECT_EQ(std::memcmp(in.payload(), "hello pages", 11), 0);
  EXPECT_EQ(file.pages_written(), 1u);
  file.CheckInvariants();
}

TEST(FileManagerTest, ReadPastEndOfFileFails) {
  FileManager file(FreshFile("eof"));
  Page page;
  EXPECT_FALSE(file.ReadPage(0, &page));
  EXPECT_FALSE(file.ReadPage(7, &page));
}

TEST(FileManagerTest, TornWriteIsRejectedWhereverTheBitFlips) {
  const std::string path = FreshFile("torn");
  // Offsets probing each part of the page: magic, self-id, the crc field
  // itself, payload start, payload end.
  const uint64_t offsets[] = {0, 8, 20, 24, kPageSize - 1};
  for (const uint64_t off : offsets) {
    std::remove(path.c_str());
    uint64_t id = 0;
    {
      FileManager file(path);
      Page page{};
      PageHeader h = page.header();
      h.type = static_cast<uint16_t>(PageType::kData);
      h.payload_bytes = static_cast<uint32_t>(kPagePayloadSize);
      page.set_header(h);
      for (size_t i = 0; i < kPagePayloadSize; ++i) {
        page.payload()[i] = static_cast<unsigned char>(i * 31 + 7);
      }
      id = file.Allocate();
      file.WritePage(id, &page);
      file.Sync();
      Page check;
      ASSERT_TRUE(file.ReadPage(id, &check));
    }
    FlipByteAt(path, off);
    FileManager file(path);
    Page page;
    EXPECT_FALSE(file.ReadPage(id, &page)) << "flipped offset " << off;
  }
}

TEST(FileManagerTest, MisdirectedPageIsRejectedBySelfId) {
  const std::string path = FreshFile("misdirected");
  {
    FileManager file(path);
    Page page{};
    PageHeader h = page.header();
    h.type = static_cast<uint16_t>(PageType::kData);
    page.set_header(h);
    file.WritePage(file.Allocate(), &page);  // Page 0.
    file.WritePage(file.Allocate(), &page);  // Page 1.
    file.Sync();
  }
  // Copy page 0's bytes over page 1: a valid page in the wrong slot.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  std::vector<char> bytes(kPageSize);
  f.read(bytes.data(), static_cast<std::streamsize>(kPageSize));
  f.seekp(static_cast<std::streamoff>(kPageSize));
  f.write(bytes.data(), static_cast<std::streamsize>(kPageSize));
  f.close();
  FileManager file(path);
  Page page;
  EXPECT_TRUE(file.ReadPage(0, &page));
  EXPECT_FALSE(file.ReadPage(1, &page));
}

TEST(FileManagerTest, FreedPagesAreRecycledBeforeGrowth) {
  FileManager file(FreshFile("recycle"));
  const uint64_t a = file.Allocate();
  const uint64_t b = file.Allocate();
  EXPECT_EQ(file.NumPages(), 2u);
  file.Free(a);
  EXPECT_EQ(file.FreeListSize(), 1u);
  file.CheckInvariants();
  EXPECT_EQ(file.Allocate(), a);  // Recycled, not grown.
  EXPECT_EQ(file.Allocate(), b + 1);
  EXPECT_EQ(file.NumPages(), 3u);
}

// ----- BufferPool -----

// Writes `count` trivially distinguishable pages and returns their ids.
std::vector<uint64_t> WritePages(FileManager* file, size_t count) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < count; ++i) {
    Page page{};
    PageHeader h = page.header();
    h.type = static_cast<uint16_t>(PageType::kData);
    h.payload_bytes = 1;
    page.set_header(h);
    page.payload()[0] = static_cast<unsigned char>(i);
    const uint64_t id = file->Allocate();
    file->WritePage(id, &page);
    ids.push_back(id);
  }
  return ids;
}

TEST(BufferPoolTest, HitAndMissCountersAreExact) {
  FileManager file(FreshFile("pool_counters"));
  const auto ids = WritePages(&file, 3);
  BufferPool pool(&file, 4);
  { const auto ref = pool.Pin(ids[0]); }  // Miss.
  { const auto ref = pool.Pin(ids[0]); }  // Hit.
  { const auto ref = pool.Pin(ids[1]); }  // Miss.
  { const auto ref = pool.Pin(ids[0]); }  // Hit.
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  pool.CheckInvariants();
  pool.ResetStats();
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(BufferPoolTest, ClockEvictsTheSweptUnreferencedFrame) {
  FileManager file(FreshFile("pool_clock"));
  const auto ids = WritePages(&file, 3);
  BufferPool pool(&file, 2);
  { const auto ref = pool.Pin(ids[0]); }
  { const auto ref = pool.Pin(ids[1]); }
  // Both frames referenced: the hand clears both and takes frame 0, so
  // ids[0] is the victim.
  { const auto ref = pool.Pin(ids[2]); }
  EXPECT_EQ(pool.stats().evictions, 1u);
  { const auto ref = pool.Pin(ids[1]); }  // Still cached.
  EXPECT_EQ(pool.stats().hits, 1u);
  { const auto ref = pool.Pin(ids[0]); }  // Was evicted: a miss.
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  pool.CheckInvariants();
}

TEST(BufferPoolTest, PinnedPageIsNeverEvicted) {
  FileManager file(FreshFile("pool_pinned"));
  const auto ids = WritePages(&file, 4);
  BufferPool pool(&file, 2);
  const auto held = pool.Pin(ids[0]);
  EXPECT_EQ((*held).header().page_id, ids[0]);
  // Cycle several pages through the one remaining frame.
  { const auto ref = pool.Pin(ids[1]); }
  { const auto ref = pool.Pin(ids[2]); }
  { const auto ref = pool.Pin(ids[3]); }
  pool.CheckInvariants();
  // The pinned page must still be cached.
  { const auto ref = pool.Pin(ids[0]); }
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 4u);
}

TEST(BufferPoolTest, InvalidateForcesRefetch) {
  FileManager file(FreshFile("pool_invalidate"));
  const auto ids = WritePages(&file, 1);
  BufferPool pool(&file, 2);
  { const auto ref = pool.Pin(ids[0]); }
  pool.Invalidate(ids[0]);
  pool.CheckInvariants();
  { const auto ref = pool.Pin(ids[0]); }
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPoolTest, MovedFromRefReleasesOnlyOnce) {
  FileManager file(FreshFile("pool_move"));
  const auto ids = WritePages(&file, 1);
  BufferPool pool(&file, 2);
  {
    BufferPool::PageRef a = pool.Pin(ids[0]);
    BufferPool::PageRef b = std::move(a);
    EXPECT_EQ(b->header().page_id, ids[0]);
  }
  pool.Invalidate(ids[0]);  // Would abort if a pin leaked.
  pool.CheckInvariants();
}

TEST(BufferPoolDeathTest, AllFramesPinnedAborts) {
  FileManager file(FreshFile("pool_allpinned"));
  const auto ids = WritePages(&file, 3);
  BufferPool pool(&file, 2);
  const auto a = pool.Pin(ids[0]);
  const auto b = pool.Pin(ids[1]);
  EXPECT_DEATH((void)pool.Pin(ids[2]), "all frames pinned");
}

TEST(BufferPoolDeathTest, PinOfCorruptPageAborts) {
  const std::string path = FreshFile("pool_corrupt");
  uint64_t id = 0;
  {
    FileManager file(path);
    id = WritePages(&file, 1)[0];
    file.Sync();
  }
  FlipByteAt(path, 100);  // Payload byte: CRC now mismatches.
  FileManager file(path);
  BufferPool pool(&file, 2);
  EXPECT_DEATH((void)pool.Pin(id), "page read failed");
}

// ----- DiskRun vs SortedRun -----

using MemRun = SortedRun<uint64_t, uint64_t>;
using DRun = DiskRun<uint64_t, uint64_t>;
using Entry = RunEntry<uint64_t>;

std::vector<std::pair<uint64_t, Entry>> MakeEntries(size_t n, uint64_t seed) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, n, seed);
  std::vector<std::pair<uint64_t, Entry>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(keys[i], Entry{i * 3 + 1, i % 7 == 0});
  }
  return entries;
}

TEST(DiskRunTest, MatchesInMemoryRunOnGetScanAndDrain) {
  const auto entries = MakeEntries(20000, 1801);
  MemRun::Options mem_opts;
  mem_opts.search_mode = RunSearchMode::kLearned;
  MemRun mem(entries, mem_opts);

  FileManager file(FreshFile("diskrun_equal"));
  BufferPool pool(&file, 64);
  DRun disk(entries, &file, &pool, DRun::Options{});
  disk.CheckInvariants();

  DiskIoStats io;
  Rng rng(1811);
  for (const auto& [key, entry] : entries) {
    const auto got = disk.Get(key, &io);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(got->value, entry.value);
    EXPECT_EQ(got->deleted, entry.deleted);
    // Misses probe near real keys.
    const uint64_t miss = key + 1 + rng.NextBounded(3);
    const auto mem_miss = mem.Get(miss, nullptr);
    const auto disk_miss = disk.Get(miss, &io);
    ASSERT_EQ(mem_miss.has_value(), disk_miss.has_value()) << miss;
  }
  // A present-key probe touches exactly one page.
  DiskIoStats one;
  disk.Get(entries[123].first, &one);
  EXPECT_EQ(one.pages_touched, 1u);

  // Range scans agree.
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t lo = entries[rng.NextBounded(entries.size())].first;
    const uint64_t hi = lo + rng.NextBounded(1u << 20);
    const auto want = mem.Scan(lo, hi);
    const auto got = disk.Scan(lo, hi, &io);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].first, got[i].first);
      EXPECT_EQ(want[i].second.value, got[i].second.value);
      EXPECT_EQ(want[i].second.deleted, got[i].second.deleted);
    }
  }
  // Drain (the compaction path) returns the exact entry sequence.
  const auto drained = disk.Drain();
  ASSERT_EQ(drained.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(drained[i].first, entries[i].first);
    EXPECT_EQ(drained[i].second.value, entries[i].second.value);
  }
}

TEST(DiskRunTest, DestructorFreesPagesForRecycling) {
  FileManager file(FreshFile("diskrun_free"));
  BufferPool pool(&file, 16);
  size_t pages = 0;
  {
    DRun run(MakeEntries(5000, 1823), &file, &pool, DRun::Options{});
    pages = run.NumPages();
    EXPECT_GT(pages, 0u);
    EXPECT_EQ(file.FreeListSize(), 0u);
  }
  EXPECT_EQ(file.FreeListSize(), pages);
  file.CheckInvariants();
  // A new run of the same size reuses the space: the file does not grow.
  const uint64_t before = file.NumPages();
  DRun run(MakeEntries(5000, 1831), &file, &pool, DRun::Options{});
  EXPECT_EQ(file.NumPages(), before);
}

TEST(DiskRunDeathTest, CheckInvariantsCatchesOnDiskCorruption) {
  const std::string path = FreshFile("diskrun_corrupt");
  FileManager file(path);
  BufferPool pool(&file, 16);
  DRun run(MakeEntries(2000, 1847), &file, &pool, DRun::Options{});
  run.CheckInvariants();
  // Flip a payload byte of some middle page behind the run's back.
  FlipByteAt(path, 2 * kPageSize + sizeof(PageHeader) + 5);
  EXPECT_DEATH(run.CheckInvariants(), "page readable and checksummed");
}

// ----- Page codec: packed pages, fallback, and equivalence -----

// Clustered keys with near-linear values: the shape the packed codecs are
// built for. Tombstones sprinkle through so the bitmap stream is exercised.
std::vector<std::pair<uint64_t, Entry>> CompressibleEntries(size_t n,
                                                            uint64_t seed) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, n, seed);
  std::vector<std::pair<uint64_t, Entry>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(keys[i], Entry{i * 2 + (i % 5), i % 11 == 0});
  }
  return entries;
}

TEST(PageCodecTest, EncodeDecodeRoundTripAllCodecs) {
  const auto entries = CompressibleEntries(4000, 2027);
  for (const PageCodec codec :
       {PageCodec::kPlain, PageCodec::kFor, PageCodec::kDelta}) {
    Page page{};
    const size_t count =
        EncodeDataPage(entries.data(), entries.size(), codec, &page);
    ASSERT_GT(count, 0u);
    const DataPageView<uint64_t, uint64_t> view(page);
    ASSERT_EQ(view.count(), count);
    if (codec == PageCodec::kPlain) {
      EXPECT_FALSE(view.packed());
      EXPECT_EQ(count, DRun::kRecordsPerPage);
    } else {
      // These entries compress; a packed page must beat the plain count.
      EXPECT_TRUE(view.packed());
      EXPECT_GT(count, DRun::kRecordsPerPage);
    }
    // Per-record access and bulk decode agree with the input.
    std::vector<std::pair<uint64_t, Entry>> decoded;
    view.DecodeInto(0, count, &decoded);
    ASSERT_EQ(decoded.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(decoded[i].first, entries[i].first);
      EXPECT_EQ(decoded[i].second.value, entries[i].second.value);
      EXPECT_EQ(decoded[i].second.deleted, entries[i].second.deleted);
      EXPECT_EQ(view.KeyAt(i), entries[i].first);
      EXPECT_EQ(view.EntryAt(i).value, entries[i].second.value);
      EXPECT_EQ(view.EntryAt(i).deleted, entries[i].second.deleted);
    }
    // Window decodes (the ε-slice path) match the input at every dispatch
    // level: kScalar unpacks through UnpackBitsScalar, AVX2 through the
    // gather kernel.
    LevelGuard guard;
    uint64_t buf[64];
    for (simd::Level level : RunnableLevels()) {
      simd::SetLevel(level);
      for (const size_t lo : {size_t{0}, count / 3, count - 10}) {
        const size_t hi = std::min(lo + 64, count);
        view.DecodeKeys(lo, hi, buf);
        for (size_t i = lo; i < hi; ++i) {
          EXPECT_EQ(buf[i - lo], entries[i].first) << simd::LevelName(level);
        }
      }
    }
  }
}

TEST(PageCodecTest, TinyPageFallsBackToPlain) {
  // One or two records can never amortize the 56-byte packed header, so
  // the encoder's per-page fallback must emit plain regardless of request.
  const auto entries = CompressibleEntries(2, 2029);
  for (const PageCodec codec : {PageCodec::kFor, PageCodec::kDelta}) {
    Page page{};
    const size_t count =
        EncodeDataPage(entries.data(), entries.size(), codec, &page);
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(page.header().codec, static_cast<uint16_t>(PageCodec::kPlain));
    const DataPageView<uint64_t, uint64_t> view(page);
    EXPECT_FALSE(view.packed());
    EXPECT_EQ(view.KeyAt(0), entries[0].first);
    EXPECT_EQ(view.KeyAt(1), entries[1].first);
  }
}

// ----- Page codec arithmetic: the predictor against the 128-bit formula -----

// The predictor and column plan as the format defines them: one signed
// 128-bit product and quotient per record, truncating toward zero.
uint64_t Reference128Predict(uint64_t base, int64_t span, size_t i,
                             size_t n) {
  if (span == 0 || n <= 1) return base;
  using I128 = __int128;
  return static_cast<uint64_t>(static_cast<I128>(base) +
                               static_cast<I128>(span) * static_cast<I128>(i) /
                                   static_cast<I128>(n - 1));
}

ColumnPlan Reference128Plan(const std::vector<uint64_t>& col, bool slope) {
  using I128 = __int128;
  const size_t n = col.size();
  ColumnPlan plan;
  plan.base = col[0];
  if (slope && n > 1) {
    const I128 span =
        static_cast<I128>(col[n - 1]) - static_cast<I128>(col[0]);
    if (span > std::numeric_limits<int64_t>::max() ||
        span < std::numeric_limits<int64_t>::min()) {
      return plan;
    }
    plan.span = static_cast<int64_t>(span);
  }
  I128 rmin = 0;
  I128 rmax = 0;
  for (size_t i = 0; i < n; ++i) {
    const I128 pred = static_cast<I128>(plan.base) +
                      (plan.span != 0 ? static_cast<I128>(plan.span) *
                                            static_cast<I128>(i) /
                                            static_cast<I128>(n - 1)
                                      : 0);
    const I128 r = static_cast<I128>(col[i]) - pred;
    rmin = i == 0 ? r : std::min(rmin, r);
    rmax = i == 0 ? r : std::max(rmax, r);
  }
  if (rmin < std::numeric_limits<int64_t>::min() ||
      rmax - rmin > static_cast<I128>(std::numeric_limits<uint64_t>::max())) {
    return plan;
  }
  plan.res_min = static_cast<int64_t>(rmin);
  plan.bits = static_cast<unsigned>(
      std::bit_width(static_cast<uint64_t>(rmax - rmin)));
  plan.ok = true;
  return plan;
}

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

TEST(PageCodecArithmeticTest, PredictMatchesThe128BitFormulaAtTheEdges) {
  const std::vector<int64_t> spans = {
      0, 1, -1, kI64Min, kI64Max, kI64Min + 1, kI64Max - 1, -65534, 65533};
  const std::vector<uint64_t> bases = {
      0, 1, 2, kU64Max, kU64Max - 1, kU64Max - 2, uint64_t{1} << 63};
  for (const size_t n : {size_t{2}, size_t{3}, kMaxPageRecords}) {
    for (const int64_t span : spans) {
      for (const uint64_t base : bases) {
        const PackedLine line(base, span, n);
        PackedLine::Cursor cursor = line.CursorAt(0);
        for (size_t i = 0; i < n; ++i, cursor.Next()) {
          const uint64_t want = Reference128Predict(base, span, i, n);
          ASSERT_EQ(PackedPredict(base, span, i, n), want)
              << "base " << base << " span " << span << " i " << i
              << " n " << n;
          ASSERT_EQ(cursor.value(), want)
              << "base " << base << " span " << span << " i " << i
              << " n " << n;
        }
      }
    }
  }
}

TEST(PageCodecArithmeticTest, PredictMatchesThe128BitFormulaOnRandomTuples) {
  Rng rng(909);
  for (int c = 0; c < 1'000'000; ++c) {
    const uint64_t base = rng.Next();
    // Half the spans use the full int64 range, half are page-scale.
    const int64_t span =
        c % 2 == 0 ? static_cast<int64_t>(rng.Next())
                   : static_cast<int64_t>(rng.NextBounded(1u << 20)) -
                         (int64_t{1} << 19);
    const size_t n = 2 + rng.NextBounded(kMaxPageRecords - 1);
    const size_t i = rng.NextBounded(n);
    const uint64_t want = Reference128Predict(base, span, i, n);
    ASSERT_EQ(PackedPredict(base, span, i, n), want)
        << "base " << base << " span " << span << " i " << i << " n " << n;
    // A cursor placed at i and stepped agrees with the formula there and
    // one record later.
    PackedLine::Cursor cursor = PackedLine(base, span, n).CursorAt(i);
    ASSERT_EQ(cursor.value(), want);
    if (i + 1 < n) {
      cursor.Next();
      ASSERT_EQ(cursor.value(), Reference128Predict(base, span, i + 1, n));
    }
  }
}

// Columns of the shapes pages meet: sorted keys, noisy rising and falling
// values, constants, and values pinned at either end of the uint64_t range.
std::vector<uint64_t> ArithmeticColumn(Rng* rng, size_t n, int shape) {
  std::vector<uint64_t> col(n);
  uint64_t x = shape == 3 ? kU64Max - n * 70 : rng->Next() >> 8;
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // Sorted keys with uneven gaps.
      case 3:  // The same near 2^64 - 1.
        x += 1 + rng->NextBounded(i % 97 == 0 ? 64 : 8);
        col[i] = x;
        break;
      case 1:  // Falling values with noise.
        col[i] = (uint64_t{1} << 40) - 9 * i + rng->NextBounded(32);
        break;
      case 2:  // Values hugging 0 and 2^64 - 1 by turns.
        col[i] = i % 2 == 0 ? rng->NextBounded(1000)
                            : kU64Max - rng->NextBounded(1000);
        break;
      case 4:  // Constant.
        col[i] = 424242;
        break;
      default:  // Unstructured.
        col[i] = rng->Next();
        break;
    }
  }
  return col;
}

TEST(PageCodecArithmeticTest, SteppedPlanMatchesThe128BitPlan) {
  LevelGuard guard;
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    Rng rng(4711);
    for (int c = 0; c < 3000; ++c) {
      const int shape = c % 6;
      const size_t max_n = c % 100 == 0 ? kMaxPageRecords : 600;
      const size_t n = 1 + rng.NextBounded(max_n);
      const std::vector<uint64_t> col = ArithmeticColumn(&rng, n, shape);
      for (const bool slope : {false, true}) {
        const ColumnPlan want = Reference128Plan(col, slope);
        const ColumnPlan got = PlanColumn(col.data(), n, slope);
        ASSERT_EQ(got.ok, want.ok)
            << simd::LevelName(level) << " case " << c << " slope " << slope;
        if (!want.ok) continue;
        EXPECT_EQ(got.base, want.base) << "case " << c;
        EXPECT_EQ(got.span, want.span) << "case " << c;
        EXPECT_EQ(got.res_min, want.res_min) << "case " << c;
        EXPECT_EQ(got.bits, want.bits) << "case " << c;
        // A bit budget fails the plan exactly when the width exceeds it.
        const unsigned below = want.bits > 0 ? want.bits - 1 : 0;
        for (const unsigned budget : {0u, below, want.bits}) {
          const ColumnPlan capped = PlanColumn(col.data(), n, slope, budget);
          EXPECT_EQ(capped.ok, want.bits <= budget)
              << simd::LevelName(level) << " case " << c << " budget "
              << budget;
          if (capped.ok) {
            EXPECT_EQ(capped.bits, want.bits);
          }
        }
      }
    }
  }
}

// Every field of two plans, failed ones included: a failed plan keeps its
// base and span and reports res_min 0 and bits 0.
void ExpectSamePlan(const ColumnPlan& got, const ColumnPlan& want,
                    const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.base, want.base) << what;
  EXPECT_EQ(got.span, want.span) << what;
  EXPECT_EQ(got.res_min, want.res_min) << what;
  EXPECT_EQ(got.bits, want.bits) << what;
}

// Lengths that end inside a kernel stride or block, and columns whose
// widest residual sits at the start, at a block seam or in the last few
// records, on rising, falling and flat lines pressed against 0 and
// 2^64 - 1. Each plan is checked at budgets bits - 1 and bits.
TEST(PageCodecArithmeticTest, PlanMatchesThe128BitPlanOnEdgeColumns) {
  LevelGuard guard;
  std::vector<size_t> lengths = {kMaxPageRecords};
  for (size_t n = 1; n <= 20; ++n) lengths.push_back(n);
  for (const size_t n : {63, 64, 65, 71, 127, 128, 129, 1001, 4099}) {
    lengths.push_back(n);
  }
  Rng rng(8128);
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    for (const size_t n : lengths) {
      for (int shape = 0; shape < 6; ++shape) {
        std::vector<uint64_t> col(n);
        for (size_t i = 0; i < n; ++i) {
          switch (shape) {
            case 0:  // Rising from 0.
              col[i] = 3 * i + rng.NextBounded(4);
              break;
            case 1:  // Falling from 2^64 - 1.
              col[i] = kU64Max - 5 * i - rng.NextBounded(8);
              break;
            case 2:  // Falling to 0.
              col[i] = 7 * (n - 1 - i) + rng.NextBounded(3);
              break;
            case 3:  // Flat at 2^64 - 1 with dips.
              col[i] = kU64Max - (i % 3 == 1 ? rng.NextBounded(1000) : 0);
              break;
            case 4:  // Flat at 0 with bumps.
              col[i] = i % 5 == 2 ? rng.NextBounded(1u << 20) : 0;
              break;
            default:  // Rising near 2^63 across the sign bit.
              col[i] = (uint64_t{1} << 63) - 40 * n + 80 * i +
                       rng.NextBounded(16);
              break;
          }
        }
        // The widest residual at the front, at the first block seam, in
        // the last record.
        for (const size_t at : {size_t{1}, size_t{64}, n - 1}) {
          std::vector<uint64_t> spiked = col;
          if (at < n) spiked[at] ^= uint64_t{1} << 40;
          for (const bool slope : {false, true}) {
            const ColumnPlan want = Reference128Plan(spiked, slope);
            const std::string what =
                std::string(simd::LevelName(level)) + " n " +
                std::to_string(n) + " shape " + std::to_string(shape) +
                " spike " + std::to_string(at) + " slope " +
                std::to_string(slope);
            ExpectSamePlan(PlanColumn(spiked.data(), n, slope), want, what);
            if (!want.ok || want.bits == 0) continue;
            EXPECT_FALSE(
                PlanColumn(spiked.data(), n, slope, want.bits - 1).ok)
                << what;
            ExpectSamePlan(PlanColumn(spiked.data(), n, slope, want.bits),
                           want, what);
          }
        }
      }
    }
  }
}

TEST(PageCodecArithmeticTest, PlanRejectsSpansAndResidualsOutsideTheFields) {
  LevelGuard guard;
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    // A span past int64 fails the slope plan; the flat plan of the same
    // column needs all 64 bits and still fits its field.
    const std::vector<uint64_t> wide = {0, kU64Max / 2, kU64Max};
    EXPECT_FALSE(Reference128Plan(wide, true).ok);
    EXPECT_FALSE(PlanColumn(wide.data(), 3, true).ok);
    const ColumnPlan flat = PlanColumn(wide.data(), 3, false);
    ASSERT_TRUE(flat.ok) << simd::LevelName(level);
    EXPECT_EQ(flat.bits, 64u);
    // A dip from 2^64 - 1 to 0 and back: the flat plan's residual minimum,
    // -(2^64 - 1), lies below int64, so the plan fails.
    const std::vector<uint64_t> dip = {kU64Max, 0, kU64Max};
    EXPECT_FALSE(Reference128Plan(dip, false).ok);
    EXPECT_FALSE(PlanColumn(dip.data(), 3, false).ok);
    // The same dip to 2^63 - 1 leaves a minimum of exactly -2^63, which
    // still fits.
    const std::vector<uint64_t> half_dip = {kU64Max, kU64Max / 2, kU64Max};
    const ColumnPlan edge = PlanColumn(half_dip.data(), 3, false);
    ExpectSamePlan(edge, Reference128Plan(half_dip, false),
                   simd::LevelName(level));
    EXPECT_TRUE(edge.ok);
    EXPECT_EQ(edge.res_min, kI64Min);
  }
}

// ----- Page bytes pinned: the on-disk format does not drift -----

// SplitMix64, local so the pinned bytes depend on nothing but this file and
// the encoder.
uint64_t GoldenMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const unsigned char* bytes, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * 0x100000001B3ull;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;

// 40k records in four segments: lognormal-like keys with uneven gaps and a
// few wild jumps, under falling values (a negative value slope) with
// tombstones; then keys and values pressed against 2^64 - 1; then values
// hugging 0; then unstructured values, which kDelta can only write as
// plain fallback pages.
std::vector<std::pair<uint64_t, Entry>> GoldenEntries() {
  std::vector<std::pair<uint64_t, Entry>> entries;
  uint64_t state = 20240611;
  uint64_t key = 1000;
  constexpr size_t kSegment = 10'000;
  for (size_t i = 0; i < kSegment; ++i) {
    const uint64_t r = GoldenMix(&state);
    key += 1 + (r % 61) + (i % 3001 == 3000 ? (uint64_t{1} << 36) : 0);
    entries.emplace_back(
        key, Entry{(uint64_t{1} << 42) - 7 * i + (r >> 60), r % 9 == 0});
  }
  key = std::numeric_limits<uint64_t>::max() - 3 * kSegment * 400;
  for (size_t i = 0; i < kSegment; ++i) {
    const uint64_t r = GoldenMix(&state);
    key += 1 + r % 300;
    entries.emplace_back(
        key, Entry{std::numeric_limits<uint64_t>::max() - 5 * i - (r >> 61),
                   r % 13 == 0});
  }
  for (size_t i = 0; i < kSegment; ++i) {
    const uint64_t r = GoldenMix(&state);
    key += 1 + r % 200;
    entries.emplace_back(key, Entry{r % 4, false});
  }
  for (size_t i = 0; i < kSegment; ++i) {
    const uint64_t r = GoldenMix(&state);
    key += 1 + r % 100;
    entries.emplace_back(key, Entry{GoldenMix(&state), r % 5 == 0});
  }
  return entries;
}

struct GoldenDigest {
  size_t pages = 0;
  size_t plain_pages = 0;
  uint64_t bytes_hash = kFnvOffset;  // Every byte of every encoded page.
  uint64_t crc_hash = kFnvOffset;    // Every stamped page's PageChecksum.
};

// Encodes the entries page by page, as a run build does, checks that each
// page decodes back to its records, and digests the bytes and checksums.
GoldenDigest EncodeGoldenRun(
    const std::vector<std::pair<uint64_t, Entry>>& entries, PageCodec codec) {
  GoldenDigest d;
  for (size_t pos = 0; pos < entries.size(); ++d.pages) {
    Page page{};
    const size_t count = EncodeDataPage(entries.data() + pos,
                                        entries.size() - pos, codec, &page);
    EXPECT_GT(count, 0u);
    if (count == 0) break;
    const DataPageView<uint64_t, uint64_t> view(page);
    if (!view.packed()) ++d.plain_pages;
    std::vector<std::pair<uint64_t, Entry>> decoded;
    view.DecodeInto(0, view.count(), &decoded);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(decoded[i].first, entries[pos + i].first);
      EXPECT_EQ(decoded[i].second.value, entries[pos + i].second.value);
      EXPECT_EQ(decoded[i].second.deleted, entries[pos + i].second.deleted);
    }
    d.bytes_hash = Fnv1a(page.bytes.data(), kPageSize, d.bytes_hash);
    // Stamp the identity fields as FileManager::WritePage does.
    PageHeader h = page.header();
    h.magic = kPageMagic;
    h.version = kPageFormatVersion;
    h.page_id = d.pages;
    h.crc32 = 0;
    page.set_header(h);
    const uint32_t crc = PageChecksum(page);
    d.crc_hash = Fnv1a(reinterpret_cast<const unsigned char*>(&crc),
                       sizeof(crc), d.crc_hash);
    pos += count;
  }
  return d;
}

// The encoder's residual kernel runs at the active dispatch level, so the
// pinned bytes are checked at every level.
TEST(PageCodecGoldenTest, DeltaRunBytesArePinned) {
  LevelGuard guard;
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    SCOPED_TRACE(simd::LevelName(level));
    const GoldenDigest d =
        EncodeGoldenRun(GoldenEntries(), PageCodec::kDelta);
    EXPECT_EQ(d.pages, 60u);
    EXPECT_EQ(d.plain_pages, 42u);
    EXPECT_EQ(d.bytes_hash, 0xA6D68046E9F5C076ull);
    EXPECT_EQ(d.crc_hash, 0x7879475C92BD5EB0ull);
  }
}

TEST(PageCodecGoldenTest, ForRunBytesArePinned) {
  LevelGuard guard;
  for (simd::Level level : RunnableLevels()) {
    simd::SetLevel(level);
    SCOPED_TRACE(simd::LevelName(level));
    const GoldenDigest d = EncodeGoldenRun(GoldenEntries(), PageCodec::kFor);
    EXPECT_EQ(d.pages, 57u);
    EXPECT_EQ(d.plain_pages, 11u);
    EXPECT_EQ(d.bytes_hash, 0x937CABD465F2A60Dull);
    EXPECT_EQ(d.crc_hash, 0xFA09F91B161C9044ull);
  }
}

TEST(PageChecksumTest, FixedPageChecksumIsPinned) {
  Page page{};
  uint64_t state = 31337;
  for (auto& b : page.bytes) b = static_cast<unsigned char>(GoldenMix(&state));
  PageHeader h{};
  h.magic = kPageMagic;
  h.version = kPageFormatVersion;
  h.type = static_cast<uint16_t>(PageType::kData);
  h.page_id = 0x0123456789ABCDEFull;
  h.payload_bytes = static_cast<uint32_t>(kPagePayloadSize);
  h.crc32 = 0xFFFFFFFFu;  // The checksum reads this field as zero.
  page.set_header(h);
  EXPECT_EQ(PageChecksum(page), 0x0FF32D3Cu);
}

TEST(DiskRunCodecTest, MixedPackedAndFallbackPagesResolveEveryKey) {
  // Regression: a compressed run may contain plain-fallback pages (here
  // the short tail page under kFor); their rank base must come from the
  // packed directory, not the plain division. This dataset is pinned
  // because it produces exactly that mix.
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 20000, 4242);
  std::vector<std::pair<uint64_t, Entry>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(keys[i], Entry{i, false});
  }
  FileManager file(FreshFile("codec_mixed"));
  BufferPool pool(&file, 64);
  DRun::Options opts;
  opts.codec = PageCodec::kFor;
  DRun run(entries, &file, &pool, opts);
  ASSERT_GT(run.NumPackedPages(), 0u);
  ASSERT_LT(run.NumPackedPages(), run.NumPages()) << "dataset drifted: no "
      "fallback page; pick one that mixes packed and plain pages";
  run.CheckInvariants();
  for (const auto& [key, entry] : entries) {
    const auto got = run.Get(key, nullptr);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(got->value, entry.value);
  }
}

TEST(DiskRunCodecTest, MatchesPlainAcrossCodecsEpsilonsAndBackends) {
  const auto entries = MakeEntries(12000, 1901);
  Rng rng(1907);
  // Probe stream: every key (even slots) plus a near-miss for each.
  std::vector<uint64_t> probes;
  probes.reserve(entries.size() * 2);
  for (const auto& [key, entry] : entries) {
    probes.push_back(key);
    probes.push_back(key + 1 + rng.NextBounded(3));
  }
  for (const size_t eps : {8u, 256u}) {
    FileManager plain_file(FreshFile("codec_plain"));
    BufferPool plain_pool(&plain_file, 256);
    DRun::Options plain_opts;
    plain_opts.learned_epsilon = eps;
    DRun plain(entries, &plain_file, &plain_pool, plain_opts);
    std::vector<std::optional<Entry>> want(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      want[i] = plain.Get(probes[i], nullptr);
    }
    for (const DiskSearchMode mode :
         {DiskSearchMode::kModelFence, DiskSearchMode::kFenceBinary,
          DiskSearchMode::kLearned}) {
      for (const PageCodec codec :
           {PageCodec::kPlain, PageCodec::kFor, PageCodec::kDelta}) {
        if (mode == DiskSearchMode::kModelFence &&
            codec == PageCodec::kPlain) {
          continue;  // The reference itself.
        }
        const std::string where = "mode=" +
                                  std::to_string(static_cast<int>(mode)) +
                                  " codec=" +
                                  std::to_string(static_cast<int>(codec)) +
                                  " eps=" + std::to_string(eps);
        FileManager file(FreshFile("codec_fuzz"));
        BufferPool pool(&file, 256);
        DRun::Options opts;
        opts.learned_epsilon = eps;
        opts.codec = codec;
        opts.mode = mode;
        DRun run(entries, &file, &pool, opts);
        run.CheckInvariants();
        DiskIoStats hit_io;
        DiskIoStats scalar_io;
        for (size_t i = 0; i < probes.size(); ++i) {
          const auto got =
              run.Get(probes[i], i % 2 == 0 ? &hit_io : &scalar_io);
          ASSERT_EQ(want[i].has_value(), got.has_value())
              << where << " probe=" << probes[i];
          if (want[i].has_value()) {
            EXPECT_EQ(want[i]->value, got->value);
            EXPECT_EQ(want[i]->deleted, got->deleted);
          }
        }
        // Fence-guided modes read exactly the one page a present key is on.
        if (mode != DiskSearchMode::kLearned) {
          EXPECT_EQ(hit_io.pages_touched, entries.size()) << where;
        }
        scalar_io.pages_touched += hit_io.pages_touched;
        // Scans and the compaction drain agree with the plain run.
        for (int trial = 0; trial < 20; ++trial) {
          const uint64_t lo = entries[rng.NextBounded(entries.size())].first;
          const uint64_t hi = lo + rng.NextBounded(1u << 22);
          const auto a = plain.Scan(lo, hi, nullptr);
          const auto b = run.Scan(lo, hi, nullptr);
          ASSERT_EQ(a.size(), b.size());
          for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].first, b[i].first);
            EXPECT_EQ(a[i].second.value, b[i].second.value);
            EXPECT_EQ(a[i].second.deleted, b[i].second.deleted);
          }
        }
        const auto drained = run.Drain();
        ASSERT_EQ(drained.size(), entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
          ASSERT_EQ(drained[i].first, entries[i].first);
          ASSERT_EQ(drained[i].second.value, entries[i].second.value);
          ASSERT_EQ(drained[i].second.deleted, entries[i].second.deleted);
        }
        // Async batched lookups match the scalar path, page for page, on
        // every backend and queue depth (io_uring degrades to the thread
        // pool if unavailable).
        for (const IoBackend backend :
             {IoBackend::kThreadPool, IoBackend::kIoUring}) {
          for (const size_t depth : {4u, 32u}) {
            const auto engine = AsyncReadEngine::Create(backend, depth);
            DiskIoStats batch_io;
            std::vector<std::optional<Entry>> out(probes.size());
            run.GetBatch(probes.data(), probes.size(), engine.get(),
                         out.data(), &batch_io);
            for (size_t i = 0; i < probes.size(); ++i) {
              ASSERT_EQ(want[i].has_value(), out[i].has_value())
                  << where << " " << engine->name() << " depth=" << depth
                  << " i=" << i;
              if (want[i].has_value()) {
                ASSERT_EQ(want[i]->value, out[i]->value);
              }
            }
            EXPECT_EQ(batch_io.pages_touched, scalar_io.pages_touched)
                << where;
          }
        }
      }
    }
  }
}

TEST(DiskRunCodecTest, DecodeCountersAreExact) {
  const auto entries = CompressibleEntries(5000, 2039);
  FileManager file(FreshFile("codec_counters"));
  BufferPool pool(&file, 64);
  DRun::Options opts;
  opts.codec = PageCodec::kDelta;
  DRun run(entries, &file, &pool, opts);
  ASSERT_EQ(run.NumPackedPages(), run.NumPages());
  // A full scan materializes every record exactly once: the io counter,
  // the pool's decompressed-bytes, and n agree to the byte.
  pool.ResetStats();
  DiskIoStats scan_io;
  const auto scanned = run.Scan(0, ~uint64_t{0}, &scan_io);
  ASSERT_EQ(scanned.size(), entries.size());
  EXPECT_EQ(scan_io.records_decoded, entries.size());
  EXPECT_EQ(scan_io.partial_decodes, 0u);
  EXPECT_EQ(pool.stats().decompressed_bytes,
            entries.size() * DRun::kRecordBytes);
  EXPECT_EQ(pool.stats().partial_decodes, 0u);
  // A point lookup decodes only its ε-window slice: strictly fewer
  // records than the page holds, counted as one partial decode, with the
  // pool's byte counter tracking the io counter exactly.
  pool.ResetStats();
  DiskIoStats get_io;
  const auto got = run.Get(entries[2500].first, &get_io);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(get_io.pages_touched, 1u);
  EXPECT_EQ(get_io.partial_decodes, 1u);
  EXPECT_GT(get_io.records_decoded, 0u);
  EXPECT_LT(get_io.records_decoded, run.KeysPerPage());
  EXPECT_EQ(pool.stats().decompressed_bytes,
            get_io.records_decoded * DRun::kRecordBytes);
  EXPECT_EQ(pool.stats().partial_decodes, 1u);
  // Plain runs never touch the decode counters.
  FileManager plain_file(FreshFile("codec_counters_plain"));
  BufferPool plain_pool(&plain_file, 64);
  DRun plain(entries, &plain_file, &plain_pool, DRun::Options{});
  DiskIoStats plain_io;
  (void)plain.Get(entries[100].first, &plain_io);
  (void)plain.Scan(0, ~uint64_t{0}, &plain_io);
  EXPECT_EQ(plain_io.records_decoded, 0u);
  EXPECT_EQ(plain_io.partial_decodes, 0u);
  EXPECT_EQ(plain_pool.stats().decompressed_bytes, 0u);
  EXPECT_EQ(plain_pool.stats().partial_decodes, 0u);
}

// A packed page whose framing is inconsistent is corruption even when the
// CRC passes (WritePage recomputes it); the view must refuse to decode.
class PageCodecDeathTest : public ::testing::Test {
 protected:
  Page MakePackedPage() {
    const auto entries = CompressibleEntries(3000, 2048);
    Page page{};
    const size_t count =
        EncodeDataPage(entries.data(), entries.size(), PageCodec::kDelta,
                       &page);
    EXPECT_GT(count, 0u);
    EXPECT_EQ(page.header().codec, static_cast<uint16_t>(PageCodec::kDelta));
    return page;
  }
};

TEST_F(PageCodecDeathTest, UnknownCodecTagAborts) {
  Page page = MakePackedPage();
  PageHeader h = page.header();
  h.codec = 7;
  page.set_header(h);
  EXPECT_DEATH((DataPageView<uint64_t, uint64_t>(page)), "known codec tag");
}

TEST_F(PageCodecDeathTest, ZeroRecordCountAborts) {
  Page page = MakePackedPage();
  PageHeader h = page.header();
  h.record_count = 0;
  page.set_header(h);
  EXPECT_DEATH((DataPageView<uint64_t, uint64_t>(page)),
               "packed page not empty");
}

TEST_F(PageCodecDeathTest, TruncatedPayloadAborts) {
  // Shrinking payload_bytes below what the streams need models a
  // truncated compressed page.
  Page page = MakePackedPage();
  PageHeader h = page.header();
  h.payload_bytes = sizeof(PackedPayloadHeader) + 4;
  page.set_header(h);
  EXPECT_DEATH((DataPageView<uint64_t, uint64_t>(page)),
               "streams within payload bound");
}

TEST_F(PageCodecDeathTest, OversizedFieldWidthAborts) {
  Page page = MakePackedPage();
  PackedPayloadHeader ph;
  std::memcpy(&ph, page.payload(), sizeof(ph));
  ph.key_bits = 65;
  std::memcpy(page.payload(), &ph, sizeof(ph));
  EXPECT_DEATH((DataPageView<uint64_t, uint64_t>(page)),
               "field widths fit a word");
}

TEST_F(PageCodecDeathTest, CorruptPackedPageOnDiskAborts) {
  // End to end: a tampered compressed page is rejected at pin time by the
  // CRC, same as plain pages.
  const std::string path = FreshFile("codec_corrupt");
  FileManager file(path);
  BufferPool pool(&file, 16);
  DRun::Options opts;
  opts.codec = PageCodec::kDelta;
  DRun run(CompressibleEntries(5000, 2053), &file, &pool, opts);
  run.CheckInvariants();
  FlipByteAt(path, kPageSize + sizeof(PageHeader) + 100);
  EXPECT_DEATH(run.CheckInvariants(), "page readable and checksummed");
}

// ----- DiskLsmTree vs LsmTree -----

using MemLsm = LsmTree<uint64_t, uint64_t>;
using DiskLsm = DiskLsmTree<uint64_t, uint64_t>;

MemLsm::Options SmallMemOptions(bool background) {
  MemLsm::Options opts;
  opts.memtable_limit = 256;
  opts.l0_run_limit = 3;
  opts.level_size_factor = 4;
  opts.background_compaction = background;
  return opts;
}

DiskLsm::Options SmallDiskOptions(bool background) {
  DiskLsm::Options opts;
  opts.memtable_limit = 256;
  opts.l0_run_limit = 3;
  opts.level_size_factor = 4;
  opts.pool_frames = 32;
  opts.background_compaction = background;
  return opts;
}

// Independent oracle for the mem-vs-disk fuzzes: both trees run the same
// LsmTree code, so agreeing with each other only shows the two run stores
// match; agreeing with a std::map also checks the tree logic itself.
using RefMap = std::map<uint64_t, uint64_t>;

std::optional<uint64_t> RefGet(const RefMap& ref, uint64_t key) {
  const auto it = ref.find(key);
  if (it == ref.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<uint64_t, uint64_t>> RefRange(const RefMap& ref,
                                                    uint64_t lo, uint64_t hi) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
       ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

class DiskLsmModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(DiskLsmModeTest, MatchesInMemoryLsmUnderFuzz) {
  const bool background = GetParam();
  MemLsm mem(SmallMemOptions(background));
  DiskLsm disk(FreshFile(background ? "disklsm_fuzz_bg" : "disklsm_fuzz"),
               SmallDiskOptions(background));
  RefMap ref;
  Rng rng(1861);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBounded(3000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        const uint64_t value = rng.Next();
        mem.Put(key, value);
        disk.Put(key, value);
        ref[key] = value;
        break;
      }
      case 2:
        mem.Delete(key);
        disk.Delete(key);
        ref.erase(key);
        break;
      default:
        ASSERT_EQ(mem.Get(key), disk.Get(key)) << "op " << op;
        ASSERT_EQ(disk.Get(key), RefGet(ref, key)) << "op " << op;
    }
  }
  mem.WaitForCompactions();
  disk.WaitForCompactions();
  disk.CheckInvariants();
  // Full-content equality, point and range.
  for (uint64_t key = 0; key < 3000; ++key) {
    ASSERT_EQ(mem.Get(key), disk.Get(key)) << key;
    ASSERT_EQ(disk.Get(key), RefGet(ref, key)) << key;
  }
  std::vector<std::pair<uint64_t, uint64_t>> want;
  std::vector<std::pair<uint64_t, uint64_t>> got;
  mem.RangeScan(0, 3000, &want);
  disk.RangeScan(0, 3000, &got);
  EXPECT_EQ(want, got);
  EXPECT_EQ(got, RefRange(ref, 0, 3000));
  // Partial ranges too.
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t lo = rng.NextBounded(3000);
    const uint64_t hi = lo + rng.NextBounded(500);
    want.clear();
    got.clear();
    mem.RangeScan(lo, hi, &want);
    disk.RangeScan(lo, hi, &got);
    ASSERT_EQ(want, got) << lo << ".." << hi;
    ASSERT_EQ(got, RefRange(ref, lo, hi)) << lo << ".." << hi;
  }
}

TEST_P(DiskLsmModeTest, MergedRunsFreeTheirPages) {
  // A compaction's input runs give their pages back as soon as no reader
  // can still see them: once compactions are idle, the file's allocated
  // pages are exactly the live runs' pages.
  const bool background = GetParam();
  DiskLsm disk(FreshFile(background ? "disklsm_free_bg" : "disklsm_free"),
               SmallDiskOptions(background));
  Rng rng(1867);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 1000; ++i) {
      disk.Put(rng.NextBounded(20000), static_cast<uint64_t>(round));
      if (i % 7 == 0) disk.Delete(rng.NextBounded(20000));
    }
    disk.Flush();
    disk.WaitForCompactions();
    uint64_t live = 0;
    for (const auto& run : disk.Runs()) live += run->NumPages();
    ASSERT_EQ(disk.file().NumPages() - disk.file().FreeListSize(), live)
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(SyncAndBackground, DiskLsmModeTest,
                         ::testing::Values(false, true));

TEST(DiskLsmTest, CompactionRecyclesPagesInsteadOfLeakingFile) {
  DiskLsm disk(FreshFile("disklsm_recycle"), SmallDiskOptions(false));
  // Overwrite the same small key range many times: dead versions must be
  // reclaimed, so the file stays far smaller than total bytes written.
  for (int round = 0; round < 40; ++round) {
    for (uint64_t key = 0; key < 1000; ++key) {
      disk.Put(key, key + static_cast<uint64_t>(round) * 1000000);
    }
  }
  disk.Flush();
  disk.CheckInvariants();
  // 40k puts of 17-byte records is ~170 pages of live-ish data per
  // snapshot; without recycling the file would hold every dead run.
  const uint64_t live_pages = disk.file().NumPages();
  EXPECT_LT(live_pages, 600u);
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(disk.Get(key), std::optional<uint64_t>(key + 39 * 1000000u));
  }
}

TEST(DiskLsmTest, StatsCountPagesAndBloomRejects) {
  DiskLsm disk(FreshFile("disklsm_stats"), SmallDiskOptions(false));
  for (uint64_t key = 0; key < 4000; ++key) disk.Put(key * 2, key);
  disk.Flush();
  DiskIoStats hits;
  for (uint64_t key = 0; key < 4000; ++key) {
    ASSERT_TRUE(disk.Get(key * 2, &hits).has_value());
  }
  EXPECT_GT(hits.pages_touched, 0u);
  EXPECT_GT(hits.run_probes, 0u);
  // Misses are mostly absorbed by the Bloom filters, not disk reads.
  DiskIoStats misses;
  for (uint64_t key = 0; key < 4000; ++key) {
    ASSERT_FALSE(disk.Get(key * 2 + 1, &misses).has_value());
  }
  EXPECT_GT(misses.bloom_rejects, 0u);
  EXPECT_LT(misses.pages_touched, 4000u);
}

TEST(DiskLsmTest, CompressedLevelsMatchInMemoryLsmUnderFuzz) {
  // level_codec compresses every run, L0 included; the tree must stay
  // content-identical to the in-memory reference.
  MemLsm mem(SmallMemOptions(false));
  DiskLsm::Options opts = SmallDiskOptions(false);
  opts.level_codec = PageCodec::kDelta;
  DiskLsm disk(FreshFile("disklsm_codec"), opts);
  RefMap ref;
  Rng rng(1871);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextBounded(3000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        const uint64_t value = rng.Next();
        mem.Put(key, value);
        disk.Put(key, value);
        ref[key] = value;
        break;
      }
      case 2:
        mem.Delete(key);
        disk.Delete(key);
        ref.erase(key);
        break;
      default:
        ASSERT_EQ(mem.Get(key), disk.Get(key)) << "op " << op;
        ASSERT_EQ(disk.Get(key), RefGet(ref, key)) << "op " << op;
    }
  }
  disk.Flush();
  disk.CheckInvariants();
  for (uint64_t key = 0; key < 3000; ++key) {
    ASSERT_EQ(mem.Get(key), disk.Get(key)) << key;
    ASSERT_EQ(disk.Get(key), RefGet(ref, key)) << key;
  }
  std::vector<std::pair<uint64_t, uint64_t>> want;
  std::vector<std::pair<uint64_t, uint64_t>> got;
  mem.RangeScan(0, 3000, &want);
  disk.RangeScan(0, 3000, &got);
  EXPECT_EQ(want, got);
  EXPECT_EQ(got, RefRange(ref, 0, 3000));
}

// ----- DiskRun navigation modes vs PgmIndex -----

using MemPgm = PgmIndex<uint64_t, uint64_t>;

// Plain-page run over (keys[i], values[i]) navigated by `mode`.
std::unique_ptr<DRun> MakeModeRun(const std::vector<uint64_t>& keys,
                                  const std::vector<uint64_t>& values,
                                  DiskSearchMode mode, size_t eps,
                                  FileManager* file, BufferPool* pool) {
  std::vector<std::pair<uint64_t, Entry>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(keys[i], Entry{values[i], false});
  }
  DRun::Options opts;
  opts.mode = mode;
  opts.learned_epsilon = eps;
  return std::make_unique<DRun>(std::move(entries), file, pool, opts);
}

std::optional<uint64_t> ValueOf(const std::optional<Entry>& e) {
  return e.has_value() ? LiveValue(*e) : std::nullopt;
}

class DiskPgmModeTest : public ::testing::TestWithParam<DiskSearchMode> {};

TEST_P(DiskPgmModeTest, MatchesInMemoryPgm) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 50000, 1901);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 2 + 1;

  MemPgm mem;
  mem.Build(keys, values);

  FileManager file(FreshFile(GetParam() == DiskSearchMode::kLearned
                                 ? "diskpgm_learned"
                                 : "diskpgm_fence"));
  BufferPool pool(&file, 64);
  const auto disk = MakeModeRun(keys, values, GetParam(), 64, &file, &pool);
  disk->CheckInvariants();

  DiskIoStats io;
  Rng rng(1907);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(ValueOf(disk->Get(keys[i], &io)), mem.Find(keys[i])) << keys[i];
  }
  for (int probe = 0; probe < 2000; ++probe) {
    const uint64_t miss = keys[rng.NextBounded(keys.size())] + 1;
    if (!std::binary_search(keys.begin(), keys.end(), miss)) {
      ASSERT_EQ(ValueOf(disk->Get(miss, &io)), mem.Find(miss)) << miss;
    }
  }
  // Range scans against a plain reference.
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t lo = keys[rng.NextBounded(keys.size())];
    const uint64_t hi = lo + rng.NextBounded(1u << 18);
    std::vector<std::pair<uint64_t, uint64_t>> got;
    for (const auto& [k, e] : disk->Scan(lo, hi, &io)) {
      got.emplace_back(k, e.value);
    }
    std::vector<std::pair<uint64_t, uint64_t>> want;
    for (size_t i = std::lower_bound(keys.begin(), keys.end(), lo) -
                    keys.begin();
         i < keys.size() && keys[i] <= hi; ++i) {
      want.emplace_back(keys[i], values[i]);
    }
    ASSERT_EQ(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(FenceAndLearned, DiskPgmModeTest,
                         ::testing::Values(DiskSearchMode::kFenceBinary,
                                           DiskSearchMode::kLearned));

TEST(DiskPgmTableTest, FenceModeReadsExactlyOnePagePerLookup) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 30000, 1913);
  std::vector<uint64_t> values(keys.size(), 0);
  FileManager file(FreshFile("diskpgm_onepage"));
  BufferPool pool(&file, 16);
  const auto disk = MakeModeRun(keys, values, DiskSearchMode::kFenceBinary,
                                64, &file, &pool);
  DiskIoStats io;
  for (size_t i = 0; i < 1000; ++i) {
    (void)disk->Get(keys[i * 7], &io);
  }
  EXPECT_EQ(io.pages_touched, 1000u);
}

TEST(DiskPgmTableTest, LearnedModePagesPerLookupShrinkWithEpsilon) {
  const auto keys = GenerateKeys(KeyDistribution::kUniform, 50000, 1931);
  std::vector<uint64_t> values(keys.size(), 0);
  double prev_pages = 0.0;
  bool first = true;
  for (const size_t eps : {16u, 256u, 2048u}) {
    FileManager file(FreshFile("diskpgm_eps_" + std::to_string(eps)));
    BufferPool pool(&file, 256);
    const auto disk = MakeModeRun(keys, values, DiskSearchMode::kLearned, eps,
                                  &file, &pool);
    DiskIoStats io;
    for (size_t i = 0; i < keys.size(); i += 5) {
      ASSERT_TRUE(disk->Get(keys[i], &io).has_value());
    }
    const double pages =
        static_cast<double>(io.pages_touched) /
        (static_cast<double>(keys.size()) / 5.0);
    if (!first) {
      EXPECT_GE(pages, prev_pages) << "eps " << eps;
    }
    first = false;
    prev_pages = pages;
  }
  // The widest ε genuinely costs extra I/O over the tightest.
  EXPECT_GT(prev_pages, 1.5);
}

// ----- Flat PLA training pins -----

// Every flat ε-PLA user trains exactly as the hand-written loops it
// replaced: on a fixed seed, each structure's segment count (and the
// learned hash map's bucket spread) is pinned to the value those loops
// produced.
TEST(PlaLocatorTest, FlatRunSegmentCountsPinnedOnAFixedSeed) {
  const auto keys = GenerateKeys(KeyDistribution::kLognormal, 100000, 3141);
  std::vector<std::pair<uint64_t, Entry>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(keys[i], Entry{i, false});
  }
  MemRun::Options blocked;
  blocked.build_threads = 4;  // Four PLA blocks, so three seams.
  EXPECT_EQ(MemRun(entries, MemRun::Options{}).NumSegments(), 152u);
  EXPECT_EQ(MemRun(entries, blocked).NumSegments(), 155u);

  FileManager file(FreshFile("pla_pins"));
  BufferPool pool(&file, 16);
  DRun::Options delta;
  delta.codec = PageCodec::kDelta;
  delta.build_threads = 4;
  EXPECT_EQ(DRun(entries, &file, &pool, DRun::Options{}).NumSegments(), 152u);
  EXPECT_EQ(DRun(entries, &file, &pool, delta).NumSegments(), 155u);

  // Deep-prefix keys share fingerprints, so the model skips repeats.
  for (const auto& [style, segments] :
       {std::pair{StringKeyStyle::kUrls, size_t{83}},
        std::pair{StringKeyStyle::kDeepPrefix, size_t{428}}}) {
    const auto strings = GenerateStringKeys(style, 50000, 2718);
    StringLearnedIndex<uint64_t> index;
    index.Build(strings, std::vector<uint64_t>(strings.size()));
    EXPECT_EQ(index.NumSegments(), segments) << StringKeyStyleName(style);
  }

  LearnedHashMap<uint64_t, uint64_t> hash;
  hash.BulkLoad(keys, std::vector<uint64_t>(keys.size()));
  EXPECT_EQ(hash.MaxChainLength(), 8u);
  EXPECT_DOUBLE_EQ(hash.LoadVariance(), 1.00798);
}

// Two distinct u64 keys that round to one double cannot both start a PLA
// segment: every flat-PLA user refuses to build on them.
TEST(PlaLocatorDeathTest, FlatRunsAbortOnKeysThatCollideAsDoubles) {
  const uint64_t a = uint64_t{1} << 60;
  const std::vector<std::pair<uint64_t, Entry>> entries = {
      {a, Entry{1, false}}, {a + 1, Entry{2, false}}};
  EXPECT_DEATH({ MemRun run(entries, MemRun::Options{}); },
               "LIDX_CHECK failed");
  EXPECT_DEATH(
      {
        FileManager file(FreshFile("pla_collide"));
        BufferPool pool(&file, 4);
        DRun run(entries, &file, &pool, DRun::Options{});
      },
      "LIDX_CHECK failed");
  const std::vector<uint64_t> keys = {a, a + 1};
  using Hash = LearnedHashMap<uint64_t, uint64_t>;
  EXPECT_DEATH(Hash().BulkLoad(keys, keys),
               "LIDX_CHECK failed");
}

}  // namespace
}  // namespace lidx::storage
