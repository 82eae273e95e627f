#ifndef LIDX_STORAGE_DISK_RUN_H_
#define LIDX_STORAGE_DISK_RUN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/bloom.h"
#include "common/batch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/search.h"
#include "common/simd.h"
#include "lsm/run.h"
#include "models/pla_locator.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_codec.h"

namespace lidx {
template <typename Key, typename Value, typename Store>
class LsmTree;
}  // namespace lidx

namespace lidx::storage {

template <typename Key, typename Value>
class DiskRunStore;

// How a point lookup navigates from key to page. All modes read the same
// sorted pages and return identical results; they differ in the pages a
// lookup reads and in the navigational state it consults — the paper's
// disk-resident comparison (FITing-tree / paged PGM vs. a B+-style page
// directory) as one setting of one table.
enum class DiskSearchMode {
  // B+-style page directory: binary-search all fence keys (one per page)
  // and search the single candidate page whole, without the model.
  kFenceBinary,
  // Model only: read the pages overlapping the ε-window in order, stopping
  // once a page's first key passes the target. No fence is read, so pages
  // per lookup grows with ε / records-per-page.
  kLearned,
  // Model ∩ fences: the ε-window narrows the fence search to the one page
  // a present key can live on, and bounds the in-page search.
  kModelFence,
};

// Disk-resident immutable sorted run: the on-disk counterpart of SortedRun
// and the core of the model-in-memory / data-on-disk regime the paper's
// disk-based systems (FITing-tree, BOURBON, PGM's paged variant) operate
// in. Records live in checksummed 4 KiB pages; what stays in memory is the
// cheap navigational state — one fence key per page, an ε-bounded PLA
// model over the keys, and a Bloom filter.
//
// By default (kModelFence) a point lookup combines the two: the model
// predicts the key's rank, which narrows the candidate range to the
// ε-window of pages, and the fence keys select the single page in that
// window that can hold the key — so a probe that survives the Bloom filter
// pins exactly one page, and the model's rank window then bounds the
// in-page binary search. Options::mode swaps in fence-only or model-only
// navigation for comparison. Records are packed field-by-field (key,
// value, tombstone byte) rather than memcpy'd as structs, so no padding
// bytes reach the disk and page CRCs are deterministic.
//
// Options::codec selects the page encoding (storage/page_codec.h). Under
// a compressed codec, pages hold a variable number of records, so the
// rank -> page map becomes a bit-packed directory of per-page first ranks
// instead of a division, and the in-page search decompresses only the
// ε-window slice the model bounds (reporting decode work to the pool's
// decompressed-bytes counters). Every page still self-identifies its own
// codec — the encoder falls back to plain per page when packing doesn't
// win — and results are byte-identical across codecs.
template <typename Key, typename Value>
class DiskRun {
 public:
  struct Options {
    size_t learned_epsilon = 16;
    double bloom_bits_per_key = 10.0;
    // Threads for the model-training pass (blocked PLA, seams preserve ε).
    size_t build_threads = 1;
    // Page encoding. kDelta compresses sorted u64 key pages several-fold
    // (residuals against a per-page linear fit); kFor offsets against the
    // page minimum. Per-page plain fallback applies either way.
    PageCodec codec = PageCodec::kPlain;
    // Point-lookup navigation (scans are fence-guided in every mode).
    DiskSearchMode mode = DiskSearchMode::kModelFence;
  };

  // On-disk record layout inside a kData page payload.
  static constexpr size_t kRecordBytes = sizeof(Key) + sizeof(Value) + 1;
  static constexpr size_t kRecordsPerPage = kPagePayloadSize / kRecordBytes;
  static_assert(kRecordsPerPage >= 1, "record must fit in one page");

  // Writes `entries` (strictly sorted by key, newest-wins already applied)
  // to freshly allocated pages of `file` and builds the in-memory model,
  // fences, and filter. `file` and `pool` must outlive the run.
  DiskRun(std::vector<std::pair<Key, RunEntry<Value>>> entries,
          FileManager* file, BufferPool* pool, const Options& options)
      : options_(options),
        file_(file),
        pool_(pool),
        n_(entries.size()),
        bloom_(std::max<size_t>(1, entries.size()),
               options.bloom_bits_per_key) {
    for (size_t i = 0; i < n_; ++i) {
      LIDX_DCHECK(i == 0 || entries[i - 1].first < entries[i].first);
      bloom_.Add(static_cast<uint64_t>(entries[i].first));
    }
    // The model trains on the entries' keys in place.
    struct KeyView {
      const std::vector<std::pair<Key, RunEntry<Value>>>* entries;
      size_t size() const { return entries->size(); }
      const Key& operator[](size_t i) const { return (*entries)[i].first; }
    };
    locator_.Build(KeyView{&entries}, options_.learned_epsilon,
                   options_.build_threads);
    pages_.reserve((n_ + kRecordsPerPage - 1) / kRecordsPerPage);
    fence_keys_.reserve(pages_.capacity());
    std::vector<uint64_t> first_ranks;
    size_t start = 0;
    while (start < n_) {
      Page page{};
      const size_t count = EncodeDataPage(entries.data() + start, n_ - start,
                                          options_.codec, &page);
      LIDX_CHECK(count > 0);
      if (page.header().codec !=
          static_cast<uint16_t>(PageCodec::kPlain)) {
        ++packed_pages_;
      }
      const uint64_t id = file_->Allocate();
      file_->WritePage(id, &page);
      pages_.push_back(id);
      fence_keys_.push_back(entries[start].first);
      first_ranks.push_back(start);
      start += count;
    }
    if (options_.codec != PageCodec::kPlain) dir_.Build(first_ranks, n_);
  }

  // Frees the run's pages. Runs are held by shared_ptr (readers snapshot
  // the run list), so by the time the destructor fires no reader can still
  // reach these page ids; invalidating the pool first guarantees a later
  // reuse of an id never serves this run's cached bytes.
  ~DiskRun() {
    for (const uint64_t id : pages_) {
      pool_->Invalidate(id);
      file_->Free(id);
    }
  }

  DiskRun(const DiskRun&) = delete;
  DiskRun& operator=(const DiskRun&) = delete;

  std::optional<RunEntry<Value>> Get(const Key& key, DiskIoStats* io) const {
    std::optional<RunEntry<Value>> out;
    std::optional<Target> t = ResolveTarget(key, io);
    if (!t.has_value()) return out;
    while (true) {
      if (io != nullptr) ++io->pages_touched;
      const BufferPool::PageRef ref = pool_->Pin(pages_[t->page]);
      if (StepPage(*ref, &*t, key, io, &out)) return out;
    }
  }

  // Batched point lookups with up to the engine's queue depth of page
  // reads in flight: the AMAC group scheduler (InterleavedIoRun) drives
  // one cursor per lookup — navigation at init, then the cursor parks on a
  // PagePinStream ticket and steps its page as it lands, submitting the
  // next page of a multi-page target only after this one ruled the key
  // out. Results and page visits are identical to calling Get per key
  // (both paths share ResolveTarget/StepPage). The engine must be idle and
  // owned by this thread; out[] must hold n slots.
  void GetBatch(const Key* keys, size_t n, AsyncReadEngine* engine,
                std::optional<RunEntry<Value>>* out, DiskIoStats* io) const {
    BufferPool::PagePinStream stream(pool_, engine);
    const uint64_t reads_before = engine->stats().reads_submitted;
    struct Cursor {
      size_t i = 0;
      uint64_t ticket = 0;
      bool pending = false;
      Target t;
    };
    InterleavedIoRun<Cursor>(
        n, engine->queue_depth(),
        [&](Cursor& c, size_t i) {
          c.i = i;
          const std::optional<Target> t = ResolveTarget(keys[i], io);
          if (!t.has_value()) {
            out[i] = std::nullopt;
            c.pending = false;
            return;
          }
          c.t = *t;
          if (io != nullptr) ++io->pages_touched;
          c.ticket = stream.Begin(pages_[c.t.page]);
          c.pending = true;
        },
        [&](Cursor& c) {
          if (!c.pending) return true;
          if (!stream.Ready(c.ticket)) return false;
          const BufferPool::PageRef ref = stream.Take(c.ticket);
          if (StepPage(*ref, &c.t, keys[c.i], io, &out[c.i])) return true;
          if (io != nullptr) ++io->pages_touched;
          c.ticket = stream.Begin(pages_[c.t.page]);
          return false;
        },
        [&] { stream.WaitAny(); });
    if (io != nullptr) {
      io->batched_lookups += n;
      io->async_page_reads += engine->stats().reads_submitted - reads_before;
    }
  }

  // Sorted entries with lo <= key <= hi, read through the buffer pool.
  // Fence keys bound the page walk on both ends.
  std::vector<std::pair<Key, RunEntry<Value>>> Scan(const Key& lo,
                                                    const Key& hi,
                                                    DiskIoStats* io) const {
    std::vector<std::pair<Key, RunEntry<Value>>> out;
    if (n_ == 0 || hi < lo) return out;
    size_t p = 0;
    const auto it =
        std::upper_bound(fence_keys_.begin(), fence_keys_.end(), lo);
    if (it != fence_keys_.begin()) {
      p = static_cast<size_t>(it - fence_keys_.begin()) - 1;
    }
    std::vector<std::pair<Key, RunEntry<Value>>> tmp;
    for (; p < pages_.size() && !(hi < fence_keys_[p]); ++p) {
      if (io != nullptr) ++io->pages_touched;
      const BufferPool::PageRef ref = pool_->Pin(pages_[p]);
      const DataPageView<Key, Value> view(*ref);
      tmp.clear();
      view.DecodeInto(0, view.count(), &tmp);
      if (view.packed()) {
        if (io != nullptr) io->records_decoded += view.count();
        pool_->RecordDecode(view.DecodedBytes(view.count()),
                            /*partial=*/false);
      }
      for (const auto& [k, entry] : tmp) {
        if (k < lo) continue;
        if (hi < k) return out;
        out.emplace_back(k, entry);
      }
    }
    return out;
  }

  // Extracts all entries for compaction. Reads through the FileManager
  // directly: a full-run sweep would only flush the buffer pool's useful
  // working set, and compaction runs on a background thread that must not
  // compete for frames with foreground queries.
  std::vector<std::pair<Key, RunEntry<Value>>> Drain() const {
    std::vector<std::pair<Key, RunEntry<Value>>> out;
    out.reserve(n_);
    Page page;
    for (const uint64_t id : pages_) {
      LIDX_INVARIANT(file_->ReadPage(id, &page),
                     "diskrun: drain read failed (corrupt or truncated page)");
      const DataPageView<Key, Value> view(page);
      view.DecodeInto(0, view.count(), &out);
    }
    return out;
  }

  size_t size() const { return n_; }
  size_t NumPages() const { return pages_.size(); }
  size_t NumSegments() const { return locator_.NumSegments(); }
  PageCodec codec() const { return options_.codec; }
  // Pages whose payload actually packed (the rest fell back to plain).
  size_t NumPackedPages() const { return packed_pages_; }
  double KeysPerPage() const {
    return pages_.empty() ? 0.0
                          : static_cast<double>(n_) /
                                static_cast<double>(pages_.size());
  }

  // In-memory footprint only — the records themselves are on disk.
  size_t SizeBytes() const {
    return sizeof(*this) + pages_.capacity() * sizeof(uint64_t) +
           FenceSizeBytes() + bloom_.SizeBytes() + ModelSizeBytes() +
           dir_.SizeBytes();
  }
  size_t ModelSizeBytes() const { return locator_.SizeBytes(); }
  size_t FenceSizeBytes() const {
    return fence_keys_.capacity() * sizeof(Key);
  }

  // Structural invariants, checked by re-reading every page from disk:
  // pages validate (magic/self-id/CRC), record counts fill pages densely,
  // fence keys equal each page's first record key, keys are strictly
  // sorted globally, the Bloom filter has no false negatives, and the PLA
  // model holds its own invariants over the keys read back. Aborts on
  // violation. Test hook.
  void CheckInvariants() const {
    LIDX_INVARIANT(pages_.size() == fence_keys_.size(),
                   "diskrun: fence per page");
    if (options_.codec == PageCodec::kPlain) {
      LIDX_INVARIANT(pages_.size() ==
                         (n_ + kRecordsPerPage - 1) / kRecordsPerPage,
                     "diskrun: page count matches entry count");
    } else {
      LIDX_INVARIANT(dir_.num_pages() == pages_.size(),
                     "diskrun: directory entry per page");
      LIDX_INVARIANT(n_ == 0 || dir_.FirstRank(0) == 0,
                     "diskrun: directory starts at rank zero");
      LIDX_INVARIANT(dir_.FirstRank(pages_.size()) == n_,
                     "diskrun: directory covers all entries");
    }
    Page page;
    size_t rank = 0;
    std::vector<Key> keys;  // The page walk's keys, for the model's check.
    keys.reserve(n_);
    for (size_t p = 0; p < pages_.size(); ++p) {
      LIDX_INVARIANT(file_->ReadPage(pages_[p], &page),
                     "diskrun: page readable and checksummed");
      const PageHeader h = page.header();
      LIDX_INVARIANT(h.type == static_cast<uint16_t>(PageType::kData),
                     "diskrun: data page type");
      const DataPageView<Key, Value> view(page);
      const size_t count = view.count();
      if (options_.codec == PageCodec::kPlain) {
        LIDX_INVARIANT(!view.packed(), "diskrun: plain run has plain pages");
        const size_t expect =
            std::min(kRecordsPerPage, n_ - p * kRecordsPerPage);
        LIDX_INVARIANT(count == expect, "diskrun: pages packed densely");
      } else {
        LIDX_INVARIANT(rank == dir_.FirstRank(p),
                       "diskrun: directory first rank matches layout");
        LIDX_INVARIANT(count == dir_.CountOf(p),
                       "diskrun: directory count matches page");
      }
      for (size_t i = 0; i < count; ++i, ++rank) {
        const Key k = view.KeyAt(i);
        const RunEntry<Value> entry = view.EntryAt(i);
        (void)entry;
        if (i == 0) {
          LIDX_INVARIANT(!(fence_keys_[p] < k) && !(k < fence_keys_[p]),
                         "diskrun: fence equals page's first key");
        }
        LIDX_INVARIANT(keys.empty() || keys.back() < k,
                       "diskrun: keys strictly sorted");
        keys.push_back(k);
        LIDX_INVARIANT(bloom_.MayContain(static_cast<uint64_t>(k)),
                       "diskrun: bloom has no false negatives");
      }
    }
    LIDX_INVARIANT(rank == n_, "diskrun: ranks cover all entries");
    locator_.CheckInvariants(keys);
  }

 private:
  // The disk-store LsmTree's GetBatch chains one cursor across many runs,
  // so it drives the probe pieces (ResolveTarget / page id / StepPage)
  // directly with its own PagePinStream instead of calling GetBatch per
  // run.
  friend class LsmTree<Key, Value, DiskRunStore<Key, Value>>;

  // The pages [page, last_page] a present key can live on, walked in
  // order, plus the global rank window [lo, hi) bounding the in-page
  // search. Only kLearned spans more than one page. nullopt = provably
  // absent with zero I/O (Bloom reject, or the key below every candidate
  // fence).
  struct Target {
    size_t page = 0;
    size_t last_page = 0;
    size_t lo = 0;
    size_t hi = 0;
  };

  // The only reader of Options::mode.
  std::optional<Target> ResolveTarget(const Key& key, DiskIoStats* io) const {
    if (n_ == 0) return std::nullopt;
    if (!bloom_.MayContain(static_cast<uint64_t>(key))) {
      if (io != nullptr) ++io->bloom_rejects;
      return std::nullopt;
    }
    if (io != nullptr) ++io->run_probes;
    const auto fence_begin = fence_keys_.begin();
    if (options_.mode == DiskSearchMode::kFenceBinary) {
      const auto it = std::upper_bound(fence_begin, fence_keys_.end(), key);
      if (it == fence_begin) return std::nullopt;
      const size_t p = static_cast<size_t>(it - fence_begin) - 1;
      return Target{p, p, 0, n_};
    }
    // Model: rank window [lo, hi) that must contain the key if present.
    // Plain layout divides; compressed layouts ask the packed directory.
    const SearchWindow w = locator_.Window(key, n_);
    size_t page_lo;
    size_t page_hi;
    if (options_.codec == PageCodec::kPlain) {
      page_lo = w.lo / kRecordsPerPage;
      page_hi = (w.hi - 1) / kRecordsPerPage;
    } else {
      page_lo = dir_.PageOfRank(w.lo);
      page_hi = dir_.PageOfRank(w.hi - 1);
    }
    if (options_.mode == DiskSearchMode::kLearned) {
      return Target{page_lo, page_hi, w.lo, w.hi};
    }
    // Fences: the only page in the ε-window whose range covers the key is
    // the last one with fence <= key. If even the window's first fence
    // exceeds the key, the key would have to sit at a rank below the
    // window — impossible if present — so conclude absence with zero I/O.
    const auto it = std::upper_bound(fence_begin + page_lo,
                                     fence_begin + (page_hi + 1), key);
    if (it == fence_begin + page_lo) return std::nullopt;
    const size_t p = static_cast<size_t>(it - fence_begin) - 1;
    return Target{p, p, w.lo, w.hi};
  }

  // One page of a lookup, shared by Get, GetBatch and the disk LsmTree's
  // chained cursor so all three visit identical pages. Returns true when
  // the lookup resolved on this page (*out = the entry, or nullopt), false
  // when the key, if present, lies on a later page (t->page advances to
  // it). While the target has pages left, the page's first and last keys
  // decide that; otherwise the search runs over the rank window ∩ the
  // page's ranks. On a packed page only the keys it reads are decompressed
  // (plus the single candidate record), and the decode work is reported to
  // the per-query stats and the pool's decompressed-bytes counters.
  bool StepPage(const Page& page, Target* t, const Key& key, DiskIoStats* io,
                std::optional<RunEntry<Value>>* out) const {
    const DataPageView<Key, Value> view(page);
    const size_t count = view.count();
    size_t decoded = 0;
    bool resolved = true;
    bool search = true;
    if (t->page != t->last_page) {
      if (view.packed()) decoded += 2;
      if (view.KeyAt(count - 1) < key) {
        ++t->page;
        resolved = false;
        search = false;
      } else if (key < view.KeyAt(0)) {
        search = false;  // Passed the key: absent.
      }
    }
    *out = std::nullopt;
    if (search) {
      // The rank base comes from the run's layout, not the page's own
      // codec: in a compressed run even a plain-fallback page holds a
      // variable record count, so its first rank lives in the directory.
      const size_t base = options_.codec == PageCodec::kPlain
                              ? t->page * kRecordsPerPage
                              : dir_.FirstRank(t->page);
      size_t rlo = std::max(t->lo, base) - base;
      size_t rhi = std::min(t->hi, base + count) - base;
      if (rlo > count) rlo = count;
      if (rhi < rlo) rhi = rlo;
      // Records are packed (no padding), so the keys are not contiguous;
      // gather (plain) or bit-unpack (compressed) the window's keys into a
      // stack buffer and resolve it with one vectorized count-less-than
      // pass (one search step in the I/O metric). At the kScalar level the
      // window takes the counted binary search below.
      if constexpr (std::is_same_v<Key, uint64_t> ||
                    std::is_same_v<Key, double>) {
        if (rlo < rhi && rhi - rlo <= simd::kLinearScanMax &&
            simd::Vectorized()) {
          const size_t len = rhi - rlo;
          Key buf[simd::kLinearScanMax];
          view.DecodeKeys(rlo, rhi, buf);
          if (view.packed()) decoded += len;
          if (io != nullptr) ++io->search_steps;
          rlo += simd::CountLess(buf, len, key);
          rhi = rlo;
        }
      }
      while (rlo < rhi) {
        if (io != nullptr) ++io->search_steps;
        const size_t mid = rlo + (rhi - rlo) / 2;
        if (view.packed()) ++decoded;
        if (view.KeyAt(mid) < key) {
          rlo = mid + 1;
        } else {
          rhi = mid;
        }
      }
      if (rlo < count) {
        if (view.packed()) ++decoded;
        if (view.KeyAt(rlo) == key) *out = view.EntryAt(rlo);
      }
    }
    if (decoded > 0) {
      const bool partial = decoded < count;
      if (io != nullptr) {
        io->records_decoded += decoded;
        if (partial) ++io->partial_decodes;
      }
      pool_->RecordDecode(view.DecodedBytes(decoded), partial);
    }
    return resolved;
  }

  Options options_;
  FileManager* file_;
  BufferPool* pool_;
  size_t n_;
  std::vector<uint64_t> pages_;   // Page id per page, in key order.
  std::vector<Key> fence_keys_;   // First key of each page.
  BloomFilter bloom_;
  PlaLocator locator_;
  // Compressed layout only: per-page first global ranks (variable records
  // per page make rank -> page a directory lookup, not a division), and
  // how many pages actually packed.
  PackedRankDirectory dir_;
  size_t packed_pages_ = 0;
};

}  // namespace lidx::storage

#endif  // LIDX_STORAGE_DISK_RUN_H_
