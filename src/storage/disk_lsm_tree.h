#ifndef LIDX_STORAGE_DISK_LSM_TREE_H_
#define LIDX_STORAGE_DISK_LSM_TREE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsm/lsm_tree.h"
#include "lsm/run.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page_codec.h"

namespace lidx::storage {

// Paged run store for LsmTree (MemRunStore states the store contract):
// flushes and compactions write DiskRuns into one page file, and reads go
// through a BufferPool.
//
// Background compaction drains old runs through the FileManager directly
// (positional pread, no pool frames) and writes new runs through
// thread-safe page allocation, so it neither pollutes the cache nor races
// foreground reads; old pages are freed only when the last shared_ptr to
// their run drops, and their pool entries are invalidated first so a
// recycled page id can never serve stale cached bytes.
template <typename Key, typename Value>
class DiskRunStore {
 public:
  using Run = DiskRun<Key, Value>;
  using Stats = DiskIoStats;
  using Pool = BufferPool;
  static constexpr bool kPaged = true;

  struct Options {
    size_t pool_frames = 1024;      // Buffer-pool size (4 KiB frames).
    // Async batched reads (GetBatch): backend and queue depth of the
    // lazily created read engine. The LIDX_IO_BACKEND env var overrides
    // the backend at runtime (see storage/async_io.h).
    IoBackend io_backend = IoBackend::kAuto;
    size_t io_queue_depth = 32;
    // Page codec of every run, L0 included (see storage/page_codec.h;
    // per-page plain fallback still applies).
    PageCodec level_codec = PageCodec::kPlain;
  };

  DiskRunStore(const std::string& path, const Options& options)
      : file_(path), pool_(&file_, options.pool_frames) {}

  // Writes a run (a memtable flush or a compacted level) to fresh pages.
  template <typename TreeOptions>
  std::shared_ptr<Run> MakeRun(
      std::vector<std::pair<Key, RunEntry<Value>>> entries,
      const TreeOptions& options) {
    typename Run::Options opts;
    opts.learned_epsilon = options.learned_epsilon;
    opts.bloom_bits_per_key = options.bloom_bits_per_key;
    opts.build_threads = options.compaction_threads;
    opts.codec = options.level_codec;
    return std::make_shared<Run>(std::move(entries), &file_, &pool_, opts);
  }

  const FileManager& file() const { return file_; }
  // Reads pin frames, so even a const tree hands out the pool.
  BufferPool& pool() const { return pool_; }

  // Engine of the engine-less GetBatch overload, created on first use.
  // Client-thread only (background compaction never reads through it;
  // other reader threads bring their own engine).
  AsyncReadEngine* EnsureEngine(const Options& options) const {
    if (engine_ == nullptr) {
      engine_ = AsyncReadEngine::Create(options.io_backend,
                                        options.io_queue_depth);
    }
    return engine_.get();
  }
  const AsyncReadEngine* engine() const { return engine_.get(); }

  // The buffer pool; record pages are on disk.
  size_t SizeBytes() const { return pool_.SizeBytes(); }

  // The page allocator's free list and the buffer pool's table/frame
  // bijection (each run re-reads and CRC-checks its own pages).
  void CheckInvariants() const {
    file_.CheckInvariants();
    pool_.CheckInvariants();
  }

 private:
  FileManager file_;
  mutable BufferPool pool_;
  mutable std::unique_ptr<AsyncReadEngine> engine_;
};

// Disk-resident LSM tree: LsmTree over the paged run store. Adds the path
// constructor, GetBatch (async batched lookups), io_engine(), file() and
// pool() to the shared API.
template <typename Key, typename Value>
using DiskLsmTree = LsmTree<Key, Value, DiskRunStore<Key, Value>>;

}  // namespace lidx::storage

#endif  // LIDX_STORAGE_DISK_LSM_TREE_H_
