#ifndef LIDX_ONE_D_TIERED_INDEX_H_
#define LIDX_ONE_D_TIERED_INDEX_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "lsm/run.h"
#include "storage/buffer_pool.h"
#include "storage/disk_lsm_tree.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page_codec.h"

namespace lidx {

// Hybrid DRAM/disk tiered index: a hot in-memory updatable tier absorbs
// all inserts and erases, and cold spans migrate into compressed
// disk-resident learned runs (storage/disk_run.h with a packed page codec).
// This is the serve-much-more-than-RAM shape the disk-learned-index line
// of work converges on — an updatable structure in memory in front of
// immutable model-fronted runs on disk — with compression multiplying how
// many keys each 4 KiB page (and each buffer-pool frame) carries.
//
// The shape is a configuration of storage::DiskLsmTree, not an engine of
// its own: the hot tier is the tree's DynamicPgm memtable (active plus
// sealed), a migration is a memtable flush, and the tree owns the page
// file, buffer pool, run builds and leveled compaction. This class only
// maps the tiered vocabulary onto the tree's options and methods; the
// tree's own API (Delete, Flush, Runs, MemtableSize, RangeScan, ...) and
// its concurrency contract — one writer, any number of readers — apply
// unchanged.
template <typename Key, typename Value>
class TieredIndex : public storage::DiskLsmTree<Key, Value> {
  using Tree = storage::DiskLsmTree<Key, Value>;

 public:
  using Run = typename Tree::Run;

  struct Options {
    // Hot-tier entries (live + tombstone) that trigger a migration; the
    // tree's memtable_limit, so one migration is one L0 run.
    size_t hot_limit = size_t{1} << 16;
    // L0 runs tolerated before the tree compacts them into the levels.
    size_t cold_run_limit = 4;
    // Page codec for the cold runs (storage/page_codec.h). kDelta is the
    // sorted-key mode; per-page plain fallback still applies.
    storage::PageCodec codec = storage::PageCodec::kDelta;
    size_t pool_frames = 1024;  // Buffer-pool size (4 KiB frames).
    // Run migrations (and the compactions they trigger) on
    // ThreadPool::Shared() instead of inline on the writer: the tree's
    // background_compaction. Readers are unaffected either way; inline
    // mode makes tests and single-threaded benches deterministic.
    bool background_migration = false;
  };

  // `path` names the cold tier's page file; created if absent.
  explicit TieredIndex(const std::string& path,
                       const Options& options = Options())
      : Tree(path, TreeOptions(options)) {}

  // Bulk-loads sorted strictly-increasing keys straight into the runs,
  // bypassing the hot tier. Exclusive: call before sharing the index.
  void BulkLoad(const std::vector<Key>& keys,
                const std::vector<Value>& values) {
    LIDX_CHECK(keys.size() == values.size());
    std::vector<typename Tree::KV> entries;
    entries.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      LIDX_DCHECK(i == 0 || keys[i - 1] < keys[i]);
      entries.emplace_back(keys[i], RunEntry<Value>{values[i], false});
    }
    this->Ingest(std::move(entries));
  }

  void Insert(const Key& key, const Value& value) { this->Put(key, value); }

  std::optional<Value> Find(const Key& key,
                            storage::DiskIoStats* io = nullptr) const {
    return this->Get(key, io);
  }

  // The cold runs in probe order (newest first); the shared_ptrs keep the
  // runs (and their pages) alive.
  std::vector<std::shared_ptr<const Run>> ColdRuns() const {
    return this->Runs();
  }

  const storage::FileManager* file() const { return &Tree::file(); }
  storage::BufferPool* pool() { return &Tree::pool(); }

 private:
  static typename Tree::Options TreeOptions(const Options& options) {
    typename Tree::Options tree;
    tree.memtable_limit = options.hot_limit;
    tree.l0_run_limit = options.cold_run_limit;
    tree.level_codec = options.codec;
    tree.pool_frames = options.pool_frames;
    tree.background_compaction = options.background_migration;
    return tree;
  }
};

}  // namespace lidx

#endif  // LIDX_ONE_D_TIERED_INDEX_H_
