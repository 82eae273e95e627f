// Async read engine tests: the short-read/EINTR retry contract on the
// positional-I/O helpers and both engine backends, FileManager's bulk
// async read with per-page failure reporting, the PagePinStream pinning
// protocol, backend selection (env override and forced fallback), and
// fuzzed batched-vs-scalar equivalence on every disk-resident structure
// at queue-depth edge cases — including a TSan stress mix of async
// readers with background compaction.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk_lsm_tree.h"
#include "storage/disk_run.h"
#include "storage/file_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace lidx::storage {
namespace {

std::string FreshFile(const std::string& name) {
  const std::string path = ::testing::TempDir() + "lidx_async_" + name;
  std::remove(path.c_str());
  return path;
}

// RAII short-I/O injection: caps every pread/pwrite/SQE at `limit` bytes,
// forcing the remainder-retry paths that real devices exercise rarely.
class ScopedChunkLimit {
 public:
  explicit ScopedChunkLimit(size_t limit) {
    IoChunkLimitForTest().store(limit);
  }
  ~ScopedChunkLimit() { IoChunkLimitForTest().store(0); }
};

// RAII env override for LIDX_IO_BACKEND (tests run single-threaded, so
// setenv here cannot race getenv elsewhere).
class ScopedBackendEnv {
 public:
  explicit ScopedBackendEnv(const char* value) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* old = std::getenv("LIDX_IO_BACKEND");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    ::setenv("LIDX_IO_BACKEND", value, 1);
  }
  ~ScopedBackendEnv() {
    if (had_old_) {
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      ::setenv("LIDX_IO_BACKEND", old_.c_str(), 1);
    } else {
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      ::unsetenv("LIDX_IO_BACKEND");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// Both backends where available; Create degrades kIoUring to the thread
// pool on kernels without io_uring, so the list is always safe to run.
std::vector<IoBackend> Backends() {
  return {IoBackend::kIoUring, IoBackend::kThreadPool};
}

// ----- PReadFull / PWriteFull: the short-I/O regression -----

TEST(PositionalIoTest, ShortWritesAndReadsRetryTheRemainder) {
  const std::string path = FreshFile("preadfull");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  std::vector<char> out(kPageSize);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(i * 31 + 7);
  }
  uint64_t wsys = 0;
  uint64_t wshort = 0;
  {
    // 100-byte chunks: a 4 KiB page needs 41 syscalls and 40 retries.
    ScopedChunkLimit limit(100);
    ASSERT_EQ(PWriteFull(fd, out.data(), out.size(), 0, &wsys, &wshort),
              static_cast<ssize_t>(out.size()));
  }
  EXPECT_EQ(wsys, (kPageSize + 99) / 100);
  EXPECT_EQ(wshort, wsys - 1);

  std::vector<char> in(kPageSize, 0);
  uint64_t rsys = 0;
  uint64_t rshort = 0;
  {
    ScopedChunkLimit limit(100);
    ASSERT_EQ(PReadFull(fd, in.data(), in.size(), 0, &rsys, &rshort),
              static_cast<ssize_t>(in.size()));
  }
  EXPECT_EQ(rsys, (kPageSize + 99) / 100);
  EXPECT_EQ(rshort, rsys - 1);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), out.size()), 0);

  // EOF is not an error: reading past the end returns the bytes present.
  EXPECT_EQ(PReadFull(fd, in.data(), in.size(), kPageSize / 2),
            static_cast<ssize_t>(kPageSize / 2));
  EXPECT_EQ(PReadFull(fd, in.data(), in.size(), 10 * kPageSize), 0);
  ::close(fd);
}

TEST(PositionalIoTest, FileManagerReadSurvivesInjectedShortReads) {
  FileManager file(FreshFile("fm_short"));
  Page out{};
  PageHeader h = out.header();
  h.type = static_cast<uint16_t>(PageType::kData);
  h.payload_bytes = 5;
  out.set_header(h);
  std::memcpy(out.payload(), "short", 5);
  const uint64_t id = file.Allocate();
  file.WritePage(id, &out);

  // Regression: a chunked positional read used to be reported as a
  // truncated (corrupt) page; now the remainder is retried and the page
  // validates.
  ScopedChunkLimit limit(777);
  const uint64_t sys_before = file.read_syscalls();
  Page in;
  ASSERT_TRUE(file.ReadPage(id, &in));
  EXPECT_EQ(std::memcmp(in.payload(), "short", 5), 0);
  EXPECT_EQ(file.read_syscalls() - sys_before, (kPageSize + 776) / 777);
}

// ----- Engine backends: submit/harvest, retries, EOF -----

TEST(AsyncReadEngineTest, BothBackendsReadBackWhatWasWritten) {
  const std::string path = FreshFile("engine_rw");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  constexpr size_t kPages = 64;
  std::vector<std::vector<char>> want(kPages);
  Rng rng(99);
  for (size_t p = 0; p < kPages; ++p) {
    want[p].resize(kPageSize);
    for (char& c : want[p]) c = static_cast<char>(rng.Next());
    ASSERT_EQ(PWriteFull(fd, want[p].data(), kPageSize, p * kPageSize),
              static_cast<ssize_t>(kPageSize));
  }
  for (const IoBackend backend : Backends()) {
    auto engine = AsyncReadEngine::Create(backend, 8);
    std::vector<std::vector<char>> got(kPages,
                                       std::vector<char>(kPageSize, 0));
    std::vector<IoCompletion> comps;
    size_t next = 0;
    size_t landed = 0;
    while (landed < kPages) {
      while (engine->inflight() < engine->queue_depth() && next < kPages) {
        engine->SubmitRead(fd, got[next].data(), kPageSize,
                           next * kPageSize, next);
        ++next;
      }
      comps.clear();
      engine->Harvest(&comps, kPages, 1);
      for (const IoCompletion& c : comps) {
        EXPECT_TRUE(c.ok);
        ++landed;
      }
    }
    for (size_t p = 0; p < kPages; ++p) {
      EXPECT_EQ(std::memcmp(got[p].data(), want[p].data(), kPageSize), 0)
          << engine->name() << " page " << p;
    }
    const AsyncIoStats& stats = engine->stats();
    EXPECT_EQ(stats.reads_submitted, kPages);
    EXPECT_EQ(stats.reads_completed, kPages);
    EXPECT_EQ(stats.reads_failed, 0u);
    EXPECT_LE(stats.max_inflight, 8u);
    EXPECT_GT(stats.submit_syscalls, 0u);
  }
  ::close(fd);
}

TEST(AsyncReadEngineTest, ShortReadsAreResubmittedInvisibly) {
  const std::string path = FreshFile("engine_short");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  std::vector<char> want(4 * kPageSize);
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<char>(i ^ (i >> 7));
  }
  ASSERT_EQ(PWriteFull(fd, want.data(), want.size(), 0),
            static_cast<ssize_t>(want.size()));
  for (const IoBackend backend : Backends()) {
    auto engine = AsyncReadEngine::Create(backend, 4);
    std::vector<char> got(want.size(), 0);
    ScopedChunkLimit limit(1000);  // Not a divisor of 4096: ragged chunks.
    for (size_t p = 0; p < 4; ++p) {
      engine->SubmitRead(fd, got.data() + p * kPageSize, kPageSize,
                         p * kPageSize, p);
    }
    std::vector<IoCompletion> comps;
    while (engine->inflight() > 0) engine->Harvest(&comps, 4, 1);
    ASSERT_EQ(comps.size(), 4u);
    for (const IoCompletion& c : comps) EXPECT_TRUE(c.ok);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
        << engine->name();
    // ceil(4096 / 1000) = 5 chunks per page -> 4 retries per page.
    EXPECT_EQ(engine->stats().short_read_retries, 4u * 4u) << engine->name();
  }
  ::close(fd);
}

TEST(AsyncReadEngineTest, ReadPastEofCompletesNotOk) {
  const std::string path = FreshFile("engine_eof");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  std::vector<char> page(kPageSize, 'x');
  ASSERT_EQ(PWriteFull(fd, page.data(), kPageSize, 0),
            static_cast<ssize_t>(kPageSize));
  for (const IoBackend backend : Backends()) {
    auto engine = AsyncReadEngine::Create(backend, 2);
    std::vector<char> buf(kPageSize);
    engine->SubmitRead(fd, buf.data(), kPageSize, 0, 1);           // In file.
    engine->SubmitRead(fd, buf.data(), kPageSize, 8 * kPageSize, 2);  // Past.
    std::vector<IoCompletion> comps;
    while (engine->inflight() > 0) engine->Harvest(&comps, 2, 1);
    ASSERT_EQ(comps.size(), 2u);
    for (const IoCompletion& c : comps) {
      EXPECT_EQ(c.ok, c.tag == 1) << engine->name();
    }
    EXPECT_EQ(engine->stats().reads_failed, 1u) << engine->name();
  }
  ::close(fd);
}

// ----- Backend selection -----

TEST(AsyncReadEngineTest, ParseBackendSpellings) {
  EXPECT_EQ(AsyncReadEngine::ParseBackend("io_uring"), IoBackend::kIoUring);
  EXPECT_EQ(AsyncReadEngine::ParseBackend("uring"), IoBackend::kIoUring);
  EXPECT_EQ(AsyncReadEngine::ParseBackend("threadpool"),
            IoBackend::kThreadPool);
  EXPECT_EQ(AsyncReadEngine::ParseBackend("thread_pool"),
            IoBackend::kThreadPool);
  EXPECT_EQ(AsyncReadEngine::ParseBackend("pool"), IoBackend::kThreadPool);
  EXPECT_EQ(AsyncReadEngine::ParseBackend("auto"), IoBackend::kAuto);
  EXPECT_EQ(AsyncReadEngine::ParseBackend(""), IoBackend::kAuto);
  EXPECT_EQ(AsyncReadEngine::ParseBackend(nullptr), IoBackend::kAuto);
  EXPECT_EQ(AsyncReadEngine::ParseBackend("nonsense"), IoBackend::kAuto);
}

TEST(AsyncReadEngineTest, EnvOverrideForcesThreadPoolFallback) {
  // The forced-fallback mode CI uses on runners without io_uring: even an
  // explicit kIoUring request must degrade to the portable backend.
  ScopedBackendEnv env("threadpool");
  auto engine = AsyncReadEngine::Create(IoBackend::kIoUring, 8);
  EXPECT_EQ(engine->backend(), IoBackend::kThreadPool);
  EXPECT_STREQ(engine->name(), "threadpool");
}

TEST(AsyncReadEngineTest, ThreadPoolRequestNeverResolvesToUring) {
  auto engine = AsyncReadEngine::Create(IoBackend::kThreadPool, 8);
  EXPECT_EQ(engine->backend(), IoBackend::kThreadPool);
}

TEST(AsyncReadEngineTest, DepthIsClamped) {
  auto tiny = AsyncReadEngine::Create(IoBackend::kThreadPool, 0);
  EXPECT_EQ(tiny->queue_depth(), 1u);
  auto huge = AsyncReadEngine::Create(IoBackend::kThreadPool, 1u << 20);
  EXPECT_EQ(huge->queue_depth(), 1024u);
}

// ----- FileManager::ReadPagesAsync -----

TEST(ReadPagesAsyncTest, BulkReadValidatesAndReportsPerPageFailure) {
  FileManager file(FreshFile("bulk"));
  constexpr size_t kPages = 40;
  std::vector<uint64_t> ids;
  for (size_t p = 0; p < kPages; ++p) {
    Page out{};
    PageHeader h = out.header();
    h.type = static_cast<uint16_t>(PageType::kData);
    h.payload_bytes = 8;
    out.set_header(h);
    const uint64_t marker = p * 1000003ULL;
    std::memcpy(out.payload(), &marker, 8);
    ids.push_back(file.Allocate());
    file.WritePage(ids.back(), &out);
  }
  for (const IoBackend backend : Backends()) {
    auto engine = AsyncReadEngine::Create(backend, 8);
    // Mix good ids with one past-EOF id: the bad page must come back
    // ok=false without poisoning the rest (clean per-request failure).
    std::vector<uint64_t> request = ids;
    request.push_back(kPages + 100);
    std::vector<Page> pages(request.size());
    std::vector<bool> ok;
    EXPECT_EQ(file.ReadPagesAsync(engine.get(), request, &pages, &ok),
              kPages);
    for (size_t i = 0; i < kPages; ++i) {
      ASSERT_TRUE(ok[i]) << engine->name() << " page " << i;
      uint64_t marker = 0;
      std::memcpy(&marker, pages[i].payload(), 8);
      EXPECT_EQ(marker, i * 1000003ULL);
    }
    EXPECT_FALSE(ok.back()) << engine->name();
    EXPECT_EQ(engine->inflight(), 0u);
  }
}

// ----- PagePinStream -----

TEST(PagePinStreamTest, DuplicatePageIdsShareOneReadAndOwnPins) {
  FileManager file(FreshFile("stream_dup"));
  BufferPool pool(&file, 8);
  std::vector<uint64_t> ids;
  for (size_t p = 0; p < 4; ++p) {
    Page out{};
    PageHeader h = out.header();
    h.type = static_cast<uint16_t>(PageType::kData);
    h.payload_bytes = 1;
    out.set_header(h);
    out.payload()[0] = static_cast<unsigned char>('a' + p);
    ids.push_back(file.Allocate());
    file.WritePage(ids.back(), &out);
  }
  for (const IoBackend backend : Backends()) {
    pool.ResetStats();
    auto engine = AsyncReadEngine::Create(backend, 4);
    BufferPool::PagePinStream stream(&pool, engine.get());
    // Same page twice in one batch: the second Begin joins the first's
    // frame (hit or load-join), never a second disk read.
    const uint64_t t0 = stream.Begin(ids[0]);
    const uint64_t t1 = stream.Begin(ids[0]);
    const uint64_t t2 = stream.Begin(ids[1]);
    BufferPool::PageRef r0 = stream.Take(t0);
    BufferPool::PageRef r1 = stream.Take(t1);
    BufferPool::PageRef r2 = stream.Take(t2);
    EXPECT_EQ((*r0).payload()[0], 'a');
    EXPECT_EQ((*r1).payload()[0], 'a');
    EXPECT_EQ((*r2).payload()[0], 'b');
    pool.CheckInvariants();
  }
  // Abandoned tickets (never taken) are drained and unpinned by the
  // stream's destructor; the frames must end up evictable.
  {
    auto engine = AsyncReadEngine::Create(IoBackend::kThreadPool, 4);
    BufferPool::PagePinStream stream(&pool, engine.get());
    stream.Begin(ids[2]);
    stream.Begin(ids[3]);
  }
  pool.CheckInvariants();
  for (size_t p = 0; p < 4; ++p) pool.Invalidate(ids[p]);  // Needs pins == 0.
  pool.CheckInvariants();
}

TEST(PagePinStreamTest, MoreBeginsThanDepthMakeProgress) {
  FileManager file(FreshFile("stream_depth"));
  BufferPool pool(&file, 64);
  constexpr size_t kPages = 32;
  std::vector<uint64_t> ids;
  for (size_t p = 0; p < kPages; ++p) {
    Page out{};
    PageHeader h = out.header();
    h.type = static_cast<uint16_t>(PageType::kData);
    h.payload_bytes = 2;
    out.set_header(h);
    out.payload()[0] = static_cast<unsigned char>(p);
    ids.push_back(file.Allocate());
    file.WritePage(ids.back(), &out);
  }
  // Depth 2 with 32 distinct pages: Begin must harvest to make room
  // rather than deadlock on the full queue.
  auto engine = AsyncReadEngine::Create(IoBackend::kThreadPool, 2);
  BufferPool::PagePinStream stream(&pool, engine.get());
  std::vector<uint64_t> tickets;
  for (size_t p = 0; p < kPages; ++p) tickets.push_back(stream.Begin(ids[p]));
  for (size_t p = 0; p < kPages; ++p) {
    BufferPool::PageRef ref = stream.Take(tickets[p]);
    EXPECT_EQ((*ref).payload()[0], static_cast<unsigned char>(p));
  }
  pool.CheckInvariants();
}

// ----- Fuzzed batched-vs-scalar equivalence -----

// Shared fuzz corpus: clustered keys so some pages are dense, plus
// uniform noise; probes mix hits, misses, and near-misses.
struct FuzzData {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;
  std::vector<uint64_t> probes;
};

FuzzData MakeFuzzData(size_t n, uint64_t seed) {
  Rng rng(seed);
  FuzzData d;
  uint64_t k = 10;
  while (d.keys.size() < n) {
    k += 1 + rng.NextBounded(rng.NextBounded(50) == 0 ? 5000 : 7);
    d.keys.push_back(k);
    d.values.push_back(k * 2654435761ULL + 1);
  }
  for (size_t i = 0; i < 3 * n; ++i) {
    if (rng.NextBounded(2) == 0) {
      d.probes.push_back(d.keys[rng.NextBounded(d.keys.size())]);
    } else {
      d.probes.push_back(rng.NextBounded(k + 1000));
    }
  }
  return d;
}

TEST(BatchedEquivalenceTest, DiskRunFuzzAcrossBackendsAndDepths) {
  const FuzzData d = MakeFuzzData(3000, 4242);
  FileManager file(FreshFile("fuzz_run"));
  BufferPool pool(&file, 32);
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries;
  for (size_t i = 0; i < d.keys.size(); ++i) {
    entries.emplace_back(d.keys[i],
                         RunEntry<uint64_t>{d.values[i], i % 97 == 0});
  }
  DiskRun<uint64_t, uint64_t> run(std::move(entries), &file, &pool, {});
  DiskIoStats scalar_io;
  std::vector<std::optional<RunEntry<uint64_t>>> want(d.probes.size());
  for (size_t i = 0; i < d.probes.size(); ++i) {
    want[i] = run.Get(d.probes[i], &scalar_io);
  }
  for (const IoBackend backend : Backends()) {
    for (const size_t depth : {1u, 8u, 64u}) {  // 64 > any refill window.
      auto engine = AsyncReadEngine::Create(backend, depth);
      DiskIoStats batch_io;
      std::vector<std::optional<RunEntry<uint64_t>>> got(d.probes.size());
      run.GetBatch(d.probes.data(), d.probes.size(), engine.get(),
                   got.data(), &batch_io);
      for (size_t i = 0; i < d.probes.size(); ++i) {
        ASSERT_EQ(got[i].has_value(), want[i].has_value())
            << engine->name() << " depth " << depth << " probe " << i;
        if (got[i].has_value()) {
          EXPECT_EQ(got[i]->value, want[i]->value);
          EXPECT_EQ(got[i]->deleted, want[i]->deleted);
        }
      }
      // The batched path touches exactly the pages the scalar path does.
      EXPECT_EQ(batch_io.pages_touched, scalar_io.pages_touched);
      EXPECT_EQ(batch_io.bloom_rejects, scalar_io.bloom_rejects);
      EXPECT_EQ(batch_io.batched_lookups, d.probes.size());
    }
  }
  pool.CheckInvariants();
  run.CheckInvariants();
}

// The corpus as a tombstone-free run, and a lookup's answer as a value.
std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> LiveEntries(
    const FuzzData& d) {
  std::vector<std::pair<uint64_t, RunEntry<uint64_t>>> entries;
  entries.reserve(d.keys.size());
  for (size_t i = 0; i < d.keys.size(); ++i) {
    entries.emplace_back(d.keys[i], RunEntry<uint64_t>{d.values[i], false});
  }
  return entries;
}

std::optional<uint64_t> ValueOf(const std::optional<RunEntry<uint64_t>>& e) {
  return e.has_value() ? LiveValue(*e) : std::nullopt;
}

TEST(BatchedEquivalenceTest, DiskPgmTableFuzzBothModes) {
  const FuzzData d = MakeFuzzData(4000, 777);
  for (const DiskSearchMode mode :
       {DiskSearchMode::kLearned, DiskSearchMode::kFenceBinary}) {
    FileManager file(FreshFile("fuzz_pgm"));
    BufferPool pool(&file, 32);
    typename DiskRun<uint64_t, uint64_t>::Options opts;
    opts.mode = mode;
    opts.learned_epsilon = 8;  // Tight ε: multi-page targets walk pages.
    DiskRun<uint64_t, uint64_t> run(LiveEntries(d), &file, &pool, opts);
    DiskIoStats scalar_io;
    std::vector<std::optional<uint64_t>> want(d.probes.size());
    for (size_t i = 0; i < d.probes.size(); ++i) {
      want[i] = ValueOf(run.Get(d.probes[i], &scalar_io));
    }
    for (const IoBackend backend : Backends()) {
      for (const size_t depth : {1u, 16u}) {
        auto engine = AsyncReadEngine::Create(backend, depth);
        DiskIoStats batch_io;
        std::vector<std::optional<RunEntry<uint64_t>>> got(d.probes.size());
        run.GetBatch(d.probes.data(), d.probes.size(), engine.get(),
                     got.data(), &batch_io);
        for (size_t i = 0; i < d.probes.size(); ++i) {
          ASSERT_EQ(ValueOf(got[i]), want[i])
              << engine->name() << " depth " << depth << " probe " << i;
        }
        EXPECT_EQ(batch_io.pages_touched, scalar_io.pages_touched);
      }
    }
  }
}

TEST(BatchedEquivalenceTest, DiskLsmTreeFuzzWithDeletesAndOverwrites) {
  Rng rng(1234);
  for (const IoBackend backend : Backends()) {
    typename DiskLsmTree<uint64_t, uint64_t>::Options opts;
    opts.memtable_limit = 512;
    opts.l0_run_limit = 3;
    opts.pool_frames = 64;
    opts.io_backend = backend;
    opts.io_queue_depth = 16;
    DiskLsmTree<uint64_t, uint64_t> tree(FreshFile("fuzz_lsm"), opts);
    for (size_t i = 0; i < 6000; ++i) {
      const uint64_t k = rng.NextBounded(20000);
      tree.Put(k, k * 31 + i);
      if (i % 5 == 0) tree.Delete(rng.NextBounded(20000));
    }
    // Memtable deliberately left non-empty: batch cursors must resolve
    // against it before touching any run.
    std::vector<uint64_t> probes;
    for (size_t i = 0; i < 5000; ++i) probes.push_back(rng.NextBounded(25000));
    std::vector<std::optional<uint64_t>> want(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) want[i] = tree.Get(probes[i]);
    std::vector<std::optional<uint64_t>> got(probes.size());
    DiskIoStats io;
    tree.GetBatch(probes.data(), probes.size(), got.data(), &io);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << IoBackendName(backend) << " probe " << i;
    }
    EXPECT_EQ(io.batched_lookups, probes.size());
    // Depth-1 edge case via an explicit engine (degenerates to
    // submit-then-wait per lookup).
    auto one = AsyncReadEngine::Create(backend, 1);
    // The lazy engine resolves the request the same way Create does —
    // including the degrade to thread pool when the ring is unavailable.
    ASSERT_NE(tree.io_engine(), nullptr);
    EXPECT_EQ(tree.io_engine()->backend(), one->backend());
    std::vector<std::optional<uint64_t>> got1(64);
    tree.GetBatch(one.get(), probes.data(), 64, got1.data());
    for (size_t i = 0; i < 64; ++i) EXPECT_EQ(got1[i], want[i]);
    tree.CheckInvariants();
  }
}

// ----- TSan stress: async readers vs background compaction -----

TEST(AsyncIoStressTest, BatchedReadsDuringBackgroundCompaction) {
  typename DiskLsmTree<uint64_t, uint64_t>::Options opts;
  opts.memtable_limit = 256;
  opts.l0_run_limit = 2;
  opts.pool_frames = 128;
  opts.background_compaction = true;
  opts.io_queue_depth = 8;
  DiskLsmTree<uint64_t, uint64_t> tree(FreshFile("stress_lsm"), opts);
  Rng rng(5150);
  std::vector<uint64_t> probes;
  for (size_t i = 0; i < 256; ++i) probes.push_back(rng.NextBounded(50000));
  // The one-client contract holds (a single thread writes and reads), but
  // compactions overlap the batched reads on the shared pool worker: the
  // snapshot/pin/invalidate protocol is what TSan scrutinizes here.
  std::vector<std::optional<uint64_t>> out(probes.size());
  for (size_t round = 0; round < 40; ++round) {
    for (size_t i = 0; i < 200; ++i) {
      const uint64_t k = rng.NextBounded(50000);
      tree.Put(k, k + round);
      if (i % 11 == 0) tree.Delete(rng.NextBounded(50000));
    }
    tree.GetBatch(probes.data(), probes.size(), out.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto scalar = tree.Get(probes[i]);
      ASSERT_EQ(out[i], scalar) << "round " << round << " probe " << i;
    }
  }
  tree.WaitForCompactions();
  tree.CheckInvariants();
}

TEST(AsyncIoStressTest, ConcurrentReadersWithPerThreadEngines) {
  // Engines are single-client, but a shared immutable run supports many
  // reader threads when each brings its own engine; the pool's loading
  // protocol (frames reserved pinned, joins via cv) is the shared state
  // under test.
  const FuzzData d = MakeFuzzData(5000, 31337);
  FileManager file(FreshFile("stress_pgm"));
  BufferPool pool(&file, 48);
  // Model-only navigation: readers share the multi-page walk.
  typename DiskRun<uint64_t, uint64_t>::Options opts;
  opts.mode = DiskSearchMode::kLearned;
  opts.learned_epsilon = 64;
  DiskRun<uint64_t, uint64_t> run(LiveEntries(d), &file, &pool, opts);
  std::vector<std::optional<uint64_t>> want(d.probes.size());
  for (size_t i = 0; i < d.probes.size(); ++i) {
    want[i] = ValueOf(run.Get(d.probes[i], nullptr));
  }
  constexpr size_t kThreads = 4;
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const IoBackend backend =
          t % 2 == 0 ? IoBackend::kIoUring : IoBackend::kThreadPool;
      auto engine = AsyncReadEngine::Create(backend, 8);
      std::vector<std::optional<RunEntry<uint64_t>>> got(d.probes.size());
      for (size_t round = 0; round < 3; ++round) {
        run.GetBatch(d.probes.data(), d.probes.size(), engine.get(),
                     got.data(), nullptr);
        for (size_t i = 0; i < d.probes.size(); ++i) {
          ASSERT_EQ(ValueOf(got[i]), want[i])
              << "thread " << t << " probe " << i;
        }
      }
    });
  }
  for (std::thread& th : readers) th.join();
  pool.CheckInvariants();
}

}  // namespace
}  // namespace lidx::storage
