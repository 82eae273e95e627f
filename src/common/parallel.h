#ifndef LIDX_COMMON_PARALLEL_H_
#define LIDX_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lidx {

// Shared build/compaction thread pool plus the three data-parallel
// primitives every index build path uses: ParallelFor, ParallelSort, and
// ParallelReduce. Design constraints, in priority order:
//
//  1. Serial fallback by construction: every primitive runs the exact
//     serial algorithm when `threads <= 1`, so a `build_threads = 1` build
//     is byte-identical to the pre-parallel code path — there is no
//     separate serial implementation to drift.
//  2. Recursion safety: primitives may be called from inside pool tasks
//     (an LSM compaction running on the pool trains per-run PLA models
//     with ParallelFor). The caller always participates in the work and
//     never blocks waiting for a pool slot, so nesting cannot deadlock
//     even on a one-worker pool.
//  3. Determinism: chunk decomposition depends only on the caller-supplied
//     thread/grain counts, never on pool size or load, so a build with
//     `threads = N` produces the same result on any machine.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues `fn` and returns a future for its result. Tasks must not
  // block on other tasks' futures (they may all be queued behind this
  // one); the ParallelFor protocol below never does.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      MutexLock lock(mu_);
      LIDX_CHECK(!stop_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.NotifyOne();
    return future;
  }

  // Pops one queued task and runs it on the calling thread. Returns false
  // if the queue was empty. The escape hatch for waits that are not
  // ParallelFor-shaped: a thread that must wait for pool-side progress
  // (ShardedIndex::WaitForDrains) calls this in its spin loop so the work
  // it waits on cannot sit queued behind the waiter itself on a small pool
  // — the same caller-participates rule that makes nested ParallelFor
  // deadlock-free.
  bool TryRunOne() {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) return false;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    return true;
  }

  // Process-wide pool sized to the hardware, created on first use. Index
  // builds borrow workers from here instead of spawning threads per build.
  static ThreadPool& Shared() {
    static ThreadPool pool(DefaultThreads());
    return pool;
  }

  // Hardware concurrency with a sane floor (hardware_concurrency may
  // return 0 on exotic platforms).
  static size_t DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!stop_ && queue_.empty()) cv_.Wait(mu_);
        if (queue_.empty()) return;  // stop_ set and drained.
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ LIDX_GUARDED_BY(mu_);
  bool stop_ LIDX_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

namespace parallel_detail {

// Shared state for one ParallelFor: a bag of chunks claimed via an atomic
// cursor. The caller claims chunks like any helper, so at least one thread
// always makes progress regardless of pool availability — this is what
// makes nested ParallelFor calls deadlock-free.
struct ForState {
  size_t n = 0;
  size_t grain = 0;
  size_t num_chunks = 0;
  std::function<void(size_t, size_t)> body;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  Mutex mu;
  CondVar cv;

  void RunChunks() {
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const size_t begin = c * grain;
      const size_t end = std::min(n, begin + grain);
      body(begin, end);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        // Last chunk: wake the owner. Lock ordering: take mu so the wake
        // cannot slot between the owner's predicate check and its wait.
        MutexLock lock(mu);
        cv.NotifyAll();
      }
    }
  }
};

}  // namespace parallel_detail

// Runs body(begin, end) over disjoint chunks covering [0, n), using up to
// `threads` threads (the caller plus helpers borrowed from the shared
// pool). Chunk boundaries are multiples of `grain` and depend only on
// (n, grain), so chunk-sensitive callers get reproducible decompositions.
// With threads <= 1 (or a single chunk) this is exactly `body(0, n)`.
//
// `body` must be safe to run concurrently on disjoint ranges.
inline void ParallelFor(size_t threads, size_t n, size_t grain,
                        std::function<void(size_t, size_t)> body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (threads <= 1 || num_chunks <= 1) {
    body(0, n);
    return;
  }
  auto state = std::make_shared<parallel_detail::ForState>();
  state->n = n;
  state->grain = grain;
  state->num_chunks = num_chunks;
  state->body = std::move(body);

  // Helpers are best-effort: if the pool is busy they may arrive after the
  // caller has drained every chunk, in which case they see an exhausted
  // cursor and return immediately.
  ThreadPool& pool = ThreadPool::Shared();
  const size_t helpers =
      std::min({threads - 1, pool.num_threads(), num_chunks - 1});
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([state] { state->RunChunks(); });
  }
  state->RunChunks();
  if (state->done.load(std::memory_order_acquire) != num_chunks) {
    MutexLock lock(state->mu);
    while (state->done.load(std::memory_order_acquire) != num_chunks) {
      state->cv.Wait(state->mu);
    }
  }
}

// Per-index convenience wrapper: body(i) for i in [0, n), with an
// automatic grain that yields a few chunks per thread.
template <typename Fn>
void ParallelForIndex(size_t threads, size_t n, Fn&& body) {
  const size_t t = std::max<size_t>(1, threads);
  const size_t grain = std::max<size_t>(1, n / (t * 8));
  ParallelFor(threads, n, grain, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

// Sorts *v with up to `threads` threads: sorted-chunk merge (sort `chunks`
// slices in parallel, then parallel pairwise std::inplace_merge rounds).
// For a comparator that is a strict weak ordering the multiset result is
// always identical to std::sort; when `comp` is additionally a *total*
// order (no distinct elements compare equal — e.g. any key ordering
// tie-broken by a unique id) the output sequence is byte-identical to the
// serial sort for every thread count. Chunk count depends only on
// (threads, n).
template <typename T, typename Comp = std::less<T>>
void ParallelSort(size_t threads, std::vector<T>* v, Comp comp = Comp()) {
  static constexpr size_t kMinChunk = size_t{1} << 13;
  const size_t n = v->size();
  const size_t chunks =
      (threads <= 1) ? 1 : std::min(threads, std::max<size_t>(1, n / kMinChunk));
  if (chunks <= 1) {
    std::sort(v->begin(), v->end(), comp);
    return;
  }
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = c * n / chunks;
  ParallelFor(threads, chunks, 1, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      std::sort(v->begin() + bounds[c], v->begin() + bounds[c + 1], comp);
    }
  });
  for (size_t width = 1; width < chunks; width *= 2) {
    const size_t stride = width * 2;
    const size_t pairs = chunks / stride + (chunks % stride > width ? 1 : 0);
    ParallelFor(threads, pairs, 1, [&](size_t pb, size_t pe) {
      for (size_t p = pb; p < pe; ++p) {
        const size_t lo = p * stride;
        const size_t mid = lo + width;
        const size_t hi = std::min(lo + stride, chunks);
        std::inplace_merge(v->begin() + bounds[lo], v->begin() + bounds[mid],
                           v->begin() + bounds[hi], comp);
      }
    });
  }
}

// Blockwise map-reduce: acc = combine(acc, map(begin, end)) over fixed
// `block`-sized slices of [0, n), combined in block order. Both the serial
// (threads <= 1) and parallel paths use the *same* block decomposition and
// the same left-to-right combine order, so floating-point accumulations
// produce bit-identical results for every thread count — the property the
// RMI stage-1 fit relies on.
template <typename R, typename MapFn, typename CombineFn>
R ParallelReduce(size_t threads, size_t n, size_t block, R init, MapFn map,
                 CombineFn combine) {
  if (n == 0) return init;
  if (block == 0) block = 1;
  const size_t num_blocks = (n + block - 1) / block;
  R acc = std::move(init);
  if (threads <= 1 || num_blocks <= 1) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t begin = b * block;
      const size_t end = std::min(n, begin + block);
      acc = combine(std::move(acc), map(begin, end));
    }
    return acc;
  }
  std::vector<R> partial(num_blocks);
  ParallelFor(threads, num_blocks, 1, [&](size_t bb, size_t be) {
    for (size_t b = bb; b < be; ++b) {
      const size_t begin = b * block;
      const size_t end = std::min(n, begin + block);
      partial[b] = map(begin, end);
    }
  });
  for (size_t b = 0; b < num_blocks; ++b) {
    acc = combine(std::move(acc), std::move(partial[b]));
  }
  return acc;
}

}  // namespace lidx

#endif  // LIDX_COMMON_PARALLEL_H_
