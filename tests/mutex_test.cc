// Functional tests for the annotated synchronization wrappers
// (common/mutex.h). The thread-safety annotations themselves are checked
// statically by Clang (-Werror=thread-safety, see docs/STATIC_ANALYSIS.md);
// what is tested here is (a) the wrappers behave exactly like the std
// primitives they wrap, and (b) they add zero state, so the annotation
// layer is free on every compiler.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"

namespace lidx {
namespace {

// The wrappers are a named shirt over the std types: no vtable, no extra
// members. This is what makes "annotate everything" costless on GCC/MSVC,
// where the attribute macros expand to nothing.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex));
static_assert(sizeof(MutexLock) == sizeof(void*));
static_assert(sizeof(ReaderMutexLock) == sizeof(void*));
static_assert(sizeof(WriterMutexLock) == sizeof(void*));

TEST(MutexTest, MutualExclusion) {
  Mutex mu;
  int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(MutexTest, TryLock) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread([&] { EXPECT_FALSE(mu.TryLock()); }).join();
  mu.Unlock();
  std::thread([&] {
    EXPECT_TRUE(mu.TryLock());
    mu.Unlock();
  }).join();
}

TEST(SharedMutexTest, ReadersAreConcurrent) {
  SharedMutex mu;
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      ReaderMutexLock lock(mu);
      const int inside = readers_inside.fetch_add(1) + 1;
      int seen = max_readers.load();
      while (seen < inside && !max_readers.compare_exchange_weak(seen, inside)) {
      }
      // Linger so the readers overlap.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      readers_inside.fetch_sub(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(max_readers.load(), 1);
}

TEST(SharedMutexTest, WriterExcludesReaders) {
  SharedMutex mu;
  mu.Lock();
  std::thread([&] { EXPECT_FALSE(mu.TryLockShared()); }).join();
  mu.Unlock();
  mu.LockShared();
  std::thread([&] { EXPECT_FALSE(mu.TryLock()); }).join();
  mu.UnlockShared();
}

TEST(SharedMutexTest, WriterLockIsExclusive) {
  SharedMutex mu;
  int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        WriterMutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(CondVarTest, WaitNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    observed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  std::atomic<int> woken{0};
  constexpr int kWaiters = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& th : threads) th.join();
  EXPECT_EQ(woken.load(), kWaiters);
}

TEST(CondVarTest, WaitReacquiresTheLock) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int shared = 0;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // If Wait returned without the lock held this increment would race
    // with the notifier's write below (caught under TSan).
    ++shared;
  });
  {
    MutexLock lock(mu);
    ready = true;
    ++shared;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_EQ(shared, 2);
}

}  // namespace
}  // namespace lidx
