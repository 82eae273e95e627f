#ifndef LIDX_COMMON_MUTEX_H_
#define LIDX_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace lidx {

// Capability-annotated wrappers over the standard synchronization
// primitives. Clang's thread-safety analysis only tracks annotated types,
// and libstdc++'s std::mutex is not annotated — so every mutex in the repo
// is one of these, and every lock scope one of the RAII guards below. The
// wrappers add no state and no indirection (static_asserted in
// tests/mutex_test.cc); on GCC/MSVC the annotations vanish and the types
// are exactly their std counterparts in a named shirt.
//
// Lock vocabulary:
//   Mutex            exclusive capability (std::mutex)
//   SharedMutex      reader/writer capability (std::shared_mutex)
//   MutexLock        scoped exclusive lock
//   ReaderMutexLock  scoped shared lock
//   WriterMutexLock  scoped exclusive lock on a SharedMutex
//   CondVar          condition variable bound to Mutex (condition_variable_any)

class LIDX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LIDX_ACQUIRE() { mu_.lock(); }
  void Unlock() LIDX_RELEASE() { mu_.unlock(); }
  bool TryLock() LIDX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable spellings so std::condition_variable_any (see CondVar)
  // can drive the mutex directly. Annotated identically to the PascalCase
  // forms; the analysis does not look inside system headers, so the
  // unlock/relock pair inside condition_variable_any::wait is invisible to
  // it — which is exactly right, since Wait() returns with the lock held.
  void lock() LIDX_ACQUIRE() { mu_.lock(); }
  void unlock() LIDX_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

class LIDX_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() LIDX_ACQUIRE() { mu_.lock(); }
  void Unlock() LIDX_RELEASE() { mu_.unlock(); }
  void LockShared() LIDX_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() LIDX_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLock() LIDX_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  bool TryLockShared() LIDX_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive lock (std::lock_guard replacement).
class LIDX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LIDX_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LIDX_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Scoped shared (reader) lock on a SharedMutex.
class LIDX_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) LIDX_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() LIDX_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Scoped exclusive (writer) lock on a SharedMutex.
class LIDX_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) LIDX_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() LIDX_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable over lidx::Mutex. Predicate waits are written as
// explicit `while (!cond) cv.Wait(mu);` loops at the call sites so the
// predicate's guarded-field reads stay inside the annotated enclosing
// function (a lambda passed to a wait(pred) overload would be analyzed as
// an unannotated function and flagged).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires `mu` before
  // returning. Spurious wakeups possible; always wait in a loop.
  void Wait(Mutex& mu) LIDX_REQUIRES(mu) { cv_.wait(mu); }

  // Timed variant; returns true if woken by a notify before the timeout.
  // Same loop discipline as Wait — the predicate decides, not the return.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      LIDX_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace lidx

#endif  // LIDX_COMMON_MUTEX_H_
