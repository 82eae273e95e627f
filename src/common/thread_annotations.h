#ifndef LIDX_COMMON_THREAD_ANNOTATIONS_H_
#define LIDX_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis attribute macros (no-ops everywhere else).
//
// These turn the repo's locking contracts — which mutex guards which field,
// which private helper must be called with which lock held — from comments
// into compiler-checked facts. A Clang build with -Wthread-safety (CI turns
// it on with -Werror=thread-safety; see the top-level CMakeLists) rejects:
//
//   * reading or writing a LIDX_GUARDED_BY(mu) field without holding mu,
//   * calling a LIDX_REQUIRES(mu) function without holding mu,
//   * forgetting to release an acquired capability on some path,
//   * acquiring a capability already held (self-deadlock),
//   * lock-order inversions declared via LIDX_ACQUIRED_BEFORE/AFTER.
//
// libstdc++'s std::mutex carries none of these attributes, so the analysis
// cannot see through std::lock_guard<std::mutex>. The repo therefore wraps
// the standard primitives once, in common/mutex.h (lidx::Mutex,
// lidx::SharedMutex, lidx::MutexLock, ...), and every concurrent structure
// uses those wrappers. GCC and MSVC compile the attributes away — the
// wrappers are byte-equivalent to the std types they hold (static_asserted
// in tests/mutex_test.cc), so non-Clang builds are unchanged.
//
// Naming follows the Clang documentation's capability vocabulary with a
// LIDX_ prefix (the same shape Abseil ships as ABSL_*): see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for semantics.

#if defined(__clang__)
#define LIDX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LIDX_THREAD_ANNOTATION(x)  // no-op
#endif

// Declares a type to be a capability (e.g. "mutex"); instances can then be
// named in the acquire/require/guard annotations below.
#define LIDX_CAPABILITY(x) LIDX_THREAD_ANNOTATION(capability(x))

// Declares an RAII type whose constructor acquires and destructor releases
// a capability.
#define LIDX_SCOPED_CAPABILITY LIDX_THREAD_ANNOTATION(scoped_lockable)

// Data members: may only be read with the capability held (shared or
// exclusive) and written with it held exclusively. PT_ is the pointee form.
#define LIDX_GUARDED_BY(x) LIDX_THREAD_ANNOTATION(guarded_by(x))
#define LIDX_PT_GUARDED_BY(x) LIDX_THREAD_ANNOTATION(pt_guarded_by(x))

// Declared lock-ordering edges; the analysis reports cycles.
#define LIDX_ACQUIRED_BEFORE(...) \
  LIDX_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define LIDX_ACQUIRED_AFTER(...) \
  LIDX_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function contracts: the caller must hold the capability (and it is still
// held on return).
#define LIDX_REQUIRES(...) \
  LIDX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define LIDX_REQUIRES_SHARED(...) \
  LIDX_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function effects: acquires/releases the capability.
#define LIDX_ACQUIRE(...) \
  LIDX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LIDX_ACQUIRE_SHARED(...) \
  LIDX_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define LIDX_RELEASE(...) \
  LIDX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define LIDX_RELEASE_SHARED(...) \
  LIDX_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
// Releases a capability regardless of whether it was acquired shared or
// exclusive — the right annotation for a scoped lock's destructor that
// serves both modes.
#define LIDX_RELEASE_GENERIC(...) \
  LIDX_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

#define LIDX_TRY_ACQUIRE(...) \
  LIDX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define LIDX_TRY_ACQUIRE_SHARED(...) \
  LIDX_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// The function must be called *without* the capability held (anti-deadlock
// contract for functions that acquire it themselves).
#define LIDX_EXCLUDES(...) LIDX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Returns a reference to the named capability without affecting lock state.
#define LIDX_RETURN_CAPABILITY(x) LIDX_THREAD_ANNOTATION(lock_returned(x))

// Disables the analysis for one function. Every use must appear in the
// docs/STATIC_ANALYSIS.md allowlist.
#define LIDX_NO_THREAD_SAFETY_ANALYSIS \
  LIDX_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // LIDX_COMMON_THREAD_ANNOTATIONS_H_
