#ifndef LIDX_COMMON_BATCH_H_
#define LIDX_COMMON_BATCH_H_

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/prefetch.h"
#include "common/search.h"
#include "common/simd.h"

namespace lidx {

// Batched-lookup machinery shared by every index that implements
// LookupBatch(): an AMAC-style group scheduler (Kocberber et al., VLDB
// 2015 "Asynchronous Memory Access Chaining") plus a staged version of the
// certified last-mile search.
//
// The idea: a single index lookup is a chain of dependent memory accesses
// (model row -> predicted window -> binary probes -> value), each of which
// can miss all the way to DRAM. Executed one lookup at a time, the core
// sits idle for the full miss latency at every step. Executed as a group
// of G independent lookups, each lookup issues a prefetch for its *next*
// access and yields, so the miss latencies of up to G chains overlap. The
// arithmetic of learned models is exactly cheap enough to hide under the
// prefetches, which is the hardware-level version of the tutorial's
// "replace pointer chasing with arithmetic" argument.

// Runs `n` independent state machines, keeping up to G in flight.
//
//   init(Cursor&, size_t i)  starts lookup i on a free cursor slot; it
//                            should issue the prefetch for the lookup's
//                            first dependent access before returning.
//   step(Cursor&) -> bool    advances one stage (touching only memory a
//                            previous stage prefetched, and prefetching
//                            the next stage's memory); returns true when
//                            the lookup has produced its result.
//
// Slots are refilled from the remaining work as lookups retire, so the
// group stays full until the tail. G == 1 degenerates to the scalar loop
// (no scheduling overhead), which benchmarks use as the baseline.
template <size_t G, typename Cursor, typename InitFn, typename StepFn>
inline void InterleavedRun(size_t n, InitFn&& init, StepFn&& step) {
  static_assert(G >= 1, "group size must be positive");
  if (n == 0) return;
  if constexpr (G == 1) {
    Cursor c;
    for (size_t i = 0; i < n; ++i) {
      init(c, i);
      while (!step(c)) {
      }
    }
    return;
  } else {
    Cursor cursors[G];
    bool live[G];
    const size_t width = n < G ? n : G;
    size_t next = 0;
    for (size_t s = 0; s < width; ++s) {
      init(cursors[s], next++);
      live[s] = true;
    }
    size_t in_flight = width;
    while (in_flight > 0) {
      for (size_t s = 0; s < width; ++s) {
        if (!live[s]) continue;
        if (step(cursors[s])) {
          if (next < n) {
            init(cursors[s], next++);
          } else {
            live[s] = false;
            --in_flight;
          }
        }
      }
    }
  }
}

// InterleavedRun extended to storage: the same group scheduler, but the
// latency being hidden is a page read in flight on an AsyncReadEngine
// rather than a DRAM miss, so three things change. The group size is a
// runtime queue depth (tuned per device, not per cache), a stalled cursor
// cannot be busy-spun (a pending page read completes via the engine, not
// by re-executing a load), and so the scheduler needs a third hook:
//
//   init(Cursor&, size_t i)  starts lookup i; typically resolves the
//                            model/fence stage and submits the page read
//                            (a PagePinStream ticket) before returning.
//   step(Cursor&) -> bool    retires the lookup if its page has landed
//                            (or it needs no I/O); false = still waiting.
//   drain()                  called when a full pass over the group
//                            retires nothing — every live cursor is
//                            waiting on I/O, so block until at least one
//                            completion arrives (PagePinStream::WaitAny).
//
// drain() may wake with work for only some cursors; the scheduler simply
// passes again. group == 1 degenerates to submit-then-wait per lookup,
// which is the sync baseline with extra steps — benchmarks use the true
// scalar path for that.
template <typename Cursor, typename InitFn, typename StepFn,
          typename DrainFn>
inline void InterleavedIoRun(size_t n, size_t group, InitFn&& init,
                             StepFn&& step, DrainFn&& drain) {
  if (n == 0) return;
  if (group < 1) group = 1;
  const size_t width = n < group ? n : group;
  std::vector<Cursor> cursors(width);
  std::vector<unsigned char> live(width, 1);
  size_t next = 0;
  for (size_t s = 0; s < width; ++s) init(cursors[s], next++);
  size_t in_flight = width;
  while (in_flight > 0) {
    bool retired = false;
    for (size_t s = 0; s < width; ++s) {
      if (!live[s]) continue;
      if (step(cursors[s])) {
        retired = true;
        if (next < n) {
          init(cursors[s], next++);
        } else {
          live[s] = 0;
          --in_flight;
        }
      }
    }
    if (!retired && in_flight > 0) drain();
  }
}

// Staged equivalent of WindowLowerBoundWithFixup (common/search.h): the
// same certified-window binary search, but one probe per Advance() call,
// with the next probe's cache line prefetched before yielding. Returns
// bit-identical results to the scalar routine (including the rare
// exponential-search fallback, which runs scalar — it is off the hot
// path by construction).
//
// When simd::Vectorized() (read once, in Begin), the staged binary probes
// narrow the window only until it fits kSimdFinishMax entries; the next
// Advance() then resolves the remainder with one vectorized count-less-than
// pass over the span, whose cache lines were all prefetched by the
// preceding probe. Fewer scheduler passes per lookup, same certified
// result.
//
// Usage inside a batch cursor:
//   Begin(data, key, pred, err_lo, err_hi, n)   once per lookup
//   while (!Advance(data, key)) yield;          one probe per scheduler pass
//   result()                                    final lower-bound position
template <typename Key>
class WindowSearchCursor {
 public:
  // Largest window the SIMD finish step resolves in one Advance(): 8 cache
  // lines of uint64_t — small enough that the span prefetch issued one
  // stage earlier covers it.
  static constexpr size_t kSimdFinishMax = 64;

  template <typename Vec>
  void Begin(const Vec& data, Key key, size_t pred, size_t err_lo,
             size_t err_hi, size_t n) {
    total_ = n;
    if (n == 0) {
      result_ = 0;
      done_ = true;
      return;
    }
    done_ = false;
    vectorized_ = simd::kEligible<Vec, Key> && simd::Vectorized();
    const SearchWindow w = ClampSearchWindow(pred, err_lo, err_hi, n);
    lo_ = w.lo;
    hi_ = w.hi;
    base_ = lo_;
    left_ = hi_ - lo_;
    PrefetchNext(data);
    // The certification step reads data[lo_ - 1]; fetch it now so the
    // final Advance() does not stall on it.
    if (lo_ > 0) LIDX_PREFETCH_READ(&data[lo_ - 1]);
    (void)key;
  }

  // One probe per call; true once result() is final.
  template <typename Vec>
  bool Advance(const Vec& data, Key key) {
    if (done_) return true;
    if constexpr (simd::kEligible<Vec, Key>) {
      if (vectorized_ && left_ > 1 && left_ <= kSimdFinishMax) {
        // The window [base_, base_ + left_) is known to bracket the lower
        // bound of [lo_, hi_), so base_ + count-less-than is that lower
        // bound — the same value the remaining binary probes would reach.
        const size_t r =
            base_ + simd::CountLess(std::data(data) + base_, left_, key);
        return Certify(data, key, r);
      }
    }
    if (left_ > 1) {
      const size_t half = left_ / 2;
      base_ = (data[base_ + half - 1] < key) ? base_ + half : base_;
      left_ -= half;
      PrefetchNext(data);
      return false;
    }
    // left_ == 1: the window collapsed to a single candidate (same final
    // step as BinarySearchLowerBound), then certify as in the scalar
    // fix-up.
    size_t r = base_;
    if (base_ < hi_ && data[base_] < key) ++r;
    return Certify(data, key, r);
  }

  size_t result() const {
    LIDX_DCHECK(done_);
    return result_;
  }

 private:
  template <typename Vec>
  bool Certify(const Vec& data, Key key, size_t r) {
    const bool left_ok = (r > lo_) || lo_ == 0 || data[lo_ - 1] < key;
    const bool right_ok = (r < hi_) || hi_ == total_;
    result_ = LIDX_LIKELY(left_ok && right_ok)
                  ? r
                  : ExponentialSearchLowerBound(data, key, r, 0, total_);
    done_ = true;
    return true;
  }

  template <typename Vec>
  void PrefetchNext(const Vec& data) {
    if constexpr (simd::kEligible<Vec, Key>) {
      if (vectorized_ && left_ > 1 && left_ <= kSimdFinishMax) {
        // Next Advance() runs the vectorized finish over the whole span:
        // fetch every cache line it will touch.
        constexpr size_t kPerLine = 64 / sizeof(Key);
        for (size_t i = 0; i < left_; i += kPerLine) {
          LIDX_PREFETCH_READ(&data[base_ + i]);
        }
        LIDX_PREFETCH_READ(&data[base_ + left_ - 1]);
        return;
      }
    }
    // Next address BinarySearchLowerBound will touch given (base_, left_).
    const size_t probe = (left_ > 1) ? base_ + left_ / 2 - 1 : base_;
    LIDX_PREFETCH_READ(&data[probe]);
  }

  size_t base_ = 0;
  size_t left_ = 0;
  size_t lo_ = 0;
  size_t hi_ = 0;
  size_t total_ = 0;
  size_t result_ = 0;
  bool vectorized_ = true;
  bool done_ = true;
};

}  // namespace lidx

#endif  // LIDX_COMMON_BATCH_H_
