#ifndef LIDX_COMMON_EPOCH_H_
#define LIDX_COMMON_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#ifdef LIDX_EPOCH_VALIDATE
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>
#endif

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lidx {

// Epoch-based memory reclamation (EBR) for read-mostly shared structures.
//
// The problem: a writer replaces a published pointer (an index snapshot, a
// frozen model, a sealed buffer) and wants to free the old object, but
// lock-free readers may still be dereferencing it. EBR solves this without
// per-read reference counting: readers "pin" the current global epoch in a
// per-thread slot for the duration of each operation, writers "retire"
// unlinked objects tagged with the epoch at unlink time, and a reclaimer
// frees a retired object only once every pinned thread has provably moved
// past the epoch in which it was unlinked (quiescence).
//
// Protocol (the classic three-epoch scheme, cf. Fraser 2004 / Bonsai /
// crossbeam):
//
//  * Pin: the reader writes the current global epoch E into its slot, then
//    re-checks that the global epoch still equals E (retrying otherwise).
//    Only after the pin is established may it load protected pointers.
//  * Advance: the global epoch may move from E to E+1 only when every
//    pinned slot equals E — i.e. every in-flight reader entered during the
//    current epoch.
//  * Free: an object retired (unlinked) during epoch E is freed once the
//    global epoch reaches E+2. Two advances past E mean every reader that
//    was pinned at the time of the unlink has since unpinned; any reader
//    pinned after the unlink re-loaded the pointer and cannot hold the
//    retired object. As a belt-and-braces check the reclaimer additionally
//    requires E < min(currently pinned epochs).
//
// Memory-order contract (relied on by ShardedIndex; keep in sync with its
// inline comments):
//
//  * The pin store is seq_cst and so is the validating re-load of the
//    global epoch: the slot write must be globally visible before the
//    reader's subsequent pointer loads, or a concurrent advance could miss
//    the pin (the classic store->load ordering that plain release/acquire
//    does not give).
//  * Unpin is a release store: every read the guard protected
//    happens-before the slot becoming idle, so a reclaimer that acquires
//    the idle slot value and then frees cannot race those reads (this is
//    what keeps the scheme TSan-clean).
//  * Writers publish the replacement pointer with a release store *before*
//    calling Retire; readers load it with acquire. Retire itself only tags
//    garbage — it never synchronizes with readers.
//
// Debug protocol validator (LIDX_EPOCH_VALIDATE): when compiled with
// -DLIDX_EPOCH_VALIDATE (CMake option of the same name; also set
// per-target by tests/epoch_validate_test), the manager additionally
// tracks, per thread, the depth and epoch of its live pins, and keeps a
// registry of retired-but-not-yet-freed pointers. The read paths of the
// epoch-protected structures call AssertPinned()/AssertProtected(ptr),
// which abort with a diagnostic on the two protocol violations the static
// rules cannot see at runtime: dereferencing a protected pointer with no
// live pin, and holding a pointer that was already retired before the
// current pin began (a stale pointer cached across an unpin). Both hooks
// compile to empty inline functions when the macro is off, so release
// builds pay nothing.
class EpochManager {
 public:
  static constexpr size_t kMaxThreads = 512;

  EpochManager() : slots_(std::make_shared<Slots>()), instance_id_(NextId()) {}

  ~EpochManager() {
    // All guards must be gone by now (standard destruction contract); any
    // garbage still queued is freed unconditionally.
    LIDX_CHECK(PinnedThreads() == 0);
    std::deque<Retired> leftover;
    {
      MutexLock lock(retire_mu_);
      leftover.swap(retired_);
#ifdef LIDX_EPOCH_VALIDATE
      retired_live_.clear();
#endif
    }
    for (Retired& r : leftover) r.deleter();
  }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // RAII epoch pin. Nested pins on the same thread and manager are counted
  // and only the outermost one touches the slot, so helper code may pin
  // without caring whether its caller already did. Guards must be
  // destroyed in stack (LIFO) order.
  class Guard {
   public:
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    ~Guard() {
#ifdef LIDX_EPOCH_VALIDATE
      mgr_->ValidateUnpin();
#endif
      switch (mode_) {
        case Mode::kNested:
          --CacheForThread()->depth;
          break;
        case Mode::kCached:
          // Release: all protected reads happen-before the slot going
          // idle, so a reclaimer that observes the idle slot (acquire)
          // cannot free memory out from under those reads.
          CacheForThread()->depth = 0;
          slot_->store(kIdle, std::memory_order_release);
          break;
        case Mode::kTransient:
          slot_->store(kFree, std::memory_order_release);
          break;
      }
    }

   private:
    friend class EpochManager;
    enum class Mode { kNested, kCached, kTransient };
    Guard(std::atomic<uint64_t>* slot, Mode mode, EpochManager* mgr)
        : slot_(slot), mode_(mode) {
#ifdef LIDX_EPOCH_VALIDATE
      mgr_ = mgr;
#else
      (void)mgr;
#endif
    }
    std::atomic<uint64_t>* slot_;  // nullptr for nested pins.
    Mode mode_;
#ifdef LIDX_EPOCH_VALIDATE
    EpochManager* mgr_ = nullptr;
#endif
  };

  // Pins the calling thread in the current epoch. Protected pointers must
  // only be loaded while a Guard is live. Cheap on the fast path: one
  // seq_cst store + one load on a thread-private cache line.
  Guard Pin() {
    ThreadCache* cache = CacheForThread();
    if (cache->mgr == this && cache->instance_id == instance_id_ &&
        cache->depth > 0) {
      ++cache->depth;
#ifdef LIDX_EPOCH_VALIDATE
      ValidatePin(/*epoch=*/0, /*nested=*/true);
#endif
      return Guard(nullptr, Guard::Mode::kNested, this);
    }
    std::atomic<uint64_t>* slot;
    Guard::Mode mode;
    if (cache->depth == 0) {
      // Thread is quiescent: (re)bind its cached slot to this manager.
      if (cache->mgr != this || cache->instance_id != instance_id_) {
        cache->Release();
        ClaimCachedSlot(cache);
      }
      slot = &(*cache->slots)[cache->slot_index];
      mode = Guard::Mode::kCached;
    } else {
      // Pinned on a *different* manager: leave its cache alone and claim a
      // one-shot slot (rare — cross-manager nesting).
      slot = ClaimTransientSlot();
      mode = Guard::Mode::kTransient;
    }
    // Publish the pin, then validate the epoch did not advance past us
    // while the store was in flight. Both seq_cst: the slot store must be
    // ordered before the validating load and before every subsequent
    // protected pointer load.
    uint64_t pinned_epoch;
    for (;;) {
      const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
      slot->store(e, std::memory_order_seq_cst);
      if (global_epoch_.load(std::memory_order_seq_cst) == e) {
        pinned_epoch = e;
        break;
      }
    }
    if (mode == Guard::Mode::kCached) cache->depth = 1;
#ifdef LIDX_EPOCH_VALIDATE
    ValidatePin(pinned_epoch, /*nested=*/false);
#else
    (void)pinned_epoch;
#endif
    return Guard(slot, mode, this);
  }

  // Queues `deleter` to run once no reader can still hold the object it
  // frees. Call *after* the object has been unlinked from every shared
  // pointer (publish-then-retire). Safe from any thread, including pool
  // workers; the deleter runs on whichever thread later reclaims. `ptr`,
  // when given, identifies the object being freed for the
  // LIDX_EPOCH_VALIDATE registry; it is unused otherwise.
  void Retire(std::function<void()> deleter, const void* ptr = nullptr)
      LIDX_EXCLUDES(retire_mu_) {
    const uint64_t e = global_epoch_.load(std::memory_order_acquire);
    {
      MutexLock lock(retire_mu_);
      retired_.push_back(Retired{e, std::move(deleter), ptr});
#ifdef LIDX_EPOCH_VALIDATE
      if (ptr != nullptr) retired_live_.emplace(ptr, e);
#endif
    }
    retired_count_.fetch_add(1, std::memory_order_relaxed);
    // Amortized housekeeping so garbage cannot pile up unboundedly even if
    // nobody calls ReclaimSome explicitly.
    if (retired_count_.load(std::memory_order_relaxed) % 64 == 0) {
      ReclaimSome();
    }
  }

  template <typename T>
  void RetireDelete(T* ptr) {
    if (ptr != nullptr) Retire([ptr] { delete ptr; }, ptr);
  }

  // Tries to advance the global epoch and frees every retired object that
  // has reached quiescence. Returns the number of deleters run. Never
  // blocks; safe to call concurrently with pins/retires.
  size_t ReclaimSome() LIDX_EXCLUDES(retire_mu_) {
    TryAdvance();
    const uint64_t global = global_epoch_.load(std::memory_order_acquire);
    const uint64_t min_pinned = MinPinnedEpoch();
    std::deque<Retired> ready;
    {
      MutexLock lock(retire_mu_);
      while (!retired_.empty()) {
        const Retired& r = retired_.front();
        if (r.epoch + 2 > global || r.epoch >= min_pinned) break;
#ifdef LIDX_EPOCH_VALIDATE
        if (retired_.front().ptr != nullptr) {
          retired_live_.erase(retired_.front().ptr);
        }
#endif
        ready.push_back(std::move(retired_.front()));
        retired_.pop_front();
      }
    }
    // Deleters run outside the lock: they may retire further objects.
    for (Retired& r : ready) r.deleter();
    freed_count_.fetch_add(ready.size(), std::memory_order_relaxed);
    return ready.size();
  }

  // Test/teardown helper: reclaims until the retire list is empty. Must
  // not be called while any thread is pinned (it would spin forever).
  void DrainRetired() {
    while (RetiredCount() > 0) {
      if (ReclaimSome() == 0) std::this_thread::yield();
    }
  }

  uint64_t GlobalEpoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  size_t PinnedThreads() const {
    size_t pinned = 0;
    for (size_t i = 0; i < kMaxThreads; ++i) {
      if ((*slots_)[i].load(std::memory_order_acquire) < kIdle) ++pinned;
    }
    return pinned;
  }

  size_t RetiredCount() const LIDX_EXCLUDES(retire_mu_) {
    MutexLock lock(retire_mu_);
    return retired_.size();
  }

  uint64_t FreedCount() const {
    return freed_count_.load(std::memory_order_relaxed);
  }

  // ---- LIDX_EPOCH_VALIDATE hooks -----------------------------------------
  // The epoch-protected read paths (ShardedIndex, ShadowCell) call these
  // after loading a protected pointer. Both are free no-ops unless the
  // validator is compiled in.

#ifdef LIDX_EPOCH_VALIDATE
  // Aborts unless the calling thread holds a live pin on this manager.
  void AssertPinned() const {
    if (FindValidateRecord() == nullptr) {
      ValidateFail("thread touches an epoch-protected structure with no "
                   "live pin on this manager");
    }
  }

  // Aborts unless the calling thread is pinned AND `ptr` is not a pointer
  // that was retired before the pin began. A pointer retired in epoch E is
  // unreachable to any reader that pinned at epoch P > E (publish-then-
  // retire: the unlink precedes the retire), so observing one means the
  // reader cached it across an unpin — the exact bug class epoch
  // reclamation exists to prevent, caught here before the free.
  void AssertProtected(const void* ptr) const {
    const ValidateRecord* rec = FindValidateRecord();
    if (rec == nullptr) {
      ValidateFail("thread dereferences an epoch-protected pointer with no "
                   "live pin on this manager");
      return;
    }
    if (ptr == nullptr) return;
    MutexLock lock(retire_mu_);
    const auto it = retired_live_.find(ptr);
    if (it != retired_live_.end() && it->second < rec->epoch) {
      std::fprintf(stderr,
                   "LIDX_EPOCH_VALIDATE: stale pointer %p — retired in epoch "
                   "%llu, but the current pin began in epoch %llu; the "
                   "pointer was cached across an unpin\n",
                   ptr, static_cast<unsigned long long>(it->second),
                   static_cast<unsigned long long>(rec->epoch));
      std::abort();
    }
  }

  // Live pin depth of the calling thread on this manager (test hook).
  int ValidatePinDepth() const {
    const ValidateRecord* rec = FindValidateRecord();
    return rec == nullptr ? 0 : rec->depth;
  }
#else
  void AssertPinned() const {}
  void AssertProtected(const void* /*ptr*/) const {}
#endif

  // Process-wide manager: every serving-layer structure shares it so one
  // reader community and one garbage pool cover the whole process.
  static EpochManager& Shared() {
    static EpochManager* manager = new EpochManager();  // Never destroyed.
    return *manager;
  }

 private:
  // Slot states; epochs occupy [0, kIdle).
  static constexpr uint64_t kFree = ~uint64_t{0};
  static constexpr uint64_t kIdle = ~uint64_t{0} - 1;

  struct Slots {
    // One cache line per slot: a pinning thread only dirties its own line.
    struct alignas(64) PaddedAtomic {
      std::atomic<uint64_t> v{kFree};
    };
    std::atomic<uint64_t>& operator[](size_t i) { return value[i].v; }
    const std::atomic<uint64_t>& operator[](size_t i) const {
      return value[i].v;
    }
    PaddedAtomic value[kMaxThreads];
  };

  struct Retired {
    uint64_t epoch;
    std::function<void()> deleter;
    // Identity of the object the deleter frees (validator registry key);
    // nullptr for opaque deleters. Carried unconditionally so the struct
    // layout does not depend on LIDX_EPOCH_VALIDATE.
    const void* ptr = nullptr;
  };

  // Per-thread slot cache. A thread keeps its claimed slot across pins (no
  // CAS on the fast path); the shared_ptr keeps the slot array alive past
  // manager destruction so the thread-exit destructor can release safely.
  struct ThreadCache {
    EpochManager* mgr = nullptr;
    uint64_t instance_id = 0;
    std::shared_ptr<Slots> slots;
    size_t slot_index = 0;
    int depth = 0;

    ~ThreadCache() { Release(); }

    void Release() {
      if (slots != nullptr) {
        (*slots)[slot_index].store(kFree, std::memory_order_release);
        slots.reset();
      }
      mgr = nullptr;
      depth = 0;
    }
  };

  static ThreadCache* CacheForThread() {
    thread_local ThreadCache cache;
    return &cache;
  }

#ifdef LIDX_EPOCH_VALIDATE
  // One record per (thread, manager) with a live pin: outermost pin epoch
  // plus nesting depth. A plain vector — cross-manager nesting is rare and
  // shallow, so linear scans beat a map.
  struct ValidateRecord {
    const EpochManager* mgr;
    uint64_t epoch;
    int depth;
  };

  static std::vector<ValidateRecord>& ValidateRecords() {
    thread_local std::vector<ValidateRecord> records;
    return records;
  }

  const ValidateRecord* FindValidateRecord() const {
    for (const ValidateRecord& rec : ValidateRecords()) {
      if (rec.mgr == this && rec.depth > 0) return &rec;
    }
    return nullptr;
  }

  void ValidatePin(uint64_t epoch, bool nested) {
    for (ValidateRecord& rec : ValidateRecords()) {
      if (rec.mgr == this) {
        if (!nested && rec.depth == 0) rec.epoch = epoch;
        ++rec.depth;
        return;
      }
    }
    LIDX_CHECK(!nested);  // A nested pin implies an existing record.
    ValidateRecords().push_back(ValidateRecord{this, epoch, 1});
  }

  void ValidateUnpin() {
    for (ValidateRecord& rec : ValidateRecords()) {
      if (rec.mgr == this) {
        LIDX_CHECK(rec.depth > 0);
        --rec.depth;
        return;
      }
    }
    ValidateFail("guard destroyed on a thread with no pin record");
  }

  [[noreturn]] void ValidateFail(const char* what) const {
    std::fprintf(stderr, "LIDX_EPOCH_VALIDATE: %s (manager %p, thread %zu)\n",
                 what, static_cast<const void*>(this),
                 std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::abort();
  }
#endif

  // Claims a free slot, starting at a thread-dependent offset so
  // unrelated threads do not fight over slot 0.
  size_t ClaimSlotIndex() {
    const size_t start =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMaxThreads;
    for (size_t probe = 0; probe < kMaxThreads; ++probe) {
      const size_t i = (start + probe) % kMaxThreads;
      uint64_t expected = kFree;
      if ((*slots_)[i].compare_exchange_strong(expected, kIdle,
                                               std::memory_order_acq_rel)) {
        return i;
      }
    }
    LIDX_CHECK(false && "EpochManager: out of thread slots");
    return 0;
  }

  void ClaimCachedSlot(ThreadCache* cache) {
    cache->mgr = this;
    cache->instance_id = instance_id_;
    cache->slots = slots_;
    cache->slot_index = ClaimSlotIndex();
  }

  std::atomic<uint64_t>* ClaimTransientSlot() {
    return &(*slots_)[ClaimSlotIndex()];
  }

  // Advances the global epoch iff every pinned thread is pinned in the
  // current epoch. Lagging pinned threads simply block the advance (and
  // therefore reclamation) — they never see freed memory.
  void TryAdvance() {
    uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    for (size_t i = 0; i < kMaxThreads; ++i) {
      const uint64_t v = (*slots_)[i].load(std::memory_order_acquire);
      if (v < kIdle && v != e) return;  // Pinned in an older epoch.
    }
    global_epoch_.compare_exchange_strong(e, e + 1,
                                          std::memory_order_acq_rel);
  }

  uint64_t MinPinnedEpoch() const {
    uint64_t min_pinned = ~uint64_t{0};
    for (size_t i = 0; i < kMaxThreads; ++i) {
      const uint64_t v = (*slots_)[i].load(std::memory_order_acquire);
      if (v < kIdle && v < min_pinned) min_pinned = v;
    }
    return min_pinned;
  }

  static uint64_t NextId() {
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<Slots> slots_;
  // Starts at 2 so `epoch + 2 <= global` arithmetic never underflows.
  std::atomic<uint64_t> global_epoch_{2};
  mutable Mutex retire_mu_;
  std::deque<Retired> retired_ LIDX_GUARDED_BY(retire_mu_);
#ifdef LIDX_EPOCH_VALIDATE
  // Retired-but-not-yet-freed objects keyed by identity, tagged with their
  // retire epoch. AssertProtected consults this to catch stale pointers.
  mutable std::unordered_map<const void*, uint64_t> retired_live_
      LIDX_GUARDED_BY(retire_mu_);
#endif
  std::atomic<uint64_t> retired_count_{0};
  std::atomic<uint64_t> freed_count_{0};
  uint64_t instance_id_;
};

}  // namespace lidx

#endif  // LIDX_COMMON_EPOCH_H_
