#ifndef LIDX_ADAPT_SHADOW_H_
#define LIDX_ADAPT_SHADOW_H_

#include <atomic>

#include "common/epoch.h"

namespace lidx {

// Acting layer of the adaptation subsystem: an atomically published,
// epoch-retired pointer slot. This is the unlink-then-retire discipline of
// serving/sharded_index.h packaged as a reusable cell so every adaptation
// client swaps shadow-built structures the same way:
//
//   builder (pool worker)                reader (any thread)
//   ---------------------                -------------------
//   T* next = BuildShadow(...);          auto guard = epoch->Pin();
//   cell.Publish(next);                  const T* t = cell.Acquire();
//     = exchange(next, acq_rel)          ... lock-free probes on *t ...
//       + RetireDelete(old)              (guard drops; t unreachable)
//
// Readers never block and never see a torn structure: the exchange is the
// linearization point, and the old value is retired *after* the unlink so
// the three-epoch reclaimer (common/epoch.h) frees it only once every
// pinned reader has moved on.
template <typename T>
class ShadowCell {
 public:
  explicit ShadowCell(EpochManager* epoch = &EpochManager::Shared())
      : epoch_(epoch) {}

  ~ShadowCell() {
    // lidx-lint: allow(epoch-guard): destructor — readers are gone by the
    // standard destruction contract, so the final value is freed directly.
    delete current_.load(std::memory_order_relaxed);
  }

  ShadowCell(const ShadowCell&) = delete;
  ShadowCell& operator=(const ShadowCell&) = delete;

  // Loads the current value. REQUIRES: the calling thread holds a live
  // epoch Guard on this cell's manager — the returned pointer is only
  // valid until that guard drops.
  const T* Acquire() const {
    // lidx-lint: allow(epoch-guard): contract read — caller holds the pin
    // (call sites are linted); AssertProtected validates it below.
    const T* p = current_.load(std::memory_order_acquire);
    epoch_->AssertProtected(p);
    return p;
  }

  // Publishes `next` (ownership transfers to the cell) and epoch-retires
  // the previous value. Safe from any thread; readers pinned before the
  // exchange keep the old value alive until their guards drop.
  void Publish(const T* next) {
    const T* old = current_.exchange(next, std::memory_order_acq_rel);
    if (old != nullptr) epoch_->RetireDelete(old);
  }

  EpochManager* epoch() const { return epoch_; }

 private:
  std::atomic<const T*> current_{nullptr};  // lidx: epoch-protected
  EpochManager* epoch_;
};

}  // namespace lidx

#endif  // LIDX_ADAPT_SHADOW_H_
