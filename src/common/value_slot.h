#ifndef LIDX_COMMON_VALUE_SLOT_H_
#define LIDX_COMMON_VALUE_SLOT_H_

#include <atomic>
#include <type_traits>

namespace lidx {

// A slot of a value column that a writer may store into while readers load
// it: ShardedIndex updates a key its snapshot holds by storing the new value
// into the snapshot's value column (serving/sharded_index.h). Both sides go
// through std::atomic_ref with relaxed order, so a reader sees the old or
// the new value and never a torn one; on x86-64 either is a plain mov. A
// Value that std::atomic_ref cannot hold lock-free in place, or that is
// wider than a word (a lock-free 16-byte load is a locked compare-exchange,
// a write), is never stored in place, and its loads are plain.
template <typename Value>
constexpr bool InPlaceStorable() {
  if constexpr (std::is_trivially_copyable_v<Value>) {
    return sizeof(Value) <= sizeof(void*) &&
           std::atomic_ref<Value>::is_always_lock_free &&
           alignof(Value) >= std::atomic_ref<Value>::required_alignment;
  } else {
    return false;
  }
}

template <typename Value>
Value LoadValue(const Value& slot) {
  if constexpr (InPlaceStorable<Value>()) {
    // std::atomic_ref takes a non-const referent; the load writes nothing.
    return std::atomic_ref<Value>(const_cast<Value&>(slot))
        .load(std::memory_order_relaxed);
  } else {
    return slot;
  }
}

template <typename Value>
void StoreValue(Value& slot, const Value& value) {
  static_assert(InPlaceStorable<Value>());
  std::atomic_ref<Value>(slot).store(value, std::memory_order_relaxed);
}

}  // namespace lidx

#endif  // LIDX_COMMON_VALUE_SLOT_H_
