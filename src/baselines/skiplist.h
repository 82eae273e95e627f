#ifndef LIDX_BASELINES_SKIPLIST_H_
#define LIDX_BASELINES_SKIPLIST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/invariants.h"
#include "common/macros.h"
#include "common/random.h"

namespace lidx {

// Probabilistic skip list (Pugh 1990): a traditional mutable baseline for
// the insert experiments (E2).
template <typename Key, typename Value>
class SkipList {
 public:
  explicit SkipList(uint64_t seed = 0x5ca1ab1e)
      : rng_(seed), head_(new SkipNode(Key{}, Value{}, kMaxLevel)) {}

  ~SkipList() {
    SkipNode* node = head_;
    while (node != nullptr) {
      SkipNode* next = node->next[0];
      delete node;
      node = next;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  SkipList(SkipList&& other) noexcept
      : rng_(other.rng_), head_(other.head_), size_(other.size_) {
    other.head_ = new SkipNode(Key{}, Value{}, kMaxLevel);
    other.size_ = 0;
  }

  SkipList& operator=(SkipList&& other) noexcept {
    if (this != &other) {
      SkipNode* node = head_;
      while (node != nullptr) {
        SkipNode* next = node->next[0];
        delete node;
        node = next;
      }
      rng_ = other.rng_;
      head_ = other.head_;
      size_ = other.size_;
      other.head_ = new SkipNode(Key{}, Value{}, kMaxLevel);
      other.size_ = 0;
    }
    return *this;
  }

  // Inserts or overwrites; returns true if the key was new.
  bool Insert(const Key& key, const Value& value) {
    SkipNode* update[kMaxLevel];
    SkipNode* node = FindGreaterOrEqual(key, update);
    if (node != nullptr && node->key == key) {
      node->value = value;
      return false;
    }
    const int level = RandomLevel();
    SkipNode* fresh = new SkipNode(key, value, level);
    for (int i = 0; i < level; ++i) {
      fresh->next[i] = update[i]->next[i];
      update[i]->next[i] = fresh;
    }
    ++size_;
    return true;
  }

  std::optional<Value> Find(const Key& key) const {
    const SkipNode* node = head_;
    for (int i = kMaxLevel - 1; i >= 0; --i) {
      while (node->next[i] != nullptr && node->next[i]->key < key) {
        node = node->next[i];
      }
    }
    node = node->next[0];
    if (node != nullptr && node->key == key) return node->value;
    return std::nullopt;
  }

  bool Erase(const Key& key) {
    SkipNode* update[kMaxLevel];
    SkipNode* node = FindGreaterOrEqual(key, update);
    if (node == nullptr || !(node->key == key)) return false;
    for (int i = 0; i < node->level; ++i) {
      if (update[i]->next[i] == node) update[i]->next[i] = node->next[i];
    }
    delete node;
    --size_;
    return true;
  }

  // Appends entries with lo <= key <= hi in order.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    SkipNode* update[kMaxLevel];
    const SkipNode* node =
        const_cast<SkipList*>(this)->FindGreaterOrEqual(lo, update);
    while (node != nullptr && !(hi < node->key)) {
      out->emplace_back(node->key, node->value);
      node = node->next[0];
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t SizeBytes() const {
    size_t total = sizeof(*this);
    const SkipNode* node = head_;
    while (node != nullptr) {
      total += sizeof(SkipNode) +
               static_cast<size_t>(node->level) * sizeof(SkipNode*);
      node = node->next[0];
    }
    return total;
  }

  // Structural invariants: every level's forward chain is strictly
  // increasing, links only reach nodes tall enough to live at that level,
  // and the ground-level chain length matches size(). Aborts on violation.
  void CheckInvariants() const {
    size_t ground_nodes = 0;
    for (int i = 0; i < kMaxLevel; ++i) {
      const SkipNode* node = head_->next[i];
      bool has_prev = false;
      Key prev{};
      while (node != nullptr) {
        LIDX_INVARIANT(node->level > i, "skiplist: node tall enough");
        if (has_prev) {
          LIDX_INVARIANT(prev < node->key, "skiplist: level chain sorted");
        }
        prev = node->key;
        has_prev = true;
        if (i == 0) ++ground_nodes;
        node = node->next[i];
      }
    }
    LIDX_INVARIANT(ground_nodes == size_,
                   "skiplist: ground chain matches size()");
  }

 private:
  static constexpr int kMaxLevel = 16;

  struct SkipNode {
    SkipNode(const Key& k, const Value& v, int lvl)
        : key(k), value(v), level(lvl), next(lvl, nullptr) {}
    Key key;
    Value value;
    int level;
    std::vector<SkipNode*> next;
  };

  int RandomLevel() {
    int level = 1;
    // P = 1/4 per extra level, as in LevelDB.
    while (level < kMaxLevel && (rng_.Next() & 3) == 0) ++level;
    return level;
  }

  // Returns the first node with node->key >= key; fills update[] with the
  // rightmost node at each level whose key < key.
  SkipNode* FindGreaterOrEqual(const Key& key, SkipNode** update) {
    SkipNode* node = head_;
    for (int i = kMaxLevel - 1; i >= 0; --i) {
      while (node->next[i] != nullptr && node->next[i]->key < key) {
        node = node->next[i];
      }
      update[i] = node;
    }
    return node->next[0];
  }

  Rng rng_;
  SkipNode* head_;
  size_t size_ = 0;
};

}  // namespace lidx

#endif  // LIDX_BASELINES_SKIPLIST_H_
