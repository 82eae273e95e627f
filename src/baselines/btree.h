#ifndef LIDX_BASELINES_BTREE_H_
#define LIDX_BASELINES_BTREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/batch.h"
#include "common/invariants.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/prefetch.h"
#include "common/search.h"

namespace lidx {

// In-memory B+-tree: the traditional index that learned one-dimensional
// indexes are measured against (tutorial §1, §4). Fixed-capacity nodes,
// linked leaves for range scans, full delete with borrow/merge rebalancing,
// and a bulk-load path that packs leaves to a fill factor.
//
// Key must be totally ordered and cheaply copyable; Value cheaply copyable.
template <typename Key, typename Value, int kLeafCapacity = 64,
          int kInternalCapacity = 64>
class BPlusTree {
  static_assert(kLeafCapacity >= 4 && kInternalCapacity >= 4,
                "capacities too small for split/merge logic");

 public:
  BPlusTree() = default;
  ~BPlusTree() { Clear(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&& other) noexcept { *this = std::move(other); }
  BPlusTree& operator=(BPlusTree&& other) noexcept {
    if (this != &other) {
      Clear();
      root_ = other.root_;
      size_ = other.size_;
      height_ = other.height_;
      other.root_ = nullptr;
      other.size_ = 0;
      other.height_ = 0;
    }
    return *this;
  }

  // Bulk-loads from sorted, unique (key, value) pairs; replaces any existing
  // contents. fill_factor in (0, 1] controls leaf packing density.
  // build_threads > 1 constructs the (independent) leaves in parallel; the
  // leaf chunking is fixed by per_leaf, so the tree is identical to the
  // serial build for every thread count.
  void BulkLoad(const std::vector<std::pair<Key, Value>>& sorted,
                double fill_factor = 1.0, size_t build_threads = 1) {
    LIDX_CHECK(fill_factor > 0.0 && fill_factor <= 1.0);
    Clear();
    if (sorted.empty()) return;
    const int per_leaf = std::max(
        1, std::min(kLeafCapacity,
                    static_cast<int>(kLeafCapacity * fill_factor)));

    // Build leaf level: fill each fixed-size chunk into its own leaf, then
    // link the next pointers serially.
    const size_t chunk = static_cast<size_t>(per_leaf);
    const size_t num_leaves = (sorted.size() + chunk - 1) / chunk;
    std::vector<Node*> level(num_leaves, nullptr);
    std::vector<Key> level_keys(num_leaves);  // Minimum key of each node.
    ParallelForIndex(build_threads, num_leaves, [&](size_t l) {
      Leaf* leaf = new Leaf();
      const size_t base = l * chunk;
      const size_t take = std::min<size_t>(chunk, sorted.size() - base);
      for (size_t j = 0; j < take; ++j) {
        leaf->keys[j] = sorted[base + j].first;
        leaf->values[j] = sorted[base + j].second;
      }
      leaf->count = static_cast<int>(take);
      level[l] = leaf;
      level_keys[l] = leaf->keys[0];
    });
    for (size_t l = 0; l + 1 < num_leaves; ++l) {
      static_cast<Leaf*>(level[l])->next = static_cast<Leaf*>(level[l + 1]);
    }

    // Build internal levels bottom-up.
    height_ = 1;
    while (level.size() > 1) {
      std::vector<Node*> upper;
      std::vector<Key> upper_keys;
      size_t j = 0;
      while (j < level.size()) {
        Internal* node = new Internal();
        const size_t take =
            std::min<size_t>(kInternalCapacity, level.size() - j);
        for (size_t c = 0; c < take; ++c) {
          node->children[c] = level[j + c];
          node->keys[c] = level_keys[j + c];
        }
        node->count = static_cast<int>(take);
        upper.push_back(node);
        upper_keys.push_back(node->keys[0]);
        j += take;
      }
      level = std::move(upper);
      level_keys = std::move(upper_keys);
      ++height_;
    }
    root_ = level[0];
    size_ = sorted.size();
  }

  // Inserts or overwrites. Returns true if a new key was inserted, false if
  // an existing key's value was overwritten.
  bool Insert(const Key& key, const Value& value) {
    if (root_ == nullptr) {
      Leaf* leaf = new Leaf();
      leaf->keys[0] = key;
      leaf->values[0] = value;
      leaf->count = 1;
      root_ = leaf;
      height_ = 1;
      size_ = 1;
      return true;
    }
    Key split_key;
    Node* split_node = nullptr;
    bool inserted = false;
    InsertRecursive(root_, height_, key, value, &split_key, &split_node,
                    &inserted);
    if (split_node != nullptr) {
      Internal* new_root = new Internal();
      new_root->count = 2;
      new_root->children[0] = root_;
      new_root->keys[0] = MinKey(root_, height_);
      new_root->children[1] = split_node;
      new_root->keys[1] = split_key;
      root_ = new_root;
      ++height_;
    }
    if (inserted) ++size_;
    return inserted;
  }

  // Point lookup.
  std::optional<Value> Find(const Key& key) const {
    const Node* node = root_;
    if (node == nullptr) return std::nullopt;
    int level = height_;
    while (level > 1) {
      const Internal* in = static_cast<const Internal*>(node);
      node = in->children[ChildIndex(in, key)];
      --level;
    }
    const Leaf* leaf = static_cast<const Leaf*>(node);
    const int pos = LeafLowerBound(leaf, key);
    if (pos < leaf->count && leaf->keys[pos] == key) {
      return leaf->values[pos];
    }
    return std::nullopt;
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Batched point lookups, the traditional-index counterpart of the
  // learned indexes' LookupBatch so throughput comparisons stay
  // apples-to-apples: out[i] = value for keys[i] or Value{} when absent.
  // Classic AMAC pointer-chase interleaving — each descent step prefetches
  // the child node's count and first binary-probe key lines, so up to G
  // tree walks have misses in flight per thread.
  template <size_t G = 16>
  void LookupBatch(const Key* keys, size_t count, Value* out) const {
    if (root_ == nullptr) {
      std::fill(out, out + count, Value{});
      return;
    }
    enum Stage { kDescend, kFetch };
    struct Cursor {
      Key key;
      size_t idx;
      const Node* node;
      int level;
      int pos;
      Stage stage;
    };
    auto prefetch_node = [](const Node* node, int level) {
      if (level > 1) {
        const Internal* in = static_cast<const Internal*>(node);
        LIDX_PREFETCH_READ(&in->count);
        LIDX_PREFETCH_READ(&in->keys[kInternalCapacity / 2]);
        LIDX_PREFETCH_READ(&in->keys[kInternalCapacity / 4]);
        LIDX_PREFETCH_READ(&in->keys[(3 * kInternalCapacity) / 4]);
      } else {
        const Leaf* leaf = static_cast<const Leaf*>(node);
        LIDX_PREFETCH_READ(&leaf->count);
        LIDX_PREFETCH_READ(&leaf->keys[kLeafCapacity / 2]);
        LIDX_PREFETCH_READ(&leaf->keys[kLeafCapacity / 4]);
        LIDX_PREFETCH_READ(&leaf->keys[(3 * kLeafCapacity) / 4]);
      }
    };
    InterleavedRun<G, Cursor>(
        count,
        [&](Cursor& c, size_t i) {
          c.idx = i;
          c.key = keys[i];
          c.node = root_;
          c.level = height_;
          c.stage = kDescend;
          // The root is shared by every lookup and stays resident; its
          // children are where the misses start.
        },
        [&](Cursor& c) -> bool {
          switch (c.stage) {
            case kDescend: {
              if (c.level > 1) {
                const Internal* in = static_cast<const Internal*>(c.node);
                c.node = in->children[ChildIndex(in, c.key)];
                --c.level;
                prefetch_node(c.node, c.level);
                return false;
              }
              const Leaf* leaf = static_cast<const Leaf*>(c.node);
              c.pos = LeafLowerBound(leaf, c.key);
              // The value array trails the key array by several lines.
              LIDX_PREFETCH_READ(&leaf->values[c.pos]);
              c.stage = kFetch;
              return false;
            }
            default: {
              const Leaf* leaf = static_cast<const Leaf*>(c.node);
              out[c.idx] = (c.pos < leaf->count && leaf->keys[c.pos] == c.key)
                               ? leaf->values[c.pos]
                               : Value{};
              return true;
            }
          }
        });
  }

  // Removes `key`. Returns true if it was present.
  bool Erase(const Key& key) {
    if (root_ == nullptr) return false;
    bool erased = EraseRecursive(root_, height_, key);
    if (!erased) return false;
    --size_;
    // Collapse a root with a single child (or drop an empty tree).
    while (height_ > 1 && static_cast<Internal*>(root_)->count == 1) {
      Internal* old = static_cast<Internal*>(root_);
      root_ = old->children[0];
      delete old;
      --height_;
    }
    if (height_ == 1 && static_cast<Leaf*>(root_)->count == 0) {
      delete static_cast<Leaf*>(root_);
      root_ = nullptr;
      height_ = 0;
    }
    return true;
  }

  // Appends all (key, value) pairs with lo <= key <= hi, in key order.
  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    const Node* node = root_;
    if (node == nullptr) return;
    int level = height_;
    while (level > 1) {
      const Internal* in = static_cast<const Internal*>(node);
      node = in->children[ChildIndex(in, lo)];
      --level;
    }
    const Leaf* leaf = static_cast<const Leaf*>(node);
    int pos = LeafLowerBound(leaf, lo);
    while (leaf != nullptr) {
      for (; pos < leaf->count; ++pos) {
        if (leaf->keys[pos] > hi) return;
        out->emplace_back(leaf->keys[pos], leaf->values[pos]);
      }
      leaf = leaf->next;
      pos = 0;
    }
  }

  // Scans `n` entries starting at the first key >= lo (for YCSB-style scans).
  size_t ScanN(const Key& lo, size_t n,
               std::vector<std::pair<Key, Value>>* out) const {
    const Node* node = root_;
    if (node == nullptr) return 0;
    int level = height_;
    while (level > 1) {
      const Internal* in = static_cast<const Internal*>(node);
      node = in->children[ChildIndex(in, lo)];
      --level;
    }
    const Leaf* leaf = static_cast<const Leaf*>(node);
    int pos = LeafLowerBound(leaf, lo);
    size_t got = 0;
    while (leaf != nullptr && got < n) {
      for (; pos < leaf->count && got < n; ++pos, ++got) {
        out->emplace_back(leaf->keys[pos], leaf->values[pos]);
      }
      leaf = leaf->next;
      pos = 0;
    }
    return got;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const { return height_; }

  // Total heap footprint of all nodes (index size metric in benchmarks).
  size_t SizeBytes() const { return SizeBytesRecursive(root_, height_); }

  void Clear() {
    if (root_ != nullptr) {
      FreeRecursive(root_, height_);
      root_ = nullptr;
    }
    size_ = 0;
    height_ = 0;
  }

  // Validates structural invariants (sortedness, occupancy, separator keys,
  // leaf-chain integrity, entry count vs. size()); used by tests. Aborts on
  // violation.
  void CheckInvariants() const {
    if (root_ == nullptr) {
      LIDX_INVARIANT(size_ == 0 && height_ == 0, "btree: empty tree state");
      return;
    }
    Key dummy_lo{};
    CheckRecursive(root_, height_, /*has_lo=*/false, dummy_lo,
                   /*is_root=*/true);
    // The linked leaf level must enumerate every entry exactly once, in
    // globally strict key order, starting at the leftmost leaf.
    const Node* node = root_;
    for (int level = height_; level > 1; --level) {
      node = static_cast<const Internal*>(node)->children[0];
    }
    size_t entries = 0;
    bool has_prev = false;
    Key prev{};
    for (const Leaf* leaf = static_cast<const Leaf*>(node); leaf != nullptr;
         leaf = leaf->next) {
      for (int i = 0; i < leaf->count; ++i) {
        if (has_prev) {
          LIDX_INVARIANT(prev < leaf->keys[i], "btree: leaf chain sorted");
        }
        prev = leaf->keys[i];
        has_prev = true;
        ++entries;
      }
    }
    LIDX_INVARIANT(entries == size_, "btree: leaf chain matches size()");
  }

 private:
  struct Node {};

  struct Leaf : Node {
    Key keys[kLeafCapacity];
    Value values[kLeafCapacity];
    int count = 0;
    Leaf* next = nullptr;
  };

  struct Internal : Node {
    // keys[i] is the minimum key in the subtree of children[i].
    Key keys[kInternalCapacity];
    Node* children[kInternalCapacity];
    int count = 0;
  };

  int LeafLowerBound(const Leaf* leaf, const Key& key) const {
    return static_cast<int>(BoundedLowerBound(
        leaf->keys, key, 0, static_cast<size_t>(leaf->count)));
  }

  // Index of the child whose subtree may contain `key`: the last child with
  // separator <= key (first child if key is below every separator).
  int ChildIndex(const Internal* node, const Key& key) const {
    const int ub = static_cast<int>(BoundedLowerBound(
        node->keys, key, 1, static_cast<size_t>(node->count)));
    return (ub < node->count && node->keys[ub] == key) ? ub : ub - 1;
  }

  Key MinKey(const Node* node, int level) const {
    while (level > 1) {
      node = static_cast<const Internal*>(node)->children[0];
      --level;
    }
    return static_cast<const Leaf*>(node)->keys[0];
  }

  void InsertRecursive(Node* node, int level, const Key& key,
                       const Value& value, Key* split_key, Node** split_node,
                       bool* inserted) {
    if (level == 1) {
      Leaf* leaf = static_cast<Leaf*>(node);
      const int pos = LeafLowerBound(leaf, key);
      if (pos < leaf->count && leaf->keys[pos] == key) {
        leaf->values[pos] = value;  // Overwrite.
        *inserted = false;
        return;
      }
      *inserted = true;
      if (leaf->count < kLeafCapacity) {
        ShiftInsertLeaf(leaf, pos, key, value);
        return;
      }
      // Split the leaf, then insert into the proper half.
      Leaf* right = new Leaf();
      const int move = leaf->count / 2;
      const int keep = leaf->count - move;
      for (int i = 0; i < move; ++i) {
        right->keys[i] = leaf->keys[keep + i];
        right->values[i] = leaf->values[keep + i];
      }
      right->count = move;
      leaf->count = keep;
      right->next = leaf->next;
      leaf->next = right;
      if (key < right->keys[0]) {
        ShiftInsertLeaf(leaf, LeafLowerBound(leaf, key), key, value);
      } else {
        ShiftInsertLeaf(right, LeafLowerBound(right, key), key, value);
      }
      *split_key = right->keys[0];
      *split_node = right;
      return;
    }

    Internal* in = static_cast<Internal*>(node);
    const int ci = ChildIndex(in, key);
    Key child_split_key;
    Node* child_split = nullptr;
    InsertRecursive(in->children[ci], level - 1, key, value, &child_split_key,
                    &child_split, inserted);
    // Keep separator exact if the key became the new minimum of child 0.
    if (ci == 0 && key < in->keys[0]) in->keys[0] = key;
    if (child_split == nullptr) return;

    if (in->count < kInternalCapacity) {
      ShiftInsertInternal(in, ci + 1, child_split_key, child_split);
      return;
    }
    // Split this internal node.
    Internal* right = new Internal();
    const int move = in->count / 2;
    const int keep = in->count - move;
    for (int i = 0; i < move; ++i) {
      right->keys[i] = in->keys[keep + i];
      right->children[i] = in->children[keep + i];
    }
    right->count = move;
    in->count = keep;
    if (child_split_key < right->keys[0]) {
      ShiftInsertInternal(in, ChildSlot(in, child_split_key), child_split_key,
                          child_split);
    } else {
      ShiftInsertInternal(right, ChildSlot(right, child_split_key),
                          child_split_key, child_split);
    }
    *split_key = right->keys[0];
    *split_node = right;
  }

  // Position where a new separator key belongs (first index with key >).
  static int ChildSlot(const Internal* node, const Key& key) {
    int i = 0;
    while (i < node->count && node->keys[i] < key) ++i;
    return i;
  }

  static void ShiftInsertLeaf(Leaf* leaf, int pos, const Key& key,
                              const Value& value) {
    LIDX_DCHECK(leaf->count < kLeafCapacity);
    for (int i = leaf->count; i > pos; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    ++leaf->count;
  }

  static void ShiftInsertInternal(Internal* node, int pos, const Key& key,
                                  Node* child) {
    LIDX_DCHECK(node->count < kInternalCapacity);
    for (int i = node->count; i > pos; --i) {
      node->keys[i] = node->keys[i - 1];
      node->children[i] = node->children[i - 1];
    }
    node->keys[pos] = key;
    node->children[pos] = child;
    ++node->count;
  }

  // Deletes `key` from the subtree; rebalances children on underflow.
  bool EraseRecursive(Node* node, int level, const Key& key) {
    if (level == 1) {
      Leaf* leaf = static_cast<Leaf*>(node);
      const int pos = LeafLowerBound(leaf, key);
      if (pos >= leaf->count || !(leaf->keys[pos] == key)) return false;
      for (int i = pos; i + 1 < leaf->count; ++i) {
        leaf->keys[i] = leaf->keys[i + 1];
        leaf->values[i] = leaf->values[i + 1];
      }
      --leaf->count;
      return true;
    }
    Internal* in = static_cast<Internal*>(node);
    const int ci = ChildIndex(in, key);
    if (!EraseRecursive(in->children[ci], level - 1, key)) return false;
    RebalanceChild(in, ci, level);
    return true;
  }

  // Restores minimum occupancy of in->children[ci] by borrowing from or
  // merging with an adjacent sibling.
  void RebalanceChild(Internal* in, int ci, int level) {
    const int min_leaf = kLeafCapacity / 4;
    const int min_internal = kInternalCapacity / 4;
    if (level - 1 == 1) {
      Leaf* child = static_cast<Leaf*>(in->children[ci]);
      if (child->count >= min_leaf) {
        if (child->count > 0) in->keys[ci] = child->keys[0];
        return;
      }
      // Try borrow from right sibling, then left; else merge.
      if (ci + 1 < in->count) {
        Leaf* right = static_cast<Leaf*>(in->children[ci + 1]);
        if (right->count > min_leaf) {
          child->keys[child->count] = right->keys[0];
          child->values[child->count] = right->values[0];
          ++child->count;
          for (int i = 0; i + 1 < right->count; ++i) {
            right->keys[i] = right->keys[i + 1];
            right->values[i] = right->values[i + 1];
          }
          --right->count;
          in->keys[ci + 1] = right->keys[0];
          if (child->count > 0) in->keys[ci] = child->keys[0];
          return;
        }
      }
      if (ci > 0) {
        Leaf* left = static_cast<Leaf*>(in->children[ci - 1]);
        if (left->count > min_leaf) {
          for (int i = child->count; i > 0; --i) {
            child->keys[i] = child->keys[i - 1];
            child->values[i] = child->values[i - 1];
          }
          child->keys[0] = left->keys[left->count - 1];
          child->values[0] = left->values[left->count - 1];
          ++child->count;
          --left->count;
          in->keys[ci] = child->keys[0];
          return;
        }
      }
      // Merge with a sibling (guaranteed to fit: both are near-minimal).
      if (ci + 1 < in->count) {
        MergeLeaves(in, ci);
      } else if (ci > 0) {
        MergeLeaves(in, ci - 1);
      } else if (child->count > 0) {
        in->keys[ci] = child->keys[0];
      }
      return;
    }

    Internal* child = static_cast<Internal*>(in->children[ci]);
    if (child->count >= min_internal) {
      in->keys[ci] = child->keys[0];
      return;
    }
    if (ci + 1 < in->count) {
      Internal* right = static_cast<Internal*>(in->children[ci + 1]);
      if (right->count > min_internal) {
        child->keys[child->count] = right->keys[0];
        child->children[child->count] = right->children[0];
        ++child->count;
        for (int i = 0; i + 1 < right->count; ++i) {
          right->keys[i] = right->keys[i + 1];
          right->children[i] = right->children[i + 1];
        }
        --right->count;
        in->keys[ci + 1] = right->keys[0];
        in->keys[ci] = child->keys[0];
        return;
      }
    }
    if (ci > 0) {
      Internal* left = static_cast<Internal*>(in->children[ci - 1]);
      if (left->count > min_internal) {
        for (int i = child->count; i > 0; --i) {
          child->keys[i] = child->keys[i - 1];
          child->children[i] = child->children[i - 1];
        }
        child->keys[0] = left->keys[left->count - 1];
        child->children[0] = left->children[left->count - 1];
        ++child->count;
        --left->count;
        in->keys[ci] = child->keys[0];
        return;
      }
    }
    if (ci + 1 < in->count) {
      MergeInternals(in, ci);
    } else if (ci > 0) {
      MergeInternals(in, ci - 1);
    } else {
      in->keys[ci] = child->keys[0];
    }
  }

  // Merges children[i+1] into children[i] (leaf level) and drops slot i+1.
  void MergeLeaves(Internal* in, int i) {
    Leaf* left = static_cast<Leaf*>(in->children[i]);
    Leaf* right = static_cast<Leaf*>(in->children[i + 1]);
    if (left->count + right->count > kLeafCapacity) {
      // Cannot merge (can happen when the "underfull" child is the right
      // one and the left is full): rebalance by sharing instead.
      const int total = left->count + right->count;
      const int target_left = total / 2;
      if (left->count > target_left) {
        const int move = left->count - target_left;
        for (int j = right->count - 1; j >= 0; --j) {
          right->keys[j + move] = right->keys[j];
          right->values[j + move] = right->values[j];
        }
        for (int j = 0; j < move; ++j) {
          right->keys[j] = left->keys[target_left + j];
          right->values[j] = left->values[target_left + j];
        }
        right->count += move;
        left->count = target_left;
      } else {
        const int move = target_left - left->count;
        for (int j = 0; j < move; ++j) {
          left->keys[left->count + j] = right->keys[j];
          left->values[left->count + j] = right->values[j];
        }
        left->count += move;
        for (int j = 0; j + move < right->count; ++j) {
          right->keys[j] = right->keys[j + move];
          right->values[j] = right->values[j + move];
        }
        right->count -= move;
      }
      in->keys[i] = left->keys[0];
      in->keys[i + 1] = right->keys[0];
      return;
    }
    for (int j = 0; j < right->count; ++j) {
      left->keys[left->count + j] = right->keys[j];
      left->values[left->count + j] = right->values[j];
    }
    left->count += right->count;
    left->next = right->next;
    delete right;
    for (int j = i + 1; j + 1 < in->count; ++j) {
      in->keys[j] = in->keys[j + 1];
      in->children[j] = in->children[j + 1];
    }
    --in->count;
    if (left->count > 0) in->keys[i] = left->keys[0];
  }

  void MergeInternals(Internal* in, int i) {
    Internal* left = static_cast<Internal*>(in->children[i]);
    Internal* right = static_cast<Internal*>(in->children[i + 1]);
    if (left->count + right->count > kInternalCapacity) {
      const int total = left->count + right->count;
      const int target_left = total / 2;
      if (left->count > target_left) {
        const int move = left->count - target_left;
        for (int j = right->count - 1; j >= 0; --j) {
          right->keys[j + move] = right->keys[j];
          right->children[j + move] = right->children[j];
        }
        for (int j = 0; j < move; ++j) {
          right->keys[j] = left->keys[target_left + j];
          right->children[j] = left->children[target_left + j];
        }
        right->count += move;
        left->count = target_left;
      } else {
        const int move = target_left - left->count;
        for (int j = 0; j < move; ++j) {
          left->keys[left->count + j] = right->keys[j];
          left->children[left->count + j] = right->children[j];
        }
        left->count += move;
        for (int j = 0; j + move < right->count; ++j) {
          right->keys[j] = right->keys[j + move];
          right->children[j] = right->children[j + move];
        }
        right->count -= move;
      }
      in->keys[i] = left->keys[0];
      in->keys[i + 1] = right->keys[0];
      return;
    }
    for (int j = 0; j < right->count; ++j) {
      left->keys[left->count + j] = right->keys[j];
      left->children[left->count + j] = right->children[j];
    }
    left->count += right->count;
    delete right;
    for (int j = i + 1; j + 1 < in->count; ++j) {
      in->keys[j] = in->keys[j + 1];
      in->children[j] = in->children[j + 1];
    }
    --in->count;
    in->keys[i] = left->keys[0];
  }

  void FreeRecursive(Node* node, int level) {
    if (level == 1) {
      delete static_cast<Leaf*>(node);
      return;
    }
    Internal* in = static_cast<Internal*>(node);
    for (int i = 0; i < in->count; ++i) {
      FreeRecursive(in->children[i], level - 1);
    }
    delete in;
  }

  size_t SizeBytesRecursive(const Node* node, int level) const {
    if (node == nullptr) return 0;
    if (level == 1) return sizeof(Leaf);
    const Internal* in = static_cast<const Internal*>(node);
    size_t total = sizeof(Internal);
    for (int i = 0; i < in->count; ++i) {
      total += SizeBytesRecursive(in->children[i], level - 1);
    }
    return total;
  }

  void CheckRecursive(const Node* node, int level, bool has_lo, const Key& lo,
                      bool is_root) const {
    if (level == 1) {
      const Leaf* leaf = static_cast<const Leaf*>(node);
      if (!is_root) LIDX_CHECK(leaf->count >= 1);
      for (int i = 1; i < leaf->count; ++i) {
        LIDX_CHECK(leaf->keys[i - 1] < leaf->keys[i]);
      }
      if (has_lo && leaf->count > 0) LIDX_CHECK(!(leaf->keys[0] < lo));
      return;
    }
    const Internal* in = static_cast<const Internal*>(node);
    LIDX_CHECK(in->count >= (is_root ? 2 : 1));
    for (int i = 1; i < in->count; ++i) {
      LIDX_CHECK(in->keys[i - 1] < in->keys[i]);
    }
    for (int i = 0; i < in->count; ++i) {
      CheckRecursive(in->children[i], level - 1, /*has_lo=*/true, in->keys[i],
                     /*is_root=*/false);
    }
  }

  Node* root_ = nullptr;
  size_t size_ = 0;
  int height_ = 0;  // 0 = empty, 1 = single leaf.
};

}  // namespace lidx

#endif  // LIDX_BASELINES_BTREE_H_
