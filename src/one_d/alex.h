#ifndef LIDX_ONE_D_ALEX_H_
#define LIDX_ONE_D_ALEX_H_

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
#include "models/linear_model.h"

namespace lidx {

// ALEX-style adaptive learned index (Ding et al., SIGMOD 2020): the
// tutorial's representative of the *in-place* insertion strategy with a
// *dynamic* data layout (§4.2, §4.4). The defining ideas implemented here:
//
//  * Data nodes are *gapped arrays*: entries are placed where the node's
//    linear model predicts them ("model-based inserts"), leaving gaps so
//    most inserts touch O(1) slots instead of shifting half the node.
//  * Gap slots duplicate their left neighbor's key, keeping the array
//    non-decreasing so exponential search from the model prediction works
//    unmodified.
//  * Nodes adapt: a data node that exceeds its density bound is rebuilt
//    with fresh gaps (retraining its model on the new layout), and grows
//    by splitting once it reaches the maximum node size.
//
// Deviation from the paper, documented per DESIGN.md: internal nodes here
// are model-routed variable-fanout nodes (a learned boundary array with
// certified error bounds) rather than ALEX's power-of-two child-pointer
// duplication scheme. Both give O(1)-ish model routing with local
// adaptation; the variable-fanout form is considerably simpler and does
// not change the in-place/dynamic-layout behavior being studied.
//
// Taxonomy position: one-dimensional / mutable / dynamic layout / pure /
// in-place.
template <typename Key, typename Value>
class AlexIndex {
 public:
  struct Options {
    // Rebuild a data node with more gaps above this density.
    double max_density = 0.8;
    // Density right after a rebuild.
    double initial_density = 0.6;
    // Data nodes split instead of growing beyond this many slots.
    size_t max_node_slots = 8192;
    // Internal nodes split beyond this fanout.
    size_t max_fanout = 4096;
    // Leaf size targeted by bulk loading (in entries).
    size_t bulk_leaf_entries = 2048;
    // Threads for BulkLoad: the children of each internal node are
    // independent subtrees, so they build in parallel. Node structure is
    // identical to the serial build for every thread count (boundaries are
    // computed before the fan-out). 1 = fully serial.
    size_t build_threads = 1;
  };

  explicit AlexIndex(const Options& options = Options()) : options_(options) {
    root_ = new DataNode(options_);
  }

  ~AlexIndex() { FreeNode(root_); }

  AlexIndex(const AlexIndex&) = delete;
  AlexIndex& operator=(const AlexIndex&) = delete;

  // Bulk-loads sorted unique (key, value) pairs, replacing contents.
  void BulkLoad(const std::vector<Key>& keys,
                const std::vector<Value>& values) {
    LIDX_CHECK(keys.size() == values.size());
    FreeNode(root_);
    root_ = nullptr;
    size_ = keys.size();
    std::vector<Entry> entries(keys.size());
    ParallelForIndex(options_.build_threads, keys.size(), [&](size_t i) {
      LIDX_DCHECK(i == 0 || keys[i - 1] < keys[i]);
      entries[i] = {keys[i], values[i]};
    });
    root_ = BuildSubtree(entries, 0, entries.size(), options_.build_threads);
  }

  bool Insert(const Key& key, const Value& value) {
    InsertResult result = InsertRecursive(root_, key, value);
    if (result.split_node != nullptr) {
      // Root split: grow the tree by one level.
      InternalNode* new_root = new InternalNode();
      new_root->boundaries.push_back(MinKeyOf(root_));
      new_root->children.push_back(root_);
      new_root->boundaries.push_back(result.split_key);
      new_root->children.push_back(result.split_node);
      new_root->Retrain();
      root_ = new_root;
    }
    if (result.inserted) ++size_;
    return result.inserted;
  }

  std::optional<Value> Find(const Key& key) const {
    const Node* node = root_;
    while (!node->is_data) {
      const InternalNode* in = static_cast<const InternalNode*>(node);
      node = in->children[in->Route(key)];
    }
    return static_cast<const DataNode*>(node)->Find(key);
  }

  bool Contains(const Key& key) const { return Find(key).has_value(); }

  // Batched point lookups (see Rmi::LookupBatch for the contract). The
  // tree is shallow (model-routed internal nodes with fanout up to 4096),
  // so the cursor alternates two stages per node — prefetch the boundary
  // array's first binary probes, then route — and at the data node
  // prefetches the model-predicted slot of the gapped array before the
  // exponential search touches it.
  template <size_t G = 16>
  void LookupBatch(const Key* keys, size_t count, Value* out) const {
    enum Stage { kEnter, kRoute, kLeaf };
    struct Cursor {
      Key key;
      size_t idx;
      const Node* node;
      Stage stage;
    };
    InterleavedRun<G, Cursor>(
        count,
        [&](Cursor& c, size_t i) {
          c.idx = i;
          c.key = keys[i];
          c.node = root_;
          c.stage = kEnter;
        },
        [&](Cursor& c) -> bool {
          switch (c.stage) {
            case kEnter: {
              if (c.node->is_data) {
                const DataNode* leaf = static_cast<const DataNode*>(c.node);
                const size_t cap = leaf->keys_.size();
                if (cap > 0) {
                  const size_t pred = leaf->model_.PredictClamped(
                      static_cast<double>(c.key), cap);
                  LIDX_PREFETCH_READ(leaf->keys_.data() + pred);
                  LIDX_PREFETCH_READ(leaf->values_.data() + pred);
                  LIDX_PREFETCH_READ(leaf->bitmap_.data() + pred / 64);
                }
                c.stage = kLeaf;
                return false;
              }
              const InternalNode* in =
                  static_cast<const InternalNode*>(c.node);
              const Key* b = in->boundaries.data();
              const size_t m = in->boundaries.size();
              // First levels of the routing search (window or binary) land
              // near these positions.
              LIDX_PREFETCH_READ(b + m / 2);
              LIDX_PREFETCH_READ(b + m / 4);
              LIDX_PREFETCH_READ(b + (3 * m) / 4);
              c.stage = kRoute;
              return false;
            }
            case kRoute: {
              const InternalNode* in =
                  static_cast<const InternalNode*>(c.node);
              c.node = in->children[in->Route(c.key)];
              LIDX_PREFETCH_READ(&c.node->is_data);
              c.stage = kEnter;
              return false;
            }
            default: {
              const DataNode* leaf = static_cast<const DataNode*>(c.node);
              const std::optional<Value> v = leaf->Find(c.key);
              out[c.idx] = v ? *v : Value{};
              return true;
            }
          }
        });
  }

  bool Erase(const Key& key) {
    Node* node = root_;
    while (!node->is_data) {
      InternalNode* in = static_cast<InternalNode*>(node);
      node = in->children[in->Route(key)];
    }
    if (static_cast<DataNode*>(node)->Erase(key)) {
      --size_;
      return true;
    }
    return false;
  }

  void RangeScan(const Key& lo, const Key& hi,
                 std::vector<std::pair<Key, Value>>* out) const {
    RangeRecursive(root_, lo, hi, out);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t SizeBytes() const { return SizeBytesRecursive(root_); }

  int Height() const {
    int h = 1;
    const Node* n = root_;
    while (!n->is_data) {
      ++h;
      n = static_cast<const InternalNode*>(n)->children[0];
    }
    return h;
  }

  size_t NumDataNodes() const { return CountDataNodes(root_); }

  // Structural invariants (sorted gapped arrays, gapped-array density and
  // fanout bounds, boundary consistency, live-entry count vs. size());
  // aborts on violation. Test hook.
  void CheckInvariants() const {
    size_t live = 0;
    CheckRecursive(root_, nullptr, nullptr, &live);
    LIDX_INVARIANT(live == size_, "alex: live entries match size()");
  }

 private:
  struct Entry {
    Key key;
    Value value;
  };

  struct Node {
    explicit Node(bool data) : is_data(data) {}
    virtual ~Node() = default;
    const bool is_data;
  };

  // ----- Data node: model + gapped array -----

  class DataNode : public Node {
   public:
    explicit DataNode(const Options& options)
        : Node(/*data=*/true), options_(options) {
      Rebuild({});
    }

    DataNode(const Options& options, const std::vector<Entry>& entries)
        : Node(/*data=*/true), options_(options) {
      Rebuild(entries);
    }

    size_t num_entries() const { return num_entries_; }
    size_t capacity() const { return keys_.size(); }

    Key min_key() const {
      LIDX_DCHECK(num_entries_ > 0);
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (Occupied(i)) return keys_[i];
      }
      LIDX_CHECK(false);
      return Key{};
    }

    std::optional<Value> Find(const Key& key) const {
      if (num_entries_ == 0) return std::nullopt;
      const size_t slot = LowerBoundSlot(key);
      // The equal-run may start with gap copies; scan it for a live entry.
      for (size_t i = slot; i < keys_.size() && keys_[i] == key; ++i) {
        if (Occupied(i)) return values_[i];
      }
      return std::nullopt;
    }

    // Returns: 0 = inserted, 1 = updated existing, 2 = node needs split
    // (caller must split; nothing was inserted).
    int Insert(const Key& key, const Value& value) {
      const size_t cap = keys_.size();
      if (num_entries_ + 1 >
          static_cast<size_t>(options_.max_density * cap)) {
        const size_t needed_cap = static_cast<size_t>(
            static_cast<double>(num_entries_ + 1) / options_.initial_density);
        if (needed_cap <= options_.max_node_slots) {
          std::vector<Entry> entries = Drain();
          Rebuild(entries);
        } else {
          return 2;
        }
      }
      size_t slot = LowerBoundSlot(key);
      // Update in place if the key is live in the equal-run.
      for (size_t i = slot; i < keys_.size() && keys_[i] == key; ++i) {
        if (Occupied(i)) {
          values_[i] = value;
          return 1;
        }
      }
      if (slot < keys_.size() && !Occupied(slot)) {
        // Model predicted (or lower-bound found) a gap: O(1) insert.
        keys_[slot] = key;
        values_[slot] = value;
        SetOccupied(slot);
        ++num_entries_;
        return 0;
      }
      // Shift toward the nearest gap.
      const size_t gap = NearestGap(slot);
      if (gap > slot) {
        // Shift [slot, gap) one right; insert at slot.
        for (size_t i = gap; i > slot; --i) {
          keys_[i] = keys_[i - 1];
          values_[i] = values_[i - 1];
          CopyOccupied(i, i - 1);
        }
        keys_[slot] = key;
        values_[slot] = value;
        SetOccupied(slot);
      } else {
        // Shift (gap, slot) one left; insert at slot - 1.
        for (size_t i = gap; i + 1 < slot; ++i) {
          keys_[i] = keys_[i + 1];
          values_[i] = values_[i + 1];
          CopyOccupied(i, i + 1);
        }
        keys_[slot - 1] = key;
        values_[slot - 1] = value;
        SetOccupied(slot - 1);
      }
      ++num_entries_;
      return 0;
    }

    bool Erase(const Key& key) {
      if (num_entries_ == 0) return false;
      const size_t slot = LowerBoundSlot(key);
      for (size_t i = slot; i < keys_.size() && keys_[i] == key; ++i) {
        if (Occupied(i)) {
          // Leave the key in place as a gap copy: ordering is preserved.
          ClearOccupied(i);
          --num_entries_;
          return true;
        }
      }
      return false;
    }

    void Scan(const Key& lo, const Key& hi,
              std::vector<std::pair<Key, Value>>* out) const {
      if (num_entries_ == 0) return;
      for (size_t i = LowerBoundSlot(lo); i < keys_.size(); ++i) {
        if (!Occupied(i)) continue;
        if (keys_[i] > hi) return;
        out->emplace_back(keys_[i], values_[i]);
      }
    }

    // Extracts live entries in key order.
    std::vector<Entry> Drain() const {
      std::vector<Entry> entries;
      entries.reserve(num_entries_);
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (Occupied(i)) entries.push_back({keys_[i], values_[i]});
      }
      return entries;
    }

    // Lays the entries out with model-based placement into a fresh array
    // sized for `initial_density`, and retrains the model.
    void Rebuild(const std::vector<Entry>& entries) {
      const size_t n = entries.size();
      const size_t cap = std::max<size_t>(
          16, static_cast<size_t>(static_cast<double>(n) /
                                  options_.initial_density));
      keys_.assign(cap, Key{});
      values_.assign(cap, Value{});
      bitmap_.assign((cap + 63) / 64, 0);
      num_entries_ = n;
      if (n == 0) {
        model_ = LinearModel{};
        return;
      }
      // Model: key -> slot, scaled from rank so the layout follows the CDF.
      std::vector<Key> just_keys;
      just_keys.reserve(n);
      for (const Entry& e : entries) just_keys.push_back(e.key);
      LinearModel rank_model = LinearModel::FitToPositions(just_keys, 0, n);
      const double scale = static_cast<double>(cap) / static_cast<double>(n);
      model_.slope = rank_model.slope * scale;
      model_.intercept = rank_model.intercept * scale;

      // Model-based placement: each entry goes to its predicted slot,
      // pushed right past already-placed entries and pulled left just
      // enough to leave room for the entries still to come (so placement
      // always succeeds even under a badly skewed model).
      size_t next_free = 0;
      for (size_t i = 0; i < n; ++i) {
        size_t slot =
            model_.PredictClamped(static_cast<double>(entries[i].key), cap);
        if (slot < next_free) slot = next_free;
        const size_t last_feasible = cap - (n - i);
        if (slot > last_feasible) slot = last_feasible;
        keys_[slot] = entries[i].key;
        values_[slot] = entries[i].value;
        SetOccupied(slot);
        next_free = slot + 1;
      }

      // Fill gaps with their left neighbor's key (leading gaps take the
      // first real key) to keep the array non-decreasing.
      Key fill = entries[0].key;
      for (size_t i = 0; i < cap; ++i) {
        if (Occupied(i)) {
          fill = keys_[i];
        } else {
          keys_[i] = fill;
        }
      }
      // Leading gaps: already <= first key because fill started there.
    }

    size_t SizeBytes() const {
      return sizeof(*this) + keys_.capacity() * sizeof(Key) +
             values_.capacity() * sizeof(Value) +
             bitmap_.capacity() * sizeof(uint64_t);
    }

    void CheckInvariants() const {
      size_t live = 0;
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (i > 0) {
          LIDX_INVARIANT(!(keys_[i] < keys_[i - 1]),
                         "alex: gapped array non-decreasing");
        }
        if (Occupied(i)) {
          ++live;
          if (i > 0 && Occupied(i - 1)) {
            LIDX_INVARIANT(keys_[i - 1] < keys_[i],
                           "alex: live keys strictly increasing");
          }
        }
      }
      LIDX_INVARIANT(live == num_entries_,
                     "alex: occupancy bitmap matches entry count");
      // Density bound: inserts rebuild with fresh gaps (or split) before
      // exceeding max_density, so a node never runs out of gaps.
      LIDX_INVARIANT(
          num_entries_ <= static_cast<size_t>(options_.max_density *
                                              static_cast<double>(
                                                  keys_.size())) +
                              1,
          "alex: gapped-array density bound");
    }

   private:
    friend class AlexIndex;

    bool Occupied(size_t i) const {
      return (bitmap_[i / 64] >> (i % 64)) & 1;
    }
    void SetOccupied(size_t i) { bitmap_[i / 64] |= (1ull << (i % 64)); }
    void ClearOccupied(size_t i) { bitmap_[i / 64] &= ~(1ull << (i % 64)); }
    void CopyOccupied(size_t dst, size_t src) {
      if (Occupied(src)) {
        SetOccupied(dst);
      } else {
        ClearOccupied(dst);
      }
    }

    // First slot with keys_[slot] >= key, via exponential search from the
    // model prediction (the ALEX lookup path).
    size_t LowerBoundSlot(const Key& key) const {
      const size_t pred =
          model_.PredictClamped(static_cast<double>(key), keys_.size());
      return ExponentialSearchLowerBound(keys_, key, pred, 0, keys_.size());
    }

    // Nearest unoccupied slot to `slot` (left or right); prefers the closer
    // side. There is always a gap because inserts rebuild above
    // max_density < 1.
    size_t NearestGap(size_t slot) const {
      size_t left = slot;
      size_t right = slot;
      const size_t cap = keys_.size();
      while (true) {
        if (right < cap) {
          if (!Occupied(right)) return right;
          ++right;
        }
        if (left > 0) {
          --left;
          if (!Occupied(left)) return left;
        } else if (right >= cap) {
          LIDX_CHECK(false);  // No gap: density invariant violated.
        }
      }
    }

    const Options& options_;
    LinearModel model_;
    std::vector<Key> keys_;
    std::vector<Value> values_;
    std::vector<uint64_t> bitmap_;
    size_t num_entries_ = 0;
  };

  // ----- Internal node: learned boundary routing -----

  class InternalNode : public Node {
   public:
    InternalNode() : Node(/*data=*/false) {}

    // Child index for `key`: last boundary <= key.
    size_t Route(const Key& key) const {
      const size_t n = boundaries.size();
      size_t lb;
      if (trained_) {
        const size_t pred =
            model.PredictClamped(static_cast<double>(key), n);
        lb = WindowLowerBoundWithFixup(boundaries, key, pred, err_lo + 1,
                                       err_hi + 1, n);
      } else {
        lb = BinarySearchLowerBound(boundaries, key, 0, n);
      }
      if (lb < n && boundaries[lb] == key) return lb;
      return lb == 0 ? 0 : lb - 1;
    }

    void Retrain() {
      const size_t n = boundaries.size();
      if (n < 8) {
        trained_ = false;
        return;
      }
      model = LinearModel::FitToPositions(boundaries, 0, n);
      int64_t max_under = 0, max_over = 0;
      for (size_t i = 0; i < n; ++i) {
        const int64_t pred = static_cast<int64_t>(
            model.PredictClamped(static_cast<double>(boundaries[i]), n));
        const int64_t err = pred - static_cast<int64_t>(i);
        if (err > max_over) max_over = err;
        if (-err > max_under) max_under = -err;
      }
      err_lo = static_cast<size_t>(max_under);
      err_hi = static_cast<size_t>(max_over);
      trained_ = true;
      fanout_at_train_ = n;
    }

    void MaybeRetrain() {
      if (!trained_ || boundaries.size() > fanout_at_train_ * 2) Retrain();
    }

    std::vector<Key> boundaries;  // boundaries[i] = min key of children[i].
    std::vector<Node*> children;
    LinearModel model;
    size_t err_lo = 0;
    size_t err_hi = 0;
    bool trained_ = false;
    size_t fanout_at_train_ = 0;
  };

  struct InsertResult {
    bool inserted = false;
    Key split_key{};
    Node* split_node = nullptr;
  };

  Key MinKeyOf(const Node* node) const {
    while (!node->is_data) {
      node = static_cast<const InternalNode*>(node)->children[0];
    }
    return static_cast<const DataNode*>(node)->min_key();
  }

  // Builds a subtree over entries[begin, end) (bulk load). Child subtrees
  // are independent, so with threads > 1 they build in parallel; the
  // boundary array is laid out up front, which keeps the node structure
  // identical to the serial build.
  Node* BuildSubtree(const std::vector<Entry>& entries, size_t begin,
                     size_t end, size_t threads) {
    const size_t n = end - begin;
    if (n <= options_.bulk_leaf_entries) {
      std::vector<Entry> slice(entries.begin() + begin,
                               entries.begin() + end);
      return new DataNode(options_, slice);
    }
    // Fan out so each child gets about bulk_leaf_entries.
    size_t fanout = std::min(
        options_.max_fanout,
        std::max<size_t>(2, n / options_.bulk_leaf_entries));
    InternalNode* node = new InternalNode();
    const size_t per_child = (n + fanout - 1) / fanout;
    std::vector<std::pair<size_t, size_t>> ranges;
    size_t i = begin;
    while (i < end) {
      const size_t j = std::min(end, i + per_child);
      node->boundaries.push_back(entries[i].key);
      ranges.emplace_back(i, j);
      i = j;
    }
    node->children.assign(ranges.size(), nullptr);
    // Split the thread budget across children; once the fan-out exceeds it
    // each child builds serially.
    const size_t child_threads =
        ranges.size() >= threads
            ? 1
            : (threads + ranges.size() - 1) / ranges.size();
    ParallelForIndex(threads, ranges.size(), [&](size_t c) {
      node->children[c] =
          BuildSubtree(entries, ranges[c].first, ranges[c].second,
                       child_threads);
    });
    node->Retrain();
    return node;
  }

  InsertResult InsertRecursive(Node* node, const Key& key,
                               const Value& value) {
    if (node->is_data) {
      DataNode* leaf = static_cast<DataNode*>(node);
      int rc = leaf->Insert(key, value);
      if (rc == 2) {
        // Split at the median, then insert into the proper half.
        std::vector<Entry> entries = leaf->Drain();
        const size_t mid = entries.size() / 2;
        std::vector<Entry> left(entries.begin(), entries.begin() + mid);
        std::vector<Entry> right(entries.begin() + mid, entries.end());
        const Key split_key = right.front().key;
        leaf->Rebuild(left);
        DataNode* sibling = new DataNode(options_, right);
        InsertResult result;
        result.split_key = split_key;
        result.split_node = sibling;
        if (key < split_key) {
          rc = leaf->Insert(key, value);
        } else {
          rc = sibling->Insert(key, value);
        }
        LIDX_CHECK(rc != 2);
        result.inserted = (rc == 0);
        return result;
      }
      InsertResult result;
      result.inserted = (rc == 0);
      return result;
    }

    InternalNode* in = static_cast<InternalNode*>(node);
    const size_t ci = in->Route(key);
    InsertResult child_result = InsertRecursive(in->children[ci], key, value);
    // Track a new global minimum so routing stays exact.
    if (ci == 0 && key < in->boundaries[0]) {
      in->boundaries[0] = key;
      in->MaybeRetrain();
    }
    if (child_result.split_node == nullptr) return child_result;

    // Adopt the new sibling right after the split child.
    in->boundaries.insert(in->boundaries.begin() + ci + 1,
                          child_result.split_key);
    in->children.insert(in->children.begin() + ci + 1,
                        child_result.split_node);
    in->MaybeRetrain();
    child_result.split_node = nullptr;

    if (in->boundaries.size() > options_.max_fanout) {
      // Split the internal node in half.
      InternalNode* sibling = new InternalNode();
      const size_t mid = in->boundaries.size() / 2;
      sibling->boundaries.assign(in->boundaries.begin() + mid,
                                 in->boundaries.end());
      sibling->children.assign(in->children.begin() + mid,
                               in->children.end());
      in->boundaries.resize(mid);
      in->children.resize(mid);
      in->Retrain();
      sibling->Retrain();
      child_result.split_key = sibling->boundaries[0];
      child_result.split_node = sibling;
    }
    return child_result;
  }

  void RangeRecursive(const Node* node, const Key& lo, const Key& hi,
                      std::vector<std::pair<Key, Value>>* out) const {
    if (node->is_data) {
      static_cast<const DataNode*>(node)->Scan(lo, hi, out);
      return;
    }
    const InternalNode* in = static_cast<const InternalNode*>(node);
    const size_t first = in->Route(lo);
    for (size_t c = first; c < in->children.size(); ++c) {
      if (c > first && in->boundaries[c] > hi) break;
      RangeRecursive(in->children[c], lo, hi, out);
    }
  }

  void FreeNode(Node* node) {
    if (node == nullptr) return;
    if (!node->is_data) {
      InternalNode* in = static_cast<InternalNode*>(node);
      for (Node* c : in->children) FreeNode(c);
    }
    delete node;
  }

  size_t SizeBytesRecursive(const Node* node) const {
    if (node->is_data) {
      return static_cast<const DataNode*>(node)->SizeBytes();
    }
    const InternalNode* in = static_cast<const InternalNode*>(node);
    size_t total = sizeof(InternalNode) +
                   in->boundaries.capacity() * sizeof(Key) +
                   in->children.capacity() * sizeof(Node*);
    for (const Node* c : in->children) total += SizeBytesRecursive(c);
    return total;
  }

  size_t CountDataNodes(const Node* node) const {
    if (node->is_data) return 1;
    const InternalNode* in = static_cast<const InternalNode*>(node);
    size_t total = 0;
    for (const Node* c : in->children) total += CountDataNodes(c);
    return total;
  }

  void CheckRecursive(const Node* node, const Key* lo, const Key* hi,
                      size_t* live) const {
    if (node->is_data) {
      const DataNode* leaf = static_cast<const DataNode*>(node);
      leaf->CheckInvariants();
      *live += leaf->num_entries();
      if (leaf->num_entries() > 0) {
        if (lo != nullptr) {
          LIDX_INVARIANT(!(leaf->min_key() < *lo),
                         "alex: leaf min within boundary");
        }
      }
      (void)hi;
      return;
    }
    const InternalNode* in = static_cast<const InternalNode*>(node);
    LIDX_INVARIANT(!in->children.empty(), "alex: internal node non-empty");
    LIDX_INVARIANT(in->children.size() == in->boundaries.size(),
                   "alex: boundary/child parallel arrays");
    LIDX_INVARIANT(in->boundaries.size() <= options_.max_fanout,
                   "alex: fanout bound");
    for (size_t i = 1; i < in->boundaries.size(); ++i) {
      LIDX_INVARIANT(in->boundaries[i - 1] < in->boundaries[i],
                     "alex: boundaries strictly increasing");
    }
    for (size_t i = 0; i < in->children.size(); ++i) {
      const Key* child_hi =
          (i + 1 < in->boundaries.size()) ? &in->boundaries[i + 1] : hi;
      CheckRecursive(in->children[i], &in->boundaries[i], child_hi, live);
    }
  }

  Options options_;
  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace lidx

#endif  // LIDX_ONE_D_ALEX_H_
