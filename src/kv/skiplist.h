#ifndef YCSBT_KV_SKIPLIST_H_
#define YCSBT_KV_SKIPLIST_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ycsbt {
namespace kv {

/// Ordered in-memory map from string keys to values of type V, implemented
/// as a probabilistic skip list — the memtable structure of the storage
/// engine (WiredTiger, LevelDB and friends use the same shape) — plus a
/// hash index over the same nodes for point lookups (DESIGN.md §18).
///
/// Each node is one allocation: header, tower and key bytes inline.  Ordered
/// access (`Seek`, iteration, the sorted-insert cursor) walks the towers;
/// `Find` and the overwrite case of `Upsert` probe the index alone.  Fresh
/// inserts and `Erase` walk the towers for the splice points, then update
/// the index.
///
/// Not internally synchronised: each store shard guards its skip list with a
/// reader-writer lock.  Iteration order is byte-wise lexicographic, the key
/// order YCSB scans expect.
template <typename V>
class SkipList {
 public:
  SkipList()
      : rng_(0xC0FFEEull),
        head_(NewNode("", kMaxHeight, 0, V{})),
        size_(0),
        index_(kMinIndexSlots, nullptr) {}

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  ~SkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next(0);
      DeleteNode(n);
      n = next;
    }
  }

  /// Inserts `key` with `value`, or overwrites the existing value.
  /// Returns true if the key was newly inserted.
  bool Upsert(std::string_view key, V value) {
    const uint64_t hash = Hash(key);
    if (Node* node = IndexFind(key, hash)) {
      node->value = std::move(value);
      return false;
    }
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, prev);
    Node* fresh = NewNode(key, RandomHeight(), hash, std::move(value));
    for (int i = 0; i < fresh->height; ++i) {
      fresh->next(i) = prev[i]->next(i);
      prev[i]->next(i) = fresh;
    }
    IndexInsert(fresh);
    return true;
  }

  /// Looks up `key`; returns nullptr when absent.  The pointer stays valid
  /// (overwrites included) until the key is erased or the list destroyed.
  V* Find(std::string_view key) {
    Node* node = IndexFind(key, Hash(key));
    return node != nullptr ? &node->value : nullptr;
  }

  const V* Find(std::string_view key) const {
    return const_cast<SkipList*>(this)->Find(key);
  }

  /// Removes `key`; returns true if it was present.
  bool Erase(std::string_view key) {
    Node* node = IndexFind(key, Hash(key));
    if (node == nullptr) return false;
    Node* prev[kMaxHeight];
    FindGreaterOrEqual(key, prev);
    for (int i = 0; i < node->height; ++i) {
      if (prev[i]->next(i) == node) prev[i]->next(i) = node->next(i);
    }
    IndexErase(node);
    DeleteNode(node);
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Grows the point index, once, to hold `keys` keys without re-slotting.
  void ReserveIndex(size_t keys) {
    if (2 * keys > index_.size()) Regrow(std::bit_ceil(2 * keys));
  }

  /// Forward iterator positioned by `SeekToFirst`/`Seek`; the usual memtable
  /// iteration interface.  Invalidated by any mutation of the list.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }

    void SeekToFirst() { node_ = list_->head_->next(0); }

    /// Positions at the first key >= target.
    void Seek(std::string_view target) {
      node_ = const_cast<SkipList*>(list_)->FindGreaterOrEqual(target, nullptr);
    }

    void Next() {
      assert(Valid());
      node_ = node_->next(0);
    }

    /// Views the node's inline key bytes: valid until the key is erased or
    /// the list destroyed; copy it to keep it longer.
    std::string_view key() const {
      assert(Valid());
      return node_->key();
    }

    const V& value() const {
      assert(Valid());
      return node_->value;
    }

   private:
    const SkipList* list_;
    typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr unsigned kBranching = 4;
  static constexpr size_t kMinIndexSlots = 16;

  /// One allocation laid out as [Node][height tower slots][key bytes]
  /// (LevelDB's `NewNode` shape).  `sizeof(Node)` is a multiple of its
  /// alignment, which the `uint64_t` lifts to at least a pointer's, so the
  /// tower that starts right after the header is pointer-aligned.
  struct Node {
    Node(uint64_t h, uint32_t size, int levels, V v)
        : hash(h), key_size(size), height(levels), value(std::move(v)) {}

    Node*& next(int level) {
      assert(level < height);
      return reinterpret_cast<Node**>(this + 1)[level];
    }

    std::string_view key() const {
      const char* bytes = reinterpret_cast<const char*>(this + 1) +
                          sizeof(Node*) * static_cast<size_t>(height);
      return std::string_view(bytes, key_size);
    }

    uint64_t hash;  // Hash(key): the index probes on it, growth re-slots by it
    uint32_t key_size;
    int height;
    V value;
  };

  static uint64_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }

  static Node* NewNode(std::string_view key, int height, uint64_t hash, V value) {
    static_assert(alignof(Node) >= alignof(Node*), "tower slots must be aligned");
    const size_t tower = sizeof(Node*) * static_cast<size_t>(height);
    char* mem = static_cast<char*>(::operator new(sizeof(Node) + tower + key.size()));
    Node* node =
        new (mem) Node(hash, static_cast<uint32_t>(key.size()), height, std::move(value));
    for (int i = 0; i < height; ++i) {
      new (mem + sizeof(Node) + sizeof(Node*) * static_cast<size_t>(i)) Node*(nullptr);
    }
    if (!key.empty()) std::memcpy(mem + sizeof(Node) + tower, key.data(), key.size());
    return node;
  }

  static void DeleteNode(Node* node) {
    node->~Node();
    ::operator delete(node);
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rng_.Uniform(kBranching) == 0) ++height;
    return height;
  }

  /// First node with key >= target; fills `prev` (if non-null) with the
  /// rightmost node before the target at every level.
  Node* FindGreaterOrEqual(std::string_view target, Node** prev) {
    Node* x = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      while (x->next(level) != nullptr && x->next(level)->key() < target) {
        x = x->next(level);
      }
      if (prev != nullptr) prev[level] = x;
    }
    return x->next(0);
  }

  // ---- Point index: open addressing, linear probing, load <= 0.5 ---------
  // A power-of-two slot array of node pointers (null = empty).  The head is
  // never indexed, so its reserved empty key is not findable.

  Node* IndexFind(std::string_view key, uint64_t hash) const {
    const size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Node* n = index_[i];
      if (n == nullptr) return nullptr;  // load <= 0.5: an empty slot exists
      if (n->hash == hash && n->key() == key) return n;
    }
  }

  /// Adds a node not yet in the index and counts it.
  void IndexInsert(Node* node) {
    if (2 * (size_ + 1) > index_.size()) Regrow(index_.size() * 2);
    Place(node);
    ++size_;
  }

  void Regrow(size_t slots) {
    std::vector<Node*> old = std::exchange(index_, std::vector<Node*>(slots, nullptr));
    for (Node* n : old) {
      if (n != nullptr) Place(n);
    }
  }

  void Place(Node* node) {
    const size_t mask = index_.size() - 1;
    size_t i = node->hash & mask;
    while (index_[i] != nullptr) i = (i + 1) & mask;
    index_[i] = node;
  }

  /// Removes an indexed node and uncounts it.  Backward-shift deletion: each
  /// later entry of the probe run whose home slot does not lie in
  /// (hole, entry] moves back into the hole, so no tombstones are needed and
  /// every remaining key stays reachable from its home slot.
  void IndexErase(Node* node) {
    const size_t mask = index_.size() - 1;
    size_t hole = node->hash & mask;
    while (index_[hole] != node) hole = (hole + 1) & mask;
    for (size_t j = (hole + 1) & mask; index_[j] != nullptr; j = (j + 1) & mask) {
      const size_t home = index_[j]->hash & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = nullptr;
    --size_;
  }

  Random64 rng_;
  Node* head_;
  size_t size_;
  std::vector<Node*> index_;

  friend class Iterator;

 public:
  /// Ascending-order insert cursor for bulk-loading pre-sorted runs: keeps
  /// the splice frontier from the previous insert so each key resumes its
  /// search there instead of from the head — O(1) amortised per key on a
  /// sorted run versus O(log n) for `Upsert`.
  ///
  /// Keys fed to `Insert` must be strictly increasing; keys already in the
  /// list may interleave with the run freely (an equal pre-existing key is
  /// overwritten, exactly like `Upsert`).  The cursor is invalidated by any
  /// other mutation of the list.
  class SortedInserter {
   public:
    explicit SortedInserter(SkipList* list) : list_(list) {
      for (int i = 0; i < kMaxHeight; ++i) prev_[i] = list->head_;
    }

    /// Inserts `key` with `value` (overwriting on an equal key).
    /// Returns true if the key was newly inserted.
    bool Insert(std::string_view key, V value) {
      // Start loading the index slot (a random line) under the walk below.
      const uint64_t hash = Hash(key);
      __builtin_prefetch(&list_->index_[hash & (list_->index_.size() - 1)], 1);
      if (!primed_) {
        // First insert: a regular top-down descent to position the splice
        // frontier.  The per-level resume below starts each level from its
        // own stale `prev_` instead of carrying the position down from the
        // level above, so on a cursor freshly opened against a populated
        // list it would walk level 0 from the head — O(n), not O(log n).
        list_->FindGreaterOrEqual(key, prev_);
        primed_ = true;
      } else {
        // Each level resumes from its previous splice point: with ascending
        // keys, prev_[level] is always to the left of the new key, and the
        // total walk per level over a run is bounded by the nodes linked at
        // that level — O(1) amortised per insert.
        for (int level = kMaxHeight - 1; level >= 0; --level) {
          Node* x = prev_[level];
          while (x->next(level) != nullptr && x->next(level)->key() < key) {
            x = x->next(level);
          }
          prev_[level] = x;
        }
      }
      Node* node = prev_[0]->next(0);
      if (node != nullptr && node->key() == key) {
        node->value = std::move(value);
        return false;
      }
      Node* fresh = NewNode(key, list_->RandomHeight(), hash, std::move(value));
      for (int i = 0; i < fresh->height; ++i) {
        fresh->next(i) = prev_[i]->next(i);
        prev_[i]->next(i) = fresh;
        prev_[i] = fresh;
      }
      list_->IndexInsert(fresh);
      return true;
    }

   private:
    SkipList* list_;
    Node* prev_[kMaxHeight];
    bool primed_ = false;
  };
};

}  // namespace kv
}  // namespace ycsbt

#endif  // YCSBT_KV_SKIPLIST_H_
